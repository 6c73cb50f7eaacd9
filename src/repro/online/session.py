"""Self-contained online sessions: the backend of ``repro online``.

A *session* bundles a workload recipe (family, sizes, seed), the policy
it drives, and the arrival process into one resumable unit.  The recipe
travels inside the checkpoint, so ``repro online resume CHECKPOINT``
needs nothing but the file: the utility is rebuilt deterministically
from the recorded seed, the arrival source is reconstructed from its
spec and jumped straight to the saved cursor (O(selected) — no prefix
replay), and the policy state machine picks up mid-stream.

Seeds derive through :func:`repro.engine.hashing.derive_seed` — the
stream order and the algorithm's coin flips draw from independent child
seeds of the session seed, mirroring the engine adapters, and the coin
*outcomes* are baked into the policy config so resuming never replays
RNG state.
"""

from __future__ import annotations

import multiprocessing

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.oracle import CachedOracle, CountingOracle
from repro.core.submodular import SetFunction
from repro.engine.hashing import derive_seed
from repro.errors import InvalidInstanceError, strict_int, strict_str
from repro.online.arrivals import build_arrival_source, source_from_spec
from repro.online.checkpoint import (
    check_schema_version,
    make_checkpoint,
    resume_run,
)
from repro.online.driver import OnlineRun
from repro.online.policies import (
    BestSingletonPolicy,
    BottleneckPolicy,
    KnapsackSecretaryPolicy,
    OnlinePolicy,
    RobustTopKPolicy,
    SegmentedSubmodularPolicy,
    SubadditiveSegmentPolicy,
    nonmonotone_half_policy,
)
from repro.online.sharding import (
    SHARDED_CHECKPOINT_FORMAT,
    ShardCounters,
    ShardedRun,
    ShardView,
    knapsack_constraint,
    make_sharded_checkpoint,
    reshard_manifest,
    resume_sharded_run,
)
from repro.secretary.knapsack_secretary import reduce_knapsacks_to_one
from repro.workloads.secretary_streams import (
    STREAM_FAMILIES,
    knapsack_weights,
    stream_utility,
)

__all__ = [
    "RECIPE_FIELDS",
    "RECIPE_SCHEMA_VERSION",
    "SESSION_POLICIES",
    "SESSION_FAMILIES",
    "OnlineSession",
    "ShardedSession",
    "WorkloadCache",
    "WorkloadRecipe",
    "build_workload",
    "workload_key",
    "start_session",
    "resume_session",
    "start_sharded_session",
    "resume_sharded_session",
    "reshard_session",
    "resume_any_session",
]

#: Version of the embedded workload-recipe schema.  Recipes written
#: before versioning carry no marker and are accepted as version 1;
#: unknown versions are rejected up front (see
#: :func:`repro.online.checkpoint.check_schema_version`).
RECIPE_SCHEMA_VERSION = 1

SESSION_POLICIES = (
    "monotone",
    "nonmonotone",
    "classical",
    "robust",
    "bottleneck",
    "knapsack",
    "subadditive",
)
SESSION_FAMILIES = STREAM_FAMILIES

#: ``kind`` marker of an embedded recipe, and the ``instance`` keys that
#: are bookkeeping rather than recipe fields.
_RECIPE_KIND = "secretary-workload"
_INSTANCE_META = ("kind", "recipe_version", "oracle_calls_consumed")


def _strict_object(value: object, name: str) -> Dict[str, object]:
    """*value* as a fresh ``dict``, or an error naming *name*."""
    if isinstance(value, Mapping):
        return dict(value)
    raise InvalidInstanceError(f"{name} must be a JSON object, got {value!r}")


#: Boundary parser per declared field type (annotations are strings
#: under ``from __future__ import annotations``).
_PARSERS = {"int": strict_int, "str": strict_str, "Dict[str, object]": _strict_object}


@dataclass(frozen=True)
class WorkloadRecipe:
    """One instance of the online secretary experiments, typed and frozen.

    The only declaration of the recipe's fields, types and defaults;
    the field order is the key order of the checkpoint ``instance``
    block (:meth:`instance`).  Boundaries parse into it once — CLI flags
    and serve-spec tenants via :meth:`from_fields`, Python calls via
    :meth:`of`, checkpoints and manifests via :meth:`from_checkpoint` —
    and everything below reads typed attributes.
    """

    policy: str = "monotone"
    family: str = "additive"
    n: int = 60
    k: int = 4
    aux: int = 0
    n_knapsacks: int = 2
    distribution: str = "uniform"
    seed: int = 0
    process: str = "uniform"
    process_params: Dict[str, object] = field(default_factory=dict)
    shards: int = 1  # last: only sharded sessions' instance blocks record it

    @classmethod
    def from_fields(
        cls,
        values: Mapping[str, object],
        *,
        where: Callable[[str], str] = str,
        noun: str = "recipe",
        known: Sequence[str] = (),
    ) -> "WorkloadRecipe":
        """Parse recipe *values*; absent fields take their defaults.

        Counts and seeds must be non-bool ints, names strings (policy
        and family known ones), ``process_params`` an object; keys
        outside *known* (default: every field) are rejected, since a
        typoed field silently reverting to its default would change the
        stream.  Errors name the field as ``where(name)``.
        """
        known = known or RECIPE_FIELDS
        unknown = set(values).difference(known)
        if unknown:
            raise InvalidInstanceError(
                f"unknown {noun} field(s) "
                f"{', '.join(map(where, sorted(map(str, unknown))))}; "
                f"known: {sorted(known)}"
            )
        recipe = cls(**{
            name: _FIELD_PARSERS[name](value, where(name))
            for name, value in values.items()
        })
        for name, names in (("policy", SESSION_POLICIES),
                            ("family", SESSION_FAMILIES)):
            if getattr(recipe, name) not in names:
                raise InvalidInstanceError(
                    f"{where(name)}: unknown online {name} "
                    f"{getattr(recipe, name)!r}; known: {names}"
                )
        if recipe.shards < 1:
            raise InvalidInstanceError(
                f"{where('shards')} must be >= 1, got {recipe.shards}"
            )
        return recipe

    @classmethod
    def of(cls, *args: object, **values: object) -> "WorkloadRecipe":
        """The Python-call boundary: a recipe, a mapping, or its fields.

        ``of(recipe)`` is *recipe*; ``of(mapping)`` parses the mapping's
        fields (an ``instance`` block's bookkeeping keys are skipped);
        otherwise positional arguments fill ``policy, family, n, k`` and
        keywords any field.  Parsing is as strict as a spec file's.
        """
        if len(args) == 1 and not values:
            if isinstance(args[0], cls):
                return args[0]
            if isinstance(args[0], Mapping):
                return cls.from_fields({k: v for k, v in args[0].items()
                                        if k not in _INSTANCE_META})
        if len(args) > 4 or set(RECIPE_FIELDS[:len(args)]) & set(values):
            raise TypeError("recipe fields are policy, family, n, k "
                            "positionally, each at most once")
        return cls.from_fields({**dict(zip(RECIPE_FIELDS, args)), **values})

    def instance(self, oracle_calls: int, *, sharded: bool) -> Dict[str, object]:
        """The ``instance`` block a checkpoint or manifest embeds."""
        block: Dict[str, object] = {
            "kind": _RECIPE_KIND, "recipe_version": RECIPE_SCHEMA_VERSION,
        }
        for name in RECIPE_FIELDS if sharded else _PLAIN_FIELDS:
            block[name] = getattr(self, name)
        block["process_params"] = dict(self.process_params)
        block["oracle_calls_consumed"] = int(oracle_calls)
        return block

    @classmethod
    def from_checkpoint(
        cls, checkpoint: Mapping[str, object]
    ) -> Tuple["WorkloadRecipe", int]:
        """Parse a checkpoint's (or manifest's) ``instance`` block strictly.

        Returns the recipe and the oracle calls consumed before the
        suspend.  Every writer records every field, so all must be
        present (``shards`` exactly in sharded manifests); only
        ``recipe_version`` may be absent (= 1).  The recipe must name
        the stream every v2 entry recorded — its process and derived
        stream seed — or a tampered seed would rebuild another utility
        under the old stream.  Errors name ``instance.<field>``.
        """
        block = checkpoint.get("instance")
        if not isinstance(block, Mapping) or block.get("kind") != _RECIPE_KIND:
            raise InvalidInstanceError(
                "checkpoint has no embedded workload recipe; resume it through "
                "repro.online.checkpoint.resume_run with an explicit utility"
            )
        check_schema_version(
            block, "workload recipe",
            key="recipe_version", supported=RECIPE_SCHEMA_VERSION,
        )
        where = "instance.{}".format
        sharded = checkpoint.get("format") == SHARDED_CHECKPOINT_FORMAT
        recorded = RECIPE_FIELDS if sharded else _PLAIN_FIELDS
        for name in recorded + ("oracle_calls_consumed",):
            if name not in block:
                raise InvalidInstanceError(f"{where(name)} is missing")
        recipe = cls.from_fields(
            {k: v for k, v in block.items() if k not in _INSTANCE_META},
            where=where, known=recorded,
        )
        prior = strict_int(
            block["oracle_calls_consumed"], where("oracle_calls_consumed")
        )
        if prior < 0:
            raise InvalidInstanceError(
                f"{where('oracle_calls_consumed')} must be >= 0, got {prior}"
            )
        expected = {"process": recipe.process, "seed": recipe.stream_seed}
        entries = checkpoint.get("shards") if sharded else [checkpoint]
        for entry in entries if isinstance(entries, list) else ():
            source = entry.get("source") if isinstance(entry, Mapping) else None
            if not isinstance(source, Mapping) or entry.get("schema_version", 1) == 1:
                continue  # v1 entries record no source spec
            for name, want in expected.items():
                if source.get(name) != want:
                    raise InvalidInstanceError(
                        f"{where(name)} {getattr(recipe, name)!r} does not "
                        f"match the recorded stream ({name} "
                        f"{source.get(name)!r})"
                    )
        return recipe, prior

    @property
    def stream_seed(self) -> int:
        """Seed of the arrival stream (independent of the coin flips)."""
        return derive_seed(self.seed, "online-stream")


#: Recipe field names, in declaration (= ``instance`` block) order; a
#: plain session's block records no ``shards``.
RECIPE_FIELDS = tuple(f.name for f in fields(WorkloadRecipe))
_PLAIN_FIELDS = RECIPE_FIELDS[:-1]
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(WorkloadRecipe)}


def build_workload(
    recipe: Union[WorkloadRecipe, Mapping[str, object]]
) -> Tuple[SetFunction, Dict]:
    """Rebuild (utility, per-item knapsack weights) from a recipe.

    Construction goes through the same
    :func:`~repro.workloads.secretary_streams.stream_utility` dispatch
    the engine adapters use, so a recipe names the same instance a
    sweep cell with the same (family, n, aux, seed) would build.
    """
    recipe = WorkloadRecipe.of(recipe)
    gen = np.random.default_rng(recipe.seed)
    fn = stream_utility(
        recipe.family, recipe.n, aux=recipe.aux, rng=gen,
        distribution=recipe.distribution,
    )
    weights = {}
    if recipe.policy == "knapsack":
        vectors = knapsack_weights(fn.ground_set, recipe.n_knapsacks, rng=gen)
        weights = reduce_knapsacks_to_one(vectors, [1.0] * recipe.n_knapsacks)
    return fn, weights


def workload_key(recipe: Union[WorkloadRecipe, Mapping[str, object]]) -> Tuple:
    """Hashable identity of the workload *recipe* rebuilds.

    Two recipes with equal keys make :func:`build_workload` return the
    same utility (and, for knapsack policies, the same reduced weights):
    the generator is seeded by ``seed`` alone and the knapsack vectors
    are the only other draw.  Policy, arrival process, and ``k`` are
    deliberately absent — tenants that differ only there still share one
    utility instance (and one value cache) under :class:`WorkloadCache`.
    """
    recipe = WorkloadRecipe.of(recipe)
    return (
        recipe.family,
        recipe.n,
        recipe.aux,
        recipe.seed,
        recipe.distribution,
        recipe.n_knapsacks if recipe.policy == "knapsack" else None,
    )


class WorkloadCache:
    """Shared (utility, weights, value cache) across same-workload tenants.

    The serving layer hands one instance to every ``start_session`` /
    ``resume_session`` it makes: tenants whose recipes agree on
    :func:`workload_key` then share a single utility object *and* a
    single :class:`~repro.core.oracle.CachedOracle` memoising its
    values.  Each tenant still wraps the shared cache in its own
    :class:`~repro.core.oracle.CountingOracle`, so per-tenant
    ``oracle_calls`` stay bit-identical to an uncached run — caching
    changes where values come from, never how many queries are billed.
    """

    def __init__(self, max_value_entries: Optional[int] = None) -> None:
        """Create an empty cache (*max_value_entries* bounds each LRU)."""
        self._entries: Dict[Tuple, Tuple[SetFunction, Dict, CachedOracle]] = {}
        self.max_value_entries = max_value_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of distinct workloads built so far."""
        return len(self._entries)

    def lookup(
        self, recipe: Union[WorkloadRecipe, Mapping[str, object]]
    ) -> Tuple[SetFunction, Dict, CachedOracle]:
        """Return (utility, weights, shared cached oracle) for *recipe*.

        Builds the workload on first sight of its :func:`workload_key`
        and reuses it afterwards; ``hits``/``misses`` count lookups for
        the serving stats.
        """
        recipe = WorkloadRecipe.of(recipe)
        key = workload_key(recipe)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            fn, weights = build_workload(recipe)
            entry = (fn, weights, CachedOracle(fn, self.max_value_entries))
            self._entries[key] = entry
        else:
            self.hits += 1
        return entry

    def stats(self) -> Dict[str, object]:
        """Aggregate cache effectiveness counters (JSON-friendly)."""
        shared = [oracle for _, _, oracle in self._entries.values()]
        return {
            "workloads": len(self._entries),
            "lookups": self.hits + self.misses,
            "workload_hits": self.hits,
            "value_hits": sum(o.hits for o in shared),
            "value_misses": sum(o.misses for o in shared),
        }


def _workload(
    recipe: WorkloadRecipe, cache: Optional[WorkloadCache]
) -> Tuple[SetFunction, Dict, SetFunction]:
    """(utility, weights, value oracle): built afresh, or shared via *cache*."""
    if cache is None:
        fn, weights = build_workload(recipe)
        return fn, weights, fn
    return cache.lookup(recipe)


def _oracle_factory(
    counters: ShardCounters, fault_injector, fault_scope: Optional[str],
    *, sharded: bool,
):
    """Per-lane oracle factory: *counters*, optionally fault-wrapped.

    The fault wrapper sits outside the counting layer (an aborted query
    is never billed), under ``<fault_scope>#s<index>`` per shard so each
    shard sees its own deterministic fault stream.
    """
    if fault_injector is None:
        return counters
    scope = fault_scope or "session"

    def factory(index: int, view):
        """Wrap lane *index*'s counting oracle in its fault scope."""
        return fault_injector.wrap_oracle(
            counters(index, view), f"{scope}#s{index}" if sharded else scope
        )

    return factory


def _singleton_values(fn: SetFunction) -> Dict:
    return {e: fn.value(frozenset({e})) for e in sorted(fn.ground_set, key=repr)}


def _build_policy(
    recipe: WorkloadRecipe,
    fn: SetFunction,
    weights: Mapping,
    *,
    n: Optional[int] = None,
    algo_seed: Optional[int] = None,
) -> OnlinePolicy:
    """Build the recipe's policy (optionally as one shard's replica).

    *n* overrides the stream length the policy lays out against (a shard
    replica sees its shard's length, not the logical stream's); *algo_seed*
    overrides the coin-flip seed (shard replicas flip independent,
    shard-derived coins).  The defaults reproduce the unsharded session.
    """
    name, k = recipe.policy, recipe.k
    n = recipe.n if n is None else int(n)
    if algo_seed is None:
        algo_seed = derive_seed(recipe.seed, "online-algo")
    gen = np.random.default_rng(algo_seed)
    if name == "monotone":
        return SegmentedSubmodularPolicy(k)
    if name == "nonmonotone":
        return nonmonotone_half_policy(n, k, bool(gen.random() < 0.5))
    if name == "classical":
        return BestSingletonPolicy(strict=True)
    if name == "robust":
        return RobustTopKPolicy(_singleton_values(fn), k)
    if name == "bottleneck":
        return BottleneckPolicy(_singleton_values(fn), k)
    if name == "knapsack":
        return KnapsackSecretaryPolicy(weights, heads=bool(gen.random() < 0.5))
    if name == "subadditive":
        if gen.random() < 0.5:
            return BestSingletonPolicy()
        n_segments = max(1, -(-n // k))  # ceil(n / k)
        return SubadditiveSegmentPolicy(k, int(gen.integers(n_segments)))
    raise InvalidInstanceError(
        f"unknown online policy {name!r}; known: {SESSION_POLICIES}"
    )


class OnlineSession:
    """A resumable (workload, policy, arrival process) execution.

    ``prior_calls`` carries the oracle-call count consumed before the
    last suspend (persisted in the checkpoint), so a resumed session's
    reported ``oracle_calls`` is cumulative and *exactly* equal to an
    uninterrupted run's: the few re-derivation queries a policy issues
    while restoring incremental-evaluator state are measured at resume
    time and netted out of ``prior_calls`` (they re-derive values the
    uninterrupted run already paid for — billing them again would make
    every suspend/resume hop inflate the count).
    """

    def __init__(self, run: OnlineRun, base: SetFunction,
                 countings: List[CountingOracle], recipe: WorkloadRecipe,
                 prior_calls: int = 0) -> None:
        self.run = run
        self.base = base
        #: One counting oracle per lane (a plain session has one lane).
        self.countings = countings
        self.recipe = recipe
        self.prior_calls = int(prior_calls)

    def advance(self, max_arrivals: Optional[int] = None):
        """Consume up to *max_arrivals* more arrivals (None = run to completion)."""
        self.run.run(max_arrivals)
        return self

    @property
    def finished(self) -> bool:
        """Whether every arrival has been consumed or the policy is done."""
        return self.run.finished

    @property
    def oracle_calls(self) -> int:
        """Cumulative counted queries across all suspend/resume hops."""
        return self.prior_calls + sum(c.calls for c in self.countings)

    def checkpoint(self) -> Dict[str, object]:
        """Suspend-state payload with the workload recipe attached."""
        return make_checkpoint(
            self.run, extra=self.recipe.instance(self.oracle_calls, sharded=False)
        )

    def summary(self) -> Dict[str, object]:
        """Selection, value, and oracle-call accounting for the run so far."""
        out: Dict[str, object] = {
            "policy": self.recipe.policy,
            "family": self.recipe.family,
            "process": self.recipe.process,
            "n": self.run.n,
            "cursor": self.run.cursor,
            "finished": self.run.finished,
            "oracle_calls": self.oracle_calls,
        }
        if self.run.finished:
            result = self.run.result()
            selected = sorted(result.selected, key=repr)
            out["selected"] = selected
            out["n_chosen"] = len(selected)
            out["value"] = float(self.base.value(frozenset(selected)))
            out["strategy"] = getattr(result, "strategy", None)
        return out


def start_session(
    *recipe: object,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
    **fields: object,
) -> OnlineSession:
    """Build a fresh session from a recipe (see :meth:`WorkloadRecipe.of`).

    With a *workload_cache*, same-workload tenants share one utility and
    one memoising value oracle; the per-tenant counting wrapper keeps
    ``oracle_calls`` identical either way.  With a *fault_injector* (see
    :mod:`repro.online.faults`), every query passes through the
    ``oracle.value`` / ``oracle.batch`` fault sites under *fault_scope*
    (the tenant id, under the serving layer).
    """
    spec = WorkloadRecipe.of(*recipe, **fields)
    if spec.shards != 1:
        raise InvalidInstanceError(
            f"shards={spec.shards} needs start_sharded_session"
        )
    fn, weights, shared = _workload(spec, workload_cache)
    policy_obj = _build_policy(spec, fn, weights)
    source = build_arrival_source(
        spec.process, fn, spec.stream_seed, **spec.process_params
    )
    counters = ShardCounters()
    target = _oracle_factory(
        counters, fault_injector, fault_scope, sharded=False)(0, shared)
    run = OnlineRun(target, source, policy_obj)
    return OnlineSession(run, fn, counters.countings, spec)


def resume_session(
    checkpoint: Mapping[str, object],
    *,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> OnlineSession:
    """Rebuild a suspended session from its self-contained checkpoint.

    Cumulative ``oracle_calls`` accounting is exact: whatever restore
    itself bills (evaluator construction, frontier re-derivation) is
    measured right after :func:`~repro.online.checkpoint.resume_run`
    and netted out of the checkpoint's recorded prior count, so a
    suspend/resume hop never inflates the total over an uninterrupted
    run.
    """
    recipe, prior = WorkloadRecipe.from_checkpoint(checkpoint)
    fn, _, shared = _workload(recipe, workload_cache)
    counters = ShardCounters()
    target = _oracle_factory(
        counters, fault_injector, fault_scope, sharded=False)(0, shared)
    source = None
    if checkpoint.get("schema_version", 1) != 1:  # resume_run rejects bad ones
        # Rebuild the stream over the *base* utility so value-sorted
        # processes' construction queries never inflate call accounting.
        source = source_from_spec(checkpoint.get("source"), fn)
    run = resume_run(checkpoint, target, source=source)
    return OnlineSession(
        run, fn, counters.countings, recipe, prior_calls=prior - counters.calls
    )


# -- sharded sessions --------------------------------------------------------


def _shard_algo_seed(seed: int, shard_index: int, num_shards: int) -> int:
    """Coin-flip seed for one shard's policy replica.

    A single shard keeps the unsharded session's seed — that is what
    pins ``--shards 1`` bit-identical to the plain runtime; multiple
    shards flip independent, shard-derived coins.
    """
    base = derive_seed(int(seed), "online-algo")
    if num_shards == 1:
        return base
    return derive_seed(base, "shard", int(shard_index))


def _merge_rule(
    recipe: WorkloadRecipe, weights: Mapping
) -> Tuple[Optional[Callable], Optional[int]]:
    """The ``(can_take, limit)`` pair the merge stage enforces.

    Mirrors each policy's own feasibility notion: the knapsack rule's
    hires must fit the reduced unit knapsack, the classical rule hires
    one, everything else is cardinality-``k``.
    """
    if recipe.policy == "knapsack":
        return knapsack_constraint(weights), None
    if recipe.policy == "classical":
        return None, 1
    return None, recipe.k


def _lane_policies(
    recipe: WorkloadRecipe, fn: SetFunction, weights: Mapping, num_shards: int
) -> Callable[[int, object], OnlinePolicy]:
    """Policy factory for the lanes of a *num_shards*-lane session."""

    def policy_factory(index: int, lane) -> OnlinePolicy:
        """Build the policy replica for lane *index*."""
        return _build_policy(
            recipe, fn, weights,
            n=lane.n,
            algo_seed=_shard_algo_seed(recipe.seed, index, num_shards),
        )

    return policy_factory


def _finish_shard_worker(job: Tuple[WorkloadRecipe, Dict]) -> Tuple[Dict, int]:
    """Spawn-pool body: resume one shard checkpoint, run to completion.

    Workers rebuild the utility from the recipe (checkpoints pickle,
    utilities need not) and return the finished shard's checkpoint plus
    the oracle calls it consumed.
    """
    recipe, shard_ck = job
    fn, _ = build_workload(recipe)
    src = source_from_spec(shard_ck["source"], fn)
    counting = CountingOracle(ShardView(fn, src.order))
    run = resume_run(shard_ck, counting, source=src)
    # Net out what the resume itself billed (evaluator construction,
    # frontier re-derivation): the parent already accounted for those
    # values, so the worker reports only genuinely new queries and the
    # parallel finish stays call-identical to the inline one.
    restore_overhead = counting.calls
    run.run()
    return make_checkpoint(run), counting.calls - restore_overhead


class ShardedSession(OnlineSession):
    """A resumable sharded (workload, policy, arrival process) execution.

    The same contract as :class:`OnlineSession`, lifted over a
    :class:`~repro.online.sharding.ShardedRun`: one counting oracle per
    shard, cumulative ``oracle_calls`` across suspend/resume hops, a
    manifest checkpoint any subset of whose shards may be mid-stream.
    """

    def advance_shard(
        self, index: int, max_arrivals: Optional[int] = None
    ) -> "ShardedSession":
        """Advance one shard independently (see :meth:`advance`)."""
        self.run.run_shard(index, max_arrivals)
        return self

    def advance_parallel(self, workers: int) -> "ShardedSession":
        """Run every unfinished shard to completion in a spawn pool.

        Each worker resumes one shard from its checkpoint (rebuilding
        the utility from the recipe, like a cross-process resume) and
        streams it dry; the parent folds the finished states back in.
        Falls back to the inline :meth:`advance` when there is nothing
        to parallelise.
        """
        pending = [i for i, r in enumerate(self.run.runs) if not r.finished]
        if len(pending) <= 1 or workers <= 1:
            return self.advance()
        jobs = [
            (self.recipe, make_checkpoint(self.run.runs[i])) for i in pending
        ]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(int(workers), len(jobs))) as pool:
            finished = pool.map(_finish_shard_worker, jobs)
        for i, (ck, calls) in zip(pending, finished):
            self.run.runs[i].restore(ck)
            self.prior_calls += calls
        return self

    @property
    def oracle_calls(self) -> int:
        """Cumulative counted queries: all shards + merge + prior hops."""
        return super().oracle_calls + self.run.merge_calls

    def checkpoint(self) -> Dict[str, object]:
        """Suspend-state payload with the workload recipe attached."""
        return make_sharded_checkpoint(
            self.run, extra=self.recipe.instance(self.oracle_calls, sharded=True)
        )

    def summary(self) -> Dict[str, object]:
        """The plain summary plus lane cursors and, once finished, the merge."""
        out = super().summary()
        out["shards"] = self.run.num_shards
        out["cursors"] = self.run.cursors
        if self.run.finished:
            out["shard_n_chosen"] = [
                len(r.selected) for r in self.run.shard_results()
            ]
            out["merge_calls"] = self.run.merge_calls
            out["oracle_calls"] = self.oracle_calls  # includes the merge now
        return out


def start_sharded_session(
    *recipe: object,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
    **fields: object,
) -> ShardedSession:
    """Build a fresh sharded session: ``shards`` policy replicas + merge.

    Arguments as for :func:`start_session`; each shard's fault scope is
    ``<fault_scope>#s<index>``.
    """
    spec = WorkloadRecipe.of(*recipe, **fields)
    fn, weights, shared = _workload(spec, workload_cache)

    def source_factory():
        """Build one lazy view of the tenant's full arrival stream."""
        return build_arrival_source(
            spec.process, fn, spec.stream_seed, **spec.process_params
        )

    counters = ShardCounters()
    can_take, limit = _merge_rule(spec, weights)
    # Shard views (and the merge stage) delegate to the shared value
    # cache when one is in play — counting stays per shard, above it.
    run = ShardedRun.from_source(
        shared, source_factory, spec.shards,
        _lane_policies(spec, fn, weights, spec.shards),
        oracle_factory=_oracle_factory(
            counters, fault_injector, fault_scope, sharded=True),
        can_take=can_take, limit=limit,
    )
    return ShardedSession(run, fn, counters.countings, spec)


def resume_sharded_session(
    checkpoint: Mapping[str, object],
    *,
    workload_cache: Optional[WorkloadCache] = None,
    fault_injector=None,
    fault_scope: Optional[str] = None,
) -> ShardedSession:
    """Rebuild a suspended sharded session from its manifest checkpoint.

    Like :func:`resume_session`, the queries restore itself bills are
    measured per shard and netted out of the recorded prior count, so
    cumulative ``oracle_calls`` across hops matches an uninterrupted
    sharded run exactly.
    """
    recipe, prior = WorkloadRecipe.from_checkpoint(checkpoint)
    fn, weights, shared = _workload(recipe, workload_cache)
    can_take, _ = _merge_rule(recipe, weights)
    counters = ShardCounters()
    run = resume_sharded_run(
        checkpoint, shared, can_take=can_take,
        oracle_factory=_oracle_factory(
            counters, fault_injector, fault_scope, sharded=True),
    )
    return ShardedSession(
        run, fn, counters.countings, recipe, prior_calls=prior - counters.calls
    )


def reshard_session(
    checkpoint: Mapping[str, object],
    num_shards: int,
    *,
    salt: Optional[int] = None,
    workload_cache: Optional[WorkloadCache] = None,
) -> Dict[str, object]:
    """Re-partition a suspended sharded-session manifest (S → S').

    Pure manifest → manifest: the workload is rebuilt from the embedded
    recipe, lanes added by a grow are seeded with the same shard-derived
    policy replicas a fresh ``--shards S'`` session would flip, and
    :func:`~repro.online.sharding.reshard_manifest` does the partition
    work — consumed prefixes, hires, and cumulative oracle accounting
    stay exactly where they are.  The result resumes through the
    ordinary :func:`resume_sharded_session` / :func:`resume_any_session`
    path.
    """
    num_shards = int(num_shards)
    if num_shards < 1:
        raise InvalidInstanceError(f"shards must be >= 1, got {num_shards}")
    recipe, _ = WorkloadRecipe.from_checkpoint(checkpoint)
    if checkpoint.get("format") != SHARDED_CHECKPOINT_FORMAT:
        raise InvalidInstanceError(
            "only sharded session manifests can be resharded; start the "
            "run with --shards (a --shards 1 manifest counts)"
        )
    fn, weights, _ = _workload(recipe, workload_cache)
    out = reshard_manifest(
        checkpoint, num_shards, fn,
        policy_factory=_lane_policies(recipe, fn, weights, num_shards),
        salt=salt,
    )
    out["instance"]["shards"] = num_shards  # type: ignore[index]
    return out


def resume_any_session(checkpoint: Mapping[str, object], **kwargs):
    """Route a checkpoint payload to the matching resume path.

    Keywords (``workload_cache``, ``fault_injector``, ``fault_scope``)
    pass through to :func:`resume_session` / :func:`resume_sharded_session`.
    """
    sharded = checkpoint.get("format") == SHARDED_CHECKPOINT_FORMAT
    return (resume_sharded_session if sharded else resume_session)(
        checkpoint, **kwargs)
