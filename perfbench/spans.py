"""Span tracing of the ``repro`` layers, applied from outside the program.

Tracing wraps the public entry point of each layer (a class method or a
module-level function) while a traced repetition runs and restores the
originals afterwards, so untraced repetitions execute the program
unmodified.  Spans follow Dapper's model (Sigelman et al., 2010): each
has a name, a start, an end, the span that caused it, and a tag naming
the tenant or shard lane it worked for.  A span's *self time* is its
duration minus the time its child spans cover; because every span has
exactly one parent, the self times of all spans under the root plus the
root's own self time (``untraced_s``) add up to the root's duration.

Span records are kept in memory and written as JSON lines when the run
ends (those of the last traced repetition; the per-layer totals cover
every traced repetition).  Calls made once per arrival or per kernel query (fingerprint
updates, shard routing, evaluator calls, matching probes) are *leaf*
spans: they are timed and counted like the others but stored as one
aggregate record per (name, parent name, tag) instead of one record per
call, which keeps a traced run's memory bounded.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf = time.perf_counter

#: Span name -> the per-layer time metric its self time is reported under.
#: Every span name must appear here, so that the reported self times
#: partition the traced wall time.
SELF_TIME_METRIC = {
    "arrivals.take": "arrivals.take_s",
    "arrivals.fingerprint": "arrivals.fingerprint_s",
    "policies.observe": "policies.observe_s",
    "kernels.evaluator_for": "kernels.eval_s",
    "kernels.eval": "kernels.eval_s",
    "oracle.cached_value": "oracle.value_s",
    "driver.feed": "driver.feed_s",
    "driver.run": "driver.run_s",
    "sharding.assign": "sharding.route_s",
    "sharding.shard_of": "sharding.route_s",
    "sharding.reshard": "sharding.reshard_s",
    "sharding.merge": "sharding.merge_s",
    "serving.serve": "serving.self_s",
    "checkpoint.encode": "checkpoint.encode_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "checkpoint.write": "checkpoint.write_s",
    "session.build": "session.build_s",
    "session.lifecycle": "session.self_s",
    "session.lookup": "session.self_s",
    "matching.gain": "matching.gain_s",
    "matching.commit": "matching.commit_s",
    "matching.weighted": "matching.weighted_s",
    "scheduling.solve": "scheduling.self_s",
    "greedy.run": "greedy.self_s",
    "workloads.generate": "workloads.generate_s",
    "root": "untraced_s",
}

TIME_METRICS = tuple(dict.fromkeys(SELF_TIME_METRIC.values()))

#: Names that are leaf spans (aggregated, not recorded one by one).
LEAF_SPANS = frozenset({
    "arrivals.fingerprint",
    "kernels.eval",
    "oracle.cached_value",
    "sharding.assign",
    "sharding.shard_of",
    "session.lookup",
    "matching.gain",
    "matching.commit",
    "matching.weighted",
})

#: Evaluator methods wrapped on every evaluator ``evaluator_for`` returns.
EVALUATOR_METHODS = (
    "add", "add_set", "advance", "gains", "gain1", "union_value1",
    "union_values", "set_gains", "prepare", "reset",
)


class Tracer:
    """In-memory span recorder with a single-threaded span stack."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.records: List[Tuple] = []
        self.leaves: Dict[Tuple[str, str, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.outer: Dict[str, int] = defaultdict(int)
        self.tags: Dict[int, str] = {}
        self.taken: Dict[Tuple[int, int], float] = {}
        self.queue_waits: List[float] = []
        self.walls: List[float] = []
        self._next_id = 1

    # -- spans ----------------------------------------------------------

    def enter(self, name: str, tag: Optional[str] = None) -> list:
        """Open a span under the current one; returns its frame."""
        parent = self.stack[-1]
        if tag is None:
            tag = parent[4]
        span_id = 0
        if name not in LEAF_SPANS:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, perf(), 0.0, tag, parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close *frame* (the innermost open span); returns its end time."""
        end = perf()
        self.stack.pop()
        span_id, name, start, child, tag, parent = frame[:6]
        duration = end - start
        parent[3] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if span_id:
            self.records.append((span_id, name, start, end, parent[0], tag))
        else:
            if parent[1] != name:  # not nested in a span of its own name
                self.outer[name] += 1
            leaf = self.leaves[(name, parent[1], tag)]
            leaf[0] += 1
            leaf[1] += duration - child
        return end

    def begin_rep(self) -> None:
        """Drop the span records of earlier repetitions.

        Records and leaf aggregates are kept for one repetition at a
        time (the JSONL holds the last traced repetition); the totals
        behind the per-layer metrics accumulate over all of them.
        """
        self.records = []
        self.leaves.clear()

    def root(self, tag: str) -> "_Root":
        """Context manager for one traced repetition's root span."""
        return _Root(self, tag)

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def tag(self, obj: object, tag: str) -> None:
        """Attribute spans whose ``self`` is *obj* to *tag*."""
        self.tags[id(obj)] = tag

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write every span record and leaf aggregate; returns the lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, tag in self.records:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag,
                }) + "\n")
                lines += 1
            for (name, parent_name, tag), (calls, self_s) in sorted(
                self.leaves.items()
            ):
                fh.write(json.dumps({
                    "name": name, "parent_name": parent_name, "tag": tag,
                    "calls": calls, "self_s": self_s, "aggregate": True,
                }) + "\n")
                lines += 1
        return lines


class _Root:
    def __init__(self, tracer: Tracer, tag: str) -> None:
        self.tracer = tracer
        self.tag = tag

    def __enter__(self) -> "_Root":
        tr = self.tracer
        span_id = tr._next_id
        tr._next_id += 1
        # The sentinel parent absorbs the root's duration.
        sentinel = [0, "", 0.0, 0.0, self.tag, None]
        self.frame = [span_id, "root", perf(), 0.0, self.tag, sentinel]
        tr.stack.append(self.frame)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        start = self.frame[2]
        end = tr.exit(self.frame)
        tr.walls.append(end - start)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


# -- instrumentation ---------------------------------------------------------


def _traced(tr: Tracer, fn: Callable, name: str, *, tag_self: bool = False,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
    """Wrap *fn* so that every call made inside a root span is a span.

    *before(frame, args)* runs after the span opens and *after(frame,
    args, result, end)* after it closes; both collect counters at the
    boundary where the work happens.
    """

    def wrapper(*args, **kwargs):
        if not tr.stack:
            return fn(*args, **kwargs)
        tag = tr.tags.get(id(args[0])) if (tag_self and args) else None
        frame = tr.enter(name, tag)
        if before is not None:
            before(frame, args)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tr.exit(frame)
        if after is not None:
            after(frame, args, result, end)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Instrumentation:
    """Installs and removes the tracing wrappers on the ``repro`` API."""

    def __init__(self, tracer: Tracer, extra_modules: Sequence[str] = ()) -> None:
        self.tracer = tracer
        self.extra_modules = tuple(extra_modules)
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching helpers -------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str, **hooks) -> None:
        if attr not in cls.__dict__:
            return
        original = cls.__dict__[attr]
        self._set(cls, attr, _traced(self.tracer, original, name, **hooks))

    def _function(self, module: object, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function at every binding of it.

        ``from x import f`` copies the binding into the importing
        module, so each ``repro`` module (and each benchmark module)
        holding the same function object is patched.
        """
        original = getattr(module, attr)
        wrapped = _traced(self.tracer, original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
                or mod_name in self.extra_modules
            ):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- the traced entry points -------------------------------------------

    def install(self) -> "Instrumentation":
        """Wrap each layer's public entry points (see the module docs)."""
        import repro.core.budgeted as budgeted
        import repro.core.kernels as kernels
        import repro.core.lazy as lazy
        import repro.core.oracle as oracle
        import repro.io as rio
        import repro.matching.incremental as incremental
        import repro.online.arrivals as arrivals
        import repro.online.checkpoint as checkpoint
        import repro.online.driver as driver
        import repro.online.policies as policies
        import repro.online.serving as serving
        import repro.online.session as session
        import repro.online.sharding as sharding
        import repro.scheduling.prize_collecting as prize
        import repro.scheduling.solver as solver
        import repro.workloads.jobs as jobs

        tr = self.tracer
        counters = tr.counters

        # online.arrivals
        def note_take(frame, args, result, end):
            if result is not None and counters["serving.depth"]:
                tr.taken[(id(args[0]), result[0])] = end

        self._method(arrivals.ArrivalSource, "take", "arrivals.take",
                     tag_self=True, after=note_take)
        self._method(arrivals.ArrivalFingerprint, "update", "arrivals.fingerprint")

        # online.policies: every concrete observe / observe_batch
        def note_observe(frame, args):
            if frame[5][1] != "policies.observe":  # outermost observe only
                counters["policies.observe_outer"] += 1
                counters["policies.observed"] += (
                    len(args[2]) if len(args) > 2 and isinstance(args[2], list)
                    else 1
                )

        for cls in _subclasses(policies.OnlinePolicy):
            for attr in ("observe", "observe_batch"):
                self._method(cls, attr, "policies.observe", before=note_observe)

        # core.kernels / core.oracle: evaluators handed out by evaluator_for
        def wrap_evaluator(frame, args, result, end):
            for attr in EVALUATOR_METHODS:
                bound = getattr(result, attr, None)
                if callable(bound):
                    try:
                        setattr(result, attr,
                                _traced(tr, bound, "kernels.eval"))
                    except AttributeError:
                        pass

        self._function(kernels, "evaluator_for", "kernels.evaluator_for",
                       after=wrap_evaluator)

        def note_cache_before(frame, args):
            frame.append(args[0].hits)

        def note_cache_after(frame, args, result, end):
            hit = args[0].hits - frame[6]
            counters["oracle.value_hits"] += hit
            if _inside(frame, "greedy.run"):
                counters["greedy.cache_lookups"] += 1
                counters["greedy.cache_hits"] += hit

        self._method(oracle.CachedOracle, "value", "oracle.cached_value",
                     before=note_cache_before, after=note_cache_after)

        # online.driver
        def note_feed(frame, args):
            run, pos0, batch = args[0], args[1], args[2]
            taken = tr.taken.pop((id(run.source), int(pos0)), None)
            if taken is not None:
                tr.queue_waits.append(frame[2] - taken)
            counters["driver.fed"] += len(batch)

        self._method(driver.OnlineRun, "feed", "driver.feed", tag_self=True,
                     before=note_feed)
        self._method(driver.OnlineRun, "run", "driver.run", tag_self=True)

        # online.sharding
        self._method(sharding.PartitionMap, "assign", "sharding.assign")
        self._function(sharding, "shard_of", "sharding.shard_of")
        self._function(session, "reshard_session", "sharding.reshard")
        self._function(sharding, "merge_hires", "sharding.merge")

        # online.serving
        def serve_in(frame, args):
            counters["serving.depth"] += 1

        def serve_out(frame, args, result, end):
            counters["serving.depth"] -= 1

        self._method(serving.ServingLoop, "serve", "serving.serve",
                     before=serve_in, after=serve_out)

        # online.checkpoint
        for fn_module, attr in ((checkpoint, "make_checkpoint"),
                                (sharding, "make_sharded_checkpoint")):
            self._function(fn_module, attr, "checkpoint.encode")
        for fn_module, attr in ((checkpoint, "resume_run"),
                                (sharding, "resume_sharded_run"),
                                (checkpoint, "read_tenant_checkpoint")):
            self._function(fn_module, attr, "checkpoint.restore")
        self._function(checkpoint, "write_tenant_checkpoint", "checkpoint.write")

        def note_write(frame, args, result, end):
            counters["checkpoint.writes"] += 1

        self._function(rio, "dump_json_atomic", "checkpoint.write",
                       after=note_write)

        # online.session
        self._function(session, "build_workload", "session.build")
        for attr in ("start_session", "resume_session",
                     "start_sharded_session", "resume_sharded_session",
                     "resume_any_session"):
            self._function(session, attr, "session.lifecycle",
                           after=self._tag_session)

        def note_lookup_before(frame, args):
            frame.append(args[0].hits)

        def note_lookup_after(frame, args, result, end):
            counters["session.workload_hits"] += args[0].hits - frame[6]

        self._method(session.WorkloadCache, "lookup", "session.lookup",
                     before=note_lookup_before, after=note_lookup_after)

        def tenant_in(frame, args):
            frame[4] = args[0].tenant_id

        self._method(serving.TenantSpec, "start", "session.lifecycle",
                     before=tenant_in, after=self._tag_session)

        # matching
        for attr in ("gain_indices", "extension_gains"):
            self._method(incremental.IncrementalMatchingOracle, attr,
                         "matching.gain")
        self._method(incremental.IncrementalMatchingOracle, "commit_indices",
                     "matching.commit")
        for attr in ("value", "best_matching"):
            self._method(incremental.WeightedMatchingUtility, attr,
                         "matching.weighted")

        # scheduling + core.budgeted / core.lazy
        self._function(solver, "schedule_all_jobs", "scheduling.solve")
        self._function(prize, "prize_collecting_schedule", "scheduling.solve")
        self._function(budgeted, "budgeted_greedy", "greedy.run")
        self._function(lazy, "lazy_budgeted_greedy", "greedy.run")

        # repro.workloads: instance generation
        self._function(jobs, "random_multi_interval_instance",
                       "workloads.generate")
        return self

    def _tag_session(self, frame, args, result, end) -> None:
        """Tag a new session's runs and sources with its tenant / lane."""
        tr = self.tracer
        base = frame[4]
        runs = getattr(getattr(result, "run", None), "runs", None)
        if runs is None:
            pairs = [(result.run, base)]
        else:
            pairs = [(run, f"{base}/lane{i}") for i, run in enumerate(runs)]
        for run, tag in pairs:
            tr.tag(run, tag)
            source = run.source
            while source is not None:
                tr.tag(source, tag)
                source = getattr(source, "_parent", None)


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


def _inside(frame: list, name: str) -> bool:
    parent = frame[5]
    while parent is not None:
        if parent[1] == name:
            return True
        parent = parent[5]
    return False


# -- per-layer metrics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def layer_metrics(tr: Tracer, info: Dict[str, float],
                  untraced_walls: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics, per traced repetition, from the span totals.

    *info* carries what the workload itself knows per repetition
    (``arrivals``, ``lane_skew``, ``greedy_steps``, ``workload_hits``).
    """
    reps = max(1, len(tr.walls))
    calls = tr.calls

    c = tr.counters
    out: Dict[str, float] = {m: 0.0 for m in TIME_METRICS}
    for name, seconds in tr.self_s.items():
        out[SELF_TIME_METRIC[name]] += seconds / reps
    arrivals = float(info.get("arrivals", 0.0))

    def per_rep(value: float) -> float:
        return value / reps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out.update({
        "arrivals.fingerprint_calls": per_rep(calls["arrivals.fingerprint"]),
        "arrivals.fingerprints_per_arrival": ratio(
            per_rep(calls["arrivals.fingerprint"]), arrivals),
        "policies.observe_calls": per_rep(c["policies.observe_outer"]),
        "policies.arrivals_per_observe": ratio(
            c["policies.observed"], c["policies.observe_outer"]),
        "kernels.eval_calls": per_rep(tr.outer["kernels.eval"]),
        "oracle.value_calls": per_rep(calls["oracle.cached_value"]),
        "oracle.value_hit_ratio": ratio(
            c["oracle.value_hits"], calls["oracle.cached_value"]),
        "sharding.route_calls": per_rep(calls["sharding.shard_of"]),
        "sharding.routes_per_arrival": ratio(
            per_rep(calls["sharding.shard_of"]), arrivals),
        "sharding.lane_skew": float(info.get("lane_skew", 0.0)),
        "driver.feed_calls": per_rep(calls["driver.feed"]),
        "serving.steps": per_rep(calls["driver.feed"]) if calls["serving.serve"] else 0.0,
        "serving.arrivals_per_step": ratio(c["driver.fed"], calls["driver.feed"])
        if calls["serving.serve"] else 0.0,
        "serving.queue_wait_p50_s": percentile(tr.queue_waits, 50),
        "serving.queue_wait_p99_s": percentile(tr.queue_waits, 99),
        "checkpoint.writes": per_rep(c["checkpoint.writes"]),
        "session.builds": per_rep(calls["session.build"]),
        "session.workload_hits": per_rep(c["session.workload_hits"]),
        "matching.gain_calls": per_rep(tr.outer["matching.gain"]),
        "greedy.steps": float(info.get("greedy_steps", 0.0)),
        "greedy.cache_hit_ratio": ratio(
            c["greedy.cache_hits"], c["greedy.cache_lookups"]),
        "trace.wall_s": per_rep(sum(tr.walls)),
        "trace.overhead_s": (
            per_rep(sum(tr.walls)) - statistics.fmean(untraced_walls)
            if tr.walls and untraced_walls else 0.0
        ),
        "trace.spans": per_rep(sum(calls.values())),
    })
    return out


def self_time_total(metrics: Dict[str, float]) -> float:
    """Sum of every per-layer self time plus ``untraced_s``."""
    return sum(metrics[m] for m in TIME_METRICS)


ONLINE = ("stream", "sharded", "fleet")
ALL = ONLINE + ("solve",)

#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  Written down before measuring, as the reading of a traced run
#: depends on it: a change to one layer should move these pairs and
#: leave the others alone.
LAYER_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    **{m: [("arrivals_per_s", "stream"), ("wall_s", "sharded")] for m in (
        "arrivals.take_s", "arrivals.fingerprint_s",
        "arrivals.fingerprint_calls", "arrivals.fingerprints_per_arrival")},
    **{m: [("arrivals_per_s", "stream")] for m in (
        "policies.observe_s", "policies.observe_calls",
        "policies.arrivals_per_observe", "driver.run_s")},
    **{m: [("wall_s", "sharded")] for m in (
        "kernels.eval_s", "kernels.eval_calls")},
    **{m: [("arrivals_per_s", "fleet"), ("wall_s", "solve")] for m in (
        "oracle.value_s", "oracle.value_calls", "oracle.value_hit_ratio")},
    **{m: [("resume_s", "sharded"), ("setup_s", "sharded"),
           ("wall_s", "sharded")] for m in (
        "sharding.route_calls", "sharding.route_s",
        "sharding.routes_per_arrival", "sharding.reshard_s",
        "sharding.merge_s", "sharding.lane_skew")},
    **{m: [("arrivals_per_s", "fleet")] for m in (
        "driver.feed_s", "driver.feed_calls")},
    **{m: [("arrivals_per_s", "fleet"), ("wall_s", "fleet")] for m in (
        "serving.steps", "serving.arrivals_per_step",
        "serving.queue_wait_p50_s", "serving.queue_wait_p99_s",
        "serving.self_s")},
    **{m: [("resume_s", "stream")] for m in (
        "checkpoint.encode_s", "checkpoint.restore_s")},
    **{m: [("wall_s", "fleet")] for m in (
        "checkpoint.write_s", "checkpoint.writes")},
    **{m: [("setup_s", w) for w in ONLINE] + [("resume_s", "stream")]
       for m in ("session.build_s", "session.builds",
                 "session.workload_hits", "session.self_s")},
    **{m: [("wall_s", "solve")] for m in (
        "matching.gain_s", "matching.gain_calls", "matching.commit_s",
        "matching.weighted_s", "scheduling.self_s", "greedy.self_s",
        "greedy.steps", "greedy.cache_hit_ratio")},
    **{m: [("wall_s", w) for w in ALL] for m in (
        "untraced_s", "trace.wall_s", "trace.overhead_s", "trace.spans")},
    "workloads.generate_s": [("setup_s", "solve")],
}
