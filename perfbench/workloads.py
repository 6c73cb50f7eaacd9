"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is a closed batch job: the program pulls its own seeded
arrivals, and nothing paces it, so each reports work done per second at
a stated input size.  A workload object builds its inputs from the
benchmark seed and offers:

``rep(tracer)``
    One timed repetition.  Returns a :class:`Rep` with the timings, the
    counts, and a JSON-able ``digest`` of the outputs; the checks that
    compare outputs run after the timed region closes.
``reference(rep)``
    Correctness checks that need extra, untimed work once per run
    (suspend/resume equivalence, the schedule cost bounds).  They do not
    depend on pinned values, so they hold for every seed.

The host's speed swings by up to 2x over seconds, and every part of
the program slows together.  So an untraced repetition reads
:func:`host_speed` (a fixed loop independent of the program) right
before and after each timed block and reports the block's time at the
reference speed (:class:`HostClock`); the readings stay out of the
timed blocks.

Why each workload exists, and the numbers that motivated its size, are
in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.io as rio
import repro.online.checkpoint as checkpoint
import repro.online.serving as serving
import repro.online.session as session
import repro.scheduling.prize_collecting as prize
import repro.scheduling.solver as solver
from repro.analysis.bounds import capacity_lower_bound, schedule_cost_lower_bound
from repro.workloads.jobs import random_multi_interval_instance

perf = time.perf_counter

#: Seconds :func:`host_speed` reads when the host runs at full speed
#: (a 2-vCPU VM; 1.5-2.6x this when the host is busy).  The
#: repetitions' times are reported in seconds at this speed.
REFERENCE_SPEED_S = 0.004

_SPEED_ARRAY = np.arange(64.0)


def _speed_loop() -> float:
    # The program's own mix: interpreted control flow calling into
    # hashlib (fingerprints, shard routing) and small numpy ufuncs
    # (kernels).  A pure dict/str loop slowed more than the program
    # when the host was busy, and overcorrected.
    t0 = perf()
    h = hashlib.sha256()
    total = 0.0
    for i in range(2_000):
        h.update(i.to_bytes(8, "little"))
        h.copy().digest()
        total += float(np.maximum(_SPEED_ARRAY, i).sum())
    return perf() - t0


def host_speed(tracer=None) -> float:
    """Seconds a fixed loop takes now (median of three).

    Traced repetitions skip the reading (their times are not scaled)
    and get :data:`REFERENCE_SPEED_S`.
    """
    if tracer is not None:
        return REFERENCE_SPEED_S
    return statistics.median(_speed_loop() for _ in range(3))


def at_reference(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between two :func:`host_speed` readings, at
    the reference speed."""
    return seconds * REFERENCE_SPEED_S * 2.0 / (before + after)


class HostClock:
    """Scales timed blocks to the reference speed.

    Reads :func:`host_speed` when created and after every block; each
    block's time is scaled by the two readings around it.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.readings = [host_speed(tracer)]
        #: Unscaled seconds of every block so far.
        self.raw = 0.0

    def lap(self, seconds: float, block: Optional[float] = None) -> float:
        """*seconds* measured in the block that just ended, at the
        reference speed; *block* is the block's length when it is longer
        than *seconds* (a median of repeats inside it)."""
        self.raw += seconds if block is None else block
        self.readings.append(host_speed(self.tracer))
        return at_reference(seconds, *self.readings[-2:])

    @property
    def slowdown(self) -> float:
        """Mean reading over :data:`REFERENCE_SPEED_S` (1.0 traced)."""
        return statistics.fmean(self.readings) / REFERENCE_SPEED_S


WORKLOADS = ("stream", "sharded", "fleet", "solve")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is what the benchmark runs."""

    stream_n: int = 100_000
    stream_k: int = 512
    sharded_n: int = 10_000
    sharded_k: int = 64
    fleet_pairs: int = 60
    fleet_n: int = 500
    solve_instances: int = 4
    solve_jobs: int = 150
    solve_processors: int = 8
    solve_horizon: int = 75
    prize_jobs: int = 60
    prize_horizon: int = 30
    setup_repeats: int = 9
    resume_repeats: int = 5


FULL = Sizes()
#: Inputs small enough for the benchmark's own tests.
SMALL = Sizes(stream_n=2_000, stream_k=16, sharded_n=800, fleet_pairs=3,
              fleet_n=40, solve_instances=2, solve_jobs=30,
              solve_processors=3, solve_horizon=30, prize_jobs=20,
              prize_horizon=20, setup_repeats=2, resume_repeats=1)


@dataclass
class Rep:
    """One repetition's measurements and output digest."""

    setup_s: float
    wall_s: float
    resume_s: float
    total_s: float
    arrivals: int
    checkpoint_bytes: int
    oracle_calls: int
    digest: Dict[str, object]
    ops: int = 1
    #: Mean host_speed reading over REFERENCE_SPEED_S (1.0 traced).
    slowdown: float = 1.0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _spans(tracer):
    """(root, span) context factories; no-ops without a tracer."""
    if tracer is None:
        return (lambda tag: contextlib.nullcontext(),
                lambda name: contextlib.nullcontext())
    return tracer.root, tracer.span


def _selected(summary: Dict[str, object]) -> List[str]:
    return sorted(map(str, summary["selected"]))  # type: ignore[arg-type]


class Workload:
    """Base: a named workload over one benchmark seed."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        self.seed = int(seed)
        self.sizes = sizes

    def rep(self, tracer=None) -> Rep:
        raise NotImplementedError

    def reference(self, rep: Rep) -> List[str]:
        """Untimed checks against *rep*; returns failure messages."""
        return []

    def reference_ops(self) -> int:
        """Operations :meth:`reference` checks."""
        return 1


# -- stream -------------------------------------------------------------------


class Stream(Workload):
    """One unsharded session, suspended at n/2 and resumed from JSON."""

    name = "stream"

    def _start(self):
        return session.start_session(
            "monotone", "additive", self.sizes.stream_n, self.sizes.stream_k,
            seed=self.seed,
            process="bursty", process_params={"mean_batch": 4},
        )

    @staticmethod
    def _digest(s) -> Dict[str, object]:
        summary = s.summary()
        return {
            "selected": _selected(summary),
            "value": summary["value"],
            "oracle_calls": summary["oracle_calls"],
            "cursor": s.run.cursor,
            "fingerprint": s.run.source.fingerprint(),
        }

    def rep(self, tracer=None) -> Rep:
        root, span = _spans(tracer)
        n = self.sizes.stream_n
        clock = HostClock(tracer)
        with root(self.name):
            t0 = perf()
            s = self._start()
            setup_s = clock.lap(perf() - t0)
            t0 = perf()
            s.advance(n // 2)
            with span("checkpoint.encode"):
                text = json.dumps(s.checkpoint())
            wall_s = clock.lap(perf() - t0)
            t0 = perf()
            with span("checkpoint.restore"):
                payload = json.loads(text)
            s = session.resume_session(payload)
            resume_s = clock.lap(perf() - t0)
            t0 = perf()
            s.advance()
            digest = self._digest(s)
            wall_s += resume_s + clock.lap(perf() - t0)
        failures = [] if s.finished else ["stream: session did not finish"]
        return Rep(
            setup_s=setup_s, wall_s=wall_s, resume_s=resume_s,
            total_s=clock.raw,
            arrivals=s.run.cursor, checkpoint_bytes=len(text.encode("utf-8")),
            oracle_calls=int(digest["oracle_calls"]), digest=digest,
            slowdown=clock.slowdown, failures=failures,
        )

    def reference(self, rep: Rep) -> List[str]:
        whole = self._start()
        whole.advance()
        in_memory = self._start()
        in_memory.advance(self.sizes.stream_n // 2)
        in_memory.checkpoint()
        in_memory.advance()
        return _suspend_resume(self.name, self._digest(whole),
                               self._digest(in_memory), rep.digest)


# -- sharded ------------------------------------------------------------------


class Sharded(Workload):
    """A 4-lane session suspended at n/2, resharded to 8 lanes, resumed."""

    name = "sharded"

    def _start(self):
        return session.start_sharded_session(
            "monotone", "facility", self.sizes.sharded_n, self.sizes.sharded_k,
            shards=4,
            seed=self.seed, aux=64, process="bursty",
            process_params={"mean_batch": 4},
        )

    @staticmethod
    def _digest(s) -> Dict[str, object]:
        summary = s.summary()
        return {
            "selected": _selected(summary),
            "value": summary["value"],
            "oracle_calls": summary["oracle_calls"],
            "cursors": list(s.run.cursors),
            "fingerprints": [r.source.fingerprint() for r in s.run.runs],
        }

    def rep(self, tracer=None) -> Rep:
        root, span = _spans(tracer)
        n = self.sizes.sharded_n
        clock = HostClock(tracer)
        with root(self.name):
            t0 = perf()
            s = self._start()
            setup_s = clock.lap(perf() - t0)
            t0 = perf()
            s.advance(n // 2)
            with span("checkpoint.encode"):
                text = json.dumps(s.checkpoint())
            wall_s = clock.lap(perf() - t0)
            t0 = perf()
            with span("checkpoint.restore"):
                manifest = json.loads(text)
            manifest = session.reshard_session(manifest, 8)
            s = session.resume_sharded_session(manifest)
            resume_s = clock.lap(perf() - t0)
            t0 = perf()
            s.advance()
            digest = self._digest(s)
            wall_s += resume_s + clock.lap(perf() - t0)
        failures = []
        if not s.finished:
            failures.append("sharded: session did not finish")
        if len(digest["selected"]) > self.sizes.sharded_k:  # type: ignore[arg-type]
            failures.append("sharded: merge hired more than k")
        cursors = s.run.cursors
        return Rep(
            setup_s=setup_s, wall_s=wall_s, resume_s=resume_s,
            total_s=clock.raw,
            arrivals=s.run.cursor, checkpoint_bytes=len(text.encode("utf-8")),
            oracle_calls=int(digest["oracle_calls"]), digest=digest,
            slowdown=clock.slowdown, failures=failures,
            extra={"lane_skew": max(cursors) / statistics.fmean(cursors)},
        )

    def reference(self, rep: Rep) -> List[str]:
        # Suspend/resume equivalence on the 4-lane topology: resharding
        # changes which lane sees the suffix, so the resharded result is
        # held to the pinned values and to determinism instead.
        whole = self._start()
        whole.advance()
        in_memory = self._start()
        in_memory.advance(self.sizes.sharded_n // 2)
        resumed = session.resume_sharded_session(
            json.loads(json.dumps(in_memory.checkpoint())))
        in_memory.advance()
        resumed.advance()
        return _suspend_resume(f"{self.name} (4 lanes)", self._digest(whole),
                               self._digest(in_memory), self._digest(resumed))


def _suspend_resume(label: str, whole: Dict[str, object],
                    in_memory: Dict[str, object],
                    resumed: Dict[str, object]) -> List[str]:
    """Suspend/resume equivalence of one run suspended at n/2.

    The run resumed from its JSON checkpoint must equal the same run
    continued in memory in every output, and the uninterrupted run in
    every output but ``oracle_calls``: the suspend point can cut a
    minibatch in two, and ``observe_batch`` bills speculative tail
    scores per batch, so the split itself (with or without a
    checkpoint) may change the count.  That difference is printed.
    """
    failures = []
    if resumed != in_memory:
        failures.append(f"{label}: run resumed from its checkpoint differs "
                        f"from the run continued in memory: "
                        f"{_diff(in_memory, resumed)}")
    differs = [k for k in whole if k != "oracle_calls"
               and whole[k] != resumed[k]]
    if differs:
        failures.append(f"{label}: suspended run differs from the "
                        f"uninterrupted run in {', '.join(differs)}")
    if whole["oracle_calls"] != in_memory["oracle_calls"]:
        print(f"note: {label}: suspending at n/2 split a minibatch; oracle "
              f"calls {in_memory['oracle_calls']} against "
              f"{whole['oracle_calls']} uninterrupted")
    return failures


# -- fleet --------------------------------------------------------------------


class Fleet(Workload):
    """One ServingLoop over 126 tenants, against each tenant run alone."""

    name = "fleet"

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        super().__init__(seed, sizes)
        #: Where the per-run checkpoint root is created (and removed).
        self.out_dir = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "out")
        self.specs = self._specs()
        self._reference: Optional[Dict[str, Dict[str, object]]] = None

    def _specs(self) -> List[serving.TenantSpec]:
        n = self.sizes.fleet_n
        base = 1000 * self.seed
        specs = []
        # Pairs of uniform tenants share one workload (same recipe seed)
        # and differ in k, so the shared WorkloadCache has something to
        # share; uniform arrivals make one queue hop per arrival.
        for i in range(2 * self.sizes.fleet_pairs):
            specs.append(serving.TenantSpec(
                f"u{i:03d}", policy="monotone", family="additive", n=n,
                k=4 if i % 2 == 0 else 6, seed=base + i // 2,
                process="uniform"))
        tail = [
            dict(tenant_id="bursty", process="bursty",
                 process_params={"mean_batch": 4}),
            dict(tenant_id="knapsack", policy="knapsack"),
            dict(tenant_id="coverage", family="coverage", n=n // 2, aux=64),
            dict(tenant_id="facility", family="facility", n=n // 2, aux=32),
            dict(tenant_id="cut", policy="nonmonotone", family="cut",
                 n=max(20, n // 4)),
            dict(tenant_id="sharded", shards=4, n=4 * n),
        ]
        for j, spec in enumerate(tail):
            kwargs = dict(policy="monotone", family="additive", n=n, k=4,
                          seed=base + 500 + j, process="uniform")
            kwargs.update(spec)
            specs.append(serving.TenantSpec(kwargs.pop("tenant_id"), **kwargs))
        return specs

    def _cache(self) -> session.WorkloadCache:
        cache = session.WorkloadCache()
        for spec in self.specs:
            cache.lookup({
                "policy": spec.policy, "family": spec.family, "n": spec.n,
                "aux": spec.aux, "seed": spec.seed,
                "distribution": spec.distribution,
                "n_knapsacks": spec.n_knapsacks,
            })
        return cache

    def _sequential(self):
        cache = self._cache()
        t0 = perf()
        out = {}
        for spec in self.specs:
            s = spec.start(cache)
            s.advance()
            out[spec.tenant_id] = s.summary()
        return out, perf() - t0

    def rep(self, tracer=None) -> Rep:
        root, _ = _spans(tracer)
        extra: Dict[str, float] = {}
        if self._reference is None:
            # Each tenant alone, once per run: the results every serve
            # must reproduce, and the denominator of serve_overhead.
            clock = HostClock(tracer)
            self._reference, sequential = self._sequential()
            extra["sequential_s"] = clock.lap(sequential)
        reference = self._reference
        ck_root = os.path.join(self.out_dir, f"fleet-ck-{os.getpid()}")
        shutil.rmtree(ck_root, ignore_errors=True)
        clock = HostClock(tracer)
        try:
            with root(self.name):
                # Building the 66 workloads takes a few tens of ms:
                # build them several times, keep the median, serve with
                # the last cache.
                t0 = perf()
                setups = []
                for _ in range(self.sizes.setup_repeats):
                    ts = perf()
                    cache = self._cache()
                    setups.append(perf() - ts)
                setup_s = clock.lap(statistics.median(setups), perf() - t0)
                t0 = perf()
                report = serving.ServingLoop(
                    self.specs, checkpoint_root=ck_root, workload_cache=cache,
                ).serve()
                wall_s = clock.lap(perf() - t0)
                ck_bytes = _tree_bytes(ck_root)
                # Restoring the fleet is a few tenths of a second of file
                # reads and decoding: repeat it, keep the median.
                t0 = perf()
                resumes, restored = [], []
                for _ in range(self.sizes.resume_repeats):
                    ts = perf()
                    sessions = {
                        spec.tenant_id: session.resume_any_session(
                            checkpoint.read_tenant_checkpoint(
                                ck_root, spec.tenant_id),
                            workload_cache=cache)
                        for spec in self.specs
                    }
                    resumes.append(perf() - ts)
                    # Keep summaries, not sessions: one restored fleet
                    # is resident at a time, as in a real restore.
                    restored.append(
                        {tid: s.summary() for tid, s in sessions.items()})
                    del sessions
                resume_s = clock.lap(statistics.median(resumes), perf() - t0)
        finally:
            shutil.rmtree(ck_root, ignore_errors=True)
        failures = []
        for spec in self.specs:
            want = reference[spec.tenant_id]
            got = report["tenants"][spec.tenant_id]
            if not (got["state"] == "finished"
                    and sorted(map(str, got.get("selected", ()))) == _selected(want)
                    and got.get("value") == want["value"]
                    and got["oracle_calls"] == want["oracle_calls"]):
                failures.append(
                    f"fleet: served tenant {spec.tenant_id} ({got['state']}) "
                    f"differs from its standalone run")
            for summaries in restored:
                got = summaries[spec.tenant_id]
                if not (got["finished"] and _selected(got) == _selected(want)
                        and got["value"] == want["value"]
                        and got["oracle_calls"] == want["oracle_calls"]):
                    failures.append(
                        f"fleet: tenant {spec.tenant_id} restored from its "
                        f"checkpoint differs from its standalone run")
        totals = report["totals"]
        digest = {
            tid: [sorted(map(str, t.get("selected", ()))), t.get("value"),
                  t["oracle_calls"]]
            for tid, t in sorted(report["tenants"].items())
        }
        return Rep(
            setup_s=setup_s, wall_s=wall_s, resume_s=resume_s,
            total_s=clock.raw,
            arrivals=int(totals["arrivals"]), checkpoint_bytes=ck_bytes,
            oracle_calls=int(totals["oracle_calls"]), digest=digest,
            ops=(1 + len(restored)) * len(self.specs),
            slowdown=clock.slowdown, failures=failures,
            extra=extra,
        )

    def reference_ops(self) -> int:
        return 0


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


# -- solve --------------------------------------------------------------------


class Solve(Workload):
    """The paper's offline algorithms: schedule-all and prize-collecting.

    Each repetition solves several independent instances of each kind:
    one instance's oracle work varies by about 10% from seed to seed,
    and the sum over several varies less.
    """

    name = "solve"
    target_fraction = 0.8
    epsilon = 0.1

    def _instances(self):
        z = self.sizes
        pairs = []
        for i in range(z.solve_instances):
            pairs.append((
                random_multi_interval_instance(
                    z.solve_jobs, z.solve_processors, z.solve_horizon,
                    rng=np.random.default_rng([self.seed, 1, i])),
                random_multi_interval_instance(
                    z.prize_jobs, z.solve_processors, z.prize_horizon,
                    rng=np.random.default_rng([self.seed, 2, i])),
            ))
        return pairs

    @staticmethod
    def _reload(text: str) -> List[tuple]:
        """Parse saved (instance, schedule) pairs and re-validate them."""
        out = []
        for entry in json.loads(text):
            inst = rio.instance_from_dict(entry["instance"])
            sched = rio.schedule_from_dict(entry["schedule"])
            sched.validate(inst, require_all=entry["require_all"])
            out.append((sched.cost(inst), sched.value(inst)))
        return out

    def rep(self, tracer=None) -> Rep:
        root, span = _spans(tracer)
        repeats = self.sizes.setup_repeats
        clock = HostClock(tracer)
        with root(self.name):
            # Instance generation and the reload are tens of ms: repeat
            # each and keep the median.
            t0 = perf()
            setups = []
            for _ in range(repeats):
                ts = perf()
                pairs = self._instances()
                setups.append(perf() - ts)
            setup_s = clock.lap(statistics.median(setups), perf() - t0)
            # One timed block per instance pair, so the host speed is
            # read every few tenths of a second.
            solved = []
            wall_s = 0.0
            for inst_all, inst_prize in pairs:
                t0 = perf()
                target = self.target_fraction * inst_prize.total_value()
                solved.append((
                    solver.schedule_all_jobs(inst_all, method="incremental"),
                    prize.prize_collecting_schedule(
                        inst_prize, target, self.epsilon, method="lazy"),
                ))
                wall_s += clock.lap(perf() - t0)
            t0 = perf()
            with span("checkpoint.encode"):
                saved = []
                for (inst_all, inst_prize), (r_all, r_prize) in zip(pairs, solved):
                    for inst, result, require_all in (
                        (inst_all, r_all, True), (inst_prize, r_prize, False),
                    ):
                        saved.append({
                            "instance": rio.instance_to_dict(inst),
                            "schedule": rio.schedule_to_dict(result.schedule),
                            "require_all": require_all,
                        })
                text = json.dumps(saved)
            reloads = []
            for _ in range(repeats):
                ts = perf()
                with span("checkpoint.restore"):
                    reloaded = self._reload(text)
                reloads.append(perf() - ts)
            resume_s = clock.lap(statistics.median(reloads), perf() - t0)
        failures = self._check(pairs, solved, reloaded)
        digest = {
            "schedule_all_cost": [r.cost for r, _ in solved],
            "schedule_all_intervals": [len(r.schedule.intervals) for r, _ in solved],
            "schedule_all_oracle_work": [r.oracle_work for r, _ in solved],
            "prize_cost": [p.cost for _, p in solved],
            "prize_value": [p.value for _, p in solved],
            "prize_intervals": [len(p.schedule.intervals) for _, p in solved],
            "prize_oracle_calls": [p.oracle_calls for _, p in solved],
        }
        return Rep(
            setup_s=setup_s, wall_s=wall_s, resume_s=resume_s,
            total_s=clock.raw,
            arrivals=sum(len(r.schedule.assignment) + len(p.schedule.assignment)
                         for r, p in solved),
            checkpoint_bytes=len(text.encode("utf-8")),
            oracle_calls=sum(r.oracle_work + p.oracle_calls for r, p in solved),
            digest=digest, ops=2 * len(solved),
            slowdown=clock.slowdown, failures=failures,
            extra={
                "schedule_cost": sum(r.cost + p.cost for r, p in solved),
                "greedy_steps": sum(len(r.greedy.steps) + len(p.greedy.steps)
                                    for r, p in solved),
                "bound_all": solved[0][0].approximation_bound(),
                "bound_prize": solved[0][1].approximation_bound(),
            },
        )

    def _check(self, pairs, solved, reloaded) -> List[str]:
        failures = []
        for i, ((inst_all, inst_prize), (r_all, r_prize)) in enumerate(
            zip(pairs, solved)
        ):
            for label, inst, result, require_all, saved in (
                ("schedule_all", inst_all, r_all, True, reloaded[2 * i]),
                ("prize", inst_prize, r_prize, False, reloaded[2 * i + 1]),
            ):
                try:
                    result.schedule.validate(inst, require_all=require_all)
                except Exception as exc:  # an invalid schedule is one failed op
                    failures.append(f"solve: {label} {i} schedule invalid: {exc}")
                    continue
                if saved[0] != result.schedule.cost(inst):
                    failures.append(f"solve: reloaded {label} {i} cost differs")
            target = self.target_fraction * inst_prize.total_value()
            if r_prize.value < (1.0 - self.epsilon) * target - 1e-9:
                failures.append(
                    f"solve: prize {i} value {r_prize.value} below (1-eps)*Z")
        return failures

    def reference(self, rep: Rep) -> List[str]:
        # Cost <= approximation bound x lower bound, once per run (the
        # instances are the same in every repetition).  The capacity
        # floor is cheap and never above schedule_cost_lower_bound, so
        # passing against it passes against the larger floor too; the
        # full floor (seconds and hundreds of MB at 300 jobs) is only
        # computed when the cheap check fails.
        failures = []
        for i, pair in enumerate(self._instances()):
            for label, inst, cost, factor in (
                ("schedule_all", pair[0], rep.digest["schedule_all_cost"][i],
                 rep.extra["bound_all"]),
                ("prize", pair[1], rep.digest["prize_cost"][i],
                 rep.extra["bound_prize"]),
            ):
                if cost <= factor * capacity_lower_bound(inst) + 1e-9:
                    continue
                bound = factor * schedule_cost_lower_bound(inst)
                if cost > bound + 1e-9:
                    failures.append(
                        f"solve: {label} {i} cost {cost} exceeds approximation "
                        f"bound x lower bound = {bound}")
        return failures

    def reference_ops(self) -> int:
        return 2 * self.sizes.solve_instances


def _diff(want: Dict[str, object], got: Dict[str, object]) -> str:
    keys = [k for k in want if want.get(k) != got.get(k)]
    return "fields " + ", ".join(keys)


def make(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """The workload called *name* over *seed*."""
    classes = {"stream": Stream, "sharded": Sharded, "fleet": Fleet,
               "solve": Solve}
    return classes[name](seed, sizes)
