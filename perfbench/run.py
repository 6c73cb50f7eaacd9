"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 12 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` seconds
and prints the end-to-end metrics, with every time at the reference
host speed (see ``workloads.host_speed``; ``host_slowdown`` in the
table is how much slower the host ran); ``--trace 1`` alternates untraced and
traced repetitions and prints the per-layer metrics instead, writing the
spans to ``perfbench/out/trace-<workload>.jsonl``.  Either way the
outputs are checked outside the timed regions, a table goes to stdout,
and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every checked operation passed.

The program under test is imported from ``src/`` of the checkout; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(CHECKOUT, "BENCHMARK.json")
PINNED_JSON = os.path.join(HERE, "pinned.json")

#: The seed whose outputs ``pinned.json`` holds.
DEFAULT_SEED = 1

UNITS = {
    "setup_s": "s", "wall_s": "s", "arrivals_per_s": "1/s", "resume_s": "s",
    "checkpoint_bytes": "bytes", "peak_rss_mb": "MB", "oracle_calls": "count",
    "serve_overhead": "x", "schedule_cost": "cost", "host_slowdown": "x",
    "ops_attempted": "count", "ops_failed": "count",
}

#: Layers (and parts of layers) with no public entry point on a
#: workload's hot path, so their time is inside another span's self time.
UNMEASURED = {
    "stream": [
        "online.driver: reveal and decision logging inside OnlineRun.run "
        "(driver.run_s)",
        "online.arrivals: BurstySource construction (session.self_s)",
    ],
    "sharded": [
        "online.sharding: lane filtering in ShardSource._emit (arrivals.take_s)",
        "online.sharding: reshard_manifest partition work (sharding.reshard_s)",
    ],
    "fleet": [
        "online.serving: asyncio queue hops and task switches (serving.self_s)",
        "online.faults: no fault plan, so no fault layer",
    ],
    "solve": [
        "scheduling: the incremental greedy loop is private "
        "(_incremental_greedy, in scheduling.self_s)",
        "scheduling: candidate-pool preparation (_prepare_indexed, in "
        "scheduling.self_s)",
    ],
}


def _load_program():
    """Put the checkout's ``src/`` first on the path, or fail."""
    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _declared_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _summary(values):
    """Median, min, max and the sample count of one timing."""
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def _end_to_end(reps, rss_mb):
    """End-to-end metrics from the untraced repetitions (medians)."""
    first = reps[0]
    out = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "arrivals_per_s": statistics.median(r.arrivals / r.wall_s for r in reps),
        "resume_s": statistics.median(r.resume_s for r in reps),
        "checkpoint_bytes": float(first.checkpoint_bytes),
        "peak_rss_mb": rss_mb,
        "oracle_calls": float(first.oracle_calls),
    }
    extra = {"host_slowdown": statistics.median(r.slowdown for r in reps)}
    if "sequential_s" in first.extra:
        extra["serve_overhead"] = out["wall_s"] / first.extra["sequential_s"]
    if "schedule_cost" in first.extra:
        extra["schedule_cost"] = first.extra["schedule_cost"]
    return out, extra


def _check_outputs(workload, reps, pinned_run):
    """Determinism across repetitions, pins, and reference checks."""
    failures = []
    for i, r in enumerate(reps[1:], start=1):
        if r.digest != reps[0].digest:
            failures.append(f"{workload.name}: repetition {i} outputs differ "
                            f"from repetition 0")
    attempted = len(reps) - 1
    if pinned_run:
        with open(PINNED_JSON, encoding="utf-8") as fh:
            pinned = json.load(fh)[workload.name]
        attempted += 1
        if json.loads(json.dumps(reps[0].digest)) != pinned:
            failures.append(f"{workload.name}: outputs differ from the pinned "
                            f"outputs of seed {DEFAULT_SEED}")
    attempted += workload.reference_ops()
    failures.extend(workload.reference(reps[0]))
    return attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "sharded", "fleet", "solve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="print the output digest to pin for this seed")
    args = parser.parse_args(argv)
    _load_program()
    end_to_end, per_layer = _declared_metrics()

    import spans as tracing
    import workloads

    workload = workloads.make(args.workload, args.seed)
    untraced, traced, failures = [], [], []
    rss_mb = 0.0
    attempted = 0
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    try:
        while True:
            gc.collect()
            rep = workload.rep()
            untraced.append(rep)
            if tracer is not None:
                gc.collect()
                tracer.begin_rep()
                inst = tracing.Instrumentation(tracer, ("workloads",)).install()
                try:
                    rep = workload.rep(tracer)
                finally:
                    inst.uninstall()
                traced.append(rep)
            # Stop before a repetition that would overrun --seconds.
            elapsed = time.perf_counter() - started
            per_rep = elapsed / len(untraced)
            if (len(untraced) >= (1 if args.trace else 3)
                    and elapsed + per_rep > args.seconds):
                break
        # Peak memory of the repetitions, before the untimed checks.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps = untraced + traced
        for r in reps:
            attempted += r.ops
            failures.extend(r.failures)
        checked, more = _check_outputs(
            workload, reps, args.seed == DEFAULT_SEED)
        attempted += checked
        failures.extend(more)
    except Exception:  # a crashed workload is one failed operation
        traceback.print_exc()
        attempted += 1
        failures.append(f"{args.workload}: exception (traceback on stderr)")

    if args.pin and untraced:
        print(json.dumps(untraced[0].digest, sort_keys=True))
    for message in failures:
        print(f"FAILED: {message}")

    metrics = {}
    if untraced and not args.trace:
        e2e, extra = _end_to_end(untraced, rss_mb)
        print(f"workload {args.workload}  seed {args.seed}  "
              f"repetitions {len(untraced)}")
        print(f"  wall_s         {_summary([r.wall_s for r in untraced])}")
        print(f"  setup_s        {_summary([r.setup_s for r in untraced])}")
        print(f"  resume_s       {_summary([r.resume_s for r in untraced])}")
        table = {**e2e, **extra, "ops_attempted": attempted,
                 "ops_failed": len(failures)}
        for name, value in table.items():
            print(f"  {name:<17} {value:>16.6g} {UNITS[name]}")
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    elif traced:
        info = {
            "arrivals": statistics.fmean(r.arrivals for r in traced),
            "lane_skew": statistics.fmean(
                r.extra.get("lane_skew", 0.0) for r in traced),
            "greedy_steps": statistics.fmean(
                r.extra.get("greedy_steps", 0.0) for r in traced),
        }
        layers = tracing.layer_metrics(
            tracer, info, [r.total_s for r in untraced])
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.jsonl")
        lines = tracer.write_jsonl(path)
        print(f"workload {args.workload}  seed {args.seed}  traced "
              f"repetitions {len(traced)}  untraced {len(untraced)}  "
              f"spans -> {os.path.relpath(path, CHECKOUT)} ({lines} lines)")
        for m in per_layer:
            print(f"  {m['name']:<34} {layers[m['name']]:>14.6g} {m['unit']}")
        total = tracing.self_time_total(layers)
        print(f"  self times + untraced_s = {total:.6f} s; traced wall "
              f"{layers['trace.wall_s']:.6f} s")
        for note in UNMEASURED[args.workload]:
            print(f"  unmeasured: {note}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in per_layer}

    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
