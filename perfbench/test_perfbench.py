"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing.process
import os
import re
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_and_workload_names_are_plain(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_names_an_end_to_end_metric_and_workload(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert set(per_layer) == set(spans.LAYER_TARGETS)
    for metric in per_layer:
        targets = spans.LAYER_TARGETS[metric]
        assert targets, metric
        for e2e, workload in targets:
            assert e2e in end_to_end, (metric, e2e)
            assert workload in names, (metric, workload)


def test_end_to_end_bounds_and_setup_metric(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


class _StartCounter:
    """Counts threads and processes started while it is installed."""

    def __init__(self, monkeypatch):
        self.started = []
        for owner, attr in ((threading.Thread, "start"),
                            (multiprocessing.process.BaseProcess, "start"),
                            (subprocess.Popen, "__init__")):
            original = getattr(owner, attr)

            def counted(obj, *args, _original=original, **kwargs):
                self.started.append(type(obj).__name__)
                return _original(obj, *args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_stays_within_nproc_and_traces_to_its_wall_time(
    name, monkeypatch, tmp_path, spec
):
    counter = _StartCounter(monkeypatch)
    workload = workloads.make(name, seed=3, sizes=workloads.SMALL)
    if name == "fleet":
        workload.out_dir = str(tmp_path)
    plain = workload.rep()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer, ("workloads",)).install()
    try:
        traced = workload.rep(tracer)
    finally:
        inst.uninstall()
    assert len(counter.started) <= (os.cpu_count() or 1), counter.started
    assert not plain.failures and not traced.failures
    assert traced.digest == plain.digest  # tracing changes no output
    assert traced.slowdown == 1.0 and plain.slowdown > 0  # only untraced scale
    assert workload.reference(plain) == []

    metrics = spans.layer_metrics(
        tracer, {"arrivals": traced.arrivals}, [plain.total_s])
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert spans.self_time_total(metrics) == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert all(r[5] for r in tracer.records)  # every span has a tag
    lines = tracer.write_jsonl(str(tmp_path / "trace.jsonl"))
    assert lines == len(tracer.records) + len(tracer.leaves)


def test_uninstall_restores_every_entry_point():
    import repro.online.arrivals as arrivals
    import repro.online.session as session

    before = (arrivals.ArrivalSource.take, session.start_session,
              session.reshard_session)
    inst = spans.Instrumentation(spans.Tracer(), ("workloads",)).install()
    assert arrivals.ArrivalSource.take is not before[0]
    assert workloads.session.start_session is not before[1]
    inst.uninstall()
    assert (arrivals.ArrivalSource.take, session.start_session,
            session.reshard_session) == before


def test_times_are_scaled_to_the_reference_host_speed():
    ref = workloads.REFERENCE_SPEED_S
    assert workloads.at_reference(2.0, ref, ref) == pytest.approx(2.0)
    # A host twice as slow on both readings halves the reported time.
    assert workloads.at_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert workloads.host_speed(spans.Tracer()) == ref
    assert workloads.host_speed() > 0
