"""Regenerate ``golden_solve.json`` — the offline-solver output pin.

Pins, on seeded :func:`~repro.workloads.jobs.random_multi_interval_instance`
instances of a few sizes and value spreads:

* :func:`~repro.scheduling.solver.schedule_all_jobs` (``incremental``,
  ``lazy``, ``plain``): cost, utility, the chosen intervals in pick
  order, every greedy step, the oracle work, the set of matched jobs and
  the SHA-256 of the full schedule JSON;
* :func:`~repro.scheduling.prize_collecting.prize_collecting_schedule`
  (``lazy``, ``plain``) and
  :func:`~repro.scheduling.prize_collecting.prize_collecting_exact_value`:
  the same fields, with ``oracle_calls`` and the top-up intervals;
* ``float.hex`` of :meth:`WeightedMatchingUtility.value` over the probe
  sequence one prize solve sends to its utility (each probe stored as a
  hex bit mask over the repr-sorted slots).

Every float is pinned as ``float.hex``, so a refactor of the matching or
scheduling layers is proven bit-identical, not merely close.  Job values
sit on a 1/8 grid (see :func:`instance`), so the pin holds on every
Python version CI runs; summation order on inexact values is covered by
``tests/matching/test_weighted_kernel.py``.  The schedule
JSON is ``json.dumps(schedule_to_dict(...), sort_keys=True)``, which must
not depend on ``PYTHONHASHSEED``.

:mod:`tests.scheduling.test_golden_solve` recomputes every cell.  Rerun
only when an *intentional* solver change lands::

    PYTHONPATH=src:. python tests/scheduling/generate_golden_solve.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from repro.io import schedule_to_dict
from repro.matching.incremental import WeightedMatchingUtility
from repro.scheduling.prize_collecting import (
    prize_collecting_exact_value,
    prize_collecting_schedule,
)
from repro.scheduling.instance import ScheduleInstance
from repro.scheduling.solver import schedule_all_jobs
from repro.workloads.jobs import random_multi_interval_instance

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_solve.json")

#: (name, n_jobs, n_processors, horizon, value_spread, rng seed words).
#: ``m60`` is the instance whose prize schedule used to follow the hash seed.
INSTANCES = (
    ("s12", 12, 3, 16, 1.0, (2010, 0)),
    ("s12v", 12, 3, 16, 8.0, (2010, 1)),
    ("m30", 30, 4, 30, 1.0, (2010, 2)),
    ("m30v", 30, 4, 30, 8.0, (2010, 3)),
    ("m60", 60, 8, 30, 1.0, (1, 2, 0)),
    ("m60v", 60, 8, 30, 8.0, (2010, 5)),
)
SCHEDULE_ALL_METHODS = ("incremental", "lazy", "plain")
PRIZE_METHODS = ("lazy", "plain")
#: ``plain`` (non-lazy) greedys take seconds at 60 jobs; pin them below.
PLAIN_MAX_JOBS = 30
TARGET_FRACTION = 0.8
EPSILON = 0.1
#: The instance whose prize-solve probes are recorded and replayed.
PROBE_INSTANCE = "m30v"


def _methods(methods, n_jobs: int):
    return [m for m in methods if m != "plain" or n_jobs <= PLAIN_MAX_JOBS]


def instance(name: str) -> ScheduleInstance:
    """The seeded instance *name*, job values rounded to a 1/8 grid.

    On the grid every sum of values is exact, so the pinned floats are
    the same under every Python version's ``sum()`` (3.12 compensates).
    """
    for key, n, procs, horizon, spread, seed in INSTANCES:
        if key == name:
            inst = random_multi_interval_instance(
                n, procs, horizon, value_spread=spread,
                rng=np.random.default_rng(list(seed)))
            jobs = [dataclasses.replace(job, value=round(job.value * 8) / 8)
                    for job in inst.jobs]
            return ScheduleInstance(inst.processors, jobs, inst.horizon, inst.cost_model)
    raise KeyError(name)


def _iv(iv) -> str:
    return f"{iv.processor}@{iv.start}-{iv.end}"


def _schedule_json(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def _greedy_fields(greedy) -> dict:
    return {
        "cost": float(greedy.cost).hex(),
        "value": float(greedy.utility).hex(),
        "chosen": [_iv(iv) for iv in greedy.chosen],
        # One line per step: interval, cost, gain, utility after, cost after.
        "steps": [
            " ".join([_iv(s.index)] + [float(x).hex() for x in (
                s.cost, s.gain, s.utility_after, s.cost_after)])
            for s in greedy.steps
        ],
    }


def _schedule_fields(schedule) -> dict:
    text = _schedule_json(schedule)
    return {
        "matched_jobs": sorted(map(str, schedule.assignment)),
        "schedule_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def schedule_all_cells() -> Dict[str, dict]:
    out = {}
    for name, n_jobs, *_ in INSTANCES:
        inst = instance(name)
        for method in _methods(SCHEDULE_ALL_METHODS, n_jobs):
            result = schedule_all_jobs(inst, method=method)
            out[f"{name}/{method}"] = {
                **_greedy_fields(result.greedy),
                "oracle_work": result.oracle_work,
                **_schedule_fields(result.schedule),
            }
    return out


def _prize_fields(result) -> dict:
    return {
        **_greedy_fields(result.greedy),
        "oracle_calls": result.oracle_calls,
        "top_ups": [_iv(iv) for iv in result.top_up_intervals],
        **_schedule_fields(result.schedule),
    }


def prize_cells() -> Dict[str, dict]:
    out = {}
    for name, n_jobs, *_ in INSTANCES:
        inst = instance(name)
        target = TARGET_FRACTION * inst.total_value()
        for method in _methods(PRIZE_METHODS, n_jobs):
            result = prize_collecting_schedule(inst, target, EPSILON, method=method)
            out[f"{name}/{method}"] = _prize_fields(result)
        out[f"{name}/exact"] = _prize_fields(
            prize_collecting_exact_value(inst, target))
    return out


@contextmanager
def recording_probes(probes: List[frozenset]):
    """Record every subset passed to :meth:`WeightedMatchingUtility.value`."""
    original = WeightedMatchingUtility.value

    def value(self, subset):
        probes.append(frozenset(subset))
        return original(self, subset)

    WeightedMatchingUtility.value = value
    try:
        yield
    finally:
        WeightedMatchingUtility.value = original


def encode_probe(order: List[object], probe: frozenset) -> str:
    """Hex bit mask of *probe* over *order* (bit ``i`` = ``order[i]``)."""
    bits = 0
    for i, slot in enumerate(order):
        if slot in probe:
            bits |= 1 << i
    return format(bits, "x")


def decode_probe(order: List[object], mask: str) -> frozenset:
    bits = int(mask, 16)
    return frozenset(slot for i, slot in enumerate(order) if bits >> i & 1)


def probe_order(inst) -> List[object]:
    return sorted(inst.bipartite_graph().left, key=repr)


def record_probes() -> List[str]:
    """The probe masks one lazy prize solve of :data:`PROBE_INSTANCE` sends."""
    inst = instance(PROBE_INSTANCE)
    probes: List[frozenset] = []
    with recording_probes(probes):
        prize_collecting_schedule(
            inst, TARGET_FRACTION * inst.total_value(), EPSILON, method="lazy")
    order = probe_order(inst)
    return [encode_probe(order, p) for p in probes]


def probe_values(masks: List[str]) -> List[str]:
    """``float.hex`` of ``F(S)`` for each recorded probe, on a fresh utility."""
    inst = instance(PROBE_INSTANCE)
    graph = inst.bipartite_graph()
    order = probe_order(inst)
    utility = WeightedMatchingUtility(graph, inst.job_values())
    return [utility.value(decode_probe(order, m)).hex() for m in masks]


def main() -> None:
    masks = record_probes()
    golden = {
        "schedule_all": schedule_all_cells(),
        "prize": prize_cells(),
        "probes": {
            "instance": PROBE_INSTANCE,
            "masks": masks,
            "values": probe_values(masks),
        },
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
