"""Offline solver outputs pinned: ``golden_solve.json``.

Every cell of :mod:`tests.scheduling.generate_golden_solve` — schedule-all
(incremental, lazy, plain), prize-collecting (lazy, plain) and exact-value
solves, plus ``F(S)`` over a recorded probe sequence — must reproduce its
committed cost, value, pick order, greedy steps, oracle counts, matched
jobs and schedule JSON bit for bit.  The schedules must also not depend
on ``PYTHONHASHSEED``: each solver runs in fresh interpreters under three
hash seeds and must print the same schedule JSON.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from tests.scheduling import generate_golden_solve as gen


@pytest.fixture(scope="module")
def golden():
    with open(gen.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_schedule_all_cells_bit_identical(golden):
    measured = gen.schedule_all_cells()
    assert set(measured) == set(golden["schedule_all"])
    for cell, want in golden["schedule_all"].items():
        assert measured[cell] == want, cell


def test_prize_cells_bit_identical(golden):
    measured = gen.prize_cells()
    assert set(measured) == set(golden["prize"])
    for cell, want in golden["prize"].items():
        assert measured[cell] == want, cell


def test_top_up_branch_is_pinned(golden):
    assert any(cell["top_ups"] for cell in golden["prize"].values())


def test_probe_sequence_is_pinned(golden):
    assert golden["probes"]["instance"] == gen.PROBE_INSTANCE
    assert gen.record_probes() == golden["probes"]["masks"]


def test_probe_values_bit_identical(golden):
    masks = golden["probes"]["masks"]
    assert len(masks) > 100
    assert gen.probe_values(masks) == golden["probes"]["values"]


_SOLVE_SCRIPT = """
import json
from repro.io import schedule_to_dict
from repro.scheduling.prize_collecting import (
    prize_collecting_exact_value, prize_collecting_schedule)
from repro.scheduling.solver import schedule_all_jobs
from tests.scheduling.generate_golden_solve import EPSILON, TARGET_FRACTION, instance

inst = instance("m60")
target = TARGET_FRACTION * inst.total_value()
schedules = [
    schedule_all_jobs(inst).schedule,
    prize_collecting_schedule(inst, target, EPSILON, method="lazy").schedule,
    prize_collecting_schedule(inst, target, EPSILON, method="plain").schedule,
    prize_collecting_exact_value(inst, target).schedule,
]
print(json.dumps([schedule_to_dict(s) for s in schedules], sort_keys=True))
"""


def _solve_under_hash_seed(seed: int) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_schedules_do_not_depend_on_hash_seed():
    outputs = {seed: _solve_under_hash_seed(seed) for seed in (1, 2, 3)}
    assert len(set(outputs.values())) == 1, "schedule JSON differs across hash seeds"
    schedules = json.loads(outputs[1])
    assert all(s["assignment"] for s in schedules)
