"""Session checkpoint bytes pinned: ``golden_sessions.json``.

Every cell of :mod:`tests.online.generate_golden_sessions` — mid-stream
and resumed-final checkpoints and summaries for each policy × arrival
process × topology, one 3 → 5 reshard manifest per process, and the
tenant checkpoint files of a four-tenant serve — must reproduce its
committed SHA-256 exactly.
"""

import json
import os

import pytest

from tests.online import generate_golden_sessions as gen


@pytest.fixture(scope="module")
def golden():
    with open(gen.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_is_committed():
    assert os.path.exists(gen.GOLDEN_PATH)


def test_session_cells_byte_identical(golden):
    measured = gen.session_cells()
    assert set(measured) == set(golden["sessions"])
    assert len(measured) == 7 * 4 * 3
    for cell, want in golden["sessions"].items():
        assert measured[cell] == want, cell


def test_reshard_manifests_byte_identical(golden):
    assert gen.reshard_cells() == golden["reshard"]


def test_serve_tenant_checkpoints_byte_identical(golden):
    assert gen.serve_cells() == golden["serve"]
