"""The hand-built fingerprint record encoder is byte-identical to json.

:meth:`ArrivalFingerprint.extend` builds each per-arrival record by hand
instead of calling ``json.dumps``; the chain it produces must equal the
one a per-record ``json.dumps`` reference produces, for every element
and timestamp type a stream can carry.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.arrivals import ArrivalFingerprint

HEADER = {"format": "repro-arrival-fingerprint/2", "process": "p",
          "seed": 1, "params": {}}


def _reference(batches):
    """Chain digest and count via one ``json.dumps`` per record."""
    chain = hashlib.sha256(
        json.dumps(HEADER, sort_keys=True, separators=(",", ":"),
                   allow_nan=False).encode("utf-8")
    ).hexdigest()
    count = 0
    for elements, starts, stamps in batches:
        for i, e in enumerate(elements):
            ts = None if stamps is None else stamps[i]
            record = json.dumps([repr(e), bool(starts and i == 0), ts],
                                sort_keys=True, separators=(",", ":"),
                                allow_nan=False)
            chain = hashlib.sha256((chain + record).encode("utf-8")).hexdigest()
            count += 1
    return chain, count


def _extended(batches):
    fp = ArrivalFingerprint(HEADER)
    for elements, starts, stamps in batches:
        fp.extend(elements, starts, stamps)
    return fp.digest, fp.count


def _updated(batches):
    fp = ArrivalFingerprint(HEADER)
    for elements, starts, stamps in batches:
        for i, e in enumerate(elements):
            fp.update(e, starts and i == 0, None if stamps is None else stamps[i])
    return fp.digest, fp.count


TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(
        list("ab\"\\'/\x00\x01\x1f\x7f\n\t\r é€😀 \ud800")
    ),
    max_size=8,
)
ELEMENTS = st.one_of(
    TRICKY_TEXT,
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.booleans(),
    st.tuples(st.integers(-5, 5), TRICKY_TEXT),
    st.frozensets(st.integers(-3, 3), max_size=3),
)
TIMESTAMPS = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308, -1.7e308, 1e16, 0.1]),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
)


@st.composite
def batch(draw):
    elements = draw(st.lists(ELEMENTS, max_size=6))
    stamps = (
        draw(st.lists(TIMESTAMPS, min_size=len(elements),
                      max_size=len(elements)))
        if draw(st.booleans()) else None
    )
    return elements, draw(st.booleans()), stamps


@settings(max_examples=300, deadline=None)
@given(st.lists(batch(), max_size=5))
def test_extend_matches_json_reference_and_update(batches):
    expected = _reference(batches)
    assert _extended(batches) == expected
    assert _updated(batches) == expected


@pytest.mark.parametrize("ts", [-0.0, 5e-324, 1.7e308, 3, True, False, None])
def test_edge_timestamps_match_reference(ts):
    batches = [(["x", 7], True, [ts, ts])]
    assert _extended(batches) == _reference(batches)
    assert _updated(batches) == _reference(batches)


def test_float_subclass_encodes_like_json():
    np = pytest.importorskip("numpy")
    batches = [(["a", "b"], True, [np.float64(0.1), np.float64(2.5e-7)])]
    assert _extended(batches) == _reference(batches)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_timestamps_raise_in_both_paths(bad):
    fp = ArrivalFingerprint(HEADER)
    with pytest.raises(ValueError):
        fp.extend(["a", "b"], True, [1.0, bad])
    # The failed slice left the chain untouched.
    assert (fp.digest, fp.count) == _reference([])
    with pytest.raises(ValueError):
        fp.update("a", True, bad)
    assert (fp.digest, fp.count) == _reference([])
