"""Property tests for the weighted matching kernel (Lemma 2.3.2's oracle).

:class:`WeightedMatchingUtility` and the one-shot wrappers of
:mod:`repro.matching.weighted` all run
:func:`repro.matching.fastgraph.weighted_greedy`.  On hypothesis-drawn
bipartite graphs — tied values, zero-value jobs, jobs missing from
``job_values``, values for vertices outside the graph, empty and foreign
subsets, ``allowed_left=None`` — the kernel must agree with

* the brute-force optimum and networkx's edge-weighted matching (value);
* an independent matroid greedy that tests each job with Hopcroft–Karp
  (the exact accepted job set, and the value summed in acceptance order).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching.graph import BipartiteGraph
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.incremental import WeightedMatchingUtility
from repro.matching.weighted import max_weight_matching, weighted_matching_value
from tests.matching.test_weighted import brute_force_value
from tests.matching.test_weighted_vs_networkx import networkx_value

FOREIGN = ("zz", ("P9", 3))


@st.composite
def weighted_cases(draw):
    nl = draw(st.integers(min_value=0, max_value=6))
    nr = draw(st.integers(min_value=0, max_value=6))
    left = [f"x{i}" for i in range(nl)]
    right = [f"y{j}" for j in range(nr)]
    possible = [(x, y) for x in left for y in right]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    graph = BipartiteGraph(left, right, edges)
    # Few distinct values, so ties are common; 0.1-steps exercise float sums.
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 5.0]),
        st.integers(min_value=0, max_value=30).map(lambda k: k / 10),
    )
    values = {}
    for y in right:
        if draw(st.booleans()) or not draw(st.booleans()):  # 3/4 present
            values[y] = draw(value)
    if draw(st.booleans()):
        values["ghost"] = draw(value)  # a job outside the graph
    if draw(st.booleans()):
        subset = None
    else:
        subset = frozenset(draw(st.lists(st.sampled_from(left + list(FOREIGN)), unique=True))
                           if left else draw(st.lists(st.sampled_from(FOREIGN), unique=True)))
    return graph, values, subset


def reference_greedy(graph, values, allowed):
    """Matroid greedy with Hopcroft–Karp feasibility: accepted jobs in order."""
    order = sorted(graph.right, key=lambda y: (-values.get(y, 0.0), repr(y)))
    accepted = []
    for y in order:
        trial = accepted + [y]
        sub = BipartiteGraph(
            graph.left, trial,
            [(x, j) for x, j in graph.edges() if j in trial and x in allowed],
        )
        if len(hopcroft_karp(sub, allowed)) == len(trial):
            accepted = trial
    return accepted


def _allowed(graph, subset):
    return graph.left if subset is None else frozenset(subset) & graph.left


@given(weighted_cases())
@settings(max_examples=200, deadline=None)
def test_value_matches_references(case):
    graph, values, subset = case
    allowed = _allowed(graph, subset)
    full = {y: values.get(y, 0.0) for y in graph.right}
    utility = WeightedMatchingUtility(graph, values)
    got = utility.value(allowed if subset is None else subset)
    accepted = reference_greedy(graph, values, allowed)
    assert got == float(sum(full[y] for y in accepted))
    assert got == pytest.approx(brute_force_value(graph, full, allowed), abs=1e-9)
    assert got == pytest.approx(networkx_value(graph, full, allowed), abs=1e-9)
    assert weighted_matching_value(graph, values, subset) == got


@given(weighted_cases())
@settings(max_examples=200, deadline=None)
def test_best_matching_is_the_greedy_job_set(case):
    graph, values, subset = case
    allowed = _allowed(graph, subset)
    utility = WeightedMatchingUtility(graph, values)
    matching = utility.best_matching(allowed if subset is None else subset)
    matching.validate(graph)
    assert set(matching.left_to_right) <= allowed
    assert set(matching.right_to_left) == set(reference_greedy(graph, values, allowed))
    assert max_weight_matching(graph, values, subset) == matching


def test_empty_and_foreign_subsets_are_worth_zero():
    graph = BipartiteGraph(["x0", "x1"], ["a", "b"], [("x0", "a"), ("x1", "b")])
    utility = WeightedMatchingUtility(graph, {"a": 2.0, "b": 1.0})
    for subset in (frozenset(), frozenset(FOREIGN)):
        assert utility.value(subset) == 0.0
        assert len(utility.best_matching(subset)) == 0
    assert utility.value(frozenset({"x1", "zz"})) == 1.0


def test_graph_without_jobs_or_slots():
    for graph in (BipartiteGraph([], [], []), BipartiteGraph(["x"], [], []),
                  BipartiteGraph([], ["y"], [])):
        utility = WeightedMatchingUtility(graph, {})
        assert utility.value(graph.left) == 0.0
        assert weighted_matching_value(graph, {}) == 0.0
        assert len(max_weight_matching(graph, {})) == 0


@pytest.mark.parametrize("values", [{"y": -1.0}, {"y": 1.0, "ghost": -0.5}])
def test_negative_values_raise(values):
    graph = BipartiteGraph(["x"], ["y"], [("x", "y")])
    with pytest.raises(ValueError, match="non-negative"):
        WeightedMatchingUtility(graph, values)
    with pytest.raises(ValueError, match="non-negative"):
        weighted_matching_value(graph, values)
    with pytest.raises(ValueError, match="non-negative"):
        max_weight_matching(graph, values)


def test_ties_break_by_repr():
    # One slot, three equally valued jobs: the repr-smallest one wins.
    graph = BipartiteGraph(["x"], ["b", "a", "c"], [("x", "a"), ("x", "b"), ("x", "c")])
    matching = max_weight_matching(graph, {"a": 1.0, "b": 1.0, "c": 1.0})
    assert matching.right_to_left == {"a": "x"}
