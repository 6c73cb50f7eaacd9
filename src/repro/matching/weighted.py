"""Maximum vertex-weighted bipartite matching (weights on the job side).

Lemma 2.3.2 needs ``F(S) = maximum weight of a matching saturating only
slots of S``, where a matching's weight is the sum of the *values of the
jobs it saturates*.  Because weights sit on one side only, the family of
job sets matchable into ``S`` is a transversal matroid, and the matroid
greedy is exact: process jobs in non-increasing value order (ties by
``repr``) and accept a job iff an augmenting path (holding all
previously accepted jobs matched) exists.

That greedy is one kernel, :func:`repro.matching.fastgraph.weighted_greedy`,
on the graph's shared int-indexed view: one job-side Kuhn search per
job, ``O(|Y| * E)`` in the worst case, with failed searches sharing their
visited marks and an early stop once every allowed slot is matched.
:class:`~repro.matching.incremental.WeightedMatchingUtility` sorts the
jobs once and runs the kernel per query; the functions here are one-shot
wrappers over it.  Searches walk index-sorted adjacency, so the returned
matching does not depend on ``PYTHONHASHSEED``.

This gives a *certified optimal* weighted matching without implementing
a general Hungarian algorithm — and the greedy's exactness is itself a
matroid fact the property tests verify against brute force.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.matching.graph import BipartiteGraph, Matching, Vertex
from repro.matching.incremental import WeightedMatchingUtility

__all__ = ["max_weight_matching", "weighted_matching_value"]


def max_weight_matching(
    graph: BipartiteGraph,
    job_values: Mapping[Vertex, float],
    allowed_left: Optional[Iterable[Vertex]] = None,
) -> Matching:
    """Maximum job-value matching saturating only *allowed_left* slots.

    Jobs with value 0 are still scheduled when free capacity remains
    (they cannot hurt), keeping parity with the unweighted solver on
    all-equal values.  Negative job values are rejected: the paper's
    prize-collecting model has non-negative prizes.
    """
    utility = WeightedMatchingUtility(graph, job_values)
    return utility.best_matching(graph.left if allowed_left is None else allowed_left)


def weighted_matching_value(
    graph: BipartiteGraph,
    job_values: Mapping[Vertex, float],
    allowed_left: Optional[Iterable[Vertex]] = None,
) -> float:
    """``F(S)`` of Lemma 2.3.2 — the optimal scheduled job value using S."""
    utility = WeightedMatchingUtility(graph, job_values)
    return utility.value(graph.left if allowed_left is None else allowed_left)
