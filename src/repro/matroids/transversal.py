"""Transversal matroid: subsets of the left side matchable into the right.

This is the matroid the whole scheduling reduction secretly lives in
(job sets matchable into a slot set), so the implementation reuses the
matching substrate's augmenting-path machinery.  Independence of a set
``S`` is checked by building a matching that saturates all of ``S``.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Mapping

from repro.matching.fastgraph import indexed_view, weighted_greedy
from repro.matching.graph import BipartiteGraph
from repro.matroids.base import Matroid

__all__ = ["TransversalMatroid"]


class TransversalMatroid(Matroid):
    """Matroid on *elements*, independent iff matchable into *resources*.

    Parameters
    ----------
    adjacency:
        Mapping from each ground element to the iterable of resources it
        may be matched to.
    """

    def __init__(self, adjacency: Mapping[Hashable, Iterable[Hashable]]):
        self._adjacency = {k: frozenset(v) for k, v in adjacency.items()}
        self._ground = frozenset(self._adjacency)
        resources = frozenset().union(*self._adjacency.values()) if self._adjacency else frozenset()
        # Elements live on the RIGHT side of the matching substrate so we
        # can reuse the job-side greedy directly.
        self._graph = BipartiteGraph(
            left=resources,
            right=self._ground,
            edges=[(r, e) for e, rs in self._adjacency.items() for r in rs],
        )
        self._view = indexed_view(self._graph)
        self._all = bytearray(b"\x01") * self._view.n_left

    @property
    def ground_set(self) -> FrozenSet[Hashable]:
        return self._ground

    def is_independent(self, subset: Iterable[Hashable]) -> bool:
        s = frozenset(subset)
        if not s <= self._ground:
            return False
        index = self._view.right_index
        order = [index[e] for e in s]
        _, accepted = weighted_greedy(self._view, order, self._all)
        return len(accepted) == len(order)
