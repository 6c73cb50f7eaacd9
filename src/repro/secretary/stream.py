"""Random-arrival streams and the arrival-restricted value oracle.

Section 3.2.1: "the oracle answers the query regarding the efficiency of
a set S' only if all the secretaries in S' have already arrived and been
interviewed."  :class:`ArrivalOracle` enforces exactly that contract —
querying an unseen element raises :class:`repro.errors.OracleError` —
so any online algorithm written against it provably never peeks at the
future.  The offline benchmark code uses the *unrestricted* base
function to compute optima.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.kernels import IncrementalEvaluator
from repro.core.submodular import SetFunction
from repro.errors import OracleError
from repro.rng import as_generator, random_permutation

__all__ = ["SecretaryStream", "ArrivalOracle"]


class _ArrivalEvaluator(IncrementalEvaluator):
    """Kernel evaluator view that enforces the no-peeking contract.

    Every batched query is checked against the owning oracle's arrived
    set before it reaches the kernel, so online algorithms written
    against the incremental API keep the Section 3.2.1 guarantee: a
    query about a not-yet-interviewed secretary raises
    :class:`~repro.errors.OracleError` exactly as a ``value`` call
    would.
    """

    fast = True

    def __init__(self, inner: IncrementalEvaluator, owner: "ArrivalOracle"):
        self._inner = inner
        self._owner = owner
        self.fn = owner
        self.modular = inner.modular

    def _check(self, elements: Iterable[Hashable]) -> None:
        hidden = [e for e in elements if e not in self._owner._arrived]
        if hidden:
            raise OracleError(
                f"oracle queried about elements that have not arrived: "
                f"{sorted(map(repr, hidden))[:5]}"
            )

    @property
    def selection(self) -> FrozenSet[Hashable]:
        return self._inner.selection

    @property
    def current_value(self) -> float:
        return self._inner.current_value

    def reset(self, selection: Iterable[Hashable] = ()) -> None:
        selection = list(selection)
        self._check(selection)
        self._inner.reset(selection)

    def add(self, element: Hashable) -> float:
        self._check([element])
        return self._inner.add(element)

    def add_set(self, items: Iterable[Hashable]) -> float:
        items = list(items)
        self._check(items)
        return self._inner.add_set(items)

    def advance(self, element: Hashable, new_value: float) -> None:
        self._check([element])
        self._inner.advance(element, new_value)

    def gains(self, candidates: Sequence[Hashable]) -> np.ndarray:
        self._check(candidates)
        return self._inner.gains(candidates)

    def gain1(self, element: Hashable) -> float:
        self._check([element])
        return self._inner.gain1(element)

    def union_value1(self, element: Hashable) -> float:
        self._check([element])
        return self._inner.union_value1(element)

    def union_values(self, candidates: Sequence[Hashable]) -> np.ndarray:
        self._check(candidates)
        return self._inner.union_values(candidates)

    def set_gains(self, candidate_sets) -> np.ndarray:
        for a in candidate_sets:
            self._check(a)
        return self._inner.set_gains(candidate_sets)


class ArrivalOracle(SetFunction):
    """Value oracle restricted to already-arrived elements."""

    def __init__(self, base: SetFunction):
        self.base = base
        self._arrived: set = set()

    @property
    def ground_set(self) -> FrozenSet[Hashable]:
        return self.base.ground_set

    @property
    def arrived(self) -> FrozenSet[Hashable]:
        return frozenset(self._arrived)

    def reveal(self, element: Hashable) -> None:
        """Mark *element* as interviewed (called by the stream only)."""
        self._arrived.add(element)

    def reveal_many(self, elements: Iterable[Hashable]) -> None:
        """Mark a whole revealed minibatch as interviewed in one update."""
        self._arrived.update(elements)

    def value(self, subset: FrozenSet[Hashable]) -> float:
        subset = frozenset(subset)
        hidden = subset - self._arrived
        if hidden:
            raise OracleError(
                f"oracle queried about elements that have not arrived: "
                f"{sorted(map(repr, hidden))[:5]}"
            )
        return self.base.value(subset)

    def fast_evaluator(self, backend=None):
        # A kernel below gets the arrival-checked view; otherwise
        # ``None`` so the generic fallback routes through self.value,
        # which enforces the arrival restriction (and any wrapped
        # counting) per query.  ``backend`` passes through to the base.
        backend = self.resolve_backend_arg(backend)
        inner = getattr(self.base, "fast_evaluator", lambda backend=None: None)(backend)
        if inner is not None:
            return _ArrivalEvaluator(inner, self)
        return None


class SecretaryStream:
    """A uniformly random arrival order over a utility's ground set.

    Iterate to receive elements one by one; each arrival is revealed to
    the associated :class:`ArrivalOracle` before being handed to the
    algorithm.  The stream also records the arrival order so analyses
    can condition on it.
    """

    def __init__(self, utility: SetFunction, rng=None, order: Sequence[Hashable] | None = None):
        self.utility = utility
        gen = as_generator(rng)
        if order is not None:
            order = list(order)
            if frozenset(order) != utility.ground_set:
                raise OracleError("explicit order must enumerate the ground set exactly")
            self.order: List[Hashable] = order
        else:
            self.order = random_permutation(sorted(utility.ground_set, key=repr), gen)
        self.oracle = ArrivalOracle(utility)
        self._position = 0

    def __len__(self) -> int:
        return len(self.order)

    @property
    def n(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[Hashable]:
        while self._position < len(self.order):
            element = self.order[self._position]
            self._position += 1
            self.oracle.reveal(element)
            yield element

    def arrivals(self) -> Iterator[tuple[int, Hashable]]:
        """Enumerate arrivals as (0-based index, element) pairs."""
        for i, element in enumerate(self):
            yield i, element

    def peek_remaining_count(self) -> int:
        """How many elements have not arrived yet (n is public knowledge)."""
        return len(self.order) - self._position
