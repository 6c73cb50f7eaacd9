"""Prize-collecting scheduling — Theorems 2.3.1 and 2.3.3.

When not every job fits, each job carries a value ``z_i`` and we must
schedule a subset of total value at least ``Z`` as cheaply as possible.
The reduction (Section 2.3) is the weighted bipartite graph whose
utility ``F(S)`` = maximum *job-value* matching saturating only slots of
S; Lemma 2.3.2 proves it submodular, so the budgeted greedy applies.

* :func:`prize_collecting_schedule` — Theorem 2.3.1: value
  ``>= (1 - eps) Z`` at cost ``O(log(1/eps))`` times the optimum that
  reaches value Z.
* :func:`prize_collecting_exact_value` — Theorem 2.3.3: value ``>= Z``
  exactly, at cost ``O((log n + log Delta) B)`` where ``Delta`` is the
  max/min job-value ratio; implemented, per the paper, by running the
  bicriteria algorithm at ``eps`` small enough that the residual deficit
  is below ``v_min`` and then buying single intervals with positive
  marginal value (each such marginal is 0 or >= some job's value, by
  the structure established in Lemma 2.3.2's proof).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.budgeted import BudgetedInstance, budgeted_greedy
from repro.core.lazy import lazy_budgeted_greedy
from repro.core.oracle import CachedOracle, CountingOracle
from repro.core.trace import GreedyResult
from repro.errors import BudgetError, InfeasibleError
from repro.matching.incremental import WeightedMatchingUtility
from repro.scheduling.instance import ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.schedule import Schedule

__all__ = [
    "PrizeCollectingResult",
    "prize_collecting_schedule",
    "prize_collecting_exact_value",
]


@dataclass
class PrizeCollectingResult:
    """Outcome of a prize-collecting solve, with guarantee diagnostics."""

    schedule: Schedule
    greedy: GreedyResult
    target_value: float
    epsilon: float
    oracle_calls: int
    top_up_intervals: List[AwakeInterval]

    @property
    def value(self) -> float:
        return self.greedy.utility

    @property
    def cost(self) -> float:
        return self.greedy.cost

    def approximation_bound(self) -> float:
        """Proven cost bound multiplier: 2 * log2(1/eps) phases * B."""
        return 2.0 * max(1.0, math.log2(1.0 / self.epsilon))


def _prepare_weighted(
    instance: ScheduleInstance,
    candidates: Optional[Sequence[AwakeInterval]],
):
    """Slot map, costs and ``F`` of the usable finite-cost candidates."""
    pool = list(candidates) if candidates is not None else instance.candidates()
    if not pool:
        raise InfeasibleError("no candidate awake intervals available")
    slot_map = {
        iv: slots for iv, slots in instance.interval_slot_map(pool).items() if slots
    }
    costs = {iv: instance.cost_of(iv) for iv in slot_map}
    for iv in [iv for iv, c in costs.items() if math.isinf(c)]:
        del slot_map[iv]
        del costs[iv]
    if not slot_map:
        raise InfeasibleError("no finite-cost candidate interval covers any usable slot")
    utility = WeightedMatchingUtility(instance.bipartite_graph(), instance.job_values())
    return slot_map, costs, utility


def _extract(utility: WeightedMatchingUtility, greedy: GreedyResult) -> Schedule:
    matching = utility.best_matching(greedy.selection)
    assignment = {job: slot for slot, job in matching.left_to_right.items()}
    return Schedule(intervals=list(greedy.chosen), assignment=assignment)


def prize_collecting_schedule(
    instance: ScheduleInstance,
    target_value: float,
    epsilon: float,
    *,
    method: str = "lazy",
    candidates: Optional[Sequence[AwakeInterval]] = None,
) -> PrizeCollectingResult:
    """Theorem 2.3.1: schedule value >= (1-eps)Z at cost O(B log(1/eps)).

    Raises :class:`InfeasibleError` when no schedule of value
    ``target_value`` exists at all (checked against the full candidate
    pool up front, mirroring the theorem's "assuming such a schedule
    exists").
    """
    if target_value < 0:
        raise BudgetError(f"target value must be non-negative, got {target_value}")
    return _bicriteria(
        instance, _prepare_weighted(instance, candidates), target_value, epsilon, method
    )


def _bicriteria(
    instance: ScheduleInstance, prepared, target_value: float, epsilon: float, method: str
) -> PrizeCollectingResult:
    """:func:`prize_collecting_schedule` on an already prepared candidate pool."""
    slot_map, costs, utility = prepared
    all_slots: set = set()
    for slots in slot_map.values():
        all_slots |= slots
    achievable = utility.value(frozenset(all_slots))
    if achievable < target_value - 1e-9:
        raise InfeasibleError(
            f"no schedule achieves value {target_value}: maximum achievable with "
            f"all candidate intervals is {achievable}"
        )

    if target_value == 0:
        empty = GreedyResult(
            chosen=[], selection=frozenset(), utility=0.0, cost=0.0,
            target=0.0, epsilon=epsilon, steps=[],
        )
        return PrizeCollectingResult(
            schedule=Schedule(), greedy=empty, target_value=0.0,
            epsilon=epsilon, oracle_calls=0, top_up_intervals=[],
        )

    counting = CountingOracle(CachedOracle(utility))
    budgeted = BudgetedInstance(utility=counting, subsets=slot_map, costs=costs)
    runner = lazy_budgeted_greedy if method == "lazy" else budgeted_greedy
    greedy = runner(budgeted, target=float(target_value), epsilon=float(epsilon))

    schedule = _extract(utility, greedy)
    schedule.validate(instance)
    return PrizeCollectingResult(
        schedule=schedule,
        greedy=greedy,
        target_value=float(target_value),
        epsilon=float(epsilon),
        oracle_calls=counting.calls,
        top_up_intervals=[],
    )


def prize_collecting_exact_value(
    instance: ScheduleInstance,
    target_value: float,
    *,
    method: str = "lazy",
    candidates: Optional[Sequence[AwakeInterval]] = None,
) -> PrizeCollectingResult:
    """Theorem 2.3.3: schedule value >= Z at cost O((log n + log Delta) B).

    Follows the paper's proof: run the bicriteria algorithm with
    ``eps = v_min / (n * v_max)`` — then the residual deficit
    ``eps * Z <= v_min`` — and close the gap by buying, among intervals
    whose marginal value is positive (hence >= v_min by the value
    structure of Lemma 2.3.2), one of minimum cost; repeat until the
    threshold is met (one purchase suffices in theory; the loop guards
    against float slack).
    """
    if target_value <= 0:
        return prize_collecting_schedule(
            instance, max(target_value, 0.0), 0.5, method=method, candidates=candidates
        )

    positive_values = [job.value for job in instance.jobs if job.value > 0]
    if not positive_values:
        raise InfeasibleError("all jobs have value 0 but a positive target was requested")
    v_min, v_max = min(positive_values), max(positive_values)
    n = instance.n_jobs
    epsilon = min(0.5, v_min / (n * v_max))

    # One preparation serves the bicriteria run and the top-up below.
    prepared = _prepare_weighted(instance, candidates)
    result = _bicriteria(instance, prepared, target_value, epsilon, method)
    if result.value >= target_value - 1e-9:
        return result

    slot_map, costs, utility = prepared
    selection = set(result.greedy.selection)
    chosen = list(result.greedy.chosen)
    chosen_set = set(chosen)
    top_ups: List[AwakeInterval] = []
    value = result.value
    total_cost = result.cost
    guard = len(slot_map) + 1
    while value < target_value - 1e-9 and guard > 0:
        guard -= 1
        best_iv = None
        best_cost = math.inf
        for iv, slots in slot_map.items():
            if iv in chosen_set or slots <= selection:
                continue
            gain = utility.value(frozenset(selection | slots)) - value
            if gain > 1e-12 and costs[iv] < best_cost:
                best_iv, best_cost = iv, costs[iv]
        if best_iv is None:
            raise InfeasibleError(
                f"cannot top up to value {target_value}: stuck at {value}"
            )
        selection |= slot_map[best_iv]
        chosen.append(best_iv)
        chosen_set.add(best_iv)
        top_ups.append(best_iv)
        total_cost += costs[best_iv]
        value = utility.value(frozenset(selection))

    greedy = GreedyResult(
        chosen=chosen,
        selection=frozenset(selection),
        utility=value,
        cost=total_cost,
        target=float(target_value),
        epsilon=epsilon,
        steps=list(result.greedy.steps),
    )
    schedule = _extract(utility, greedy)
    schedule.validate(instance)
    final = PrizeCollectingResult(
        schedule=schedule,
        greedy=greedy,
        target_value=float(target_value),
        epsilon=epsilon,
        oracle_calls=result.oracle_calls,
        top_up_intervals=top_ups,
    )
    if final.value < target_value - 1e-9:
        raise InfeasibleError(
            f"exact-value solver finished below target: {final.value} < {target_value}"
        )
    return final
