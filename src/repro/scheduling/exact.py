"""Exact reference solvers (optimum certification).

The ratio experiments need the true optimum ``B`` to measure the
greedy's ``cost / B``.  On experiment-sized instances we certify optima
with a branch-and-bound search over candidate-interval subsets:

* cost pruning against the incumbent,
* a reachability bound (if even *all* remaining intervals cannot reach
  the utility target, the branch is dead),
* candidate ordering by cost so cheap solutions are found early.

This stands in for Baptiste's polynomial DP [9] and its prize-collecting
adaptation (Appendix .2): on the instance sizes we certify, it computes
the same optimal value, which is all the experiments consume (see the
substitution note in DESIGN.md).  A hard cap on the candidate count
keeps accidental exponential blow-ups loud instead of slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import InfeasibleError, InvalidInstanceError
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.incremental import WeightedMatchingUtility
from repro.scheduling.instance import ScheduleInstance
from repro.scheduling.intervals import AwakeInterval
from repro.scheduling.schedule import Schedule

__all__ = ["ExactResult", "optimal_schedule_bruteforce", "optimal_prize_collecting_bruteforce"]

_DEFAULT_LIMIT = 26


@dataclass
class ExactResult:
    """A certified optimal solution."""

    cost: float
    intervals: List[AwakeInterval]
    schedule: Schedule
    nodes_explored: int


def _pool_and_costs(
    instance: ScheduleInstance,
    candidates: Optional[Sequence[AwakeInterval]],
    limit: int,
) -> Tuple[List[AwakeInterval], Dict[AwakeInterval, FrozenSet], Dict[AwakeInterval, float]]:
    pool = list(candidates) if candidates is not None else instance.candidates()
    slot_map = {
        iv: slots for iv, slots in instance.interval_slot_map(pool).items() if slots
    }
    costs = {iv: instance.cost_of(iv) for iv in slot_map}
    finite = [iv for iv in slot_map if not math.isinf(costs[iv])]
    if len(finite) > limit:
        raise InvalidInstanceError(
            f"exact solver limited to {limit} candidate intervals, got {len(finite)}; "
            "raise `limit` explicitly if you accept exponential runtime"
        )
    finite.sort(key=lambda iv: (costs[iv], repr(iv)))
    return finite, {iv: slot_map[iv] for iv in finite}, {iv: costs[iv] for iv in finite}


def optimal_schedule_bruteforce(
    instance: ScheduleInstance,
    candidates: Optional[Sequence[AwakeInterval]] = None,
    *,
    limit: int = _DEFAULT_LIMIT,
) -> ExactResult:
    """Minimum-cost interval collection scheduling *all* jobs, certified.

    Branch and bound over the (finite-cost, useful) candidate pool.
    Raises :class:`InfeasibleError` when no subset schedules all jobs.
    """
    n = instance.n_jobs
    graph = instance.bipartite_graph()
    pool, slot_map, costs = _pool_and_costs(instance, candidates, limit)

    suffix_slots: List[FrozenSet] = [frozenset()] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix_slots[i] = suffix_slots[i + 1] | slot_map[pool[i]]

    best_cost = math.inf
    best_choice: Optional[List[AwakeInterval]] = None
    nodes = 0

    def utility(slots: FrozenSet) -> int:
        return len(hopcroft_karp(graph, slots))

    def dfs(i: int, chosen: List[AwakeInterval], cost: float, slots: FrozenSet) -> None:
        nonlocal best_cost, best_choice, nodes
        nodes += 1
        if cost >= best_cost:
            return
        if utility(slots) >= n:
            best_cost = cost
            best_choice = list(chosen)
            return
        if i == len(pool):
            return
        if utility(slots | suffix_slots[i]) < n:
            return  # even taking everything left cannot finish
        # Branch 1: take pool[i] (cheap intervals first -> good incumbents).
        chosen.append(pool[i])
        dfs(i + 1, chosen, cost + costs[pool[i]], slots | slot_map[pool[i]])
        chosen.pop()
        # Branch 2: skip pool[i].
        dfs(i + 1, chosen, cost, slots)

    dfs(0, [], 0.0, frozenset())
    if best_choice is None:
        raise InfeasibleError("no interval subset schedules all jobs")

    slots: set = set()
    for iv in best_choice:
        slots |= slot_map[iv]
    matching = hopcroft_karp(graph, frozenset(slots))
    assignment = {job: slot for slot, job in matching.left_to_right.items()}
    schedule = Schedule(intervals=best_choice, assignment=assignment)
    schedule.validate(instance, require_all=True)
    return ExactResult(cost=best_cost, intervals=best_choice, schedule=schedule, nodes_explored=nodes)


def optimal_prize_collecting_bruteforce(
    instance: ScheduleInstance,
    target_value: float,
    candidates: Optional[Sequence[AwakeInterval]] = None,
    *,
    limit: int = _DEFAULT_LIMIT,
) -> ExactResult:
    """Minimum-cost collection achieving scheduled value >= target, certified."""
    weighted = WeightedMatchingUtility(instance.bipartite_graph(), instance.job_values())
    pool, slot_map, costs = _pool_and_costs(instance, candidates, limit)

    suffix_slots: List[FrozenSet] = [frozenset()] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix_slots[i] = suffix_slots[i + 1] | slot_map[pool[i]]

    best_cost = math.inf
    best_choice: Optional[List[AwakeInterval]] = None
    nodes = 0

    utility = weighted.value

    def dfs(i: int, chosen: List[AwakeInterval], cost: float, slots: FrozenSet) -> None:
        nonlocal best_cost, best_choice, nodes
        nodes += 1
        if cost >= best_cost:
            return
        if utility(slots) >= target_value - 1e-9:
            best_cost = cost
            best_choice = list(chosen)
            return
        if i == len(pool):
            return
        if utility(slots | suffix_slots[i]) < target_value - 1e-9:
            return
        chosen.append(pool[i])
        dfs(i + 1, chosen, cost + costs[pool[i]], slots | slot_map[pool[i]])
        chosen.pop()
        dfs(i + 1, chosen, cost, slots)

    dfs(0, [], 0.0, frozenset())
    if best_choice is None:
        raise InfeasibleError(f"no interval subset reaches value {target_value}")

    slots = set()
    for iv in best_choice:
        slots |= slot_map[iv]
    matching = weighted.best_matching(slots)
    assignment = {job: slot for slot, job in matching.left_to_right.items()}
    schedule = Schedule(intervals=best_choice, assignment=assignment)
    schedule.validate(instance)
    return ExactResult(cost=best_cost, intervals=best_choice, schedule=schedule, nodes_explored=nodes)
