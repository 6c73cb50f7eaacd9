"""The online scheduling problem that motivates Chapter 3.

From the introduction of the online setting: "Assume that you have a set
of tasks to do, and the processors arrive one by one.  You want to pick
a number of processors (according to your budget) to do the tasks ...
We can see the processors as some secretaries."

This module is the bridge between the two halves of the paper: the
utility of a set of processors is the **matching function of Section
2.2** — the number (or value) of jobs schedulable on the awake slots
those processors contribute — which Lemmas 2.2.2/2.3.2 prove
submodular, so Algorithm 1 applies verbatim and Theorem 3.1.1's
1/(7e)-competitiveness carries over.

:class:`ProcessorMarket` packages the instance: each candidate
processor arrives with its own awake window(s); hiring it makes those
slots available.  :func:`online_processor_selection` runs the monotone
submodular secretary algorithm over processor arrivals and returns both
the hired processors and the schedule they support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple

from repro.core.submodular import SetFunction
from repro.errors import InvalidInstanceError
from repro.matching.graph import BipartiteGraph
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.incremental import WeightedMatchingUtility
from repro.online.arrivals import ArrivalSchedule, build_arrival_schedule
from repro.online.driver import OnlineRun
from repro.online.policies import SegmentedSubmodularPolicy
from repro.online.results import SecretaryResult
from repro.rng import as_generator
from repro.scheduling.instance import Job
from repro.scheduling.intervals import AwakeInterval

__all__ = ["ProcessorMarket", "ProcessorUtility", "online_processor_selection"]


@dataclass(frozen=True)
class ProcessorMarket:
    """Candidate processors, each offering awake intervals, plus the jobs.

    Parameters
    ----------
    offers:
        Mapping from processor id to the awake interval(s) hiring it
        provides.  Each interval's ``processor`` field must equal the
        offer's key (one physical machine per candidate).
    jobs:
        Unit jobs with (processor, time) valid sets, referring to the
        candidate processors.
    """

    offers: Mapping[Hashable, Tuple[AwakeInterval, ...]]
    jobs: Tuple[Job, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "offers", {k: tuple(v) for k, v in self.offers.items()}
        )
        object.__setattr__(self, "jobs", tuple(self.jobs))
        for proc, intervals in self.offers.items():
            for iv in intervals:
                if iv.processor != proc:
                    raise InvalidInstanceError(
                        f"offer {proc!r} contains interval on {iv.processor!r}"
                    )
        known = set(self.offers)
        for job in self.jobs:
            for p, _ in job.slots:
                if p not in known:
                    raise InvalidInstanceError(
                        f"job {job.id!r} references unknown processor {p!r}"
                    )

    def slots_of(self, processor: Hashable) -> FrozenSet[Tuple[Hashable, int]]:
        out: set = set()
        for iv in self.offers[processor]:
            out |= iv.slots()
        return frozenset(out)

    def graph(self) -> BipartiteGraph:
        slots: set = set()
        for proc in self.offers:
            slots |= self.slots_of(proc)
        useful = slots & {s for job in self.jobs for s in job.slots}
        edges = [
            (slot, job.id) for job in self.jobs for slot in job.slots if slot in useful
        ]
        return BipartiteGraph(useful, [j.id for j in self.jobs], edges)


class ProcessorUtility(SetFunction):
    """Utility of a processor set = jobs (or job value) schedulable on it.

    The composition F(processors) = matching(slots(processors)); a
    monotone composition of a submodular function with a union of fixed
    slot sets, hence itself monotone submodular — this is exactly the
    structure Lemma 2.1.1 handles and what makes Algorithm 1 applicable.
    """

    def __init__(self, market: ProcessorMarket, weighted: bool = False):
        self.market = market
        self._graph = market.graph()
        self.weighted = weighted
        self._weighted = WeightedMatchingUtility(
            self._graph, {job.id: job.value for job in market.jobs}
        ) if weighted else None

    @property
    def ground_set(self) -> FrozenSet[Hashable]:
        return frozenset(self.market.offers)

    def value(self, subset: FrozenSet[Hashable]) -> float:
        slots: set = set()
        for proc in subset:
            slots |= self.market.slots_of(proc)
        allowed = frozenset(slots) & self._graph.left
        if self._weighted is not None:
            return self._weighted.value(allowed)
        return float(len(hopcroft_karp(self._graph, allowed)))


@dataclass
class OnlineSelectionResult:
    """Hired processors + the schedule they support."""

    hired: FrozenSet[Hashable]
    scheduled_jobs: Dict[Hashable, Tuple[Hashable, int]]
    utility: float
    secretary: SecretaryResult


def online_processor_selection(
    market: ProcessorMarket,
    k: int,
    *,
    weighted: bool = False,
    rng=None,
    order: Optional[Sequence[Hashable]] = None,
    process: str = "uniform",
    process_params: Optional[dict] = None,
) -> OnlineSelectionResult:
    """Hire up to *k* processors online, maximizing schedulable jobs.

    Processors arrive in uniformly random order (or the explicit
    *order*, or any registered arrival *process* — bursty processor
    markets batch their offers); decisions are irrevocable.  By Theorem
    3.1.1 the expected number of schedulable jobs is at least a 1/(7e)
    fraction of the best k-processor choice in hindsight
    (value-weighted when ``weighted``).
    """
    utility = ProcessorUtility(market, weighted=weighted)
    if order is not None:
        order = list(order)
        if frozenset(order) != utility.ground_set:
            raise InvalidInstanceError(
                "explicit order must enumerate the processor offers exactly"
            )
        schedule = ArrivalSchedule(
            process="explicit", seed=None, order=order,
            batch_sizes=[1] * len(order),
        )
    else:
        schedule = build_arrival_schedule(
            process, utility, as_generator(rng), **dict(process_params or {})
        )
    run = OnlineRun(utility, schedule, SegmentedSubmodularPolicy(k))
    result = run.run().result()

    slots: set = set()
    for proc in result.selected:
        slots |= market.slots_of(proc)
    allowed = frozenset(slots) & utility._graph.left
    if weighted:
        matching = utility._weighted.best_matching(allowed)
    else:
        matching = hopcroft_karp(utility._graph, allowed)
    assignment = {job: slot for slot, job in matching.left_to_right.items()}
    return OnlineSelectionResult(
        hired=result.selected,
        scheduled_jobs=assignment,
        utility=utility.value(result.selected),
        secretary=result,
    )
