"""Evaluative predicates and metrics over matchings: the preference
reverence index, priority violations, stability, Pareto domination and
efficiency, and reasonable fairness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .errors import InstanceTooLargeError
from .model import Instance, Matching, UNASSIGNED, rank


@dataclass(frozen=True)
class ViolationRecord:
    """Student ``violator`` holds a seat at ``school`` that ``victim``
    both prefers to her own assignment and has higher priority for."""

    violator: str
    victim: str
    school: str


def preference_index(instance: Instance, matching: Matching) -> int:
    """Sum over students of (rank of assigned school - 1); lower is better."""
    return sum(
        rank(instance.prefs[i], matching[i]) - 1 for i in instance.students
    )


def _claims(instance: Instance, matching: Matching):
    """Yield ``(student, school, holders)`` for each claim: a school the
    student ranks above her seat that has a free seat or whose cutoff, the
    worst priority among its ``holders``, she beats; or ``UNASSIGNED`` with
    no holders when she ranks her seat below having none."""
    prio_rank, capacity = instance.prio_rank, instance.capacity
    holders: dict[str | None, list[str]] = {}
    for i, s in matching.pairs:
        holders.setdefault(s, []).append(i)
    cutoff = {}
    for s in instance.schools:
        held = holders.setdefault(s, [])
        cutoff[s] = (max(map(prio_rank[s].__getitem__, held)) if len(held) >= capacity[s]
                     else math.inf)   # every student clears a free seat
    for i, seat in matching.pairs:
        order = instance.prefs[i]
        own = order.rank_map[seat]
        if own > order.rank_map[UNASSIGNED]:
            yield i, UNASSIGNED, ()
        for cl in order.classes[: own - 1]:
            for s in cl:
                if prio_rank[s][i] < cutoff[s]:
                    yield i, s, holders[s]


def priority_violations(instance: Instance, matching: Matching) -> list[ViolationRecord]:
    """Every (violator, victim, school) record, sorted by school, victim and
    violator: each claim against the holders the victim outranks."""
    prio_rank = instance.prio_rank
    records = [
        ViolationRecord(h, victim, s)
        for victim, s, held in _claims(instance, matching)
        for h in held
        if prio_rank[s][victim] < prio_rank[s][h]
    ]
    records.sort(
        key=lambda r: (
            instance.school_index[r.school],
            instance.student_index[r.victim],
            instance.student_index[r.violator],
        )
    )
    return records


def is_stable(instance: Instance, matching: Matching) -> bool:
    """No student holds a seat she ranks below having none, or clears the
    cutoff of, or finds a free seat at, a school she prefers to her own
    assignment."""
    return next(_claims(instance, matching), None) is None


def below_free_seat(instance: Instance, matching: Matching) -> bool:
    """True iff some student strictly prefers a school with a free seat to
    her own assignment."""
    capacity = instance.capacity
    return any(s is not UNASSIGNED and len(held) < capacity[s]
               for _, s, held in _claims(instance, matching))


def dominates(instance: Instance, a: Matching, b: Matching) -> bool:
    """True iff ``a`` weakly improves every student over ``b`` and strictly
    improves at least one (ranks taken in each student's own profile)."""
    strict = False
    for i in instance.students:
        profile = instance.prefs[i]
        ra, rb = rank(profile, a[i]), rank(profile, b[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def is_efficient(
    instance: Instance,
    matching: Matching,
    bound: oracle.OracleBound = oracle.OracleBound(),
) -> bool:
    """True iff no valid matching dominates ``matching``.

    Uses the exhaustive oracle when the instance is within bound; otherwise
    falls back to the acyclicity test on the matching's trading graph, which
    is valid when the matching weakly dominates the deferred-acceptance
    baseline and nobody strictly prefers a school with a free seat.
    """
    try:
        _, profile, no_worse = oracle._no_worse(instance, matching, bound)
    except InstanceTooLargeError:
        return _is_efficient_by_graph(instance, matching)
    # Each such matching ranks every student no worse, so one that differs
    # from ``matching`` in any student's rank dominates it.
    return all(p == profile for _, p in no_worse)


def _is_efficient_by_graph(instance: Instance, matching: Matching) -> bool:
    from . import trading  # local import; trading depends on analysis
    from .mechanisms import sosm
    from .model import tie_break

    if below_free_seat(instance, matching):
        raise InstanceTooLargeError(
            "instance beyond oracle bound and matching leaves a "
            "preferred seat vacant; no efficiency route applies"
        )
    baseline, _ = sosm(tie_break(instance, 0))
    if matching != baseline and not dominates(instance, matching, baseline):
        raise InstanceTooLargeError(
            "instance beyond oracle bound and matching does not dominate "
            "the deferred-acceptance baseline"
        )
    # A chain of moves that ends in a free seat is a cycle through one
    # vacancy vertex: a student points to it when she weakly prefers a
    # school with a free seat, and it points to every student.
    graph = trading.build_graph(instance, matching)
    vacancy = object()   # a vertex no student id equals
    fill, pref_rank = matching.fill_counts(), instance.pref_rank
    free = [s for s in instance.schools if fill.get(s, 0) < instance.capacity[s]]
    weights = graph.weights
    for i in instance.students:
        ranks = pref_rank[i]
        if any(ranks[s] <= ranks[matching[i]] for s in free):
            weights[(i, vacancy)] = 0
        weights[(vacancy, i)] = 0
    return not trading.has_trading_clique(trading.MatchGraph((*graph.vertices, vacancy), weights))


def is_reasonably_fair(
    instance: Instance,
    matching: Matching,
    bound: oracle.OracleBound = oracle.OracleBound(),
) -> bool:
    """True iff no stable matching gives any student a strictly better seat."""
    for stable in oracle.stable_set(instance, bound):
        for i in instance.students:
            profile = instance.prefs[i]
            if rank(profile, stable[i]) < rank(profile, matching[i]):
                return False
    return True
