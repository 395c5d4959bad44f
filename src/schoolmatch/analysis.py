"""Evaluative predicates and metrics over matchings: the preference
reverence index, priority violations, stability, Pareto domination and
efficiency, and reasonable fairness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .mechanisms import sosm
from .model import Instance, Matching, UNASSIGNED, rank
from .trading import MatchGraph, build_graph, has_trading_clique


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


def is_efficient(instance: Instance, matching: Matching) -> bool:
    """True iff no matching dominates ``matching``: its trading graph, plus
    a vacancy vertex, has no cycle through a weight-1 edge.  A student
    points to the vacancy when a school with a free seat, or being
    unassigned, ranks no worse than her seat (weight 1 if strictly better);
    the vacancy points to every student.

    The test is exact for every matching: individually rational or not,
    dominating DA or not, leaving a preferred seat free or not.  Such a
    cycle is an improvement: each student on it takes the seat of the one
    she points to, one pointing to the vacancy takes her free seat (or
    none), and the seat of the one the vacancy points to falls vacant.
    Conversely, given a dominating matching, point each student who moves
    at one who leaves the school (or none) she enters, no two at the same
    one, or, once those run out, at the vacancy: that school had a free
    seat, as the dominating matching fits its capacity.  The walk from a
    student who is strictly better off starts on a weight-1 edge and, no
    two pointing alike, returns to her or reaches the vacancy, which
    points to her.
    """
    graph = build_graph(instance, matching)
    vacancy = object()   # a vertex no student id equals
    fill, capacity = matching.fill_counts(), instance.capacity
    free = [s for s in instance.schools if fill.get(s, 0) < capacity[s]] + [UNASSIGNED]
    weights = graph.weights
    for i in instance.students:
        ranks = instance.pref_rank[i]
        best, own = min(map(ranks.__getitem__, free)), ranks[matching[i]]
        if best <= own:
            weights[(i, vacancy)] = int(best < own)
        weights[(vacancy, i)] = 0
    return not has_trading_clique(MatchGraph((*graph.vertices, vacancy), weights))


def is_reasonably_fair(
    instance: Instance,
    matching: Matching,
    bound: oracle.OracleBound = oracle.OracleBound(),
) -> bool:
    """True iff no stable matching gives any student a strictly better seat.
    On a strict instance DA gives each her best stable seat (Gale & Shapley
    1962), at any size.  With ties that question is NP-complete (Manlove et
    al. 2002), so the bounded oracle enumerates the stable set."""
    rivals = [sosm(instance)[0]] if instance.is_strict else oracle.stable_set(instance, bound)
    ranks = instance.pref_rank
    return not any(ranks[i][rival[i]] < ranks[i][matching[i]]
                   for rival in rivals for i in instance.students)
