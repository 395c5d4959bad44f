"""Evaluative predicates and metrics over matchings: the preference
reverence index, priority violations, stability, Pareto domination and
efficiency, and reasonable fairness."""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from . import oracle
from .mechanisms import sosm
from .model import Instance, Matching


class ViolationRecord(NamedTuple):
    """Student ``violator`` holds a seat at ``school`` that ``victim``
    both prefers to her own assignment and has higher priority for."""

    violator: str
    victim: str
    school: str


def preference_index(instance: Instance, matching: Matching) -> int:
    """Sum over students of (rank of assigned school - 1); lower is better."""
    return sum(row[j] - 1 for row, j in zip(instance.pref_rows, matching.seats(instance)))


def _claims(instance: Instance, matching: Matching):
    """Yield ``(k, j, holders)`` for each claim of student index ``k``: a
    school index ``j`` she ranks above her seat that has a free seat or
    whose cutoff, the worst priority among its ``holders``, she beats; or
    -1 (unassigned) with no holders when she ranks her seat below having none."""
    view, seat = instance.int_view, matching.seats(instance)
    holders: list[list[int]] = [[] for _ in view.seats] + [[]]   # the last: unassigned
    for k, j in enumerate(seat):
        holders[j].append(k)
    cutoff = [max(map(prio.__getitem__, held)) if len(held) >= cap else math.inf   # free seat
              for prio, held, cap in zip(view.prio_rows, holders, view.seats)]
    for k, (row, at) in enumerate(zip(instance.pref_rows, seat)):
        own = row[at]
        if own > row[-1]:
            yield k, -1, ()
        for j in view.lists[k]:   # the schools she ranks above her seat come first
            if row[j] >= own:
                break
            if view.prio_rows[j][k] < cutoff[j]:
                yield k, j, holders[j]


def priority_violations(instance: Instance, matching: Matching) -> list[ViolationRecord]:
    """Every (violator, victim, school) record, sorted by school, victim and
    violator: each claim against the holders the victim outranks."""
    prio = instance.int_view.prio_rows
    found = sorted((j, victim, h) for victim, j, held in _claims(instance, matching)
                   for h in held if prio[j][victim] < prio[j][h])
    students, schools = instance.students, instance.schools
    return [ViolationRecord(students[h], students[v], schools[j]) for j, v, h in found]


def is_stable(instance: Instance, matching: Matching) -> bool:
    """No student holds a seat she ranks below having none, or clears the
    cutoff of, or finds a free seat at, a school she prefers to her own
    assignment."""
    return next(_claims(instance, matching), None) is None


def dominates(instance: Instance, a: Matching, b: Matching) -> bool:
    """True iff ``a`` weakly improves every student over ``b`` and strictly
    improves at least one (ranks taken in each student's own profile)."""
    ranks = [(row[j], row[k]) for row, j, k in
             zip(instance.pref_rows, a.seats(instance), b.seats(instance))]
    return all(ra <= rb for ra, rb in ranks) and any(ra < rb for ra, rb in ranks)


def is_efficient(instance: Instance, matching: Matching) -> bool:
    """True iff no matching dominates ``matching``: its :class:`SeatGraph`,
    plus a vacancy vertex, has no cycle through a weight-1 edge.  Each
    group with a free seat (being unassigned always has one) points to the
    vacancy, and the vacancy to every group.

    The test is exact for every matching: individually rational or not,
    dominating DA or not, leaving a preferred seat free or not.  Such a
    cycle is an improvement: each student on it takes a seat of the group
    she points to, from the holder next on the cycle or, where the cycle
    passes the vacancy, a free one, and the seat of the holder the vacancy
    leads to falls vacant.  Conversely, given a dominating matching, point
    each student who moves at one who leaves the school (or none) she
    enters, no two at the same one, or, once those run out, at the
    vacancy: that school had a free seat, as the dominating matching fits
    its capacity.  The walk from a student who is strictly better off
    starts on a weight-1 edge and, no two pointing alike, returns to her
    or reaches the vacancy, which leads to her.
    """
    from .trading import SeatGraph, has_trading_clique
    graph = SeatGraph(instance, matching.seats(instance))
    fill, schools = Counter(graph.seat), instance.schools
    return not has_trading_clique(graph, [g for g, s in enumerate(schools)
                                          if fill[g] < instance.capacity[s]] + [len(schools)])


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
    rows, seat = instance.pref_rows, matching.seats(instance)
    return not any(row[j] < row[k] for rival in rivals
                   for row, j, k in zip(rows, rival.seats(instance), seat))
