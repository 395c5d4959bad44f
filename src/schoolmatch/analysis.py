"""Evaluative predicates and metrics over matchings: the preference
reverence index, priority violations, stability, Pareto domination and
efficiency, and reasonable fairness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .errors import InstanceTooLargeError
from .model import Instance, Matching, rank


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
    worst priority among its ``holders``, she beats."""
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
        for cl in order.classes[: order.rank_map[seat] - 1]:
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
    """No student clears the cutoff of, or finds a free seat at, a school
    she prefers to her own assignment."""
    return next(_claims(instance, matching), None) is None


def below_free_seat(instance: Instance, matching: Matching) -> bool:
    """True iff some student strictly prefers a school with a free seat to
    her own assignment."""
    capacity = instance.capacity
    return any(len(held) < capacity[s] for _, s, held in _claims(instance, matching))


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
        oracle.check_bound(instance, bound)
    except InstanceTooLargeError:
        return _is_efficient_by_graph(instance, matching)
    return not any(
        dominates(instance, other, matching)
        for other in oracle.enumerate_matchings(instance, bound)
    )


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
    graph = trading.build_graph(instance, matching)
    return not trading.has_trading_clique(graph)


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
