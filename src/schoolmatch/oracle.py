"""Exhaustive ground truth for small instances: stream every
capacity-respecting matching and derive stable / efficient sets from it.
Intentionally brute force; size bounds are enforced up front."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InstanceTooLargeError
from .model import Instance, Matching, UNASSIGNED


@dataclass(frozen=True)
class OracleBound:
    max_students: int = 8
    max_total_matchings: int = 10_000_000


def check_bound(instance: Instance, bound: OracleBound = OracleBound()) -> None:
    n = len(instance.students)
    if n > bound.max_students:
        raise InstanceTooLargeError(
            f"{n} students exceed OracleBound.max_students={bound.max_students}; "
            "raise max_students to enumerate them"
        )
    # (|S|+1)^n over-counts (ignores capacities) but is a safe ceiling.
    ceiling = (len(instance.schools) + 1) ** n
    if ceiling > bound.max_total_matchings:
        raise InstanceTooLargeError(
            f"matching-space ceiling {ceiling} exceeds "
            f"OracleBound.max_total_matchings={bound.max_total_matchings}; "
            "raise max_total_matchings to enumerate it"
        )


def enumerate_matchings(
    instance: Instance, bound: OracleBound = OracleBound()
) -> Iterator[Matching]:
    """Every total assignment of students to schools-or-UNASSIGNED that
    respects capacities, each exactly once."""
    check_bound(instance, bound)
    students = instance.students
    schools = instance.schools
    seats = [instance.capacity[s] for s in schools]
    choice: list[Optional[str]] = [UNASSIGNED] * len(students)

    def recurse(k: int) -> Iterator[Matching]:
        if k == len(students):
            yield Matching(tuple(zip(students, choice)))
            return
        choice[k] = UNASSIGNED
        yield from recurse(k + 1)
        for idx, s in enumerate(schools):
            if seats[idx] > 0:
                seats[idx] -= 1
                choice[k] = s
                yield from recurse(k + 1)
                choice[k] = UNASSIGNED
                seats[idx] += 1

    return recurse(0)


def stable_set(instance: Instance, bound: OracleBound = OracleBound()) -> set[Matching]:
    from .analysis import is_stable

    return {m for m in enumerate_matchings(instance, bound) if is_stable(instance, m)}


def efficient_dominations_of(
    instance: Instance, matching: Matching, bound: OracleBound = OracleBound()
) -> set[Matching]:
    """All matchings that dominate-or-equal ``matching`` and are themselves
    undominated."""
    from .analysis import dominates

    candidates = [
        m
        for m in enumerate_matchings(instance, bound)
        if m == matching or dominates(instance, m, matching)
    ]
    out = set()
    for cand in candidates:
        # A dominator of `cand` would also dominate-or-equal `matching`
        # (domination is transitive), so scanning candidates suffices.
        if not any(dominates(instance, other, cand) for other in candidates):
            out.add(cand)
    return out
