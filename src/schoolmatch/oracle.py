"""Exhaustive ground truth for small instances.

Every search runs over *seat vectors*: one school index per student, -1
for unassigned, never filling a school past its capacity.  Vectors are
judged on the instance's integer rank rows; a ``Matching`` is built only
for a vector it returns.  Intentionally brute force; size bounds are
enforced up front."""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterator, Sequence

from .errors import InstanceTooLargeError
from .model import Instance, Matching


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


def _seat_vectors(
    allowed: Sequence[Sequence[int]], seats: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every tuple that gives student k a seat from ``allowed[k]`` and fills
    no school j past ``seats[j]``, in the order of ``allowed``."""
    last = len(allowed) - 1
    free = [*seats, len(allowed)]   # free[-1]: room for every unassigned

    def extend(k: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if k == last:
            yield from (prefix + (j,) for j in allowed[k] if free[j])
            return
        for j in allowed[k]:
            if free[j]:
                free[j] -= 1
                yield from extend(k + 1, prefix + (j,))
                free[j] += 1

    return extend(0, ()) if allowed else iter(((),))


def enumerate_matchings(
    instance: Instance, bound: OracleBound = OracleBound()
) -> Iterator[Matching]:
    """Every total assignment of students to schools-or-UNASSIGNED that
    respects capacities, each exactly once."""
    check_bound(instance, bound)
    every = tuple(range(-1, len(instance.schools)))
    vectors = _seat_vectors([every] * len(instance.students), instance.int_view.seats)
    return (Matching.of_seats(instance, v) for v in vectors)


def stable_set(instance: Instance, bound: OracleBound = OracleBound()) -> set[Matching]:
    """Every stable matching, found by testing each capacity-respecting
    seat vector: no student holds a seat she ranks below having none, and
    none ranks above her seat a school that has a free seat or whose
    cutoff (the worst priority among its holders) she beats."""
    check_bound(instance, bound)
    students, view = instance.students, instance.int_view
    m, seats, prio = len(instance.schools), view.seats, view.prio_rows
    free_cutoff = len(students) + 3   # above any rank, off-list ones included
    # above[k][j]: (school, student k's priority there) for each school she
    # ranks above seat j; None when she ranks seat j below having none.
    above = [
        [None if row[j] > row[-1] else
         tuple((t, prio[t][k]) for t in range(m) if row[t] < row[j])
         for j in range(m + 1)]
        for k, row in enumerate(instance.pref_rows)
    ]

    def stable(vector: tuple[int, ...]) -> bool:
        fill = [0] * m
        cutoff = [0] * m
        for k, j in enumerate(vector):
            if j >= 0:
                fill[j] += 1
                if prio[j][k] > cutoff[j]:
                    cutoff[j] = prio[j][k]
        for j in range(m):
            if fill[j] < seats[j]:
                cutoff[j] = free_cutoff
        for claims, j in zip(above, vector):
            claims = claims[j]
            if claims is None:
                return False
            for t, r in claims:
                if r < cutoff[t]:
                    return False
        return True

    every = tuple(range(-1, m))
    vectors = _seat_vectors([every] * len(students), seats)
    return {Matching.of_seats(instance, v) for v in vectors if stable(v)}


def efficient_dominations_of(
    instance: Instance, matching: Matching, bound: OracleBound = OracleBound()
) -> set[Matching]:
    """All matchings that dominate-or-equal ``matching`` and are themselves
    undominated.  Only the seat vectors that give each student a seat she
    ranks no worse are visited: those that dominate, equal or tie it."""
    check_bound(instance, bound)
    rows, ref = instance.pref_rows, tuple(matching.seats(instance))
    ref_profile = tuple(map(getitem, rows, ref))
    allowed = [tuple(j for j in range(-1, len(row) - 1) if row[j] <= r)
               for row, r in zip(rows, ref_profile)]
    by_profile: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for v in _seat_vectors(allowed, instance.int_view.seats):
        p = tuple(map(getitem, rows, v))
        if p != ref_profile or v == ref:
            by_profile.setdefault(p, []).append(v)
    # A dominator of a candidate also dominates ``matching`` (domination is
    # transitive), so it is a candidate too, with a smaller rank sum.
    profiles = sorted(by_profile, key=sum)
    out = set()
    for k, p in enumerate(profiles):
        if not any(all(map(int.__le__, q, p)) for q in profiles[:k]):
            out.update(Matching.of_seats(instance, v) for v in by_profile[p])
    return out
