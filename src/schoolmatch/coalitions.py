"""Coalitional improvement on the deferred-acceptance baseline: cabal
loops, accomplice sets, falsified preference lists, coalition execution
and verification, exhaustive enumeration, and the construction that
reproduces the interrupter-removal outcome as a coalition."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

from .errors import InstanceTooLargeError
from .mechanisms import eadam, sosm
from .model import Instance, Matching, WeakOrder
from . import trading


@dataclass(frozen=True)
class Coalition:
    """Cabal loops plus the accomplices who falsify their lists.

    Each loop is a tuple ``(i1, ..., ik)`` in which student ``i_k``
    receives the baseline school of ``i_{k-1}`` (indices mod k).
    ``displaced`` maps each accomplice to the schools she moves below her
    own baseline assignment.
    """

    loops: tuple[tuple[str, ...], ...]
    accomplices: tuple[str, ...]
    displaced: dict[str, frozenset[str]] = field(hash=False)

    @property
    def cabal(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(self.loops))


def _loop_links(loops: Iterable[tuple[str, ...]]):
    """Yield (member, predecessor, successor) triples over all loops."""
    for loop in loops:
        k = len(loop)
        for idx, member in enumerate(loop):
            yield member, loop[idx - 1], loop[(idx + 1) % k]


def _check_loops(instance: Instance, seat: list[int], loops) -> None:
    seen: set[str] = set()
    for loop in loops:
        here: set[str] = set()
        for member in loop:
            if member not in instance.student_index:
                raise ValueError(f"cabal loop names unknown student {member!r}")
            if member in here:
                raise ValueError(f"cabal loop names student {member} twice")
            if member in seen:
                raise ValueError(f"student {member} appears in two cabal loops")
            here.add(member)
        seen |= here
    index, rows = instance.student_index, instance.pref_rows
    for member, pred, _ in _loop_links(loops):
        row = rows[index[member]]
        if row[seat[index[pred]]] >= row[seat[index[member]]]:
            raise ValueError(
                f"invalid cabal loop: {member} does not strictly prefer "
                f"{pred}'s baseline school"
            )


def accomplice_set(
    instance: Instance, baseline: Matching, loops: tuple[tuple[str, ...], ...]
) -> tuple[tuple[str, ...], dict[str, frozenset[str]]]:
    """Accomplices of a cabal and the per-accomplice displaced-school sets.

    A student joins if she ranks some cabal member's baseline school above
    her own while that school ranks her above the member's loop successor.
    """
    seat = baseline.seats(instance)
    _check_loops(instance, seat, loops)
    links = list(_loop_links(loops))
    displaced = {i: moved for i in instance.students
                 if (moved := _displaced(instance, seat, links, i))}
    return tuple(displaced), displaced


def _displaced(instance: Instance, seat: list[int], links, i: str) -> frozenset[str]:
    """Baseline schools of cabal members that student ``i`` ranks above
    her own while the school ranks her above the member's loop successor."""
    index, prio = instance.student_index, instance.int_view.prio_rows
    k = index[i]
    row = instance.pref_rows[k]
    return frozenset(instance.schools[j] for member, _, successor in links
                     if member != i and (j := seat[index[member]]) >= 0
                     and row[j] < row[seat[k]] and prio[j][k] < prio[j][index[successor]])


def falsified_profile(
    instance: Instance,
    baseline: Matching,
    student: str,
    displaced: frozenset[str],
    seed: int = 0,
) -> WeakOrder:
    """Move the displaced schools below the student's baseline assignment.

    The new strict list is (left-of-baseline minus displaced), the baseline
    school, then (right-of-baseline minus displaced) plus each displaced
    school once.  Seed 0 keeps the original relative order and appends the
    displaced schools in canonical order; other seeds permute each block.
    """
    pivot = baseline[student]
    if pivot is not None and pivot in displaced:
        raise ValueError("displaced set may not contain the baseline school")
    sequence = instance.prefs[student].strict_sequence()
    # An unassigned student has an empty right block: everything is "left".
    cut = sequence.index(pivot) if pivot is not None else len(sequence)
    left = [s for s in sequence[:cut] if s not in displaced]
    right = [s for s in sequence[cut + 1:] if s not in displaced] + sorted(
        displaced, key=instance.school_index.__getitem__
    )
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(left)
        rng.shuffle(right)
    middle = [] if pivot is None else [pivot]
    return WeakOrder.strict(left + middle + right)


def run_coalition(
    instance: Instance, coalition: Coalition, seed: int = 0
) -> tuple[Matching, bool]:
    """Rerun deferred acceptance with the accomplices' falsified lists.

    Verified means every cabal member got her predecessor's baseline
    school and everybody else kept theirs.
    """
    baseline, _ = sosm(instance)
    falsified = {i: falsified_profile(instance, baseline, i,
                                      coalition.displaced.get(i, frozenset()), seed)
                 for i in coalition.accomplices}
    outcome, _ = sosm(instance.replace_prefs(falsified))

    cabal = coalition.cabal
    expected = {m: baseline[pred] for m, pred, _ in _loop_links(coalition.loops)}
    verified = all(
        outcome[i] == (expected[i] if i in cabal else baseline[i])
        for i in instance.students
    )
    return outcome, verified


@dataclass(frozen=True)
class CoalitionOutcome:
    coalition: Coalition
    matching: Matching
    verified: bool


def build_coalition(
    instance: Instance, baseline: Matching, loops: tuple[tuple[str, ...], ...]
) -> Coalition:
    accomplices, displaced = accomplice_set(instance, baseline, loops)
    return Coalition(loops, accomplices, displaced)


def enumerate_coalitions(
    instance: Instance, max_students: int = 8
) -> list[CoalitionOutcome]:
    """Execute every cabal-loop family over the baseline trading graph.

    Cabal loops are exactly the all-strict cycles of the graph of the
    baseline matching; families are unions of vertex-disjoint loops.
    Results are deduplicated by outcome (first family in canonical order
    wins).  Families whose members share a multi-seat school are skipped:
    seat-level trades inside one school are not expressible as falsified
    lists.
    """
    if len(instance.students) > max_students:
        raise InstanceTooLargeError(
            f"{len(instance.students)} students exceed max_students={max_students}; "
            "raise max_students to enumerate their coalitions"
        )
    baseline, _ = sosm(instance)
    graph = trading.SeatGraph(instance, baseline.seats(instance))
    cycles = [c.cycle for c in trading.find_cliques(graph, strict_edges=True)]
    # Graph cycles follow "points at the seat she wants"; the loop tuple
    # convention is "receives from the previous member", i.e. reversed.
    loops = [tuple(reversed(c)) for c in cycles]

    families: list[tuple[tuple[str, ...], ...]] = []

    def extend(start: int, chosen: list[tuple[str, ...]], used: set[str]) -> None:
        families.append(tuple(chosen))
        for idx in range(start, len(loops)):
            members = set(loops[idx])
            if used & members:
                continue
            chosen.append(loops[idx])
            extend(idx + 1, chosen, used | members)
            chosen.pop()

    extend(0, [], set())

    outcomes: list[CoalitionOutcome] = []
    seen: set[Matching] = set()
    for family in families:
        schools = [baseline[m] for loop in family for m in loop]
        if len(schools) != len(set(schools)):
            continue  # multi-seat cabal collision
        coalition = build_coalition(instance, baseline, family)
        matching, verified = run_coalition(instance, coalition)
        if matching in seen:
            continue
        seen.add(matching)
        outcomes.append(CoalitionOutcome(coalition, matching, verified))
    return outcomes


def eadam_as_coalition(instance: Instance, consenters: Iterable[str]) -> Coalition:
    """Coalition whose execution reproduces the interrupter-removal outcome.

    The cabal is the set of students whose assignments change, decomposed
    into loops along the seat permutation; the accomplices are the
    consenting students that appear in a removed (last) interrupting pair
    of some round.
    """
    baseline, _ = sosm(instance)
    result = eadam(instance, consenters)
    target = result.matching

    # Seat cycles read "receives the next one's seat"; loops read
    # "receives from the previous member", i.e. reversed.
    loops = tuple(tuple(reversed(c)) for c in trading.seat_cycles(baseline, target))
    removed = {p.student for rnd in result.removals for p in rnd}
    accomplices = tuple(i for i in instance.students if i in removed)
    links = list(_loop_links(loops))
    seat = baseline.seats(instance)
    displaced = {i: _displaced(instance, seat, links, i) for i in accomplices}
    return Coalition(loops, accomplices, displaced)
