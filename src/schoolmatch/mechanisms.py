"""Student-proposing deferred acceptance, the efficiency-adjusted rerun
loop driven by interrupter removal, top trading cycles, and trace-derived
interrupter / hopeless-student extraction.  One DA loop yields its
proposal waves: :func:`sosm` records them as its trace, each :func:`eadam`
round hands them as they happen to the one interrupter rule and keeps only
its removals, and the TADAM baseline records none.

All three mechanisms require strict preference profiles and priority
structures; break ties first (:func:`schoolmatch.model.tie_break`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

from .model import Instance, Matching


@dataclass(frozen=True)
class DaStep:
    """One proposal wave: who proposed where, who is held, who was rejected."""

    proposers: tuple[str, ...]
    proposals: dict[str, tuple[str, ...]]   # school -> new proposers this step
    holds: dict[str, tuple[str, ...]]       # school -> tentative accepts after the step
    rejections: dict[str, tuple[str, ...]]  # school -> students rejected this step


@dataclass(frozen=True)
class DaTrace:
    """One DA run as waves of indices ``(proposers, proposals, holds,
    rejections)``: the proposers, then dicts from each school the wave
    proposed to (in order of first proposal) to its new proposers, its
    holds by priority and its rejections if any.  Students are in index
    order but for holds.  :attr:`steps` names the waves on first read."""

    students: tuple[str, ...] = field(repr=False)
    schools: tuple[str, ...] = field(repr=False)
    waves: tuple[tuple[list[int], dict, dict, dict], ...]

    @cached_property
    def steps(self) -> tuple[DaStep, ...]:
        student = self.students.__getitem__

        def named(by_school: dict) -> dict[str, tuple[str, ...]]:
            return {self.schools[j]: tuple(map(student, ks)) for j, ks in by_school.items()}

        return tuple(DaStep(tuple(map(student, proposers)), *map(named, by_school))
                     for proposers, *by_school in self.waves)


@dataclass(frozen=True)
class InterrupterPair:
    student: str
    school: str
    rejection_step: int


def _require_strict(instance: Instance) -> None:
    if not instance.is_strict:
        raise ValueError("mechanism requires a strict instance; run tie_break first")


def _waves(instance: Instance, lists: Sequence[Sequence[int]], seat: list[int],
           traced: bool = True) -> Iterator[tuple[list[int], dict, dict, dict]]:
    """The one DA loop, on school-index ``lists`` with the instance's
    priorities and seats: yields each wave of a :class:`DaTrace` as it
    closes (holds by priority only where the school rejected), then
    writes each student's school (-1 for unassigned) into ``seat``.
    Untraced it yields nothing and the next wave's proposers stay
    unsorted: strict priorities give the same seats."""
    prio, seats = instance.int_view.prio_rows, instance.int_view.seats
    pointer = [0] * len(lists)   # next list index to propose to
    held: list[list[int]] = [[] for _ in seats]
    proposers = [k for k, order in enumerate(lists) if order]
    while proposers:
        proposals: dict[int, list[int]] = {}
        for k in proposers:
            proposals.setdefault(lists[k][pointer[k]], []).append(k)
        holds, rejections, rejected = {}, {}, []
        for j, newcomers in proposals.items():
            pool = held[j] + newcomers
            if len(pool) > seats[j]:
                pool.sort(key=prio[j].__getitem__)
                rejections[j] = sorted(pool[seats[j]:])
                rejected += rejections[j]
                del pool[seats[j]:]
            held[j] = holds[j] = pool
        if traced:
            yield proposers, proposals, holds, rejections
            rejected.sort()   # the next wave's proposers in index order
        for k in rejected:
            pointer[k] += 1
        proposers = [k for k in rejected if pointer[k] < len(lists[k])]
    for j, ks in enumerate(held):
        for k in ks:
            seat[k] = j


def _deferred_acceptance(
    instance: Instance, lists: Sequence[Sequence[int]], traced: bool = True
) -> tuple[list[int], Optional[DaTrace]]:
    """DA on school-index ``lists``: the seat vector and the trace that
    :func:`sosm` and :attr:`EadamResult.traces` read.  The TADAM baseline
    runs it untraced, for None."""
    seat = [-1] * len(lists)
    waves = tuple(_waves(instance, lists, seat, traced))
    if not traced:
        return seat, None
    prio = instance.int_view.prio_rows
    for _, _, holds, _ in waves:   # a trace lists holds by priority; no later wave edits them
        for j, pool in holds.items():
            pool.sort(key=prio[j].__getitem__)
    return seat, DaTrace(instance.students, instance.schools, waves)


def sosm(instance: Instance) -> tuple[Matching, DaTrace]:
    """Student-proposing deferred acceptance with multi-seat schools.

    Each step every unengaged student proposes to the best school that has
    not yet rejected her; each school keeps its top up-to-capacity students
    (by priority) among current holds plus new proposers.  Stops when no
    unengaged student has a school left to propose to.  Only students
    rejected at a step propose at the next, so no step rescans everyone.
    Runs on the instance's :class:`IntView` and always records the trace.
    """
    _require_strict(instance)
    seat, trace = _deferred_acceptance(instance, instance.int_view.lists)
    return Matching.of_seats(instance, seat), trace


def _interrupting(waves: Iterable[tuple], n: int, m: int) -> list[tuple[int, int, int, int]]:
    """The one interrupter rule of :func:`interrupters`, read off DA's
    waves as they come, for n students and m schools: sorted (rejection
    step, place of her last proposal among all proposals, student,
    school) index tuples."""
    since = [0] * n   # step of k's last proposal
    order = [0] * n   # its place among all proposals
    last_rejection = [0] * m
    pairs, proposed = [], count()
    for t, (_, proposals, _, rejections) in enumerate(waves, start=1):
        for newcomers in proposals.values():
            for k in newcomers:
                since[k], order[k] = t, next(proposed)
        for j, rejected in rejections.items():
            pairs += [(t, order[k], k, j) for k in rejected if since[k] <= last_rejection[j]]
            last_rejection[j] = t
    pairs.sort()
    return pairs


def interrupters(trace: DaTrace) -> list[InterrupterPair]:
    """All interrupting pairs of a deferred-acceptance trace.

    Student ``i`` interrupts school ``s`` if she tentatively held ``s`` from
    step t, was rejected from it at step t' > t, and some other student was
    rejected from ``s`` at a step in [t, t'-1].  She holds the school she
    last proposed to and proposes to each school once, so that is: the
    school's last rejection before t' came no earlier than her proposal.
    """
    students, schools = trace.students, trace.schools
    return [InterrupterPair(students[k], schools[j], t)
            for t, _, k, j in _interrupting(trace.waves, len(students), len(schools))]


def hopeless_students(trace: DaTrace) -> frozenset[str]:
    """Proposers of the final step; none of them can gain from any
    Pareto improvement over the deferred-acceptance outcome.

    The guarantee covers only a final step in which every proposal is
    accepted.  When the run instead ends because a rejected student's
    list is exhausted, the conceptual final step has no proposers and
    the answer is empty.
    """
    if not trace.waves or trace.waves[-1][3]:   # no step, or the last one rejected
        return frozenset()
    return frozenset(map(trace.students.__getitem__, trace.waves[-1][0]))   # its proposers


def _strike(instance: Instance, lists: list, pairs: Iterable[InterrupterPair]) -> None:
    """Remove each pair's school from its student's index list."""
    for p in pairs:
        k, j = instance.student_index[p.student], instance.school_index[p.school]
        lists[k] = tuple(x for x in lists[k] if x != j)


@dataclass(frozen=True)
class EadamResult:
    """The outcome and the pairs each round removed.  :attr:`traces`
    replays the rounds on first read: DA on the instance's lists, then on
    each round's lists minus its removals.  DA is deterministic, so these
    are the traces of the run."""

    matching: Matching
    removals: tuple[tuple[InterrupterPair, ...], ...]  # per round, pairs removed
    instance: Instance = field(repr=False, compare=False)

    @cached_property
    def traces(self) -> tuple[DaTrace, ...]:
        """One DA trace per round, the last round's (which removes nothing) too."""
        lists = list(self.instance.int_view.lists)
        traces = [_deferred_acceptance(self.instance, lists)[1]]
        for doomed in self.removals:
            _strike(self.instance, lists, doomed)
            traces.append(_deferred_acceptance(self.instance, lists)[1])
        return tuple(traces)

    @property
    def removal_sequence(self) -> tuple[tuple[str, str], ...]:
        return tuple((p.student, p.school) for rnd in self.removals for p in rnd)


def eadam(instance: Instance, consenters: Iterable[str]) -> EadamResult:
    """Iterated deferred acceptance with consenting-interrupter removal.

    Each round reruns DA, finds the last step at which a consenting
    interrupter is rejected from its interrupted school, and removes
    exactly the interrupted school(s) of that step's consenting pairs from
    those students' lists.  Stops when no consenting pair remains.  A
    round keeps only its removals; :attr:`EadamResult.traces` replays it.
    Raises ``ValueError`` if a consenter is not a student of the instance.
    """
    _require_strict(instance)
    consent = frozenset(consenters)
    unknown = sorted(consent.difference(instance.students))
    if unknown:
        raise ValueError(f"consenters are not students of the instance: {unknown}")
    students, schools = instance.students, instance.schools
    lists = list(instance.int_view.lists)   # a removal edits one student's list
    removals: list[tuple[InterrupterPair, ...]] = []
    while True:
        seat = [-1] * len(lists)
        pairs = _interrupting(_waves(instance, lists, seat), len(students), len(schools))
        consenting = [(t, k, j) for t, _, k, j in pairs if students[k] in consent]
        if not consenting:
            return EadamResult(Matching.of_seats(instance, seat), tuple(removals), instance)
        last_step = consenting[-1][0]
        removals.append(doomed := tuple(InterrupterPair(students[k], schools[j], t)
                                        for t, k, j in consenting if t == last_step))
        _strike(instance, lists, doomed)


def ttc(instance: Instance) -> Matching:
    """Top trading cycles with multi-seat schools.

    Every remaining student points to her best school with a free seat and
    every such school to its highest-priority remaining student.  One walk
    follows these pointers from each remaining student in turn, keeping its
    path on a stack.  When the walk meets itself, that cycle trades, and
    the walk resumes from the student beneath it, whose edge went stale;
    a student with no open school left is popped and leaves unassigned.

    This clears the same cycles as resolving all cycles round by round.
    Each school points to one student, so cycles are vertex-disjoint, and
    clearing one cycle neither fills another cycle's schools nor removes
    its students: a cycle stays a cycle until it trades, and the order in
    which cycles clear does not change the outcome.  Schools never reopen
    and students only leave, so the pointers into each preference list and
    priority order only move forward: O(n*m) pointer work and O(n) walk
    steps over a run.  Runs on the instance's :class:`IntView`, reading
    each strict priority order by name only as far as its pointer goes.
    """
    _require_strict(instance)
    view, index = instance.int_view, instance.student_index
    lists, seats = view.lists, list(view.seats)
    orders = [instance.prios[s].items() for s in instance.schools]
    student_at, school_at = [0] * len(lists), [0] * len(seats)
    seat = [-1] * len(lists)
    gone = [False] * len(lists)   # assigned, or no open school left on the list
    depth = [-1] * len(lists)     # position on the stack, -1 if off it

    for start in range(len(lists)):
        if gone[start]:
            continue
        stack, depth[start] = [start], 0
        while stack:
            i = stack[-1]
            prefs, k = lists[i], student_at[i]
            while k < len(prefs) and not seats[prefs[k]]:
                k += 1
            student_at[i] = k
            if k == len(prefs):   # i stays unassigned: schools never reopen
                gone[i] = True
                depth[stack.pop()] = -1
                continue
            s = prefs[k]
            prio, k = orders[s], school_at[s]
            while gone[j := index[prio[k]]]:
                k += 1
            school_at[s] = k
            if depth[j] < 0:
                depth[j] = len(stack)
                stack.append(j)
                continue
            cycle = stack[depth[j]:]   # j -> ... -> i -> j trades
            del stack[depth[j]:]
            for x in cycle:
                seat[x] = s = lists[x][student_at[x]]
                seats[s] -= 1
                gone[x], depth[x] = True, -1
    return Matching.of_seats(instance, seat)
