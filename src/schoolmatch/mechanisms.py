"""Student-proposing deferred acceptance (with a full step trace), the
efficiency-adjusted rerun loop driven by interrupter removal, top trading
cycles, and trace-derived interrupter / hopeless-student extraction.

All three mechanisms require strict preference profiles and priority
structures; break ties first (:func:`schoolmatch.model.tie_break`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import Instance, Matching, UNASSIGNED


@dataclass(frozen=True)
class DaStep:
    """One proposal wave: who proposed where, who is held, who was rejected."""

    proposers: tuple[str, ...]
    proposals: dict[str, tuple[str, ...]]   # school -> new proposers this step
    holds: dict[str, tuple[str, ...]]       # school -> tentative accepts after the step
    rejections: dict[str, tuple[str, ...]]  # school -> students rejected this step


@dataclass(frozen=True)
class DaTrace:
    steps: tuple[DaStep, ...]


@dataclass(frozen=True)
class InterrupterPair:
    student: str
    school: str
    rejection_step: int


def _require_strict(instance: Instance) -> None:
    if not instance.is_strict:
        raise ValueError("mechanism requires a strict instance; run tie_break first")


def sosm(instance: Instance) -> tuple[Matching, DaTrace]:
    """Student-proposing deferred acceptance with multi-seat schools.

    Each step every unengaged student proposes to the best school that has
    not yet rejected her; each school keeps its top up-to-capacity students
    (by priority) among current holds plus new proposers.  Stops when no
    unengaged student has a school left to propose to.  Only students
    rejected at a step propose at the next, so no step rescans everyone.
    """
    _require_strict(instance)
    pref_lists = instance.strict_pref_lists
    prio = instance.prio_rank
    capacity = instance.capacity
    index = instance.student_index.__getitem__

    pointer = {i: 0 for i in instance.students}   # next list index to propose to
    held_at: dict[str, Optional[str]] = {i: UNASSIGNED for i in instance.students}
    holds: dict[str, list[str]] = {s: [] for s in instance.schools}
    steps: list[DaStep] = []

    proposers = tuple(i for i in instance.students if pref_lists[i])
    while proposers:
        proposals: dict[str, list[str]] = {}
        for i in proposers:
            proposals.setdefault(pref_lists[i][pointer[i]], []).append(i)

        step_holds: dict[str, tuple[str, ...]] = {}
        step_rejections: dict[str, tuple[str, ...]] = {}
        for s, newcomers in proposals.items():
            pool = holds[s] + newcomers
            pool.sort(key=prio[s].__getitem__)
            kept, rejected = pool[: capacity[s]], pool[capacity[s]:]
            holds[s] = kept
            for i in newcomers:
                held_at[i] = s
            for i in rejected:
                held_at[i] = UNASSIGNED
                pointer[i] += 1
            step_holds[s] = tuple(kept)
            if rejected:
                step_rejections[s] = tuple(sorted(rejected, key=index))
        steps.append(
            DaStep(
                proposers=proposers,
                proposals={s: tuple(v) for s, v in proposals.items()},
                holds=step_holds,
                rejections=step_rejections,
            )
        )
        proposers = tuple(sorted((i for rejected in step_rejections.values() for i in rejected
                                  if pointer[i] < len(pref_lists[i])), key=index))

    matching = Matching.of(held_at, instance)
    return matching, DaTrace(tuple(steps))


def interrupters(trace: DaTrace) -> list[InterrupterPair]:
    """All interrupting pairs of a deferred-acceptance trace.

    Student ``i`` interrupts school ``s`` if she tentatively held ``s`` from
    step t, was rejected from it at step t' > t, and some other student was
    rejected from ``s`` at a step in [t, t'-1].
    """
    accepted_at: dict[tuple[str, str], int] = {}
    rejected_at: dict[tuple[str, str], int] = {}
    rejections_by_school: dict[str, list[tuple[int, str]]] = {}
    for t, step in enumerate(trace.steps, start=1):
        for s, newcomers in step.proposals.items():
            held = set(step.holds.get(s, ()))
            for i in newcomers:
                if i in held:
                    accepted_at[(i, s)] = t
        for s, rejected in step.rejections.items():
            for i in rejected:
                rejected_at[(i, s)] = t
                rejections_by_school.setdefault(s, []).append((t, i))

    pairs = []
    for (i, s), t in accepted_at.items():
        t_prime = rejected_at.get((i, s))
        if t_prime is None:
            continue
        if any(
            t <= r < t_prime and j != i
            for r, j in rejections_by_school.get(s, ())
        ):
            pairs.append(InterrupterPair(i, s, t_prime))
    pairs.sort(key=lambda p: p.rejection_step)
    return pairs


def hopeless_students(trace: DaTrace) -> frozenset[str]:
    """Proposers of the final step; none of them can gain from any
    Pareto improvement over the deferred-acceptance outcome.

    The guarantee covers only a final step in which every proposal is
    accepted.  When the run instead ends because a rejected student's
    list is exhausted, the conceptual final step has no proposers and
    the answer is empty.
    """
    if not trace.steps:
        return frozenset()
    last = trace.steps[-1]
    if any(last.rejections.values()):
        return frozenset()
    return frozenset(last.proposers)


@dataclass(frozen=True)
class EadamResult:
    matching: Matching
    removals: tuple[tuple[InterrupterPair, ...], ...]  # per round, pairs removed
    traces: tuple[DaTrace, ...]                        # one DA trace per round

    @property
    def removal_sequence(self) -> tuple[tuple[str, str], ...]:
        return tuple((p.student, p.school) for rnd in self.removals for p in rnd)


def eadam(instance: Instance, consenters: Iterable[str]) -> EadamResult:
    """Iterated deferred acceptance with consenting-interrupter removal.

    Each round reruns DA, finds the last step at which a consenting
    interrupter is rejected from its interrupted school, and removes
    exactly the interrupted school(s) of that step's consenting pairs from
    those students' lists.  Stops when no consenting pair remains.
    Raises ``ValueError`` if a consenter is not a student of the instance.
    """
    _require_strict(instance)
    consent = frozenset(consenters)
    unknown = sorted(consent.difference(instance.students))
    if unknown:
        raise ValueError(f"consenters are not students of the instance: {unknown}")
    current = instance
    removals: list[tuple[InterrupterPair, ...]] = []
    traces: list[DaTrace] = []
    while True:
        matching, trace = sosm(current)
        traces.append(trace)
        consenting = [p for p in interrupters(trace) if p.student in consent]
        if not consenting:
            return EadamResult(matching, tuple(removals), tuple(traces))
        last_step = max(p.rejection_step for p in consenting)
        doomed = tuple(p for p in consenting if p.rejection_step == last_step)
        removals.append(doomed)
        current = current.replace_prefs(
            {p.student: current.prefs[p.student].without(p.school) for p in doomed}
        )


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
    steps over a run.
    """
    _require_strict(instance)
    pref_lists = instance.strict_pref_lists
    prio_lists = {s: instance.prios[s].strict_sequence() for s in instance.schools}
    seats = dict(instance.capacity)
    student_at = dict.fromkeys(instance.students, 0)
    school_at = dict.fromkeys(instance.schools, 0)
    gone: set[str] = set()   # assigned, or no open school left on the list
    assignment: dict[str, Optional[str]] = {i: UNASSIGNED for i in instance.students}

    for start in instance.students:
        if start in gone:
            continue
        stack, depth = [start], {start: 0}   # depth: position on the stack
        while stack:
            i = stack[-1]
            prefs, k = pref_lists[i], student_at[i]
            while k < len(prefs) and not seats[prefs[k]]:
                k += 1
            student_at[i] = k
            if k == len(prefs):   # i stays unassigned: schools never reopen
                gone.add(i)
                del depth[stack.pop()]
                continue
            s = prefs[k]
            prio, k = prio_lists[s], school_at[s]
            while prio[k] in gone:
                k += 1
            school_at[s], j = k, prio[k]
            if j not in depth:
                depth[j] = len(stack)
                stack.append(j)
                continue
            cycle = stack[depth[j]:]   # j -> ... -> i -> j trades
            del stack[depth[j]:]
            for x in cycle:
                s = pref_lists[x][student_at[x]]
                assignment[x] = s
                seats[s] -= 1
                gone.add(x)
                del depth[x]
    return Matching.of(assignment, instance)
