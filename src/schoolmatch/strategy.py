"""Strategic-behavior lab: random problem families with perceived-quality
classes, anonymity and positive-association checks and the sweeps that
criterion 7 and CLI ``strategy`` run, same-class clique verification, and
Monte Carlo stochastic-dominance trials for truth-telling."""

from __future__ import annotations

import enum
import math
import random
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import trading
from .errors import PreconditionError
from .mechanisms import eadam, sosm, ttc
from .model import (Instance, IntView, Matching, UNASSIGNED, WeakOrder, _index_list, _rank_row,
                    _shuffle, rank)

Mechanism = Callable[[Instance], Matching]


def mechanism_by_name(name: str) -> Mechanism:
    """Sweep and CLI wrappers: EADAM with everyone consenting, canonical TADAM."""
    if name == "da":
        return lambda inst: sosm(inst)[0]
    if name == "ttc":
        return ttc
    if name == "eadam":
        return lambda inst: eadam(inst, inst.students).matching
    if name == "tadam":
        return lambda inst: trading.tadam_run(inst).matching
    raise ValueError(f"unknown mechanism {name!r}")


# ---------------------------------------------------------------------------
# Random instances and families

def random_strict_instance(
    rng: random.Random,
    n_students: int,
    n_schools: int,
    capacities: Optional[dict[str, int]] = None,
) -> Instance:
    students = tuple(f"i{k}" for k in range(1, n_students + 1))
    schools = tuple(f"s{k}" for k in range(1, n_schools + 1))
    capacity = dict(capacities) if capacities else {s: 1 for s in schools}
    prefs = {}
    for i in students:
        order = list(schools)
        _shuffle(rng, order)
        prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = list(students)
        _shuffle(rng, order)
        prios[s] = WeakOrder.strict(order)
    return Instance(students, schools, capacity, prefs, prios)


class QualityPartition(NamedTuple):
    """Ordered school classes; every profile must rank any school of an
    earlier class above every school of a later class."""

    classes: tuple[tuple[str, ...], ...]

    @property
    def schools(self) -> tuple[str, ...]:
        return tuple(s for cl in self.classes for s in cl)

    def class_of(self, school: Optional[str]) -> int:
        """Index of the school's class; UNASSIGNED is a class of its own,
        after the last."""
        if school is UNASSIGNED:
            return len(self.classes)
        for k, cl in enumerate(self.classes):
            if school in cl:
                return k
        raise KeyError(school)

    def respects(self, profile: WeakOrder) -> bool:
        for k in range(len(self.classes) - 1):
            top = max(rank(profile, s) for s in self.classes[k])
            bottom = min(rank(profile, s) for s in self.classes[k + 1])
            if top >= bottom:
                return False
        return True


def class_respecting_profile(rng: random.Random, partition: QualityPartition) -> WeakOrder:
    order: list[str] = []
    for cl in partition.classes:
        block = list(cl)
        _shuffle(rng, block)
        order.extend(block)
    return WeakOrder.strict(order)


class RandomProblemFamily:
    """Distribution over problems seen from one student's point of view.

    The fixed student's report is supplied per trial; everybody else draws
    a class-respecting strict profile and every school a strict priority,
    uniformly.  Schools of one quality class share one capacity, which
    makes the draw symmetric under any same-class school swap.  Treated
    as immutable.
    """

    def __init__(self, partition: QualityPartition, students: tuple[str, ...],
                 fixed_student: str, truth: WeakOrder, class_capacity: tuple[int, ...]):
        if not partition.respects(truth):
            raise ValueError("truth profile must respect the quality classes")
        self.partition, self.students, self.fixed_student = partition, students, fixed_student
        self.truth, self.class_capacity = truth, class_capacity

    def _key(self):
        return self.partition, self.students, self.fixed_student, self.truth, self.class_capacity

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("RandomProblemFamily(partition={!r}, students={!r}, fixed_student={!r}, "
                "truth={!r}, class_capacity={!r})".format(*self._key()))

    @property
    def schools(self) -> tuple[str, ...]:
        return self.partition.schools

    def capacity(self) -> dict[str, int]:
        return {s: cap for cap, cl in zip(self.class_capacity, self.partition.classes)
                for s in cl}

    def draw_instance(self, report: WeakOrder, rng: random.Random) -> Instance:
        """One problem: ``report`` for the fixed student, a
        :func:`class_respecting_profile` for each other student, then each
        school's priority order, shuffled as an index list.  The instance
        comes with its integer views built."""
        students, schools = self.students, self.schools
        i_index, s_index = {i: k for k, i in enumerate(students)}, {s: j for j, s in enumerate(schools)}
        prefs = {self.fixed_student: report}
        for i in students:
            if i != self.fixed_student:
                prefs[i] = class_respecting_profile(rng, self.partition)
        lists = [_index_list(prefs[i], s_index) for i in students]
        prios, prio_rows = {}, []
        for s in schools:
            order = list(range(len(students)))
            _shuffle(rng, order)
            prios[s] = WeakOrder.strict(map(students.__getitem__, order))
            prio_rows.append(_rank_row(prios[s], i_index, order))
        capacity = self.capacity()
        return Instance._with_views(
            students, schools, capacity, prefs, prios, student_index=i_index,
            school_index=s_index, is_strict=report.is_strict,
            int_view=IntView(lists, prio_rows, [capacity[s] for s in schools]),
            pref_rows=[_rank_row(prefs[i], s_index, ks) for i, ks in zip(students, lists)])


def class_family(n_classes: int, per: int, capacity: int = 1) -> RandomProblemFamily:
    """``n_classes`` quality classes of ``per`` schools, ``capacity`` seats each
    and one student per seat; the fixed student i1 truly ranks s1 > s2 > ..."""
    schools = tuple(f"s{k}" for k in range(1, n_classes * per + 1))
    partition = QualityPartition(tuple(schools[c * per:(c + 1) * per] for c in range(n_classes)))
    students = tuple(f"i{k}" for k in range(1, len(schools) * capacity + 1))
    return RandomProblemFamily(partition, students, students[0], WeakOrder.strict(schools),
                               (capacity,) * n_classes)


def two_class_family(n_per_class: int = 2, capacity: int = 1) -> RandomProblemFamily:
    """Two quality classes of ``n_per_class`` schools."""
    return class_family(2, n_per_class, capacity)


# ---------------------------------------------------------------------------
# School relabeling

def swap_in_profile(profile: WeakOrder, a: str, b: str) -> WeakOrder:
    def sub(x: str) -> str:
        return b if x == a else a if x == b else x

    if profile.is_strict:
        return WeakOrder.strict(map(sub, profile.items()))
    return WeakOrder(tuple(tuple(sub(x) for x in cl) for cl in profile.classes))


def swap_schools(instance: Instance, a: str, b: str) -> Instance:
    """Relabel two schools consistently: everyone's rankings, plus the two
    schools' capacities and priority structures, are exchanged."""
    capacity = dict(instance.capacity)
    capacity[a], capacity[b] = capacity[b], capacity[a]
    prefs = {i: swap_in_profile(p, a, b) for i, p in instance.prefs.items()}
    prios = dict(instance.prios)
    prios[a], prios[b] = prios[b], prios[a]
    return Instance(instance.students, instance.schools, capacity, prefs, prios)


def check_anonymity(mechanism: Mechanism, instance: Instance, swap: tuple[str, str]) -> bool:
    """Relabeling two schools must relabel the outcome and nothing else."""
    a, b = swap
    original = mechanism(instance)
    swapped = mechanism(swap_schools(instance, a, b))
    relabel = {a: b, b: a}
    return all(swapped[i] == relabel.get(original[i], original[i]) for i in instance.students)


def check_positive_association(
    mechanism: Mechanism, instance: Instance, student: str, school: str, better: str
) -> bool:
    """Promoting the received school in the student's own report (by
    swapping it with a school she truly prefers) must not change her
    assignment."""
    outcome = mechanism(instance)
    if outcome[student] != school:
        raise PreconditionError(f"{student} is not assigned {school}")
    profile = instance.prefs[student]
    if rank(profile, better) >= rank(profile, school):
        raise PreconditionError(f"{student} does not prefer {better} to {school}")
    reported = instance.replace_prefs(
        {student: swap_in_profile(profile, school, better)}
    )
    return mechanism(reported)[student] == school


def anonymity_cases(
    mechanism: Mechanism, instances: Iterable[Instance], rng: random.Random
) -> Iterator[tuple[Instance, bool]]:
    """Each instance with the verdict of :func:`check_anonymity` on two of its
    schools drawn from ``rng``."""
    for instance in instances:
        yield instance, check_anonymity(mechanism, instance, tuple(rng.sample(instance.schools, 2)))


def positive_association_cases(
    mechanism: Mechanism, instances: Iterable[Instance], rng: random.Random
) -> Iterator[tuple[Instance, bool]]:
    """Each instance with the verdict of :func:`check_positive_association` for a
    student below their top school, drawn from ``rng``; one with none is skipped."""
    for instance in instances:
        outcome = mechanism(instance)
        candidates = [
            i for i in instance.students
            if outcome[i] is not UNASSIGNED and rank(instance.prefs[i], outcome[i]) > 1
        ]
        if not candidates:
            continue
        student = rng.choice(candidates)
        school = outcome[student]
        seq = instance.prefs[student].strict_sequence()
        better = rng.choice(seq[: seq.index(school)])
        yield instance, check_positive_association(mechanism, instance, student, school, better)


# ---------------------------------------------------------------------------
# Same-class trades

def same_class_cliques(instance: Instance, partition: QualityPartition) -> bool:
    """Every trading clique reachable from the deferred-acceptance baseline
    trades seats within one quality class, and every terminal assignment
    stays in the class of the baseline assignment (within the default
    ``max_visited`` of :func:`trading.reachable`)."""
    for i in instance.students:
        if not partition.respects(instance.prefs[i]):
            raise PreconditionError(f"profile of {i} ignores the quality classes")

    baseline, _ = sosm(instance)
    for current, cliques in trading.reachable(instance, baseline, trading.CliqueKind.TRADING):
        if not cliques:
            for i in instance.students:
                if partition.class_of(current[i]) != partition.class_of(baseline[i]):
                    return False
        for clique in cliques:
            classes = {partition.class_of(current[i]) for i in clique.cycle}
            if len(classes) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Stochastic dominance

class Verdict(enum.Enum):
    DOMINATES = "dominates"
    INCONCLUSIVE = "inconclusive"
    FAILS = "fails"


class CdfPoint(NamedTuple):
    prefix: int          # top-k prefix of the true ranking
    truth_cdf: float
    alt_cdf: float
    band: float          # three-sigma binomial band at this point


class DominanceReport(NamedTuple):
    truth_dist: dict[Optional[str], float]
    alt_dist: dict[Optional[str], float]
    points: tuple[CdfPoint, ...]
    verdict: Verdict


def placement_distribution(counts: dict, trials: int) -> dict[Optional[str], float]:
    return {school: n / trials for school, n in sorted(
        counts.items(), key=lambda kv: (kv[0] is None, kv[0] or "")
    )}


def dominance_trial(
    mechanism: Mechanism,
    family: RandomProblemFamily,
    truth: WeakOrder,
    alt: WeakOrder,
    trials: int,
    seed: int,
) -> DominanceReport:
    """Paired Monte Carlo comparison of two reports for the fixed student.

    The verdict is DOMINATES when the truthful report's placement CDF
    (taken along the true ranking) weakly exceeds the alternative's at
    every prefix; a deficit inside the three-sigma band downgrades to
    INCONCLUSIVE instead of FAILS.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    rng, draw = random.Random(seed), random.Random()
    student = family.fixed_student
    truth_counts: Counter[Optional[str]] = Counter()
    alt_counts: Counter[Optional[str]] = Counter()
    for _ in range(trials):
        # The draw does not depend on the report: both reports face one complement.
        draw.seed(rng.getrandbits(64))   # the state of random.Random(those bits)
        instance = family.draw_instance(truth, draw)
        truth_counts[mechanism(instance)[student]] += 1
        alt_counts[mechanism(instance.replace_prefs({student: alt}))[student]] += 1

    ranking = truth.strict_sequence()
    points = []
    verdict = Verdict.DOMINATES
    cum_truth = cum_alt = 0
    for k, s in enumerate(ranking, start=1):
        cum_truth += truth_counts[s]
        cum_alt += alt_counts[s]
        f_truth, f_alt = cum_truth / trials, cum_alt / trials
        pooled = (f_truth + f_alt) / 2
        band = 3 * math.sqrt(max(pooled * (1 - pooled), 0.0) / trials)
        points.append(CdfPoint(k, f_truth, f_alt, band))
        deficit = f_alt - f_truth
        if deficit > band:
            verdict = Verdict.FAILS
        elif deficit > 0 and verdict is Verdict.DOMINATES:
            verdict = Verdict.INCONCLUSIVE
    return DominanceReport(
        placement_distribution(truth_counts, trials),
        placement_distribution(alt_counts, trials),
        tuple(points),
        verdict,
    )


# ---------------------------------------------------------------------------
# Manipulation witnesses

def manipulation_gain(instance: Instance, student: str, report: WeakOrder) -> int:
    """Rank improvement (in the student's true profile) under canonical TADAM
    from misreporting; positive means the misreport strictly helps."""
    mech = mechanism_by_name("tadam")
    honest = mech(instance)[student]
    manipulated = mech(instance.replace_prefs({student: report}))[student]
    profile = instance.prefs[student]
    return rank(profile, honest) - rank(profile, manipulated)
