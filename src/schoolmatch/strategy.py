"""Strategic-behavior lab: random problem families with perceived-quality
classes, anonymity and positive-association checks, same-class clique
verification, and Monte Carlo stochastic-dominance trials for
truth-telling."""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import trading
from .errors import PreconditionError
from .mechanisms import eadam, sosm, ttc
from .model import Instance, Matching, UNASSIGNED, WeakOrder, rank

Mechanism = Callable[[Instance], Matching]


def mechanism_by_name(
    name: str,
    consenters: Optional[Iterable[str]] = None,
    policy: "str | int" = "canonical",
) -> Mechanism:
    """Uniform callable wrappers used by sweeps and the CLI."""
    if name == "da":
        return lambda inst: sosm(inst)[0]
    if name == "ttc":
        return ttc
    if name == "eadam":
        consent = None if consenters is None else tuple(consenters)
        return lambda inst: eadam(
            inst, inst.students if consent is None else consent
        ).matching
    if name == "tadam":
        return lambda inst: trading.tadam_run(inst, policy).matching
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
        rng.shuffle(order)
        prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = WeakOrder.strict(order)
    return Instance(students, schools, capacity, prefs, prios)


@dataclass(frozen=True)
class QualityPartition:
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
        ranks = profile.rank_map
        for k in range(len(self.classes) - 1):
            top = max(ranks[s] for s in self.classes[k])
            bottom = min(ranks[s] for s in self.classes[k + 1])
            if top >= bottom:
                return False
        return True


def class_respecting_profile(rng: random.Random, partition: QualityPartition) -> WeakOrder:
    order: list[str] = []
    for cl in partition.classes:
        block = list(cl)
        rng.shuffle(block)
        order.extend(block)
    return WeakOrder.strict(order)


@dataclass(frozen=True)
class RandomProblemFamily:
    """Distribution over problems seen from one student's point of view.

    The fixed student's report is supplied per trial; everybody else draws
    a class-respecting strict profile and every school a strict priority,
    uniformly.  Schools of one quality class share one capacity, which
    makes the draw symmetric under any same-class school swap.
    """

    partition: QualityPartition
    students: tuple[str, ...]
    fixed_student: str
    truth: WeakOrder
    class_capacity: tuple[int, ...]

    def __post_init__(self):
        if not self.partition.respects(self.truth):
            raise ValueError("truth profile must respect the quality classes")

    @property
    def schools(self) -> tuple[str, ...]:
        return self.partition.schools

    def capacity(self) -> dict[str, int]:
        return {s: cap for cap, cl in zip(self.class_capacity, self.partition.classes)
                for s in cl}

    def draw_instance(self, report: WeakOrder, rng: random.Random) -> Instance:
        prefs = {self.fixed_student: report}
        for i in self.students:
            if i != self.fixed_student:
                prefs[i] = class_respecting_profile(rng, self.partition)
        prios = {}
        for s in self.schools:
            order = list(self.students)
            rng.shuffle(order)
            prios[s] = WeakOrder.strict(order)
        return Instance(self.students, self.schools, self.capacity(), prefs, prios)


def two_class_family(
    n_per_class: int = 2,
    n_students: Optional[int] = None,
    capacity: int = 1,
) -> RandomProblemFamily:
    """Convenience builder: two quality classes of ``n_per_class`` schools."""
    top = tuple(f"s{k}" for k in range(1, n_per_class + 1))
    low = tuple(f"s{k}" for k in range(n_per_class + 1, 2 * n_per_class + 1))
    partition = QualityPartition((top, low))
    if n_students is None:
        n_students = 2 * n_per_class * capacity
    students = tuple(f"i{k}" for k in range(1, n_students + 1))
    truth = WeakOrder.strict(top + low)
    return RandomProblemFamily(partition, students, students[0], truth, (capacity, capacity))


# ---------------------------------------------------------------------------
# School relabeling

def swap_in_profile(profile: WeakOrder, a: str, b: str) -> WeakOrder:
    def sub(x: str) -> str:
        return b if x == a else a if x == b else x

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

    def relabel(s):
        return b if s == a else a if s == b else s

    return all(swapped[i] == relabel(original[i]) for i in instance.students)


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


@dataclass(frozen=True)
class CdfPoint:
    prefix: int          # top-k prefix of the true ranking
    truth_cdf: float
    alt_cdf: float
    band: float          # three-sigma binomial band at this point


@dataclass(frozen=True)
class DominanceReport:
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
    rng = random.Random(seed)
    student = family.fixed_student
    truth_counts: dict[Optional[str], int] = {}
    alt_counts: dict[Optional[str], int] = {}
    for _ in range(trials):
        complement_seed = rng.getrandbits(64)
        for report, counts in ((truth, truth_counts), (alt, alt_counts)):
            instance = family.draw_instance(report, random.Random(complement_seed))
            school = mechanism(instance)[student]
            counts[school] = counts.get(school, 0) + 1

    ranking = truth.strict_sequence()
    points = []
    verdict = Verdict.DOMINATES
    cum_truth = cum_alt = 0
    for k, s in enumerate(ranking, start=1):
        cum_truth += truth_counts.get(s, 0)
        cum_alt += alt_counts.get(s, 0)
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

def manipulation_gain(
    instance: Instance, student: str, report: WeakOrder,
    policy: "str | int" = "canonical",
) -> int:
    """Rank improvement (in the student's true profile) from misreporting;
    positive means the misreport strictly helps."""
    mech = mechanism_by_name("tadam", policy=policy)
    honest = mech(instance)[student]
    manipulated = mech(instance.replace_prefs({student: report}))[student]
    profile = instance.prefs[student]
    return rank(profile, honest) - rank(profile, manipulated)
