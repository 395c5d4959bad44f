import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from schoolmatch import sosm
from schoolmatch import strategy, textio
from schoolmatch.errors import PreconditionError
from schoolmatch.model import UNASSIGNED, Instance, Matching, WeakOrder, rank

FIXTURES = Path(__file__).parent / "fixtures"


def test_mechanism_by_name(scp1):
    da = strategy.mechanism_by_name("da")
    assert da(scp1) == sosm(scp1)[0]
    with pytest.raises(ValueError):
        strategy.mechanism_by_name("boston")


def test_random_strict_instance_shape():
    rng = random.Random(1)
    inst = strategy.random_strict_instance(rng, 4, 3)
    assert len(inst.students) == 4 and len(inst.schools) == 3
    assert inst.is_strict
    from schoolmatch import validate
    assert validate(inst) == []


def test_quality_partition_respects():
    part = strategy.QualityPartition((("s1", "s2"), ("s3", "s4")))
    good = WeakOrder.strict(["s2", "s1", "s3", "s4"])
    bad = WeakOrder.strict(["s1", "s3", "s2", "s4"])
    assert part.respects(good)
    assert not part.respects(bad)


def test_class_respecting_profile():
    rng = random.Random(2)
    part = strategy.QualityPartition((("s1", "s2"), ("s3", "s4")))
    for _ in range(10):
        assert part.respects(strategy.class_respecting_profile(rng, part))


def test_family_draw_is_symmetric_histogram():
    # Relabeling two same-class schools maps the sample space onto itself:
    # the fixed student's placement frequencies at s1 and s2 agree within
    # noise when her own report is symmetric in them.
    fam = strategy.two_class_family(2)
    mech = strategy.mechanism_by_name("da")
    report = WeakOrder.of([("s1", "s2"), ("s3",), ("s4",)])
    # make the report strict but symmetric by sampling both orders equally
    rng = random.Random(3)
    counts = {"s1": 0, "s2": 0}
    trials = 4000
    for t in range(trials):
        rep = WeakOrder.strict(["s1", "s2", "s3", "s4"] if t % 2 else
                               ["s2", "s1", "s3", "s4"])
        inst = fam.draw_instance(rep, rng)
        got = mech(inst)["i1"]
        if got in counts:
            counts[got] += 1
    total = counts["s1"] + counts["s2"]
    assert abs(counts["s1"] - counts["s2"]) < 4 * (total ** 0.5)


def test_swap_schools_consistent(scp2):
    swapped = strategy.swap_schools(scp2, "s1", "s2")
    assert swapped.capacity["s1"] == scp2.capacity["s2"]
    assert swapped.prios["s1"] == scp2.prios["s2"]
    seq = swapped.prefs["i1"].strict_sequence()
    orig = scp2.prefs["i1"].strict_sequence()
    relabel = {"s1": "s2", "s2": "s1"}
    assert seq == tuple(relabel.get(s, s) for s in orig)


def test_check_anonymity_sosm_scp1(scp1):
    da = strategy.mechanism_by_name("da")
    assert strategy.check_anonymity(da, scp1, ("s1", "s2"))
    assert strategy.check_anonymity(da, scp1, ("s1", "s1"))


def test_check_positive_association_tadam_scp2(scp2):
    tadam = strategy.mechanism_by_name("tadam")
    assert strategy.check_positive_association(tadam, scp2, "i5", "s3", "s4")


def test_check_positive_association_precondition(scp2):
    tadam = strategy.mechanism_by_name("tadam")
    with pytest.raises(PreconditionError):
        strategy.check_positive_association(tadam, scp2, "i5", "s1", "s4")


def test_same_class_cliques_single_class(scp2):
    part = strategy.QualityPartition((scp2.schools,))
    assert strategy.same_class_cliques(scp2, part)


def test_same_class_cliques_two_class_sweep():
    rng = random.Random(5)
    part = strategy.QualityPartition((("s1", "s2"), ("s3", "s4")))
    students = ("i1", "i2", "i3", "i4")
    fam = strategy.RandomProblemFamily(
        part, students, "i1", WeakOrder.strict(part.schools), (1, 1)
    )
    for _ in range(30):
        inst = fam.draw_instance(
            strategy.class_respecting_profile(rng, part), rng
        )
        assert strategy.same_class_cliques(inst, part)


def test_same_class_cliques_with_an_unassigned_student():
    inst = textio.parse_instance(
        "students i1 i2 i3\nschools s1 s2\n"
        "pref i1: s1 > s2\npref i2: s1 > s2\npref i3: s2 > s1\n"
        "prio s1: i1 > i2 > i3\nprio s2: i1 > i2 > i3\n"
    )
    part = strategy.QualityPartition((("s1", "s2"),))
    assert sosm(inst)[0]["i3"] is UNASSIGNED
    assert part.class_of(UNASSIGNED) == 1
    assert strategy.same_class_cliques(inst, part)


def test_same_class_cliques_rejects_bad_profiles(scp2):
    part = strategy.QualityPartition((("s1", "s2"), ("s3", "s4", "s5")))
    with pytest.raises(PreconditionError):
        strategy.same_class_cliques(scp2, part)


def test_dominance_trial_identity_reports():
    fam = strategy.two_class_family(2)
    rep = strategy.dominance_trial(
        strategy.mechanism_by_name("da"), fam, fam.truth, fam.truth, 200, 7
    )
    assert rep.verdict is strategy.Verdict.DOMINATES
    assert rep.truth_dist == rep.alt_dist


def test_dominance_trial_needs_a_trial():
    fam = strategy.two_class_family(2)
    with pytest.raises(ValueError, match="trials"):
        strategy.dominance_trial(
            strategy.mechanism_by_name("da"), fam, fam.truth, fam.truth, 0, 7
        )


def test_dominance_trial_fails_when_the_alternative_seats_her_better():
    """i1 gets s1 only when she reports the alternative: the alternative's
    CDF lies above the truth's by far more than the band."""
    fam = strategy.two_class_family(2)
    alt = strategy.swap_in_profile(fam.truth, "s1", "s2")
    rigged = lambda inst: Matching.of({"i1": "s1" if inst.prefs["i1"] == alt else "s2"}, inst)
    rep = strategy.dominance_trial(rigged, fam, fam.truth, alt, 100, 3)
    assert rep.truth_dist == {"s2": 1.0} and rep.alt_dist == {"s1": 1.0}
    assert rep.points[0].alt_cdf - rep.points[0].truth_cdf > rep.points[0].band
    assert rep.verdict is strategy.Verdict.FAILS


def test_dominance_trial_deficit_inside_the_band_is_inconclusive():
    """i1 gets s1 on every call but the first (the truthful report of trial
    1): a deficit of one trial in 100, inside the band."""
    fam = strategy.two_class_family(2)
    calls = []

    def once_short(inst):
        calls.append(inst)
        return Matching.of({"i1": "s2" if len(calls) == 1 else "s1"}, inst)

    rep = strategy.dominance_trial(once_short, fam, fam.truth, fam.truth, 100, 3)
    assert len(calls) == 200
    assert rep.truth_dist == {"s1": 0.99, "s2": 0.01} and rep.alt_dist == {"s1": 1.0}
    assert 0 < rep.points[0].alt_cdf - rep.points[0].truth_cdf <= rep.points[0].band
    assert rep.verdict is strategy.Verdict.INCONCLUSIVE


def test_dominance_trial_tadam_small():
    fam = strategy.two_class_family(2)
    alt = strategy.swap_in_profile(fam.truth, "s1", "s2")
    rep = strategy.dominance_trial(
        strategy.mechanism_by_name("tadam"), fam, fam.truth, alt, 800, 11
    )
    assert rep.verdict is not strategy.Verdict.FAILS


# The sweep workload's three families, and criterion 8's five (family, swap) cases.
SWEEP_FAMILIES = (strategy.two_class_family(2), strategy.two_class_family(3),
                  strategy.two_class_family(2, capacity=2))
CRITERION_8_CASES = ((SWEEP_FAMILIES[0], ("s1", "s2")), (SWEEP_FAMILIES[0], ("s3", "s4")),
                     (SWEEP_FAMILIES[1], ("s1", "s2")), (SWEEP_FAMILIES[1], ("s4", "s6")),
                     (SWEEP_FAMILIES[2], ("s1", "s2")))


def test_swap_in_profile_keeps_strict_orders_compact():
    """A strict profile swaps into a strict order that equals the classed
    construction, and reading it builds no classes on the input."""
    def classed_swap(profile, a, b):
        def sub(x):
            return b if x == a else a if x == b else x
        return WeakOrder(tuple(tuple(sub(x) for x in cl) for cl in profile.classes))

    for family in SWEEP_FAMILIES:
        for a, b in combinations(family.schools, 2):
            profile = WeakOrder.strict(family.truth.items())
            swapped = strategy.swap_in_profile(profile, a, b)
            assert swapped == classed_swap(WeakOrder.strict(profile.items()), a, b)
            assert swapped.is_strict and "classes" not in vars(profile)
    weak = WeakOrder.of([("s1", "s2"), ("s3",)])
    assert strategy.swap_in_profile(weak, "s1", "s3") == WeakOrder.of([("s3", "s2"), ("s1",)])


def _two_draw_dominance_trial(mechanism, family, truth, alt, trials, seed):
    """``dominance_trial`` as it ran with one draw per report: each report's
    instance is drawn afresh from the trial's complement seed."""
    rng = random.Random(seed)
    student = family.fixed_student
    truth_counts, alt_counts = {}, {}
    for _ in range(trials):
        complement_seed = rng.getrandbits(64)
        for report, counts in ((truth, truth_counts), (alt, alt_counts)):
            instance = family.draw_instance(report, random.Random(complement_seed))
            school = mechanism(instance)[student]
            counts[school] = counts.get(school, 0) + 1

    points = []
    verdict = strategy.Verdict.DOMINATES
    cum_truth = cum_alt = 0
    for k, s in enumerate(truth.strict_sequence(), start=1):
        cum_truth += truth_counts.get(s, 0)
        cum_alt += alt_counts.get(s, 0)
        f_truth, f_alt = cum_truth / trials, cum_alt / trials
        pooled = (f_truth + f_alt) / 2
        band = 3 * math.sqrt(max(pooled * (1 - pooled), 0.0) / trials)
        points.append(strategy.CdfPoint(k, f_truth, f_alt, band))
        deficit = f_alt - f_truth
        if deficit > band:
            verdict = strategy.Verdict.FAILS
        elif deficit > 0 and verdict is strategy.Verdict.DOMINATES:
            verdict = strategy.Verdict.INCONCLUSIVE
    return strategy.DominanceReport(
        strategy.placement_distribution(truth_counts, trials),
        strategy.placement_distribution(alt_counts, trials),
        tuple(points),
        verdict,
    )


def test_single_draw_matches_two_draw_reports():
    """One draw per trial, with the alternative made by ``replace_prefs``,
    gives the same reports as drawing each report's instance on its own.
    Criterion 8's cases hold the sweep's; every fifth seed reports the truth."""
    for name in ("da", "ttc", "eadam", "tadam"):
        mechanism = strategy.mechanism_by_name(name)
        for n, (family, swap) in enumerate(CRITERION_8_CASES):
            for seed in range(25):
                alt = family.truth if seed % 5 == 0 else strategy.swap_in_profile(
                    family.truth, *swap)
                args = (mechanism, family, family.truth, alt, 20, 1000 * n + seed)
                assert strategy.dominance_trial(*args) == _two_draw_dominance_trial(*args)


def test_draw_with_alternative_is_replace_prefs_of_truthful_draw():
    for seed in range(600):
        family = SWEEP_FAMILIES[seed % 3]
        alt = strategy.swap_in_profile(family.truth, "s1", "s2")
        truthful = family.draw_instance(family.truth, random.Random(seed))
        if seed % 2:   # with the views the draw hands over, and without them
            truthful = Instance(truthful.students, truthful.schools, truthful.capacity,
                                truthful.prefs, truthful.prios)
        assert family.draw_instance(alt, random.Random(seed)) == truthful.replace_prefs(
            {family.fixed_student: alt})


def test_manipulation_witness_fixture():
    text = (FIXTURES / "manipulation_witness.txt").read_text()
    inst = textio.parse_instance(text)
    student, report = None, None
    for line in text.splitlines():
        if line.startswith("# witness-student"):
            student = line.split()[-1]
        if line.startswith("# witness-report"):
            report = WeakOrder.strict(line.split()[2:])
    assert student and report
    gain = strategy.manipulation_gain(inst, student, report)
    assert gain > 0
