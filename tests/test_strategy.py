import random
from pathlib import Path

import pytest

from schoolmatch import sosm
from schoolmatch import strategy, textio
from schoolmatch.errors import PreconditionError
from schoolmatch.model import UNASSIGNED, WeakOrder, rank

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


def test_dominance_trial_tadam_small():
    fam = strategy.two_class_family(2)
    alt = strategy.swap_in_profile(fam.truth, "s1", "s2")
    rep = strategy.dominance_trial(
        strategy.mechanism_by_name("tadam"), fam, fam.truth, alt, 800, 11
    )
    assert rep.verdict is not strategy.Verdict.FAILS


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
