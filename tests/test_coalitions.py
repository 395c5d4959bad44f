import random

import pytest

from schoolmatch import Matching, preference_index, sosm, ttc, dominates
from schoolmatch import coalitions
from schoolmatch.errors import InstanceTooLargeError
from schoolmatch.mechanisms import eadam
from schoolmatch.strategy import random_strict_instance


def test_accomplice_set_scp2(scp2):
    baseline, _ = sosm(scp2)
    accomplices, displaced = coalitions.accomplice_set(
        scp2, baseline, (("i1", "i2", "i4"),)
    )
    assert accomplices == ("i5",)
    assert displaced["i5"] == frozenset({"s2", "s4"})


def test_accomplice_set_scp3(scp3):
    baseline, _ = sosm(scp3)
    accomplices, displaced = coalitions.accomplice_set(
        scp3, baseline, (("i3", "i1"), ("i4", "i2"))
    )
    # The membership formula also admits cabal members here; the essential
    # accomplice is i5 with her three displaced schools.
    assert "i5" in accomplices
    assert displaced["i5"] == frozenset({"s2", "s4", "s5"})
    assert set(accomplices) == {"i1", "i2", "i4", "i5"}


def test_accomplice_set_empty_cabal(scp2):
    baseline, _ = sosm(scp2)
    accomplices, displaced = coalitions.accomplice_set(scp2, baseline, ())
    assert accomplices == ()
    assert displaced == {}


def test_invalid_cabal_loop_rejected(scp2):
    baseline, _ = sosm(scp2)
    with pytest.raises(ValueError):
        # i5 does not strictly prefer i1's baseline school s5... she does;
        # use a loop where i1 receives i5's s3, which i1 ranks below s5.
        coalitions.accomplice_set(scp2, baseline, (("i5", "i1"),))


def test_falsified_profile_scp2(scp2):
    baseline, _ = sosm(scp2)
    profile = coalitions.falsified_profile(
        scp2, baseline, "i5", frozenset({"s2", "s4"})
    )
    assert profile.strict_sequence() == ("s5", "s3", "s1", "s2", "s4")


def test_falsified_profile_lists_each_school_once(scp2):
    """A displaced school already below the baseline school (i5 holds s3
    and ranks s1 last) moves to the end once, not a second time."""
    baseline, _ = sosm(scp2)
    assert baseline["i5"] == "s3"
    for x, want in (({"s1"}, ("s5", "s4", "s2", "s3", "s1")),
                    ({"s1", "s4"}, ("s5", "s2", "s3", "s1", "s4"))):
        for seed in (0, 1, 2, 3):
            seq = coalitions.falsified_profile(scp2, baseline, "i5", frozenset(x), seed)
            seq = seq.strict_sequence()
            assert sorted(seq) == sorted(scp2.schools)
            assert seed != 0 or seq == want


def test_falsified_profile_empty_x(scp2):
    baseline, _ = sosm(scp2)
    assert coalitions.falsified_profile(
        scp2, baseline, "i5", frozenset()
    ) == scp2.prefs["i5"]


def test_falsified_profile_seeds_keep_blocks(scp2):
    baseline, _ = sosm(scp2)
    x = frozenset({"s2", "s4"})
    pivot = baseline["i5"]
    base_seq = coalitions.falsified_profile(scp2, baseline, "i5", x).strict_sequence()
    cut = base_seq.index(pivot)
    for seed in (1, 2, 3):
        seq = coalitions.falsified_profile(scp2, baseline, "i5", x, seed).strict_sequence()
        assert seq.index(pivot) == cut
        assert set(seq[:cut]) == set(base_seq[:cut])
        assert set(seq[cut + 1:]) == set(base_seq[cut + 1:])


def test_run_coalition_scp2(scp2):
    baseline, _ = sosm(scp2)
    coalition = coalitions.build_coalition(scp2, baseline, (("i1", "i2", "i4"),))
    matching, verified = coalitions.run_coalition(scp2, coalition)
    assert matching.as_dict() == {
        "i1": "s2", "i2": "s5", "i3": "s1", "i4": "s4", "i5": "s3"
    }
    assert preference_index(scp2, matching) == 6
    assert verified


def test_run_coalition_scp3_alt(scp3):
    baseline, _ = sosm(scp3)
    coalition = coalitions.build_coalition(scp3, baseline, (("i4", "i2"),))
    matching, verified = coalitions.run_coalition(scp3, coalition)
    assert preference_index(scp3, matching) == 7
    assert verified


def test_run_coalition_empty(scp2):
    baseline, _ = sosm(scp2)
    coalition = coalitions.build_coalition(scp2, baseline, ())
    matching, verified = coalitions.run_coalition(scp2, coalition)
    assert matching == baseline and verified


def test_run_coalition_seed_invariant(scp2, scp3):
    for inst, loops in ((scp2, (("i1", "i2", "i4"),)), (scp3, (("i4", "i2"),))):
        baseline, _ = sosm(inst)
        coalition = coalitions.build_coalition(inst, baseline, loops)
        outcomes = {coalitions.run_coalition(inst, coalition, seed)[0]
                    for seed in range(5)}
        assert len(outcomes) == 1


def test_enumerate_coalitions_scp1_outcomes(scp1):
    outcomes = {tuple(sorted(o.matching.as_dict().items()))
                for o in coalitions.enumerate_coalitions(scp1)}
    assert outcomes == {
        (("i1", "s1"), ("i2", "s2"), ("i3", "s3")),
        (("i1", "s2"), ("i2", "s1"), ("i3", "s3")),
    }


def test_enumerate_coalitions_scp3_indices(scp3):
    indices = {preference_index(scp3, o.matching)
               for o in coalitions.enumerate_coalitions(scp3)}
    assert {3, 7} <= indices


def test_enumerate_outcomes_dominate_baseline():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_strict_instance(rng, 5, 5)
        baseline, _ = sosm(inst)
        for o in coalitions.enumerate_coalitions(inst):
            assert o.verified
            if o.matching != baseline:
                assert dominates(inst, o.matching, baseline)
            cabal = o.coalition.cabal
            for i in inst.students:
                if i not in cabal:
                    assert o.matching[i] == baseline[i]


def test_selfless_accomplice_exists():
    # Dubins-Freedman: accomplices outside the cabal never gain.
    rng = random.Random(42)
    for _ in range(20):
        inst = random_strict_instance(rng, 5, 5)
        baseline, _ = sosm(inst)
        for o in coalitions.enumerate_coalitions(inst):
            for i in o.coalition.accomplices:
                if i not in o.coalition.cabal:
                    assert o.matching[i] == baseline[i]


def test_eadam_as_coalition_scp3(scp3):
    coalition = coalitions.eadam_as_coalition(scp3, scp3.students)
    assert {frozenset(loop) for loop in coalition.loops} == {
        frozenset({"i1", "i3"}), frozenset({"i2", "i4"})
    }
    assert coalition.accomplices == ("i5",)
    assert coalition.displaced["i5"] == frozenset({"s2", "s4", "s5"})
    matching, verified = coalitions.run_coalition(scp3, coalition)
    assert verified
    assert matching == eadam(scp3, scp3.students).matching


def test_eadam_as_coalition_scp2(scp2):
    coalition = coalitions.eadam_as_coalition(scp2, scp2.students)
    assert coalition.cabal == frozenset({"i1", "i2", "i4"})
    assert coalition.accomplices == ("i5",)
    matching, verified = coalitions.run_coalition(scp2, coalition)
    assert verified
    assert matching == eadam(scp2, scp2.students).matching


def test_eadam_as_coalition_no_consent(scp3):
    coalition = coalitions.eadam_as_coalition(scp3, ())
    assert coalition.loops == ()
    assert coalition.accomplices == ()


def test_mu7_outcome_not_reachable_by_eadam(scp3):
    # The cabal-{i2,i4} coalition outcome appears in enumeration but in no
    # EADAM run over any consenter subset.
    from itertools import combinations

    baseline, _ = sosm(scp3)
    coalition = coalitions.build_coalition(scp3, baseline, (("i4", "i2"),))
    target, _ = coalitions.run_coalition(scp3, coalition)
    assert target in {o.matching for o in coalitions.enumerate_coalitions(scp3)}
    for r in range(len(scp3.students) + 1):
        for consent in combinations(scp3.students, r):
            assert eadam(scp3, consent).matching != target


def test_enumerate_coalitions_names_its_limit():
    inst = random_strict_instance(random.Random(0), 9, 3)
    with pytest.raises(InstanceTooLargeError,
                       match=r"^9 students exceed max_students=8; raise max_students"):
        coalitions.enumerate_coalitions(inst)
