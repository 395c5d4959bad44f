import random

from schoolmatch import Matching, is_stable, preference_index, sosm, ttc
from schoolmatch.mechanisms import eadam, hopeless_students, interrupters
from schoolmatch.model import WeakOrder, Instance
from schoolmatch.strategy import random_strict_instance
from schoolmatch import oracle


def outcome(m):
    return m.as_dict()


def test_sosm_scp1(scp1):
    m, _ = sosm(scp1)
    assert outcome(m) == {"i1": "s1", "i2": "s2", "i3": "s3"}


def test_sosm_scp4_multiseat(scp4):
    m, _ = sosm(scp4)
    assert outcome(m) == {"i1": "s2", "i2": "s2", "i3": "s1"}


def test_sosm_scp3_trace(scp3):
    m, trace = sosm(scp3)
    assert outcome(m) == {"i1": "s5", "i2": "s4", "i3": "s1", "i4": "s2", "i5": "s3"}
    assert len(trace.steps) == 12
    assert not trace.steps[-1].rejections


def test_trace_hold_sizes(scp3):
    _, trace = sosm(scp3)
    for step in trace.steps:
        for s, held in step.holds.items():
            assert len(held) <= scp3.capacity[s]


def test_interrupters_scp3(scp3):
    _, trace = sosm(scp3)
    pairs = {(p.student, p.school) for p in interrupters(trace)}
    assert pairs == {("i5", "s4"), ("i1", "s2"), ("i2", "s2"), ("i5", "s5"), ("i2", "s5")}
    last = max(interrupters(trace), key=lambda p: p.rejection_step)
    assert (last.student, last.school) == ("i5", "s4")


def test_interrupters_empty_without_rejections():
    inst = Instance(
        ("i1",), ("s1",), {"s1": 1},
        {"i1": WeakOrder.strict(["s1"])},
        {"s1": WeakOrder.strict(["i1"])},
    )
    _, trace = sosm(inst)
    assert interrupters(trace) == []


def test_eadam_scp3_full_consent(scp3):
    result = eadam(scp3, scp3.students)
    assert outcome(result.matching) == {
        "i1": "s1", "i2": "s2", "i3": "s5", "i4": "s4", "i5": "s3"
    }
    assert result.removal_sequence == (("i5", "s4"), ("i5", "s2"), ("i5", "s5"))


def test_eadam_scp1_i3_consent(scp1):
    result = eadam(scp1, ("i3",))
    assert outcome(result.matching) == {"i1": "s2", "i2": "s1", "i3": "s3"}


def test_eadam_no_consent_is_sosm(scp3):
    result = eadam(scp3, ())
    assert result.matching == sosm(scp3)[0]
    assert result.removal_sequence == ()


def test_eadam_weakly_dominates_sosm():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_strict_instance(rng, 5, 5)
        base, _ = sosm(inst)
        consent = tuple(i for i in inst.students if rng.random() < 0.5)
        result = eadam(inst, consent)
        for i in inst.students:
            assert inst.pref_rank[i].get(result.matching[i], 99) <= \
                inst.pref_rank[i].get(base[i], 99)


def test_hopeless_students(scp1, scp2):
    assert hopeless_students(sosm(scp1)[1]) == {"i3"}
    assert hopeless_students(sosm(scp2)[1]) == {"i5"}


def test_hopeless_single_student():
    inst = Instance(
        ("i1",), ("s1",), {"s1": 1},
        {"i1": WeakOrder.strict(["s1"])},
        {"s1": WeakOrder.strict(["i1"])},
    )
    assert hopeless_students(sosm(inst)[1]) == {"i1"}


def test_ttc_fixtures(scp1, scp4, scp5):
    assert outcome(ttc(scp1)) == {"i1": "s2", "i2": "s1", "i3": "s3"}
    assert outcome(ttc(scp4)) == {"i1": "s2", "i2": "s1", "i3": "s2"}
    assert outcome(ttc(scp5)) == {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4"}


def test_sosm_stable_on_random_instances():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_strict_instance(rng, 6, rng.randint(3, 6))
        m, _ = sosm(inst)
        assert is_stable(inst, m)


def test_sosm_is_min_mu_stable():
    rng = random.Random(4)
    for _ in range(15):
        inst = random_strict_instance(rng, 5, 5)
        m, _ = sosm(inst)
        stable = oracle.stable_set(inst)
        assert m in stable
        assert preference_index(inst, m) == min(
            preference_index(inst, t) for t in stable
        )


def test_ttc_efficient_on_random_instances():
    rng = random.Random(5)
    for _ in range(15):
        inst = random_strict_instance(rng, 5, 5)
        t = ttc(inst)
        assert oracle.efficient_dominations_of(inst, t) == {t}


def test_unassigned_when_seats_short():
    inst = Instance(
        ("i1", "i2"), ("s1",), {"s1": 1},
        {"i1": WeakOrder.strict(["s1"]), "i2": WeakOrder.strict(["s1"])},
        {"s1": WeakOrder.strict(["i1", "i2"])},
    )
    m, _ = sosm(inst)
    assert m["i1"] == "s1" and m["i2"] is None
    t = ttc(inst)
    assert t["i1"] == "s1" and t["i2"] is None


def test_ttc_keeps_placing_after_a_list_runs_out():
    both = WeakOrder.strict(["s1", "s2"])
    prio = WeakOrder.strict(["i1", "i2", "i3"])
    inst = Instance(
        ("i1", "i2", "i3"), ("s1", "s2"), {"s1": 1, "s2": 1},
        {"i1": both, "i2": WeakOrder.strict(["s1"]), "i3": both},
        {"s1": prio, "s2": prio},
    )
    assert outcome(ttc(inst)) == {"i1": "s1", "i2": None, "i3": "s2"}
