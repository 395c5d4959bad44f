import collections
import random

import pytest

from schoolmatch import (
    Matching,
    dominates,
    is_efficient,
    is_reasonably_fair,
    is_stable,
    preference_index,
    priority_violations,
    sosm,
    ttc,
)
from schoolmatch.analysis import ViolationRecord
from schoolmatch.errors import InstanceTooLargeError
from schoolmatch.mechanisms import eadam
from schoolmatch.model import Instance, WeakOrder, rank, tie_break
from schoolmatch.strategy import random_strict_instance
from schoolmatch import oracle, trading


def m_of(d, inst):
    return Matching.of(d, inst)


def test_preference_index_fixtures(scp2, scp3):
    sosm2, _ = sosm(scp2)
    assert preference_index(scp2, sosm2) == 10
    assert preference_index(scp3, eadam(scp3, scp3.students).matching) == 3


def test_preference_index_all_first_choices(scp1):
    m = m_of({"i1": "s2", "i2": "s1", "i3": "s1"}, scp1)
    # not capacity-feasible, but the metric is defined pointwise
    assert preference_index(scp1, m) == 0


def test_priority_violations_scp1(scp1):
    m_e = m_of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1)
    records = priority_violations(scp1, m_e)
    assert [(r.violator, r.victim, r.school) for r in records] == [("i2", "i3", "s1")]
    m_s, _ = sosm(scp1)
    assert priority_violations(scp1, m_s) == []


def test_is_stable_fixtures(scp1, scp4):
    m_s, _ = sosm(scp1)
    assert is_stable(scp1, m_s)
    assert not is_stable(scp1, m_of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1))
    assert not is_stable(scp4, ttc(scp4))


def test_stability_counts_residual_capacity():
    inst = Instance(
        ("i1",), ("s1", "s2"), {"s1": 1, "s2": 1},
        {"i1": WeakOrder.strict(["s1", "s2"])},
        {"s1": WeakOrder.strict(["i1"]), "s2": WeakOrder.strict(["i1"])},
    )
    assert not is_stable(inst, m_of({"i1": "s2"}, inst))
    assert not is_stable(inst, m_of({}, inst))
    assert is_stable(inst, m_of({"i1": "s1"}, inst))


def test_dominates_fixtures(scp1, scp5):
    m_s, _ = sosm(scp1)
    m_e = m_of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1)
    assert dominates(scp1, m_e, m_s)
    assert not dominates(scp1, m_s, m_s)
    t5, s5 = ttc(scp5), sosm(scp5)[0]
    assert not dominates(scp5, t5, s5)
    assert not dominates(scp5, s5, t5)


def test_dominates_antisymmetric_sampled():
    rng = random.Random(9)
    inst = random_strict_instance(rng, 5, 5)
    ms = [next(oracle.enumerate_matchings(inst)) for _ in range(1)]
    all_ms = list(oracle.enumerate_matchings(inst))
    sample = rng.sample(all_ms, 60)
    for a in sample[:30]:
        for b in sample[30:]:
            if dominates(inst, a, b):
                assert not dominates(inst, b, a)


def test_is_efficient_fixtures(scp1, scp5):
    m_e = m_of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1)
    assert is_efficient(scp1, m_e)
    assert not is_efficient(scp5, sosm(scp5)[0])


def test_is_efficient_single_pair():
    inst = Instance(
        ("i1",), ("s1",), {"s1": 1},
        {"i1": WeakOrder.strict(["s1"])},
        {"s1": WeakOrder.strict(["i1"])},
    )
    assert is_efficient(inst, m_of({"i1": "s1"}, inst))


def test_is_efficient_beyond_oracle_bound():
    """Ten students and ten schools, past the oracle's bound: TTC is
    efficient, the empty matching is not, and DA, stable on strict
    preferences, is efficient iff its trading graph has no trading clique."""
    verdicts = collections.Counter()
    for seed in range(1, 6):
        inst = random_strict_instance(random.Random(seed), 10, 10)
        with pytest.raises(InstanceTooLargeError):
            oracle.check_bound(inst)
        assert is_efficient(inst, ttc(inst))
        assert not is_efficient(inst, m_of({}, inst))
        da = sosm(inst)[0]
        no_clique = not trading.has_trading_clique(trading.build_graph(inst, da))
        assert is_efficient(inst, da) == no_clique
        verdicts[no_clique] += 1
    assert verdicts.keys() == {True, False}, verdicts


def test_is_reasonably_fair(scp1):
    m_s, _ = sosm(scp1)
    m_e = m_of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1)
    worse = m_of({"i1": "s3", "i2": "s2", "i3": "s1"}, scp1)
    assert is_reasonably_fair(scp1, m_e)
    assert is_reasonably_fair(scp1, m_s)
    assert not is_reasonably_fair(scp1, worse)


def test_domination_lowers_index():
    rng = random.Random(21)
    for _ in range(10):
        inst = random_strict_instance(rng, 4, 4)
        base, _ = sosm(inst)
        for m in oracle.efficient_dominations_of(inst, base):
            if m != base:
                assert preference_index(inst, m) < preference_index(inst, base)


def test_tadam_outputs_reasonably_fair():
    rng = random.Random(22)
    for _ in range(10):
        inst = random_strict_instance(rng, 5, 5)
        result = trading.tadam_run(inst)
        assert is_reasonably_fair(inst, result.matching)


def test_two_stable_matchings_same_index():
    # Two independent 2x2 cyclic blocks: flipping either block alone gives
    # two distinct stable matchings with equal preference index.
    inst = Instance(
        ("i1", "i2", "i3", "i4"), ("s1", "s2", "s3", "s4"),
        {s: 1 for s in ("s1", "s2", "s3", "s4")},
        {"i1": WeakOrder.strict(["s1", "s2", "s3", "s4"]),
         "i2": WeakOrder.strict(["s2", "s1", "s3", "s4"]),
         "i3": WeakOrder.strict(["s3", "s4", "s1", "s2"]),
         "i4": WeakOrder.strict(["s4", "s3", "s1", "s2"])},
        {"s1": WeakOrder.strict(["i2", "i1", "i3", "i4"]),
         "s2": WeakOrder.strict(["i1", "i2", "i3", "i4"]),
         "s3": WeakOrder.strict(["i4", "i3", "i1", "i2"]),
         "s4": WeakOrder.strict(["i3", "i4", "i1", "i2"])},
    )
    stable = oracle.stable_set(inst)
    indices = sorted(preference_index(inst, m) for m in stable)
    assert len(stable) == 4
    assert indices == [0, 2, 2, 4]


def reference_priority_violations(instance, matching):
    """Every school, every student and every holder, as written before the
    school cutoffs: O(m * n * capacity)."""
    records = []
    for s in instance.schools:
        holders = matching.students_at(s)
        if not holders:
            continue
        for victim in instance.students:
            assigned = matching[victim]
            if assigned == s:
                continue
            if rank(instance.prefs[victim], s) >= rank(instance.prefs[victim], assigned):
                continue
            for violator in holders:
                if rank(instance.prios[s], victim) < rank(instance.prios[s], violator):
                    records.append(ViolationRecord(violator, victim, s))
    records.sort(key=lambda r: (instance.school_index[r.school],
                                instance.student_index[r.victim],
                                instance.student_index[r.violator]))
    return records


def vacant_seat_envy(instance, matching):
    """Some student ranks a school with a free seat above her own seat."""
    fill = matching.fill_counts()
    return any(rank(instance.prefs[i], s) < rank(instance.prefs[i], matching[i])
               for i in instance.students for s in instance.schools
               if fill.get(s, 0) < instance.capacity[s])


def below_unassigned(instance, matching):
    """Some student ranks her own seat below having none."""
    return any(rank(instance.prefs[i], matching[i]) > rank(instance.prefs[i], None)
               for i in instance.students)


def _weak_order(rng, items):
    order = rng.sample(items, len(items))
    cuts = sorted(rng.sample(range(1, len(order)), min(rng.randint(0, 2), len(order) - 1)))
    return WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]))


def test_priority_violations_match_reference():
    """Weak preferences and priorities, lists truncated in a third of the
    instances, capacities 1-3; the DA, TTC and EADAM matchings of a lottery
    tie-break and one random feasible matching, judged against both the
    weak and the tie-broken instance.  ``is_stable`` is checked against the
    reference, a direct vacant-seat loop and a direct individual-rationality
    loop, and ``preference_index`` against each student's rank table."""
    rng = random.Random(44)
    outcomes = collections.Counter()
    truncated_comparisons = 0
    for _ in range(2000):
        n, m = rng.randint(1, 8), rng.randint(1, 5)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        truncate = rng.random() < 0.3
        prefs = {}
        for i in students:
            order = _weak_order(rng, schools)
            if truncate and rng.random() < 0.5:
                order = WeakOrder(order.classes[: rng.randint(0, len(order.classes) - 1)])
            prefs[i] = order
        prios = {s: _weak_order(rng, students) for s in schools}
        capacity = {s: rng.randint(1, 3) for s in schools}
        inst = Instance(students, schools, capacity, prefs, prios)
        strict = tie_break(inst, rng.randint(0, 4))
        seats = [s for s in schools for _ in range(capacity[s])] + [None] * n
        rng.shuffle(seats)
        consent = [i for i in students if rng.random() < 0.8]
        for matching in (sosm(strict)[0], ttc(strict), eadam(strict, consent).matching,
                         Matching.of(dict(zip(students, seats)), inst)):
            for judged in (inst, strict):
                expected = reference_priority_violations(judged, matching)
                assert priority_violations(judged, matching) == expected
                assert preference_index(judged, matching) == sum(
                    rank(judged.prefs[i], matching[i]) - 1 for i in students)
                vacant = vacant_seat_envy(judged, matching)
                unacceptable = below_unassigned(judged, matching)
                assert is_stable(judged, matching) == (
                    not expected and not vacant and not unacceptable)
                outcomes[bool(expected)] += 1
                truncated_comparisons += any(len(p.items()) < m for p in prefs.values())
    assert outcomes.keys() == {True, False}
    assert outcomes[True] > 1500 and truncated_comparisons > 2500
