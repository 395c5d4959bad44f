import pytest

from schoolmatch import Matching, preference_index, sosm
from schoolmatch import oracle
from schoolmatch.errors import InstanceTooLargeError
from schoolmatch.model import Instance, WeakOrder


def tiny(n_students, n_schools):
    students = tuple(f"i{k}" for k in range(1, n_students + 1))
    schools = tuple(f"s{k}" for k in range(1, n_schools + 1))
    return Instance(
        students, schools, {s: 1 for s in schools},
        {i: WeakOrder.strict(schools) for i in students},
        {s: WeakOrder.strict(students) for s in schools},
    )


def test_enumerate_count_scp1(scp1):
    assert sum(1 for _ in oracle.enumerate_matchings(scp1)) == 34


def test_enumerate_count_tiny():
    assert sum(1 for _ in oracle.enumerate_matchings(tiny(1, 1))) == 2
    inst = tiny(0, 1)
    assert sum(1 for _ in oracle.enumerate_matchings(inst)) == 1


def test_enumerate_unique_and_capacity_respecting(scp4):
    seen = set()
    for m in oracle.enumerate_matchings(scp4):
        assert m not in seen
        seen.add(m)
        for s, n in m.fill_counts().items():
            assert n <= scp4.capacity[s]


def test_bound_enforced():
    with pytest.raises(InstanceTooLargeError,
                       match=r"^9 students exceed OracleBound.max_students=8; raise max_students"):
        list(oracle.enumerate_matchings(tiny(9, 2)))
    with pytest.raises(InstanceTooLargeError,
                       match=r"^matching-space ceiling 729 exceeds "
                             r"OracleBound.max_total_matchings=500; raise max_total_matchings"):
        oracle.check_bound(tiny(3, 8), oracle.OracleBound(max_total_matchings=500))


def test_stable_set_scp1(scp1):
    m_s, _ = sosm(scp1)
    assert oracle.stable_set(scp1) == {m_s}


def test_stable_set_scp3_min_is_sosm(scp3):
    m_s, _ = sosm(scp3)
    stable = oracle.stable_set(scp3)
    assert m_s in stable
    best = min(preference_index(scp3, m) for m in stable)
    assert preference_index(scp3, m_s) == best


def test_stable_set_tiny():
    assert len(oracle.stable_set(tiny(1, 1))) == 1


def test_efficient_dominations_scp2(scp2):
    base, _ = sosm(scp2)
    eff = oracle.efficient_dominations_of(scp2, base)
    assert len(eff) == 3
    assert all(preference_index(scp2, m) == 6 for m in eff)


def test_efficient_dominations_scp5(scp5):
    base, _ = sosm(scp5)
    eff = oracle.efficient_dominations_of(scp5, base)
    assert 1 in {preference_index(scp5, m) for m in eff}


def test_efficient_dominations_of_efficient_matching(scp1):
    m_e = Matching.of({"i1": "s2", "i2": "s1", "i3": "s3"}, scp1)
    assert oracle.efficient_dominations_of(scp1, m_e) == {m_e}
