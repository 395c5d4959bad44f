import collections
import gc
import random

import pytest

from schoolmatch import (
    Matching, dominates, is_efficient, is_reasonably_fair, is_stable, preference_index, sosm, ttc,
)
from schoolmatch import coalitions, oracle, trading
from schoolmatch.errors import InstanceTooLargeError
from schoolmatch.model import Instance, WeakOrder, rank, tie_break
from schoolmatch.strategy import random_strict_instance


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


def test_stable_set_requires_individual_rationality():
    students, schools = ("i1", "i2"), ("a", "b")
    inst = Instance(
        students, schools, {"a": 1, "b": 1},
        {"i1": WeakOrder.strict(["a"]), "i2": WeakOrder.strict(["a", "b"])},
        {"a": WeakOrder.strict(["i2", "i1"]), "b": WeakOrder.strict(["i1", "i2"])},
    )
    unacceptable = Matching.of({"i1": "b", "i2": "a"}, inst)
    assert not is_stable(inst, unacceptable)
    assert oracle.stable_set(inst) == {sosm(inst)[0]} == {Matching.of({"i2": "a"}, inst)}


def test_efficient_dominations_skip_rank_ties():
    """Swapping two indifferent students changes the matching but no rank:
    it neither equals nor dominates the reference."""
    students, schools = ("i1", "i2"), ("a", "b")
    inst = Instance(
        students, schools, {"a": 1, "b": 1},
        {i: WeakOrder.of([["a", "b"]]) for i in students},
        {s: WeakOrder.strict(students) for s in schools},
    )
    ref = Matching.of({"i1": "a", "i2": "b"}, inst)
    assert oracle.efficient_dominations_of(inst, ref) == {ref}
    assert is_efficient(inst, ref)


def _weak_order(rng, items, truncate=False):
    order = rng.sample(items, rng.randint(0, len(items)) if truncate else len(items))
    cuts = sorted(rng.sample(range(1, len(order)), min(rng.randint(0, 2), max(len(order) - 1, 0))))
    return WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]) if a < b)


def _brute_force(inst, ref):
    """Stable set, efficient dominations of ``ref``, and whether ``ref`` is
    efficient and reasonably fair, by filtering every matching."""
    every = list(oracle.enumerate_matchings(inst))
    stable = {m for m in every if is_stable(inst, m)}
    candidates = [m for m in every if m == ref or dominates(inst, m, ref)]
    efficient = {c for c in candidates if not any(dominates(inst, o, c) for o in candidates)}
    fair = not any(rank(inst.prefs[i], m[i]) < rank(inst.prefs[i], ref[i])
                   for m in stable for i in inst.students)
    return stable, efficient, not any(dominates(inst, m, ref) for m in every), fair


def test_seat_vector_oracle_matches_brute_force():
    """Weak preferences and priorities, lists truncated in half of the
    instances, capacities 1-2 (seat shortage whenever the students
    outnumber the seats); the reference matching is the lottery DA or a
    random capacity-respecting matching, which may hand out unlisted seats."""
    rng = random.Random(9)
    seen = collections.Counter()
    for _ in range(1000):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        truncate = rng.random() < 0.5
        inst = Instance(
            students, schools, {s: rng.randint(1, 2) for s in schools},
            {i: _weak_order(rng, schools, truncate) for i in students},
            {s: _weak_order(rng, students) for s in schools},
        )
        if rng.random() < 0.5:
            ref = sosm(tie_break(inst, rng.randint(0, 3)))[0]
        else:
            seats = [s for s in schools for _ in range(inst.capacity[s])] + [None] * n
            rng.shuffle(seats)
            ref = Matching.of(dict(zip(students, seats)), inst)
        stable, efficient, eff, fair = _brute_force(inst, ref)
        assert oracle.stable_set(inst) == stable
        assert oracle.efficient_dominations_of(inst, ref) == efficient
        assert is_efficient(inst, ref) == eff
        assert is_reasonably_fair(inst, ref) == fair
        seen["shortage"] += sum(inst.capacity.values()) < n
        seen["several stable"] += len(stable) > 1
        seen["dominated"] += not eff
        seen["unfair"] += not fair
    assert min(seen.values()) > 100, seen


def test_reasonable_fairness_by_da_matches_stable_set():
    """On strict instances ``is_reasonably_fair`` compares with the DA seat
    only; the oracle's whole stable set must give the same verdict.  1-6
    students, 1-4 schools of 1-2 seats, 40 % of lists truncated; each
    instance judges its DA, its TTC and a random seat assignment."""
    rng = random.Random(13)
    seen = collections.Counter()
    for _ in range(2000):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        prefs = {}
        for i in students:
            order, truncated = rng.sample(schools, m), rng.random() < 0.4
            prefs[i] = WeakOrder.strict(order[: rng.randint(0, m)] if truncated else order)
        inst = Instance(
            students, schools, {s: rng.randint(1, 2) for s in schools}, prefs,
            {s: WeakOrder.strict(rng.sample(students, n)) for s in schools},
        )
        seats = [s for s in schools for _ in range(inst.capacity[s])] + [None] * n
        rng.shuffle(seats)
        stable = oracle.stable_set(inst)
        for ref in (sosm(inst)[0], ttc(inst), Matching.of(dict(zip(students, seats)), inst)):
            fair = not any(rank(inst.prefs[i], t[i]) < rank(inst.prefs[i], ref[i])
                           for t in stable for i in students)
            assert is_reasonably_fair(inst, ref) == fair
            seen[fair] += 1
        seen["shortage"] += sum(inst.capacity.values()) < n
        seen["truncated"] += any(len(inst.prefs[i].classes) < m for i in students)
    assert min(seen.values()) > 300, seen


def test_graph_route_matches_oracle():
    """Weak complete lists and priorities, 2-5 students, 2-4 schools with
    1-2 seats; the DA and canonical TADAM matchings.  The graph test of
    ``is_efficient`` agrees with the oracle, also when the only
    improvement is a chain into a vacant seat."""
    rng = random.Random(12)
    answered = collections.Counter()
    for _ in range(1000):
        n, m = rng.randint(2, 5), rng.randint(2, 4)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        inst = Instance(
            students, schools, {s: rng.randint(1, 2) for s in schools},
            {i: _weak_order(rng, schools) for i in students},
            {s: _weak_order(rng, students) for s in schools},
        )
        result = trading.tadam_run(inst)
        for matching in (result.baseline, result.matching):
            by_graph = is_efficient(inst, matching)
            by_oracle = oracle.efficient_dominations_of(inst, matching) == {matching}
            assert by_graph == by_oracle, (inst, matching)
            answered[by_graph] += 1
            answered["vacant"] += by_graph is False and not trading.has_trading_clique(
                trading.build_graph(inst, matching))
    assert answered[True] > 500 and answered[False] > 200 and answered["vacant"] > 5, answered


def test_searches_leave_no_cyclic_garbage():
    """The seat-vector walk and the coalition-family walk recurse through
    module-level generators, so a call leaves no reference cycle behind for
    the cyclic collector: nothing to collect after each, the GC held off."""
    inst = random_strict_instance(random.Random(1), 5, 4)
    baseline, _ = sosm(inst)
    calls = {
        "stable_set": lambda: oracle.stable_set(inst),
        "enumerate_matchings": lambda: list(oracle.enumerate_matchings(inst)),
        "efficient_dominations_of": lambda: oracle.efficient_dominations_of(inst, baseline),
        "enumerate_coalitions": lambda: coalitions.enumerate_coalitions(inst),
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            call()
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0, name
