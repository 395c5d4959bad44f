import random

import pytest

from schoolmatch import Matching, is_stable, preference_index, sosm, ttc
from schoolmatch.mechanisms import (
    DaStep, DaTrace, EadamResult, eadam, hopeless_students, interrupters,
)
from schoolmatch.model import UNASSIGNED, WeakOrder, Instance, tie_break
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
            assert inst.pref_rank[i][result.matching[i]] <= inst.pref_rank[i][base[i]]


def test_eadam_rejects_unknown_consenters(scp3):
    with pytest.raises(ValueError, match=r"\['ghost', 'nobody'\]"):
        eadam(scp3, ("i1", "nobody", "ghost"))


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


# Reference implementations: deferred acceptance that rescans every student
# at every step, TTC that rescans every list, takes a minimum over all
# pointing students and resolves all cycles at every round, and EADAM on
# top of the former.

def rescanning_sosm(inst):
    lists, prio = inst.strict_pref_lists, inst.prio_rank
    pointer = dict.fromkeys(inst.students, 0)
    held_at = dict.fromkeys(inst.students, UNASSIGNED)
    holds = {s: [] for s in inst.schools}
    steps = []
    while True:
        proposers = tuple(i for i in inst.students
                          if held_at[i] is UNASSIGNED and pointer[i] < len(lists[i]))
        if not proposers:
            return Matching.of(held_at, inst), DaTrace(tuple(steps))
        proposals, kept_at, rejected_at = {}, {}, {}
        for i in proposers:
            proposals.setdefault(lists[i][pointer[i]], []).append(i)
        for s, newcomers in proposals.items():
            pool = sorted(holds[s] + newcomers, key=prio[s].__getitem__)
            holds[s], rejected = pool[: inst.capacity[s]], pool[inst.capacity[s]:]
            held_at.update(dict.fromkeys(newcomers, s))
            for i in rejected:
                held_at[i] = UNASSIGNED
                pointer[i] += 1
            kept_at[s] = tuple(holds[s])
            if rejected:
                rejected_at[s] = tuple(sorted(rejected, key=inst.student_index.__getitem__))
        steps.append(DaStep(proposers, {s: tuple(v) for s, v in proposals.items()},
                            kept_at, rejected_at))


def rescanning_ttc(inst):
    seats = dict(inst.capacity)
    unassigned = list(inst.students)
    assignment = dict.fromkeys(inst.students, UNASSIGNED)
    while True:
        student_pt = {}
        for i in unassigned:
            choices = [s for s in inst.strict_pref_lists[i] if seats[s] > 0]
            if choices:
                student_pt[i] = choices[0]
        if not student_pt:
            return Matching.of(assignment, inst)
        school_pt = {s: min(student_pt, key=inst.prio_rank[s].__getitem__)
                     for s in inst.schools if seats[s] > 0}
        in_cycle = _functional_cycles(student_pt, school_pt)
        for i in in_cycle:
            assignment[i] = student_pt[i]
            seats[student_pt[i]] -= 1
        unassigned = [i for i in student_pt if i not in in_cycle]


def _functional_cycles(student_pt, school_pt):
    """Students lying on a cycle of the student->school->student pointer graph."""
    succ = {i: school_pt[s] for i, s in student_pt.items()}
    on_cycle = set()
    state = {}  # 1 = on current walk, 2 = finished
    for start in student_pt:
        if state.get(start):
            continue
        path = []
        node = start
        while state.get(node) is None:
            state[node] = 1
            path.append(node)
            node = succ[node]
        if state[node] == 1:  # closed a new cycle at `node`
            on_cycle.update(path[path.index(node):])
        for v in path:
            state[v] = 2
    return on_cycle


def rescanning_eadam(inst, consent):
    removals, traces = [], []
    while True:
        matching, trace = rescanning_sosm(inst)
        traces.append(trace)
        pairs = [p for p in interrupters(trace) if p.student in consent]
        if not pairs:
            return EadamResult(matching, tuple(removals), tuple(traces))
        last = max(p.rejection_step for p in pairs)
        removals.append(tuple(p for p in pairs if p.rejection_step == last))
        inst = inst.replace_prefs(
            {p.student: inst.prefs[p.student].without(p.school) for p in removals[-1]})


def coarse_instance(rng, students=(2, 10), schools=(1, 6), max_capacity=3):
    """Strict preferences, a quarter of them truncated (some to nothing);
    capacities 1 to ``max_capacity``, often fewer seats than students;
    priorities in one to three classes, broken by a lottery seed 0-4."""
    n, m = rng.randint(*students), rng.randint(*schools)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        if rng.random() < 0.25:
            order = order[: rng.randint(0, m - 1)]
        prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = rng.sample(students, n)
        cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, 2), n - 1)))
        prios[s] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [n]))
    capacity = {s: rng.randint(1, max_capacity) for s in schools}
    return tie_break(Instance(students, schools, capacity, prefs, prios), rng.randint(0, 4))


def test_pointer_loops_match_rescanning_references():
    both = WeakOrder.strict(["s1", "s2"])
    prio = WeakOrder.strict(["i1", "i2", "i3"])
    list_runs_out = Instance(   # ROADMAP TTC reproduction: i2's list ends mid-run
        ("i1", "i2", "i3"), ("s1", "s2"), {"s1": 1, "s2": 1},
        {"i1": both, "i2": WeakOrder.strict(["s1"]), "i3": both},
        {"s1": prio, "s2": prio},
    )
    rng = random.Random(36)
    instances = [list_runs_out] + [coarse_instance(rng) for _ in range(2500)]
    wide = random.Random(37)   # 10-60 schools: TTC walks of 10-20 students
    instances += [coarse_instance(wide, (50, 200), (10, 60), 25) for _ in range(20)]
    short = truncated = removed = 0
    for inst in instances:
        assert sosm(inst) == rescanning_sosm(inst)
        assert ttc(inst) == rescanning_ttc(inst)
        consent = frozenset(i for i in inst.students if rng.random() < 0.8)
        result = eadam(inst, consent)
        reference = rescanning_eadam(inst, consent)
        assert (result.matching, result.removals, result.traces) == \
            (reference.matching, reference.removals, reference.traces)
        short += sum(inst.capacity.values()) < len(inst.students)
        truncated += any(len(inst.prefs[i].classes) < len(inst.schools) for i in inst.students)
        removed += bool(result.removals)
    assert short > 600 and truncated > 1200 and removed > 250
