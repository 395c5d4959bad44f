import collections
import functools
import gc
import random
import tracemalloc

import pytest

from schoolmatch import Matching, is_stable, preference_index, sosm, ttc
from schoolmatch.mechanisms import (
    DaStep, EadamResult, InterrupterPair, eadam, hopeless_students, interrupters,
)
from schoolmatch.model import UNASSIGNED, WeakOrder, Instance, rank, tie_break
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
            assert rank(inst.prefs[i], result.matching[i]) <= rank(inst.prefs[i], base[i])


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
# at every step and names its steps as it goes, interrupters and hopeless
# students read from those named steps, TTC that rescans every list, takes
# a minimum over all pointing students and resolves all cycles at every
# round, and EADAM on top of the rescanning DA and named interrupters.

def prio_ranks(inst):
    """Each school's rank of each student, by name."""
    return {s: student_ranks(inst.prios[s], inst.students) for s in inst.schools}


@functools.lru_cache(maxsize=1024)
def student_ranks(order, students):
    """:func:`rank` of each student; kept across the DA reruns of one
    reference EADAM run, which share their priorities."""
    return {i: rank(order, i) for i in students}


def rescanning_sosm(inst):
    lists = {i: inst.prefs[i].strict_sequence() for i in inst.students}
    prio = prio_ranks(inst)
    pointer = dict.fromkeys(inst.students, 0)
    held_at = dict.fromkeys(inst.students, UNASSIGNED)
    holds = {s: [] for s in inst.schools}
    steps = []
    while True:
        proposers = tuple(i for i in inst.students
                          if held_at[i] is UNASSIGNED and pointer[i] < len(lists[i]))
        if not proposers:
            return Matching.of(held_at, inst), tuple(steps)
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


def step_interrupters(steps):
    """Student ``i`` interrupts school ``s`` if she tentatively held ``s``
    from step t, was rejected from it at step t' > t, and some other
    student was rejected from ``s`` at a step in [t, t'-1]."""
    accepted_at, rejected_at, rejections_by_school = {}, {}, {}
    for t, step in enumerate(steps, start=1):
        for s, newcomers in step.proposals.items():
            held = set(step.holds.get(s, ()))
            for i in newcomers:
                if i in held:
                    accepted_at[(i, s)] = t
        for s, rejected in step.rejections.items():
            for i in rejected:
                rejected_at[(i, s)] = t
                rejections_by_school.setdefault(s, []).append((t, i))
    pairs = []
    for (i, s), t in accepted_at.items():
        t_prime = rejected_at.get((i, s))
        if t_prime is None:
            continue
        if any(t <= r < t_prime and j != i for r, j in rejections_by_school.get(s, ())):
            pairs.append(InterrupterPair(i, s, t_prime))
    pairs.sort(key=lambda p: p.rejection_step)
    return pairs


def step_hopeless(steps):
    """Proposers of the final step, if it rejected nobody."""
    if not steps or any(steps[-1].rejections.values()):
        return frozenset()
    return frozenset(steps[-1].proposers)


def rescanning_ttc(inst):
    prio = prio_ranks(inst)
    seats = dict(inst.capacity)
    unassigned = list(inst.students)
    assignment = dict.fromkeys(inst.students, UNASSIGNED)
    while True:
        student_pt = {}
        for i in unassigned:
            choices = [s for s in inst.prefs[i].strict_sequence() if seats[s] > 0]
            if choices:
                student_pt[i] = choices[0]
        if not student_pt:
            return Matching.of(assignment, inst)
        school_pt = {s: min(student_pt, key=prio[s].__getitem__)
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
    """The matching, the removals of each round and the steps of each round."""
    removals, traces = [], []
    while True:
        matching, steps = rescanning_sosm(inst)
        traces.append(steps)
        pairs = [p for p in step_interrupters(steps) if p.student in consent]
        if not pairs:
            return matching, tuple(removals), tuple(traces)
        last = max(p.rejection_step for p in pairs)
        removals.append(tuple(p for p in pairs if p.rejection_step == last))
        inst = inst.replace_prefs({p.student: WeakOrder.strict(
            [s for s in inst.prefs[p.student].items() if s != p.school]) for p in removals[-1]})


def last_step_pairs(trace, consent):
    """The consenting pairs of ``interrupters(trace)`` rejected at the last
    step that rejects one: what an EADAM round on that trace removes."""
    pairs = [p for p in interrupters(trace) if p.student in consent]
    return tuple(p for p in pairs if p.rejection_step == pairs[-1].rejection_step)


def coarse_instance(rng, students=(2, 10), schools=(1, 6), max_capacity=3, truncate=0.25):
    """Strict preferences, a share ``truncate`` of them truncated (some to
    nothing); capacities 1 to ``max_capacity``, often fewer seats than
    students; priorities in one to three classes, broken by a lottery seed
    0-4."""
    n, m = rng.randint(*students), rng.randint(*schools)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        if rng.random() < truncate:
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
        matching, trace = sosm(inst)
        assert (matching, trace.steps) == rescanning_sosm(inst)
        assert hash(matching) == hash((matching.pairs,))   # sets of matchings keep their order
        assert interrupters(trace) == step_interrupters(trace.steps)
        assert hopeless_students(trace) == step_hopeless(trace.steps)
        assert ttc(inst) == rescanning_ttc(inst)
        consent = frozenset(i for i in inst.students if rng.random() < 0.8)
        result = eadam(inst, consent)
        alike = EadamResult(result.matching, result.removals, None)   # ``instance`` is not compared
        assert result == alike and hash(result) == hash(alike)
        assert (result.matching, result.removals, tuple(t.steps for t in result.traces)) \
            == rescanning_eadam(inst, consent)
        assert len(result.traces) == len(result.removals) + 1
        assert tuple(last_step_pairs(t, consent) for t in result.traces) == result.removals + ((),)
        short += sum(inst.capacity.values()) < len(inst.students)
        truncated += any(len(inst.prefs[i].classes) < len(inst.schools) for i in inst.students)
        removed += bool(result.removals)
    assert short > 600 and truncated > 1200 and removed > 250


def test_eadam_result_keeps_no_trace():
    """All-consent EADAM on a strict 400 x 400 instance keeps its matching
    and removals, at most 1 KB per student once its garbage is collected,
    and builds no trace until ``traces`` is read."""
    inst = random_strict_instance(random.Random(1), 400, 400)
    inst.int_view, inst.student_index, inst.school_index, inst.is_strict   # built first
    gc.collect()
    tracemalloc.start()
    try:
        result = eadam(inst, inst.students)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 1024 * len(inst.students), kept
    assert "traces" not in vars(result) and len(result.removals) > 50


def simplified_eadam(inst):
    """Tang & Yu's (2014) simplified EADAM, every student consenting: run
    DA, settle the unassigned and the students at schools that rejected
    nobody, drop them and those schools, and repeat on the rest."""
    settled = {}
    students, schools = inst.students, inst.schools
    while students:
        kept = set(schools)
        sub = Instance(
            students, schools, {s: inst.capacity[s] for s in schools},
            {i: WeakOrder.strict([s for s in inst.prefs[i].items() if s in kept])
             for i in students},
            {s: WeakOrder.strict([i for i in inst.prios[s].items() if i in students])
             for s in schools},
        )
        matching, _ = sosm(sub)
        proposed = collections.Counter()   # each proposes down her list to her seat
        for i, seat in matching.pairs:
            order = sub.prefs[i].items()
            proposed.update(order if seat is UNASSIGNED else order[: order.index(seat) + 1])
        calm = {s for s in schools if proposed[s] == len(matching.students_at(s))}
        settled.update((i, s) for i, s in matching.pairs if s is UNASSIGNED or s in calm)
        students = tuple(i for i in students if i not in settled)
        schools = tuple(s for s in schools if s not in calm)
    return Matching.of(settled, inst)


def test_eadam_matches_simplified_eadam():
    """Full-consent EADAM against the simplified EADAM on 4,000 strict
    instances: 1-7 students, 1-6 schools with 1-3 seats, 30 % of lists
    truncated."""
    rng = random.Random(38)
    seen = collections.Counter()
    for _ in range(4000):
        inst = coarse_instance(rng, (1, 7), (1, 6), truncate=0.3)
        result = eadam(inst, inst.students)
        assert result.matching == simplified_eadam(inst), inst
        seen["short"] += sum(inst.capacity.values()) < len(inst.students)
        seen["improved"] += bool(result.removals) and result.matching != sosm(inst)[0]
    assert seen["short"] > 300 and seen["improved"] > 50, seen
