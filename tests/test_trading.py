import collections
import random

import pytest

from schoolmatch import Matching, is_efficient, preference_index, sosm, ttc
from schoolmatch import oracle, textio, trading
from schoolmatch.errors import CycleLimitExceededError, SearchLimitExceededError
from schoolmatch.model import Instance, WeakOrder, tie_break
from schoolmatch.strategy import random_strict_instance


def cliques_of(instance):
    baseline, _ = sosm(instance)
    graph = trading.prune(trading.build_graph(instance, baseline))
    return trading.find_cliques(graph, instance)


def test_build_graph_scp2(scp2):
    baseline, _ = sosm(scp2)
    graph = trading.build_graph(scp2, baseline)
    expected = {
        ("i1", "i4"), ("i2", "i4"), ("i4", "i2"), ("i2", "i1"),
        ("i3", "i4"), ("i4", "i3"), ("i3", "i1"),
        ("i5", "i1"), ("i5", "i2"), ("i5", "i4"),
    }
    assert set(graph.weights) == expected
    assert all(w == 1 for w in graph.weights.values())


def test_build_graph_weak_edge(scp6):
    baseline = Matching.of({"i1": "s1", "i2": "s2", "i3": "s3"}, scp6)
    graph = trading.build_graph(scp6, baseline)
    assert graph.weights[("i1", "i2")] == 0
    assert graph.weights[("i2", "i1")] == 1


def test_build_graph_no_strict_edges_at_top(scp1):
    m = Matching.of({"i1": "s2", "i2": "s1", "i3": "s1"}, scp1)
    graph = trading.build_graph(scp1, m)
    assert not any(w == 1 for w in graph.weights.values())


def test_prune(scp2, scp3):
    for inst in (scp2, scp3):
        baseline, _ = sosm(inst)
        pruned = trading.prune(trading.build_graph(inst, baseline))
        assert set(pruned.vertices) == {"i1", "i2", "i3", "i4"}


def test_prune_acyclic_graph_empties():
    graph = trading.MatchGraph(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1})
    assert trading.prune(graph).vertices == ()


def test_find_cliques_scp2(scp2):
    cliques = cliques_of(scp2)
    cycles = {c.cycle for c in cliques}
    assert cycles == {
        ("i1", "i4", "i2"), ("i1", "i4", "i3"), ("i2", "i4"), ("i3", "i4"),
    }
    assert all(c.kind is trading.CliqueKind.TRADING for c in cliques)


def test_find_cliques_scp3(scp3):
    cycles = {c.cycle for c in cliques_of(scp3)}
    assert cycles == {
        ("i1", "i4", "i2"), ("i1", "i4", "i3"), ("i2", "i4"), ("i3", "i4"),
        ("i1", "i3"), ("i1", "i3", "i4", "i2"),
    }


def test_find_cliques_scp6(scp6):
    baseline = Matching.of({"i1": "s1", "i2": "s2", "i3": "s3"}, scp6)
    graph = trading.prune(trading.build_graph(scp6, baseline))
    cliques = trading.find_cliques(graph, scp6)
    trading_cliques = [c for c in cliques if c.kind is trading.CliqueKind.TRADING]
    assert [c.cycle for c in trading_cliques] == [("i1", "i2")]


def test_apply_clique_scp2(scp2):
    baseline, _ = sosm(scp2)
    clique = next(c for c in cliques_of(scp2) if c.cycle == ("i1", "i4", "i2"))
    after = trading.apply_clique(scp2, baseline, clique)
    assert after.as_dict() == {
        "i1": "s2", "i2": "s5", "i3": "s1", "i4": "s4", "i5": "s3"
    }


def test_apply_clique_stale_rejected(scp2):
    baseline, _ = sosm(scp2)
    clique = next(c for c in cliques_of(scp2) if c.cycle == ("i1", "i4", "i2"))
    moved = trading.apply_clique(scp2, baseline, clique)
    with pytest.raises(ValueError):
        trading.apply_clique(scp2, moved, clique)


def test_apply_null_clique_keeps_index(scp4):
    m = Matching.of({"i1": "s1", "i2": "s2", "i3": "s2"}, scp4)
    graph = trading.build_graph(scp4, m)
    nulls = [
        c for c in trading.find_cliques(graph, scp4)
        if c.kind is trading.CliqueKind.NULL
    ]
    for clique in nulls:
        after = trading.apply_clique(scp4, m, clique)
        assert preference_index(scp4, after) == preference_index(scp4, m)


def test_tadam_run_scp2(scp2):
    result = trading.tadam_run(scp2)
    assert preference_index(scp2, result.matching) == 6
    assert result.applied  # at least one clique logged


def test_tadam_run_scp6(scp6):
    result = trading.tadam_run(scp6)
    assert result.matching.as_dict() == {"i1": "s2", "i2": "s1", "i3": "s3"}
    assert preference_index(scp6, result.matching) == 2


def test_tadam_run_acyclic_is_sosm():
    inst = Instance(
        ("i1", "i2"), ("s1", "s2"), {"s1": 1, "s2": 1},
        {"i1": WeakOrder.strict(["s1", "s2"]), "i2": WeakOrder.strict(["s1", "s2"])},
        {"s1": WeakOrder.strict(["i1", "i2"]), "s2": WeakOrder.strict(["i1", "i2"])},
    )
    result = trading.tadam_run(inst)
    assert result.matching == sosm(inst)[0]
    assert result.applied == ()


def test_trading_clique_strictly_lowers_index():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_strict_instance(rng, 5, 5)
        current, _ = sosm(inst)
        graph = trading.prune(trading.build_graph(inst, current))
        for clique in trading.find_cliques(graph, inst):
            if clique.kind is trading.CliqueKind.TRADING:
                after = trading.apply_clique(inst, current, clique)
                assert preference_index(inst, after) < preference_index(inst, current)


def varied_strict_instance(rng):
    """Strict preferences, a fifth of them truncated; capacities 1-3, often
    fewer seats than students; priorities in three coarse classes."""
    n, m = rng.randint(5, 8), rng.randint(2, 4)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        if rng.random() < 0.2:
            order = order[: rng.randint(1, m)]
        prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = rng.sample(students, n)
        cuts = sorted(rng.sample(range(1, n), 2))
        prios[s] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [n]))
    capacity = {s: rng.randint(1, 3) for s in schools}
    return Instance(students, schools, capacity, prefs, prios)


def enumerated_tadam(instance):
    """Reference canonical run: the first trading clique of find_cliques."""
    strict = tie_break(instance, 0)
    current, _ = sosm(strict)
    applied = []
    while True:
        graph = trading.prune(trading.build_graph(instance, current))
        pick = next(
            (c for c in trading.find_cliques(graph, instance)
             if c.kind is trading.CliqueKind.TRADING),
            None,
        )
        if pick is None:
            return current, tuple(applied)
        current = trading.apply_clique(instance, current, pick)
        applied.append(pick)


def test_canonical_tadam_matches_enumeration():
    rng = random.Random(35)
    applied = short = 0
    for _ in range(1200):
        inst = varied_strict_instance(rng)
        result = trading.tadam_run(inst)
        assert (result.matching, result.applied) == enumerated_tadam(inst)
        applied += len(result.applied)
        short += sum(inst.capacity.values()) < len(inst.students)
    assert applied > 200 and short > 300


def test_canonical_tadam_needs_no_cycle_limit():
    inst = random_strict_instance(random.Random(2), 40, 40)
    result = trading.tadam_run(inst, cycle_limit=1)
    assert result.applied
    assert not trading.has_trading_clique(trading.build_graph(inst, result.matching))


def test_seeded_policy_and_weak_prefs_enumerate(scp6):
    with pytest.raises(CycleLimitExceededError):
        trading.tadam_run(random_strict_instance(random.Random(2), 40, 40), 7, cycle_limit=1)
    with pytest.raises(CycleLimitExceededError):
        trading.tadam_run(scp6, cycle_limit=0)
    graph = trading.SeatGraph(scp6, sosm(tie_break(scp6, 0))[0].seats(scp6))
    with pytest.raises(ValueError):
        trading.least_trading_clique(graph)


def test_tadam_enumerate_scp2(scp2):
    enum = trading.tadam_enumerate(scp2)
    assert len(enum.terminals) == 3
    assert all(preference_index(scp2, m) == 6 for m in enum.terminals)


def test_tadam_enumerate_scp3_contains_eadam(scp3):
    target = Matching.of(
        {"i1": "s1", "i2": "s2", "i3": "s5", "i4": "s4", "i5": "s3"}, scp3
    )
    assert target in trading.tadam_enumerate(scp3).terminals


def test_tadam_enumerate_acyclic():
    inst = Instance(
        ("i1",), ("s1",), {"s1": 1},
        {"i1": WeakOrder.strict(["s1"])},
        {"s1": WeakOrder.strict(["i1"])},
    )
    assert trading.tadam_enumerate(inst).terminals == frozenset({sosm(inst)[0]})


# Weak preferences and a seat short: the walk pops one of the two
# terminals before its fifth matching is reached.
TWO_TERMINALS = """\
students i1 i2 i3 i4 i5 i6
schools s1 s2 s3 s4
capacity s4 2
pref i1: s1 = s2 = s3 = s4
pref i2: s3 = s1 = s2 = s4
pref i3: s2 = s1 = s3 > s4
pref i4: s2 > s1 = s4 > s3
pref i5: s4 > s1 > s3 > s2
pref i6: s1 > s2 > s3 > s4
prio s1: i4 > i2 > i3 > i6 > i1 > i5
prio s2: i6 > i1 > i3 > i2 > i4 > i5
prio s3: i4 > i1 > i5 > i3 > i2 > i6
prio s4: i2 > i5 > i6 > i3 > i4 > i1
"""


def test_search_limits_name_their_knob_and_keep_partial(scp6):
    inst = textio.parse_instance(TWO_TERMINALS)
    full = trading.tadam_enumerate(inst).terminals
    with pytest.raises(SearchLimitExceededError, match="max_visited") as err:
        trading.tadam_enumerate(inst, max_visited=4)
    assert err.value.partial and err.value.partial < full
    with pytest.raises(CycleLimitExceededError, match="cycle_limit") as err:
        trading.tadam_run(scp6, cycle_limit=0)
    assert err.value.partial == []


def test_cycle_limit_partial_keeps_the_full_order():
    """The partial list is in the full list's order, declaration index,
    also where ids sort differently as strings (i10 < i2)."""
    inst = random_strict_instance(random.Random(11), 12, 12)
    graph = trading.build_graph(inst, sosm(inst)[0])
    full = trading.find_cliques(graph, inst)
    with pytest.raises(CycleLimitExceededError) as err:
        trading.find_cliques(graph, inst, limit=6)
    partial = err.value.partial
    assert len(partial) == 6 < len(full)
    assert [c for c in full if c in partial] == partial


def test_realize_domination_scp3(scp3):
    target = Matching.of(
        {"i1": "s1", "i2": "s2", "i3": "s5", "i4": "s4", "i5": "s3"}, scp3
    )
    seq = trading.realize_domination(scp3, target)
    assert {c.cycle for c in seq} == {("i1", "i3"), ("i2", "i4")}
    current, _ = sosm(scp3)
    for clique in seq:
        current = trading.apply_clique(scp3, current, clique)
    assert current == target


def test_realize_domination_identity(scp3):
    assert trading.realize_domination(scp3, sosm(scp3)[0]) == []


def test_realize_domination_incomparable(scp4):
    assert trading.realize_domination(scp4, ttc(scp4)) is None


def test_acyclicity_matches_oracle_efficiency():
    rng = random.Random(33)
    for _ in range(20):
        inst = random_strict_instance(rng, 5, 5)
        base, _ = sosm(inst)
        efficient = oracle.efficient_dominations_of(inst, base)
        for m in [base] + list(efficient):
            no_clique = not trading.has_trading_clique(
                trading.build_graph(inst, m)
            )
            assert no_clique == (m in efficient)


def networkx_has_trading_clique(graph):
    """The networkx version of ``has_trading_clique``, kept as a reference."""
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.vertices)
    digraph.add_edges_from(graph.weights)
    for comp in nx.strongly_connected_components(digraph):
        if len(comp) < 2:
            continue
        for (i, j), w in graph.weights.items():
            if w == 1 and i in comp and j in comp:
                return True
    return False


def test_has_trading_clique_matches_networkx_reference():
    """Random weighted digraphs of 0-9 vertices without self-loops, a
    third of them with a non-string vertex like ``is_efficient``'s
    vacancy; then one cycle and one path of 5,000 vertices, too deep for
    a recursive search."""
    rng = random.Random(35)
    answers = collections.Counter()
    for _ in range(2000):
        vertices = [f"v{k}" for k in range(rng.randint(0, 9))]
        if vertices and rng.random() < 1 / 3:
            vertices[rng.randrange(len(vertices))] = object()
        density, strict = rng.random() / 2, rng.random()
        weights = {(a, b): int(rng.random() < strict)
                   for a in vertices for b in vertices if a is not b and rng.random() < density}
        graph = trading.MatchGraph(tuple(vertices), weights)
        expected = networkx_has_trading_clique(graph)
        assert trading.has_trading_clique(graph) == expected, graph
        answers[expected, any(not isinstance(v, str) for v in vertices)] += 1
    assert len(answers) == 4 and min(answers.values()) > 200, answers
    ring = [f"v{k}" for k in range(5000)]
    path = {(a, b): 0 for a, b in zip(ring, ring[1:])}
    assert not trading.has_trading_clique(trading.MatchGraph(tuple(ring), path))
    assert trading.has_trading_clique(
        trading.MatchGraph(tuple(ring), {**path, (ring[-1], ring[0]): 1}))


def test_truncation_never_adds_cliques():
    rng = random.Random(34)
    for _ in range(10):
        inst = random_strict_instance(rng, 5, 5)
        base, _ = sosm(inst)
        full = {c.cycle for c in cliques_of(inst)}
        student = rng.choice(inst.students)
        seq = inst.prefs[student].strict_sequence()
        if base[student] is None or len(seq) < 2:
            continue
        truncated = inst.replace_prefs({student: WeakOrder.strict(seq[:-1])})
        t_base, _ = sosm(truncated)
        if t_base != base:
            continue  # truncation changed the baseline; graph incomparable
        t_graph = trading.prune(trading.build_graph(truncated, t_base))
        through = {
            c.cycle for c in trading.find_cliques(t_graph, truncated)
            if student in c.cycle
        }
        assert through <= {c for c in full if student in c}


def test_to_dot(scp6):
    baseline = Matching.of({"i1": "s1", "i2": "s2", "i3": "s3"}, scp6)
    dot = trading.to_dot(trading.build_graph(scp6, baseline))
    assert "digraph" in dot
    assert '"i2" -> "i1"' in dot


def student_graph(instance, matching):
    """``build_graph`` as written before the seat graph, on name-keyed
    ranks, kept as a reference."""
    weights = {}
    for i in instance.students:
        ranks = instance.pref_rank[i]
        own = ranks[matching[i]]
        for j in instance.students:
            if i != j and ranks[matching[j]] <= own:
                weights[(i, j)] = int(ranks[matching[j]] < own)
    return trading.MatchGraph(instance.students, weights)


def student_graph_least_trading_clique(graph, instance):
    """The student-graph clique search canonical ``tadam_run`` ran before
    the seat graph, kept as a reference: the least v on a trading cycle of
    G[>= v], then a greedy path that closes at v once it holds a weight-1
    edge, one reverse search over the student graph per step."""
    order = instance.student_index
    succ = {v: [] for v in graph.vertices}
    pred = {v: [] for v in graph.vertices}
    for i, j in graph.weights:
        succ[i].append(j)
        pred[j].append(i)
    for v in sorted(graph.vertices, key=order.__getitem__):
        path, strict = [v], False
        while True:
            if strict and (path[-1], v) in graph.weights:
                return trading.Clique(tuple(path), trading.CliqueKind.TRADING)
            free = {x for x in graph.vertices if order[x] > order[v]} - set(path)
            stack = [w for w in pred[v] if w in free and (strict or graph.weights[w, v])]
            reach = set(stack)
            while stack:
                for x in pred[stack.pop()]:
                    if x in free and x not in reach:
                        reach.add(x)
                        stack.append(x)
            nxt = min((u for u in succ[path[-1]] if u in reach), key=order.__getitem__,
                      default=None)
            if nxt is None:
                break
            strict = strict or graph.weights[path[-1], nxt] == 1
            path.append(nxt)
    return None


def student_graph_tadam(instance):
    """Reference canonical run on the student graph: rebuild and prune it
    after every clique and pick with the reference search above."""
    current, _ = sosm(tie_break(instance, 0))
    applied = []
    while True:
        graph = trading.prune(student_graph(instance, current))
        pick = student_graph_least_trading_clique(graph, instance)
        if pick is None:
            return current, tuple(applied)
        current = trading.apply_clique(instance, current, pick)
        applied.append(pick)


def student_graph_is_efficient(instance, matching):
    """Reference efficiency test on the student graph: a student points to
    a vacancy vertex when a school with a free seat, or being unassigned,
    ranks no worse than her seat (weight 1 if better); the vacancy points
    to every student."""
    graph = student_graph(instance, matching)
    vacancy = object()
    fill = matching.fill_counts()
    free = [s for s in instance.schools if fill.get(s, 0) < instance.capacity[s]] + [None]
    weights = dict(graph.weights)
    for i in instance.students:
        ranks = instance.pref_rank[i]
        best, own = min(map(ranks.__getitem__, free)), ranks[matching[i]]
        if best <= own:
            weights[(i, vacancy)] = int(best < own)
        weights[(vacancy, i)] = 0
    return not trading.has_trading_clique(trading.MatchGraph((*graph.vertices, vacancy), weights))


def large_varied_instance(rng, n, weak):
    """n students; schools of 1-4 seats, a few more or fewer seats than
    students; a fifth of the lists truncated; priorities in 2-4
    coarse classes; with ``weak``, preferences in classes of 1-3."""
    m = rng.randint(2, max(2, n // 3))
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        if rng.random() < 0.2:
            order = order[: rng.randint(1, m)]
        if weak:
            cuts, k = [], 0
            while (k := k + rng.randint(1, 3)) < len(order):
                cuts.append(k)
            prefs[i] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]))
        else:
            prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = rng.sample(students, n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
        prios[s] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [n]))
    capacity = {s: rng.randint(1, 4) for s in schools}
    return Instance(students, schools, capacity, prefs, prios)


def random_feasible_matching(rng, instance):
    room = dict(instance.capacity)
    assignment = {}
    for i in instance.students:
        open_ = [s for s, left in room.items() if left] + [None]
        s = rng.choice(open_)
        if s is not None:
            room[s] -= 1
        assignment[i] = s
    return Matching.of(assignment, instance)


def test_seat_graph_matches_student_graph_references_at_scale():
    """Canonical ``tadam_run`` (whole applied sequence and matching),
    ``is_efficient`` and ``build_graph`` equal their student-graph
    references on 200 seeded instances: 194 of 20-40 students, strict ones
    of 120, 140, ..., 200 and a weak one of 200.  A third of the small ones
    have weak preferences too; canonical runs enumerate on those, so only
    the other two are asked about them."""
    rng = random.Random(36)
    cliques, verdicts, sizes = 0, collections.Counter(), set()
    for t in range(200):
        weak = t % 3 == 0 and t % 40 != 20
        n = 120 + 20 * (t // 40) if t % 40 == 20 else 200 if t == 198 else rng.randint(20, 40)
        inst = large_varied_instance(rng, n, weak)
        sizes.add(n)
        matchings = [sosm(tie_break(inst, 0))[0], ttc(tie_break(inst, 1)),
                     random_feasible_matching(rng, inst)]
        if not weak:
            result = trading.tadam_run(inst)
            assert (result.matching, result.applied) == student_graph_tadam(inst)
            cliques += len(result.applied)
            matchings.append(result.matching)
        for m in matchings:
            assert list(trading.build_graph(inst, m).weights.items()) == \
                list(student_graph(inst, m).weights.items())
            verdict = is_efficient(inst, m)
            assert verdict == student_graph_is_efficient(inst, m)
            verdicts[weak, verdict] += 1
    assert cliques > 400 and min(sizes) == 20 and max(sizes) == 200, cliques
    assert min(verdicts.values()) >= 5 and len(verdicts) == 4, verdicts
