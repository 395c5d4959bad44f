import collections
import random

import pytest

from schoolmatch import Matching, is_efficient, preference_index, sosm, ttc
from schoolmatch import oracle, textio, trading
from schoolmatch.analysis import dominates
from schoolmatch.errors import CycleLimitExceededError, SearchLimitExceededError
from schoolmatch.model import Instance, WeakOrder, rank, tie_break
from schoolmatch.strategy import random_strict_instance

import networkx_route


def seat_graph(instance, matching):
    return trading.SeatGraph(instance, matching.seats(instance))


def edges(graph):
    """The seat graph's edges between students, by name: (i, j) when i
    points to j's group and i != j, with that weight."""
    names = graph.instance.students
    return {(names[i], names[j]): w for j, g in enumerate(graph.seat)
            for i, w in graph.into[g].items() if i != j}


def cliques_of(instance):
    return trading.find_cliques(seat_graph(instance, sosm(instance)[0]))


def traded(instance, matching, clique):
    """``matching`` after the trade of ``clique`` on its seat graph."""
    graph, index = seat_graph(instance, matching), instance.student_index
    graph.trade(tuple(map(index.__getitem__, clique.cycle)))
    return Matching.of_seats(instance, graph.seat)


def test_build_graph_scp2(scp2):
    baseline, _ = sosm(scp2)
    weights = edges(trading.build_graph(scp2, baseline))
    expected = {
        ("i1", "i4"), ("i2", "i4"), ("i4", "i2"), ("i2", "i1"),
        ("i3", "i4"), ("i4", "i3"), ("i3", "i1"),
        ("i5", "i1"), ("i5", "i2"), ("i5", "i4"),
    }
    assert set(weights) == expected
    assert all(w == 1 for w in weights.values())


def test_build_graph_weak_edge(scp6):
    baseline = Matching.of({"i1": "s1", "i2": "s2", "i3": "s3"}, scp6)
    weights = edges(trading.build_graph(scp6, baseline))
    assert weights[("i1", "i2")] == 0
    assert weights[("i2", "i1")] == 1


def test_build_graph_no_strict_edges_at_top(scp1):
    m = Matching.of({"i1": "s2", "i2": "s1", "i3": "s1"}, scp1)
    assert not any(w == 1 for w in edges(trading.build_graph(scp1, m)).values())


def test_prune(scp2, scp3):
    for inst in (scp2, scp3):
        baseline, _ = sosm(inst)
        pruned = networkx_route.prune(networkx_route.student_graph(inst, baseline))
        assert set(pruned.vertices) == {"i1", "i2", "i3", "i4"}


def test_prune_acyclic_graph_empties():
    graph = networkx_route.StudentGraph(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1})
    assert networkx_route.prune(graph).vertices == ()


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
    cliques = trading.find_cliques(seat_graph(scp6, baseline))
    trading_cliques = [c for c in cliques if c.kind is trading.CliqueKind.TRADING]
    assert [c.cycle for c in trading_cliques] == [("i1", "i2")]


def test_apply_clique_scp2(scp2):
    baseline, _ = sosm(scp2)
    clique = next(c for c in cliques_of(scp2) if c.cycle == ("i1", "i4", "i2"))
    after = networkx_route.apply_clique(scp2, baseline, clique)
    assert after.as_dict() == {
        "i1": "s2", "i2": "s5", "i3": "s1", "i4": "s4", "i5": "s3"
    }
    assert traded(scp2, baseline, clique) == after


def test_apply_clique_stale_rejected(scp2):
    baseline, _ = sosm(scp2)
    clique = next(c for c in cliques_of(scp2) if c.cycle == ("i1", "i4", "i2"))
    moved = networkx_route.apply_clique(scp2, baseline, clique)
    with pytest.raises(ValueError):
        networkx_route.apply_clique(scp2, moved, clique)


def test_apply_null_clique_keeps_index(scp4):
    m = Matching.of({"i1": "s1", "i2": "s2", "i3": "s2"}, scp4)
    nulls = [
        c for c in trading.find_cliques(seat_graph(scp4, m))
        if c.kind is trading.CliqueKind.NULL
    ]
    assert nulls
    for clique in nulls:
        after = networkx_route.apply_clique(scp4, m, clique)
        assert traded(scp4, m, clique) == after
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
        for clique in trading.find_cliques(seat_graph(inst, current)):
            if clique.kind is trading.CliqueKind.TRADING:
                after = traded(inst, current, clique)
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


def first_trading_clique(graph, limit=trading.DEFAULT_CYCLE_LIMIT):
    """The cycle of ``find_cliques``' first trading clique, as indices, or None."""
    first = next((c.cycle for c in trading.find_cliques(graph, limit)
                  if c.kind is trading.CliqueKind.TRADING), None)
    return first and tuple(map(graph.instance.student_index.__getitem__, first))


def enumerating_tadam(instance, policy="canonical", cycle_limit=trading.DEFAULT_CYCLE_LIMIT):
    """``tadam_run`` as seeded runs, and canonical runs on weak preferences,
    went before the cycle limit moved into the walk: list every cycle with
    ``find_cliques`` after each trade, then trade its first trading clique
    or a seeded random one."""
    rng = None if policy == "canonical" else random.Random(policy)
    baseline = sosm(tie_break(instance, 0))[0]
    graph, index, applied = seat_graph(instance, baseline), instance.student_index, []
    while found := [c for c in trading.find_cliques(graph, cycle_limit)
                    if c.kind is trading.CliqueKind.TRADING]:
        pick = found[0] if rng is None else rng.choice(found)
        graph.trade(tuple(map(index.__getitem__, pick.cycle)))
        applied.append(pick)
    return trading.TadamResult(Matching.of_seats(instance, graph.seat), baseline, tuple(applied))


def reference_tadam(instance, policy):
    """The enumerating route of ``tadam_run`` before the seat graph, kept
    as a reference: rebuild, prune and enumerate the student graph with
    networkx after every clique and apply the pick to names."""
    rng = None if policy == "canonical" else random.Random(policy)
    current = baseline = sosm(tie_break(instance, 0))[0]
    applied = []
    while True:
        graph = networkx_route.prune(networkx_route.student_graph(instance, current))
        found = [c for c in networkx_route.find_cliques(graph, instance)
                 if c.kind is trading.CliqueKind.TRADING]
        if not found:
            return trading.TadamResult(current, baseline, tuple(applied))
        pick = found[0] if rng is None else rng.choice(found)
        current = networkx_route.apply_clique(instance, current, pick)
        applied.append(pick)


def test_canonical_tadam_matches_enumeration():
    rng = random.Random(35)
    applied = short = 0
    for _ in range(1200):
        inst = varied_strict_instance(rng)
        result = trading.tadam_run(inst)
        assert result == reference_tadam(inst, "canonical")
        applied += len(result.applied)
        short += sum(inst.capacity.values()) < len(inst.students)
    assert applied > 200 and short > 300


def test_canonical_tadam_needs_no_cycle_limit():
    inst = random_strict_instance(random.Random(2), 40, 40)
    result = trading.tadam_run(inst, cycle_limit=1)
    assert result.applied
    assert not trading.has_trading_clique(trading.build_graph(inst, result.matching))


def test_seeded_policy_and_weak_prefs_enumerate(scp6):
    """Seeded runs list every cycle, so a limit of 1 stops them; on weak
    preferences the canonical pick is ``find_cliques``' first trading one."""
    with pytest.raises(CycleLimitExceededError):
        trading.tadam_run(random_strict_instance(random.Random(2), 40, 40), 7, cycle_limit=1)
    with pytest.raises(CycleLimitExceededError):
        trading.tadam_run(scp6, cycle_limit=0)
    graph = trading.SeatGraph(scp6, sosm(tie_break(scp6, 0))[0].seats(scp6))
    assert trading.least_trading_clique(graph) == first_trading_clique(graph) == (0, 1)


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
    """The partial list is the least ``limit`` cycles of the full list, in
    declaration index order, also where ids sort differently as strings
    (i10 < i2)."""
    inst = random_strict_instance(random.Random(11), 12, 12)
    graph = seat_graph(inst, sosm(inst)[0])
    full = trading.find_cliques(graph)
    with pytest.raises(CycleLimitExceededError) as err:
        trading.find_cliques(graph, limit=6)
    assert err.value.partial == full[:6] and len(full) > 6
    by_index = [tuple(int(i[1:]) for i in c.cycle) for c in full]
    assert by_index == sorted(by_index)
    assert [c.cycle for c in full] != sorted(c.cycle for c in full)


def test_realize_domination_scp3(scp3):
    target = Matching.of(
        {"i1": "s1", "i2": "s2", "i3": "s5", "i4": "s4", "i5": "s3"}, scp3
    )
    current, _ = sosm(scp3)
    seq = trading.realize_domination(scp3, current, target)
    assert {c.cycle for c in seq} == {("i1", "i3"), ("i2", "i4")}
    for clique in seq:
        current = networkx_route.apply_clique(scp3, current, clique)
    assert current == target


def test_realize_domination_identity(scp3):
    assert trading.realize_domination(scp3, sosm(scp3)[0], sosm(scp3)[0]) == []


def test_realize_domination_incomparable(scp4):
    assert trading.realize_domination(scp4, sosm(scp4)[0], ttc(scp4)) is None


def tied_priority_instance(rng):
    """2-5 students, 1-4 schools of 1-2 seats; strict complete preferences,
    priorities in one to three indifference classes."""
    n, m = rng.randint(2, 5), rng.randint(1, 4)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prios = {}
    for s in schools:
        order = rng.sample(students, n)
        cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, 2), n - 1)))
        prios[s] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [n]))
    return Instance(students, schools, {s: rng.randint(1, 2) for s in schools},
                    {i: WeakOrder.strict(rng.sample(schools, m)) for i in students}, prios)


def test_realize_domination_breaks_ties_with_the_given_lottery():
    """A lottery-t TADAM outcome, judged against the lottery-t baseline, is
    reached by trading cliques alone; against lottery 0 it often is not."""
    rng = random.Random(5)
    mismatched = 0
    for _ in range(3000):
        inst = tied_priority_instance(rng)
        lottery0 = sosm(tie_break(inst, 0))[0]
        for t in (1, 2, 3):
            result = trading.tadam_run(inst, tiebreak=t)
            cliques = trading.realize_domination(inst, result.baseline, result.matching)
            assert cliques is not None
            assert all(c.kind is trading.CliqueKind.TRADING for c in cliques)
            mismatched += trading.realize_domination(inst, lottery0, result.matching) is None
    assert mismatched > 1000


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
    """On 2,000 seeded weak instances, at the DA baseline and at a random
    feasible matching, ``has_trading_clique`` on the seat graph, and
    ``is_efficient`` with its vacancy vertex, agree with networkx
    components of the student graph, at least 200 times each way.  Then a
    chain instance: student k holds school k and prefers school k + 1, so
    the search path runs through 2,500 students and 2,500 groups, too
    deep for a recursive search; it closes into a ring when the last
    student holds her school, and stays open when she has none."""
    rng = random.Random(35)
    answers = collections.Counter()
    for _ in range(2000):
        inst = small_weak_instance(rng)
        for m in (sosm(tie_break(inst, 0))[0], random_feasible_matching(rng, inst)):
            expected = networkx_has_trading_clique(networkx_route.student_graph(inst, m))
            assert trading.has_trading_clique(seat_graph(inst, m)) == expected, (inst, m)
            efficient = student_graph_is_efficient(inst, m)
            assert is_efficient(inst, m) == efficient, (inst, m)
            answers["clique", expected] += 1
            answers["efficient", efficient] += 1
    assert len(answers) == 4 and min(answers.values()) >= 200, answers
    n = 2500
    students = tuple(f"i{k}" for k in range(n))
    schools = tuple(f"s{k}" for k in range(n))
    prefs = {i: WeakOrder.strict([schools[(k + 1) % n], schools[k]])
             for k, i in enumerate(students)}
    chain = Instance(students, schools, dict.fromkeys(schools, 1), prefs,
                     dict.fromkeys(schools, WeakOrder.strict(students)))
    ring = Matching.of(dict(zip(students, schools)), chain)
    assert trading.has_trading_clique(seat_graph(chain, ring))
    assert not trading.has_trading_clique(
        seat_graph(chain, Matching.of(dict(zip(students[:-1], schools)), chain)))


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
        through = {
            c.cycle for c in trading.find_cliques(seat_graph(truncated, t_base))
            if student in c.cycle
        }
        assert through <= {c for c in full if student in c}


def test_to_dot(scp6):
    baseline = Matching.of({"i1": "s1", "i2": "s2", "i3": "s3"}, scp6)
    dot = trading.to_dot(trading.build_graph(scp6, baseline))
    assert "digraph" in dot
    assert '"i2" -> "i1"' in dot


def reference_dot(graph):
    """``to_dot`` as written for the name-keyed student graph, kept as a
    reference."""
    lines = ["digraph matching {", *(f'  "{v}";' for v in graph.vertices)]
    lines += [f'  "{i}" -> "{j}" [w={w}];' for (i, j), w in sorted(graph.weights.items())]
    return "\n".join(lines + ["}"])


def test_to_dot_matches_student_graph_reference():
    """On 1,000 seeded weak instances, at the DA baseline and at a random
    feasible matching, the DOT export of the seat graph equals the one
    written from the student graph."""
    rng = random.Random(39)
    weights = collections.Counter()
    for _ in range(1000):
        inst = small_weak_instance(rng)
        for m in (sosm(tie_break(inst, 0))[0], random_feasible_matching(rng, inst)):
            graph = networkx_route.student_graph(inst, m)
            assert trading.to_dot(seat_graph(inst, m)) == reference_dot(graph)
            weights.update(graph.weights.values())
    assert min(weights[0], weights[1]) > 2000, weights


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
        graph = networkx_route.prune(networkx_route.student_graph(instance, current))
        pick = student_graph_least_trading_clique(graph, instance)
        if pick is None:
            return current, tuple(applied)
        current = networkx_route.apply_clique(instance, current, pick)
        applied.append(pick)


def student_graph_is_efficient(instance, matching):
    """Reference efficiency test on the student graph: a student points to
    a vacancy vertex when a school with a free seat, or being unassigned,
    ranks no worse than her seat (weight 1 if better); the vacancy points
    to every student."""
    graph = networkx_route.student_graph(instance, matching)
    vacancy = object()
    fill = matching.fill_counts()
    free = [s for s in instance.schools if fill.get(s, 0) < instance.capacity[s]] + [None]
    weights = dict(graph.weights)
    for i in instance.students:
        profile = instance.prefs[i]
        best, own = min(rank(profile, s) for s in free), rank(profile, matching[i])
        if best <= own:
            weights[(i, vacancy)] = int(best < own)
        weights[(vacancy, i)] = 0
    return not networkx_has_trading_clique(
        networkx_route.StudentGraph((*graph.vertices, vacancy), weights))


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
            assert edges(trading.build_graph(inst, m)) == \
                networkx_route.student_graph(inst, m).weights
            verdict = is_efficient(inst, m)
            assert verdict == student_graph_is_efficient(inst, m)
            verdicts[weak, verdict] += 1
    assert cliques > 400 and min(sizes) == 20 and max(sizes) == 200, cliques
    assert min(verdicts.values()) >= 5 and len(verdicts) == 4, verdicts


class CountedWeights(dict):
    """A ``SeatGraph.into`` entry that counts the edge weights read."""
    reads = 0

    def __getitem__(self, k):
        CountedWeights.reads += 1
        return dict.__getitem__(self, k)


def test_least_trading_clique_is_the_first_trading_clique():
    """On 1,000 seeded strict instances of 5-9 students (multi-seat
    schools, truncated lists, coarse priorities), at the DA matching, a TTC
    matching and a random feasible one, ``least_trading_clique`` is the
    first trading clique of ``find_cliques`` as indices, or None.  Where
    every student holds a school on her list or none, it never backtracks:
    it reads at most two edge weights per student of its answer (none
    when there is no trading clique), so it enumerates no null cycle."""
    rng = random.Random(39)
    seen = collections.Counter()
    for _ in range(1000):
        inst = large_varied_instance(rng, rng.randint(5, 9), False)
        index, rows = inst.student_index, inst.pref_rows
        for m in (sosm(tie_break(inst, 0))[0], ttc(tie_break(inst, 1)),
                  random_feasible_matching(rng, inst)):
            graph = seat_graph(inst, m)
            first = next((c.cycle for c in trading.find_cliques(graph)
                          if c.kind is trading.CliqueKind.TRADING), None)
            graph.into = [CountedWeights(g) for g in graph.into]
            CountedWeights.reads = 0
            got = trading.least_trading_clique(graph)
            assert got == (first and tuple(map(index.__getitem__, first)))
            if all(rows[k][g] <= rows[k][-1] for k, g in enumerate(graph.seat)):
                assert CountedWeights.reads <= 2 * len(got or ()), (got, CountedWeights.reads)
                seen["listed"] += 1
            seen[got is None] += 1
    assert min(seen[True], seen[False]) >= 100 and seen["listed"] > 2500, seen


def test_least_trading_clique_past_an_off_list_seat():
    """A student holding a school off her list ranks it like every other
    school off her list, so her weight-0 edges leave her group; then the
    walk visits every cycle.  i2 holds b and lists neither a nor b, so no
    one points to i1's a by weight 1, yet i1 and i2 trade a for b."""
    inst = Instance(("i1", "i2"), ("a", "b", "c"), dict.fromkeys("abc", 1),
                    {"i1": WeakOrder.strict(("b", "a")), "i2": WeakOrder.strict(("c",))},
                    dict.fromkeys("abc", WeakOrder.strict(("i1", "i2"))))
    graph = seat_graph(inst, Matching.of({"i1": "a", "i2": "b"}, inst))
    assert trading.least_trading_clique(graph) == (0, 1)
    assert trading.find_cliques(graph) == [
        trading.Clique(("i1", "i2"), trading.CliqueKind.TRADING)]


def small_weak_instance(rng):
    """2-7 students and 1-4 schools of 1-2 seats, so often a seat short;
    preferences in classes of 1-3, 30 % of the lists truncated; strict
    priorities."""
    n, m = rng.randint(2, 7), rng.randint(1, 4)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        if rng.random() < 0.3:
            order = order[: rng.randint(1, m)]
        cuts, k = [], 0
        while (k := k + rng.randint(1, 3)) < len(order):
            cuts.append(k)
        prefs[i] = WeakOrder.of(order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)]))
    prios = {s: WeakOrder.strict(rng.sample(students, n)) for s in schools}
    capacity = {s: rng.randint(1, 2) for s in schools}
    return Instance(students, schools, capacity, prefs, prios)


def test_find_cliques_matches_networkx_reference():
    """On 1,000 seeded weak instances, at the DA baseline and at a random
    feasible matching, the seat-graph enumeration equals the networkx
    route on the pruned student graph, in order and in kind; with
    ``strict_edges`` it equals the route on the weight-1 subgraph; at a
    limit of 0-3 the partial list is the head of the full list."""
    rng = random.Random(37)
    seen = collections.Counter()
    for _ in range(1000):
        inst = small_weak_instance(rng)
        seen["short"] += sum(inst.capacity.values()) < len(inst.students)
        seen["truncated"] += any(len(inst.prefs[i].items()) < len(inst.schools)
                                 for i in inst.students)
        for m in (sosm(tie_break(inst, 0))[0], random_feasible_matching(rng, inst)):
            graph, seats = networkx_route.student_graph(inst, m), seat_graph(inst, m)
            full = trading.find_cliques(seats)
            assert full == networkx_route.find_cliques(networkx_route.prune(graph), inst)
            strict_graph = networkx_route.StudentGraph(
                graph.vertices, {e: w for e, w in graph.weights.items() if w == 1})
            assert trading.find_cliques(seats, strict_edges=True) == \
                networkx_route.find_cliques(strict_graph, inst)
            seen.update(c.kind.value for c in full)
            limit = rng.randint(0, 3)
            if len(full) > limit:
                with pytest.raises(CycleLimitExceededError, match="cycle_limit") as err:
                    trading.find_cliques(seats, limit=limit)
                assert err.value.partial == full[:limit]
                seen["limited"] += 1
            else:
                assert trading.find_cliques(seats, limit=limit) == full
    assert seen["trading"] > 10_000 and seen["null"] > 10_000, seen
    assert seen["short"] > 300 and seen["truncated"] > 400 and seen["limited"] > 1000, seen


def test_enumerating_tadam_matches_networkx_reference():
    """Seeded runs, and canonical runs on weak preferences, apply the same
    cliques in the same order as the networkx route."""
    rng = random.Random(38)
    applied = weak = 0
    for _ in range(400):
        inst = small_weak_instance(rng)
        weak += not inst.is_strict
        for policy in ("canonical", 7, rng.randrange(1000)):
            result = trading.tadam_run(inst, policy)
            assert result == reference_tadam(inst, policy)
            applied += len(result.applied)
    assert applied > 200 and weak > 250, (applied, weak)


def test_least_trading_clique_on_weak_profiles_is_the_first_trading_clique():
    """On 2,000 seeded weak instances, at the DA baseline and at a random
    feasible matching, ``least_trading_clique`` is the first trading clique
    of ``find_cliques`` as indices, or None, at least 100 times each; and
    canonical ``tadam_run`` applies the cliques of the enumerating route."""
    rng = random.Random(40)
    seen = collections.Counter()
    for _ in range(2000):
        inst = small_weak_instance(rng)
        seen["weak"] += not inst.is_strict
        for m in (sosm(tie_break(inst, 0))[0], random_feasible_matching(rng, inst)):
            graph = seat_graph(inst, m)
            got = trading.least_trading_clique(graph)
            assert got == first_trading_clique(graph), (inst, m)
            seen[got is None] += 1
        result = trading.tadam_run(inst)
        assert result == enumerating_tadam(inst)
        seen["applied"] += len(result.applied)
    assert min(seen[True], seen[False]) >= 100 and seen["weak"] > 1000, seen
    assert seen["applied"] > 300, seen


def tadam_outcome(run, *args):
    """``run``'s result, or the error it raised at the cycle limit."""
    try:
        return run(*args)
    except CycleLimitExceededError as err:
        return err


def test_cycle_limit_counts_the_cycles_the_walk_closes():
    """On 1,500 seeded weak instances at a limit of 0-4: a canonical pick
    raises, with an empty partial, only if ``find_cliques`` lists more than
    the limit up to its first trading clique, and exactly then where
    weight-0 edges leave their group (the walk then closes every cycle).
    Canonical runs answer as the enumerating route wherever it answers, and
    elsewhere raise or answer as it does without a limit; seeded runs raise
    exactly where it does, and otherwise apply the same cliques."""
    rng = random.Random(41)
    seen = collections.Counter()
    for _ in range(1500):
        inst, limit = small_weak_instance(rng), rng.randint(0, 4)
        for m in (sosm(tie_break(inst, 0))[0], random_feasible_matching(rng, inst)):
            graph = seat_graph(inst, m)
            kinds = [c.kind for c in trading.find_cliques(graph)]
            closes = kinds.index(trading.CliqueKind.TRADING) + 1 \
                if trading.CliqueKind.TRADING in kinds else len(kinds)
            exact = all(w or graph.seat[k] == g
                        for g, into in enumerate(graph.into) for k, w in into.items())
            try:
                assert trading.least_trading_clique(graph, limit) == first_trading_clique(graph)
                raised = False
            except CycleLimitExceededError as err:
                assert err.partial == [] and "cycle_limit" in str(err)
                raised = True
            assert raised <= (closes > limit)
            assert exact or raised == (closes > limit)
            seen["pick raised"] += raised
        for policy in ("canonical", rng.randrange(1000)):
            got = tadam_outcome(trading.tadam_run, inst, policy, limit)
            want = tadam_outcome(enumerating_tadam, inst, policy, limit)
            raised = isinstance(got, CycleLimitExceededError)
            assert not raised or (got.partial == [] and "cycle_limit" in str(got))
            if isinstance(want, trading.TadamResult):
                assert got == want
            elif policy != "canonical":
                assert raised
            else:
                assert raised or got == enumerating_tadam(inst)
                seen["answers past the enumeration's limit"] += not raised
            seen[policy == "canonical", "raised"] += raised
    assert min(seen.values()) >= 100 and len(seen) == 4, seen


def weak_square_instance(n):
    """n students and n schools of one seat, all from ``Random(1)``: each
    student's shuffled school list cut into indifference classes of 3,
    then each school's priority a shuffled strict order."""
    rng = random.Random(1)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, n + 1))
    prefs = {}
    for i in students:
        order = list(schools)
        rng.shuffle(order)
        prefs[i] = WeakOrder.of(order[k:k + 3] for k in range(0, n, 3))
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = WeakOrder.strict(order)
    return Instance(students, schools, dict.fromkeys(schools, 1), prefs, prios)


def test_canonical_tadam_completes_on_a_weak_25_by_25_instance():
    """The enumerating route lists more than 10^5 cycles on this instance;
    the trading walk stops at each first trading cycle, and the run ends in
    a matching with no trading clique that dominates or equals DA.  One of
    its picks closes more than 100 cycles, so a limit of 100 stops it."""
    inst = weak_square_instance(25)
    with pytest.raises(CycleLimitExceededError, match="cycle_limit") as err:
        trading.tadam_run(inst, cycle_limit=100)
    assert err.value.partial == []
    with pytest.raises(CycleLimitExceededError):
        enumerating_tadam(inst, cycle_limit=10**5)
    result = trading.tadam_run(inst, cycle_limit=10**5)
    assert result.applied
    assert not trading.has_trading_clique(trading.build_graph(inst, result.matching))
    assert result.matching == result.baseline or \
        dominates(inst, result.matching, result.baseline)
