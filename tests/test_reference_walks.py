"""Differential test for the single walk over trading states, the single
seat-permutation split and the single displaced-set rule.

The loops they replaced are kept here as references: the depth-first
searches of ``tadam_enumerate``, ``null_closure`` and
``same_class_cliques``, the seat decompositions of ``realize_domination``
and ``eadam_as_coalition``, and the displaced-school loop of
``accomplice_set``.  Answers are compared as values, never as reprs
(``frozenset`` order follows the hash seed).
"""

import random

from schoolmatch import coalitions, strategy, trading
from schoolmatch.analysis import dominates
from schoolmatch.errors import PreconditionError
from schoolmatch.mechanisms import eadam, sosm, ttc
from schoolmatch.model import Instance, WeakOrder, rank, tie_break
from schoolmatch.trading import (
    Clique, CliqueKind, apply_clique, build_graph, find_cliques, prune,
)


def reference_null_closure(instance, matching):
    seen = {matching}
    stack = [matching]
    while stack:
        current = stack.pop()
        graph = build_graph(instance, current)
        for clique in find_cliques(graph, instance):
            if clique.kind is not CliqueKind.NULL:
                continue
            nxt = apply_clique(instance, current, clique)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def reference_tadam_enumerate(instance):
    baseline, _ = sosm(tie_break(instance, 0))
    terminals = set()
    seen = {baseline}
    stack = [baseline]
    while stack:
        current = stack.pop()
        graph = prune(build_graph(instance, current))
        found = [c for c in find_cliques(graph, instance) if c.kind is CliqueKind.TRADING]
        if not found:
            terminals.add(current)
            continue
        for clique in found:
            nxt = apply_clique(instance, current, clique)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    classes, placed = [], set()
    for terminal in sorted(terminals, key=lambda m: m.pairs):
        if terminal in placed:
            continue
        closure = reference_null_closure(instance, terminal)
        placed |= closure
        classes.append(closure)
    return frozenset(terminals), tuple(classes)


def reference_same_class_cliques(instance, partition):
    for i in instance.students:
        if not partition.respects(instance.prefs[i]):
            raise PreconditionError(f"profile of {i} ignores the quality classes")
    baseline, _ = sosm(instance)
    seen = {baseline}
    stack = [baseline]
    while stack:
        current = stack.pop()
        graph = prune(build_graph(instance, current))
        found = [c for c in find_cliques(graph, instance) if c.kind is CliqueKind.TRADING]
        if not found:
            for i in instance.students:
                if partition.class_of(current[i]) != partition.class_of(baseline[i]):
                    return False
            continue
        for clique in found:
            if len({partition.class_of(current[i]) for i in clique.cycle}) != 1:
                return False
            nxt = apply_clique(instance, current, clique)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def reference_realize_domination(instance, target):
    baseline, _ = sosm(tie_break(instance, 0))
    if target == baseline:
        return []
    if not dominates(instance, target, baseline):
        return None
    moved = [i for i in instance.students if target[i] != baseline[i]]
    givers = {}
    for i in moved:
        givers.setdefault(baseline[i], []).append(i)
    succ = {}
    for i in moved:
        pool = givers.get(target[i])
        if not pool:
            raise ValueError("target assigns a seat nobody gives up")
        succ[i] = pool.pop()
    cliques, placed = [], set()
    for start in moved:
        if start in placed:
            continue
        cycle = [start]
        node = succ[start]
        while node != start:
            cycle.append(node)
            node = succ[node]
        placed.update(cycle)
        strict_edge = any(
            rank(instance.prefs[i], target[i]) < rank(instance.prefs[i], baseline[i])
            for i in cycle
        )
        k = min(range(len(cycle)), key=lambda idx: instance.student_index[cycle[idx]])
        cliques.append(Clique(
            tuple(cycle[k:] + cycle[:k]),
            CliqueKind.TRADING if strict_edge else CliqueKind.NULL,
        ))
    cliques.sort(key=lambda c: c.kind is CliqueKind.NULL)
    return cliques


def reference_displaced_for(instance, baseline, loops, students):
    """The displaced-school loop that ``accomplice_set`` and
    ``eadam_as_coalition`` each carried, for every student given."""
    links = [
        (member, loop[(idx + 1) % len(loop)])
        for loop in loops for idx, member in enumerate(loop)
    ]
    displaced = {}
    for i in students:
        moved = set()
        for member, successor in links:
            school = baseline[member]
            if member == i or school is None:
                continue
            if (
                rank(instance.prefs[i], school) < rank(instance.prefs[i], baseline[i])
                and instance.prio_rank[school][i] < instance.prio_rank[school][successor]
            ):
                moved.add(school)
        displaced[i] = frozenset(moved)
    return displaced


def reference_eadam_as_coalition(instance, consenters):
    baseline, _ = sosm(instance)
    result = eadam(instance, consenters)
    target = result.matching
    moved = [i for i in instance.students if target[i] != baseline[i]]
    givers = {}
    for i in moved:
        givers.setdefault(baseline[i], []).append(i)
    pred = {i: givers[target[i]].pop() for i in moved}
    loops, placed = [], set()
    for start in moved:
        if start in placed:
            continue
        loop = [start]
        node = pred[start]
        while node != start:
            loop.insert(0, node)
            node = pred[node]
        placed.update(loop)
        loops.append(tuple(loop))
    accomplices = tuple(
        i for i in instance.students
        if any(p.student == i for rnd in result.removals for p in rnd)
    )
    displaced = reference_displaced_for(instance, baseline, loops, accomplices)
    return coalitions.Coalition(tuple(loops), accomplices, displaced)


def outcome(fn, *args):
    """The answer of ``fn``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type: both sides must fail alike
        return type(exc)


class AnyProfile(strategy.QualityPartition):
    """A partition that accepts every profile.  Under a respected partition
    no clique can leave its class, so every answer would be True; without
    the precondition cross-class cliques and moved terminals occur."""

    def respects(self, profile):
        return True


def varied_instance(rng):
    """Full lists, half of them with ties (which make null classes of more
    than one matching); strict priorities; 4-6 students and 3-5 schools of
    capacity 1 or 2 (students share schools, so null cliques occur between
    strict lists too), fewer seats than students in about two fifths."""
    n, m = rng.randint(4, 6), rng.randint(3, 5)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = rng.sample(schools, m)
        cuts = range(1, m)
        if rng.random() < 0.5:
            cuts = sorted(rng.sample(cuts, rng.randint(0, m - 1)))
        bounds = [0, *cuts, m]
        prefs[i] = WeakOrder.of(order[a:b] for a, b in zip(bounds, bounds[1:]))
    prios = {s: WeakOrder.strict(rng.sample(students, n)) for s in schools}
    capacity = {s: rng.choice((1, 1, 1, 2)) for s in schools}
    return Instance(students, schools, capacity, prefs, prios)


def test_merged_walks_match_parent_references():
    rng = random.Random(55)
    seen = dict.fromkeys(
        ["null_class", "short", "not_dominating", "no_giver", "false", "true", "loops"], 0
    )
    for _ in range(1000):
        inst = varied_instance(rng)
        seen["short"] += sum(inst.capacity.values()) < len(inst.students)

        enum = trading.tadam_enumerate(inst)
        terminals, classes = reference_tadam_enumerate(inst)
        assert enum.terminals == terminals and enum.classes == classes
        seen["null_class"] += any(len(c) > 1 for c in classes)
        for target in (ttc(tie_break(inst, 0)), *terminals):
            realized = outcome(trading.realize_domination, inst, target)
            assert realized == outcome(reference_realize_domination, inst, target)
            seen["not_dominating"] += realized is None
            seen["no_giver"] += realized is ValueError

        strict = tie_break(inst, 0)
        schools = strict.schools
        cut = rng.randint(1, len(schools) - 1)
        split = AnyProfile((schools[:cut], schools[cut:]))
        for partition in (split, strategy.QualityPartition((schools,))):
            got = outcome(strategy.same_class_cliques, strict, partition)
            assert got == outcome(reference_same_class_cliques, strict, partition)
            seen["false"] += got is False
            seen["true"] += got is True

        consent = tuple(i for i in strict.students if rng.random() < 0.8)
        coalition = coalitions.eadam_as_coalition(strict, consent)
        assert coalition == reference_eadam_as_coalition(strict, consent)
        seen["loops"] += bool(coalition.loops)
        baseline, _ = sosm(strict)
        accomplices, displaced = coalitions.accomplice_set(strict, baseline, coalition.loops)
        every = reference_displaced_for(strict, baseline, coalition.loops, strict.students)
        assert displaced == {i: d for i, d in every.items() if d}
        assert accomplices == tuple(displaced)
    assert seen["null_class"] > 100 and 300 < seen["short"] < 800
    assert seen["not_dominating"] > 100 and seen["no_giver"] > 0
    assert seen["false"] > 100 and seen["true"] > 500 and seen["loops"] > 150
