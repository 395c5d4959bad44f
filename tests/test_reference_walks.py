"""Differential test for the single walk over trading states, the single
seat-permutation split, the single displaced-set rule, the single copy
of the strategy sweeps, the one deferred-acceptance loop with and
without its trace, and the index-level family draw.

The loops they replaced are kept here as references: the depth-first
searches of ``tadam_enumerate``, ``null_closure`` and
``same_class_cliques`` on the name-keyed cycle route of
``networkx_route``, the seat decompositions of ``realize_domination``
and ``eadam_as_coalition``, the displaced-school loop of
``accomplice_set``, acceptance criterion 7's inline sweep loops, the CLI
``strategy`` command's per-instance loop and its family builder, the
always-traced deferred-acceptance loop and the name-level
``draw_instance``.  Answers are compared as values, never as reprs
(``frozenset`` order follows the hash seed), but for DA waves, whose
dict order the CLI ``trace`` output follows.
"""

import random
from itertools import islice, product

from schoolmatch import coalitions, strategy, textio, trading
from schoolmatch.analysis import dominates
from schoolmatch.errors import PreconditionError
from schoolmatch.mechanisms import DaTrace, _deferred_acceptance, eadam, sosm, ttc
from schoolmatch.model import UNASSIGNED, Instance, WeakOrder, rank, tie_break
from schoolmatch.strategy import random_strict_instance
from schoolmatch.trading import Clique, CliqueKind

from networkx_route import apply_clique, find_cliques, prune, student_graph
from test_mechanisms import coarse_instance


def reference_null_closure(instance, matching):
    seen = {matching}
    stack = [matching]
    while stack:
        current = stack.pop()
        graph = student_graph(instance, current)
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
        graph = prune(student_graph(instance, current))
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
        graph = prune(student_graph(instance, current))
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
                and rank(instance.prios[school], i) < rank(instance.prios[school], successor)
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
        baseline = sosm(tie_break(inst, 0))[0]
        for target in (ttc(tie_break(inst, 0)), *terminals):
            realized = outcome(trading.realize_domination, inst, baseline, target)
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


def contrary(instance):
    """DA on every list reversed, with a second seat at s1: neither anonymous
    nor positively associated, so the sweeps meet both verdicts."""
    reversed_lists = instance.replace_prefs({
        i: WeakOrder.strict(reversed(p.strict_sequence())) for i, p in instance.prefs.items()
    })
    capacity = {**instance.capacity, "s1": 2}
    return sosm(Instance(instance.students, instance.schools, capacity,
                         reversed_lists.prefs, instance.prios))[0]


def reference_association_case(mech, inst, rng):
    """The positive-association body that criterion 7 and the CLI each
    carried: the verdict, or None when nobody sits below their top school."""
    outcome = mech(inst)
    candidates = [
        i for i in inst.students
        if outcome[i] is not UNASSIGNED and rank(inst.prefs[i], outcome[i]) > 1
    ]
    if not candidates:
        return None
    student = rng.choice(candidates)
    school = outcome[student]
    seq = inst.prefs[student].strict_sequence()
    better = rng.choice(seq[: seq.index(school)])
    return strategy.check_positive_association(mech, inst, student, school, better)


def reference_criterion_7(seed, mechs, n_anonymity, n_association, n_same_class):
    """Criterion 7's three inline loops, recording each check it asserted."""
    rng = random.Random(seed)
    checks = []
    for mech in mechs:
        for _ in range(n_anonymity):
            inst = random_strict_instance(rng, 5, 5)
            a, b = rng.sample(inst.schools, 2)
            checks.append((inst, strategy.check_anonymity(mech, inst, (a, b))))
    for mech in mechs:
        done = 0
        while done < n_association:
            inst = random_strict_instance(rng, 5, 5)
            ok = reference_association_case(mech, inst, rng)
            if ok is None:
                continue
            checks.append((inst, ok))
            done += 1
    part = strategy.QualityPartition((("s1", "s2"), ("s3", "s4")))
    students = ("i1", "i2", "i3", "i4")
    family = strategy.RandomProblemFamily(
        part, students, "i1", WeakOrder.strict(part.schools), (1, 1)
    )
    for _ in range(n_same_class):
        inst = family.draw_instance(strategy.class_respecting_profile(rng, part), rng)
        checks.append((inst, strategy.same_class_cliques(inst, part)))
    return checks, rng.getstate()


def criterion_7(seed, mechs, n_anonymity, n_association, n_same_class):
    """Criterion 7 as it runs on the sweep generators."""
    rng = random.Random(seed)
    draws = iter(lambda: random_strict_instance(rng, 5, 5), None)
    checks = []
    for mech in mechs:
        checks += islice(strategy.anonymity_cases(mech, draws, rng), n_anonymity)
    for mech in mechs:
        checks += islice(strategy.positive_association_cases(mech, draws, rng), n_association)
    family = strategy.two_class_family(2)
    for _ in range(n_same_class):
        inst = family.draw_instance(strategy.class_respecting_profile(rng, family.partition), rng)
        checks.append((inst, strategy.same_class_cliques(inst, family.partition)))
    return checks, rng.getstate()


def reference_cli_sweep(check, mech, trials, seed):
    """The CLI ``strategy`` command's per-instance loop without a FILE, for
    one mechanism, recording each check it made."""
    rng = random.Random(seed)
    checks = []
    for _ in range(trials):
        inst = random_strict_instance(rng, 5, 5)
        if check == "anonymity":
            a, b = rng.sample(inst.schools, 2)
            checks.append((inst, strategy.check_anonymity(mech, inst, (a, b))))
        else:
            ok = reference_association_case(mech, inst, rng)
            if ok is not None:
                checks.append((inst, ok))
    return checks, rng.getstate()


def reference_parse_family(spec):
    """The CLI's own family builder for a valid SPEC."""
    parts = spec.split("x")
    n_classes, per = int(parts[0]), int(parts[1])
    cap = int(parts[2]) if len(parts) == 3 else 1
    schools = [f"s{k}" for k in range(1, n_classes * per + 1)]
    classes = tuple(tuple(schools[c * per:(c + 1) * per]) for c in range(n_classes))
    partition = strategy.QualityPartition(classes)
    students = tuple(f"i{k}" for k in range(1, n_classes * per * cap + 1))
    truth = WeakOrder.strict(schools)
    return strategy.RandomProblemFamily(partition, students, students[0], truth,
                                        (cap,) * n_classes)


def as_text(checks, state):
    """Checks as (instance text, verdict) pairs, with the generator state."""
    return [(textio.serialize_instance(inst), ok) for inst, ok in checks], state


def test_sweep_generators_match_inline_loops():
    da, tadam = strategy.mechanism_by_name("da"), strategy.mechanism_by_name("tadam")
    full = (1007, (da, tadam), 500, 500, 200)
    got, want = as_text(*criterion_7(*full)), as_text(*reference_criterion_7(*full))
    assert len(got[0]) == 2200 and got == want

    verdicts = {True: 0, False: 0}
    for seed in range(1, 21):
        args = (seed, (da, tadam, contrary), 20, 20, 10)
        checks, state = criterion_7(*args)
        assert as_text(checks, state) == as_text(*reference_criterion_7(*args)), seed
        for _, ok in checks:
            verdicts[ok] += 1
        for check, cases_of in (("anonymity", strategy.anonymity_cases),
                                ("positive-association", strategy.positive_association_cases)):
            for mech in (da, tadam, contrary):
                rng = random.Random(seed)
                draws = (random_strict_instance(rng, 5, 5) for _ in range(20))
                checks = list(cases_of(mech, draws, rng))
                assert as_text(checks, rng.getstate()) == as_text(
                    *reference_cli_sweep(check, mech, 20, seed)), (seed, check)
                for _, ok in checks:
                    verdicts[ok] += 1
    assert verdicts[False] > 500 and verdicts[True] > 2000

    assert strategy.two_class_family(2) == reference_parse_family("2x2")
    for spec in product("123", "123", ("", "x1", "x2", "x3")):
        spec = "x".join(spec[:2]) + spec[2]
        assert strategy.class_family(*map(int, spec.split("x"))) == reference_parse_family(spec)


def reference_deferred_acceptance(instance, lists):
    """The deferred-acceptance loop that recorded every wave for every caller."""
    prio, seats = instance.int_view.prio_rows, instance.int_view.seats
    pointer = [0] * len(lists)
    held = [[] for _ in seats]
    waves = []
    proposers = [k for k, order in enumerate(lists) if order]
    while proposers:
        proposals = {}
        for k in proposers:
            proposals.setdefault(lists[k][pointer[k]], []).append(k)
        holds, rejections, rejected_now = {}, {}, []
        for j, newcomers in proposals.items():
            pool = held[j] + newcomers
            pool.sort(key=prio[j].__getitem__)
            if len(pool) > seats[j]:
                rejections[j] = sorted(pool[seats[j]:])
                rejected_now += rejections[j]
                del pool[seats[j]:]
            held[j] = holds[j] = pool
        waves.append((proposers, proposals, holds, rejections))
        for k in rejected_now:
            pointer[k] += 1
        proposers = sorted(k for k in rejected_now if pointer[k] < len(lists[k]))
    seat = [-1] * len(lists)
    for j, ks in enumerate(held):
        for k in ks:
            seat[k] = j
    return seat, DaTrace(instance.students, instance.schools, tuple(waves))


def test_untraced_deferred_acceptance_matches_traced_reference():
    """Strict instances with truncated lists, capacities 1-3 and tie-broken
    priorities alternate with tie-broken weak-preference instances."""
    rng = random.Random(23)
    seen = dict.fromkeys(["weak", "truncated", "short", "capacity_3", "rejections"], 0)
    for n in range(2000):
        if n % 2:
            inst = coarse_instance(rng, students=(2, 8), schools=(1, 5))
        else:
            weak = varied_instance(rng)
            seen["weak"] += not weak.is_strict
            inst = tie_break(weak, rng.randint(0, 3))
        lists = inst.int_view.lists
        seat, trace = reference_deferred_acceptance(inst, lists)
        got_seat, got_trace = _deferred_acceptance(inst, lists)
        assert got_seat == seat and got_trace == trace
        assert repr(got_trace.waves) == repr(trace.waves)   # dict order too
        assert _deferred_acceptance(inst, lists, traced=False) == (seat, None)
        seen["truncated"] += any(len(order) < len(inst.schools) for order in lists)
        seen["short"] += sum(inst.int_view.seats) < len(inst.students)
        seen["capacity_3"] += 3 in inst.int_view.seats
        seen["rejections"] += sum(len(ks) for wave in trace.waves for ks in wave[3].values())
    assert seen["weak"] > 400 and seen["truncated"] > 500 and seen["short"] > 500
    assert seen["capacity_3"] > 300 and seen["rejections"] > 5000


def reference_draw_instance(family, report, rng):
    """The name-level draw: ``rng.shuffle`` of each other student's classes
    in turn, then of each school's priority order, all by name."""
    prefs = {family.fixed_student: report}
    for i in family.students:
        if i != family.fixed_student:
            order = []
            for cl in family.partition.classes:
                block = list(cl)
                rng.shuffle(block)
                order.extend(block)
            prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in family.schools:
        order = list(family.students)
        rng.shuffle(order)
        prios[s] = WeakOrder.strict(order)
    return Instance(family.students, family.schools, family.capacity(), prefs, prios)


VIEWS = ("student_index", "school_index", "is_strict", "int_view", "pref_rows")


def test_index_level_draw_matches_name_level_reference():
    """The draw equals the reference, leaves ``rng`` in the same state, and
    hands over each view as its lazy builder would build it.  Reports are
    the truth, a drawn class-respecting profile or one with a tie."""
    families = [strategy.class_family(*shape) for shape in (
        (2, 2), (2, 3), (2, 2, 2), (3, 2), (3, 1, 2), (1, 3), (3, 2, 2))]
    for seed in range(3000):
        family = families[seed % len(families)]
        schools, report_rng = family.schools, random.Random(-seed)
        report = (family.truth, strategy.class_respecting_profile(report_rng, family.partition),
                  WeakOrder((schools[:2], *zip(schools[2:]))))[seed % 3]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        inst = family.draw_instance(report, rng)
        assert inst == reference_draw_instance(family, report, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        lazy = Instance(inst.students, inst.schools, inst.capacity, inst.prefs, inst.prios)
        for view in VIEWS:
            assert vars(inst)[view] == getattr(lazy, view), (seed, view)
