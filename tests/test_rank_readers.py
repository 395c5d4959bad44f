"""Differential test for the rank comparisons that read the integer rows.

``dominates``, ``is_reasonably_fair``, the cabal-loop check and displaced
sets of ``accomplice_set`` and the clique kinds of ``realize_domination``
compare ranks on ``pref_rows`` and ``int_view.prio_rows`` by seat index.
Their name-level versions, built on :func:`rank`, are the references:
kept here, and for ``realize_domination`` in ``test_reference_walks``.
"""

import collections
import random

from schoolmatch import coalitions, oracle, sosm, trading, ttc
from schoolmatch.analysis import dominates, is_reasonably_fair
from schoolmatch.model import UNASSIGNED, Instance, rank, tie_break
from schoolmatch.strategy import random_strict_instance

from test_oracle import _weak_order
from test_reference_walks import outcome, reference_realize_domination
from test_trading import random_feasible_matching


def reference_dominates(instance, a, b):
    ranks = [(rank(instance.prefs[i], a[i]), rank(instance.prefs[i], b[i]))
             for i in instance.students]
    return all(ra <= rb for ra, rb in ranks) and any(ra < rb for ra, rb in ranks)


def reference_is_reasonably_fair(instance, matching, rivals):
    return not any(rank(instance.prefs[i], rival[i]) < rank(instance.prefs[i], matching[i])
                   for rival in rivals for i in instance.students)


def reference_accomplice_set(instance, baseline, loops):
    """The cabal-loop check and the displaced-school loop, by name."""
    links = [(member, loop[idx - 1], loop[(idx + 1) % len(loop)])
             for loop in loops for idx, member in enumerate(loop)]
    for member, pred, _ in links:
        profile = instance.prefs[member]
        if rank(profile, baseline[pred]) >= rank(profile, baseline[member]):
            raise ValueError("invalid cabal loop")
    displaced = {}
    for i in instance.students:
        moved = frozenset(
            school for member, _, successor in links
            if member != i and (school := baseline[member]) is not UNASSIGNED
            and rank(instance.prefs[i], school) < rank(instance.prefs[i], baseline[i])
            and rank(instance.prios[school], i) < rank(instance.prios[school], successor))
        if moved:
            displaced[i] = moved
    return tuple(displaced), displaced


def short_weak_instance(rng):
    """3-5 students, 2-3 schools of 1-2 seats (often fewer seats than
    students); weak, often truncated lists and weak priorities."""
    n, m = rng.randint(3, 5), rng.randint(2, 3)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    return Instance(students, schools, {s: rng.randint(1, 2) for s in schools},
                    {i: _weak_order(rng, schools, rng.random() < 0.5) for i in students},
                    {s: _weak_order(rng, students) for s in schools})


def test_domination_and_fairness_match_name_level_references():
    """2,000 weak instances: the lottery DA and TTC matchings, a random
    feasible one (seats off a student's list included) and two stable
    ones, compared both ways by ``dominates``; the TTC and random ones
    judged by ``is_reasonably_fair``; the clique kinds of ``realize_domination`` on
    every efficient domination of canonical DA, where ties make null
    cliques."""
    rng = random.Random(19)
    seen = collections.Counter()
    for _ in range(2000):
        inst = short_weak_instance(rng)
        strict = tie_break(inst, rng.randint(0, 3))
        rivals = oracle.stable_set(inst)
        pool = [sosm(strict)[0], ttc(strict), random_feasible_matching(rng, inst),
                *sorted(rivals, key=repr)[:2]]
        for a in pool[1:3]:   # each call enumerates the stable set again
            fair = is_reasonably_fair(inst, a)
            assert fair == reference_is_reasonably_fair(inst, a, rivals)
            seen["fair", fair] += 1
        for a in pool:
            for b in pool:
                got = dominates(inst, a, b)
                assert got == reference_dominates(inst, a, b)
                seen["dominates", got] += 1
            for i in inst.students:
                r = rank(inst.prefs[i], a[i])
                seen["unassigned"] += a[i] is UNASSIGNED
                seen["off the list"] += r > rank(inst.prefs[i], UNASSIGNED)
        seen["short"] += sum(inst.capacity.values()) < len(inst.students)
        baseline = sosm(tie_break(inst, 0))[0]
        for target in oracle.efficient_dominations_of(inst, baseline):
            cliques = outcome(trading.realize_domination, inst, baseline, target)
            assert cliques == outcome(reference_realize_domination, inst, target)
            if cliques is not ValueError:   # a seat nobody gives up
                seen.update(c.kind for c in cliques)
    nulls = seen.pop(trading.CliqueKind.NULL)
    assert nulls > 5 and min(seen.values()) > 300 and len(seen) == 8, seen


def test_coalitions_and_clique_kinds_match_name_level_references():
    """2,000 strict instances of 4-6 students and 3-5 schools of 1-2 seats,
    so that a cabal member's baseline school can be a student's own: one
    random loop of 2-3 students (mostly invalid) and every coalition family
    ``enumerate_coalitions`` executes against the reference accomplice set;
    every efficient domination of DA, and TTC, against the reference
    clique kinds of ``realize_domination``."""
    rng = random.Random(91)
    seen = collections.Counter()
    for _ in range(2000):
        n, m = rng.randint(4, 6), rng.randint(3, 5)
        seats = {f"s{k}": rng.choice((1, 1, 2)) for k in range(1, m + 1)}
        inst = random_strict_instance(rng, n, m, seats)
        baseline, _ = sosm(inst)
        loops = (tuple(rng.sample(inst.students, rng.randint(2, 3))),)
        got = outcome(coalitions.accomplice_set, inst, baseline, loops)
        assert got == outcome(reference_accomplice_set, inst, baseline, loops)
        seen["invalid"] += got is ValueError
        for found in coalitions.enumerate_coalitions(inst):
            loops = found.coalition.loops
            want = reference_accomplice_set(inst, baseline, loops)
            assert (found.coalition.accomplices, found.coalition.displaced) == want
            assert coalitions.accomplice_set(inst, baseline, loops) == want
            seen["accomplices"] += bool(want[0])
        for target in (*oracle.efficient_dominations_of(inst, baseline), ttc(inst)):
            cliques = trading.realize_domination(inst, baseline, target)
            assert cliques == reference_realize_domination(inst, target)
            if cliques is None:
                assert not reference_dominates(inst, target, baseline)
                seen["none"] += 1
            else:
                seen.update(c.kind for c in cliques)
    assert min(seen.values()) > 100 and len(seen) == 4, seen
