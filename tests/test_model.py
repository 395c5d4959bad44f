import copy
import random
from functools import cached_property

import pytest

from schoolmatch import (
    Instance,
    Matching,
    UNASSIGNED,
    WeakOrder,
    rank,
    tie_break,
    validate,
)
from schoolmatch import eadam, oracle, sosm, strategy, textio
from schoolmatch import dominates, is_reasonably_fair, preference_index
from schoolmatch.model import _index_list, _rank_row, _shuffle
from conftest import FIXTURES
from test_oracle import _weak_order


def test_integer_rows_follow_rank_map():
    """The integer view and the students' rank rows hold exactly each
    order's :func:`rank` values, on weak and truncated orders too."""
    rng = random.Random(3)
    for _ in range(500):
        n, m = rng.randint(0, 5), rng.randint(1, 4)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        inst = Instance(
            students, schools, {s: rng.randint(1, 2) for s in schools},
            {i: _weak_order(rng, schools, True) for i in students},
            {s: _weak_order(rng, students) for s in schools},
        )
        view = inst.int_view
        assert view.lists == [tuple(schools.index(s) for s in inst.prefs[i].items())
                              for i in students]
        assert [row[:n] for row in view.prio_rows] == [
            [rank(inst.prios[s], i) for i in students] for s in schools]
        assert view.seats == [inst.capacity[s] for s in schools]
        assert inst.pref_rows == [
            [rank(inst.prefs[i], s) for s in (*schools, UNASSIGNED)] for i in students]


class _Rank(int):
    """An int that is its own object at every value, so a test can tell a
    shared rank from an equal one."""


def test_rank_rows_follow_the_one_rank_rule():
    """A rank row, built with or without its items' indices or a shared rank
    list, holds each item's :func:`rank` and then unassigned's, on strict,
    weak and truncated orders; with a rank list, each rank is its object."""
    rng = random.Random(18)
    kinds = set()
    for _ in range(2000):
        names = [f"s{k}" for k in range(1, rng.randint(1, 7))]
        index = {x: k for k, x in enumerate(names)}
        truncate = rng.random() < 0.5
        if rng.random() < 0.5:
            order = WeakOrder.strict(rng.sample(names, rng.randint(0, len(names)) if truncate
                                                else len(names)))
        else:
            order = _weak_order(rng, names, truncate)
        kinds.add((order.is_strict, len(order.items()) < len(names)))
        want = [rank(order, x) for x in index] + [rank(order, None)]
        assert _rank_row(order, index) == want
        assert _rank_row(order, index, _index_list(order, index)) == want
        ranks = [_Rank(r) for r in range(1, len(names) + 1)]
        shared = _rank_row(order, index, None, ranks)
        assert shared == want
        assert all(shared[k] is ranks[shared[k] - 1] for k in _index_list(order, index))
    assert len(kinds) == 4


VIEWS = tuple(name for name, attr in vars(Instance).items() if isinstance(attr, cached_property))
CARRIED = {"student_index", "school_index", "int_view", "pref_rows"}
FLAGS = ("is_strict",)   # carried only when True and every new order strict


def test_replace_prefs_carries_built_views():
    """Every view of a ``replace_prefs`` result equals a fresh instance's,
    whichever views the source had built; the views it had built among
    ``CARRIED`` carry over, and so do its ``FLAGS`` that are True when
    every new order is strict; running mechanisms on the result leaves
    the source's views as they were."""
    rng = random.Random(14)
    built_counts = {"none": 0, "some": 0, "all": 0, "flags": 0}
    for t in range(600):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        strict = t % 2 == 0

        def order(items, kind):
            if kind == "weak":
                return _weak_order(rng, items, rng.random() < 0.5)
            return WeakOrder.strict(rng.sample(items, rng.randint(0, len(items))
                                               if kind == "truncated" else len(items)))

        source = Instance(
            students, schools, {s: rng.randint(1, 3) for s in schools},
            {i: order(schools, "truncated" if strict else "weak") for i in students},
            {s: order(students, "strict" if strict else "weak") for s in schools},
        )
        read = rng.sample(VIEWS, rng.randint(0, len(VIEWS)))
        for name in read:
            getattr(source, name)
        built_counts["none" if not read else "all" if len(read) == len(VIEWS) else "some"] += 1
        before = copy.deepcopy({name: vars(source)[name] for name in VIEWS if name in vars(source)})

        new = {i: order(schools, rng.choice(("strict", "weak", "truncated")))
               for i in rng.sample(students, min(n, rng.randint(1, 3)))}
        result = source.replace_prefs(new)
        carried = {name for name in VIEWS if name in vars(result)}
        flags = {name for name in FLAGS
                 if before.get(name) and all(o.is_strict for o in new.values())}
        assert carried == (CARRIED & (before.keys() | {"student_index"})) | flags
        built_counts["flags"] += bool(flags)
        if "int_view" in carried:
            assert result.int_view.prio_rows is source.int_view.prio_rows
            kept = [k for k, i in enumerate(students) if i not in new]
            assert all(result.int_view.lists[k] is source.int_view.lists[k] for k in kept)
        fresh = Instance(students, schools, result.capacity, result.prefs, result.prios)
        assert result == fresh
        for name in VIEWS:
            assert getattr(result, name) == getattr(fresh, name), name

        if result.is_strict:
            eadam(result, students)
        else:
            oracle.stable_set(result)
        assert {name: vars(source)[name] for name in before} == before
    assert min(built_counts.values()) > 50, built_counts


def test_replace_prefs_rejects_unknown_students():
    inst = strategy.random_strict_instance(random.Random(1), 3, 3)
    with pytest.raises(ValueError, match="zz"):
        inst.replace_prefs({"zz": inst.prefs["i1"]})


def test_replace_prefs_rejects_unknown_schools():
    """The same error whether or not the source's integer views are built."""
    inst = strategy.random_strict_instance(random.Random(1), 3, 3)
    for views_built in (False, True):
        if views_built:
            sosm(inst)
        assert ("int_view" in vars(inst)) == views_built
        with pytest.raises(ValueError, match=r"unknown schools \['s0', 's9'\]"):
            inst.replace_prefs({"i1": WeakOrder.strict(["s1", "s9"]),
                                "i2": WeakOrder.of([["s0", "s2"]])})


def test_validate_reports_stray_entries(scp1):
    stray = Instance(scp1.students, scp1.schools, scp1.capacity,
                     {**scp1.prefs, "zz": scp1.prefs["i1"]},
                     {**scp1.prios, "s9": scp1.prios["s1"]})
    problems = validate(stray)
    assert len(problems) == 1 and "zz" in problems[0] and "s9" in problems[0]


def test_validate_reports_a_capacity_for_an_undeclared_school(scp1):
    """As the parser rejects a capacity line for an undeclared school."""
    stray = Instance(scp1.students, scp1.schools, {**scp1.capacity, "zz": 3},
                     scp1.prefs, scp1.prios)
    assert validate(stray) == ["pref, prio or capacity entries for undeclared ids: ['zz']"]


def test_validate_ok(scp1):
    assert validate(scp1) == []


def test_validate_duplicate_school_in_profile(scp1):
    bad = scp1.replace_prefs({"i1": WeakOrder.strict(["s1", "s1", "s3"])})
    assert any("duplicate" in p for p in validate(bad))


def test_validate_zero_capacity(scp1):
    bad = Instance(
        scp1.students, scp1.schools,
        {**scp1.capacity, "s1": 0}, scp1.prefs, scp1.prios,
    )
    assert any("capacity" in p for p in validate(bad))


def test_rank_basics(scp2, scp6):
    assert rank(scp2.prefs["i1"], "s5") == 2
    assert rank(scp2.prefs["i1"], "s2") == 1
    assert rank(scp6.prefs["i1"], "s2") == 1  # tied with s1
    assert rank(scp6.prefs["i1"], UNASSIGNED) == 3
    assert rank(scp2.prefs["i1"], "s9") == rank(scp2.prefs["i1"], UNASSIGNED) + 1
    truncated = WeakOrder.strict(["s2", "s5"])
    assert rank(truncated, "s1") > rank(truncated, UNASSIGNED) > rank(truncated, "s5")


def test_rank_constant_on_class(scp6):
    profile = scp6.prefs["i1"]
    for cl in profile.classes:
        assert len({rank(profile, s) for s in cl}) == 1


def test_tie_break_seed0_is_declaration_order(scp6, scp1):
    strict = tie_break(scp6, 0)
    assert strict.is_strict
    assert validate(strict) == []
    assert strict.prefs["i1"].strict_sequence() == ("s1", "s2", "s3")
    # everything else matches the strict sibling instance
    for i in ("i2", "i3"):
        assert strict.prefs[i] == scp1.prefs[i]
    assert strict.prios == scp1.prios


def test_tie_break_noop_on_strict(scp1):
    for seed in (0, 1, 42):
        assert tie_break(scp1, seed) == scp1


def test_tie_break_returns_strict_parts_themselves(scp1, scp6):
    for seed in (0, 1, 42):
        assert tie_break(scp1, seed) is scp1
        strict = tie_break(scp6, seed)
        assert all(strict.prefs[i] is scp6.prefs[i] for i in ("i2", "i3"))
        assert all(strict.prios[s] is scp6.prios[s] for s in scp6.schools)


def test_tie_break_seeds_cover_both_refinements(scp6):
    seen = set()
    for seed in range(1, 30):
        strict = tie_break(scp6, seed)
        assert validate(strict) == []
        seen.add(strict.prefs["i1"].strict_sequence())
    assert seen == {("s1", "s2", "s3"), ("s2", "s1", "s3")}


def test_tie_break_deterministic(scp6):
    assert tie_break(scp6, 7) == tie_break(scp6, 7)


def test_matching_lookup_and_fill(scp4):
    m = Matching.of({"i1": "s2", "i2": "s2", "i3": "s1"}, scp4)
    assert m["i1"] == "s2"
    assert m.fill_counts()["s2"] == 2
    assert m.students_at("s2") == ("i1", "i2")


def test_seats_reject_an_undeclared_school(scp1):
    """Only UNASSIGNED reads as seat -1.  A school the instance does not
    declare is named in a ValueError, by ``seats`` and by the predicates
    that compare seats, instead of passing for unassigned."""
    da = sosm(scp1)[0]
    free = Matching.of({**da.as_dict(), "i1": UNASSIGNED}, scp1)
    assert free.seats(scp1) == [-1, *da.seats(scp1)[1:]]
    bad = Matching.of({**da.as_dict(), "i1": "zz"}, scp1)
    for check in (bad.seats, lambda inst: dominates(inst, da, bad),
                  lambda inst: is_reasonably_fair(inst, bad),
                  lambda inst: preference_index(inst, bad)):
        with pytest.raises(ValueError, match=r"undeclared schools \['zz'\]"):
            check(scp1)


def test_strict_order_keeps_only_its_items():
    """A strict order stores its items, not one class per item, and builds
    ``classes`` on first read; equality and hashing see the classes."""
    xs = ("s3", "s1", "s2")
    compact, classed = WeakOrder.strict(xs), WeakOrder(tuple((x,) for x in xs))
    assert compact == classed and hash(compact) == hash(classed) and len({compact, classed}) == 1
    assert "classes" not in vars(compact) and "classes" not in vars(classed)
    assert compact.classes == (("s3",), ("s1",), ("s2",)) == classed.classes
    assert repr(compact) == "WeakOrder(classes=(('s3',), ('s1',), ('s2',)))"
    assert [rank(compact, x) for x in (None, "s3", "s1", "s2")] == [4, 1, 2, 3]
    weak = WeakOrder((("s3", "s1"), ("s2",)))
    assert weak != compact and weak.items() == compact.items() and weak.classes[0] == ("s3", "s1")
    assert WeakOrder.strict([]) == WeakOrder(()) and WeakOrder.strict([]).is_strict
    assert compact != xs and compact != WeakOrder.strict(xs[::-1])


def classed_tie_break_text(instance, seed):
    """``serialize_instance(tie_break(instance, seed))`` as it read when a
    strict order kept one class per item: each class sorted by declaration
    index and, for a nonzero seed, shuffled; strict orders draw nothing.
    Seed None prints the instance as it is."""
    rng = random.Random(seed) if seed else None

    def refine(order, index):
        if seed is None or all(len(cl) == 1 for cl in order.classes):
            return order.classes
        out = []
        for cl in order.classes:
            members = sorted(cl, key=index.__getitem__)
            if rng is not None and len(members) > 1:
                rng.shuffle(members)
            out.extend((m,) for m in members)
        return out

    def text(classes):
        return " > ".join(" = ".join(cl) for cl in classes)

    lines = ["students " + " ".join(instance.students), "schools " + " ".join(instance.schools)]
    lines += [f"capacity {s} {instance.capacity[s]}" for s in instance.schools
              if instance.capacity[s] != 1]
    lines += [f"pref {i}: {text(refine(instance.prefs[i], instance.school_index))}"
              for i in instance.students]
    lines += [f"prio {s}: {text(refine(instance.prios[s], instance.student_index))}"
              for s in instance.schools]
    return "\n".join(lines) + "\n"


def test_tie_break_and_serialize_text_unchanged():
    """Every fixture, 200 random weak instances with truncated preference
    lists and three district-shaped ones (300 students, 6 schools of 50
    seats, 4 priority classes) print, as they are and after ``tie_break``
    at seeds 0, 1, 2 and 7, byte for byte as orders of one class per item
    printed.  ``tie_break`` hands over its result's integer views and
    indexes built, equal to a fresh instance's."""
    instances = [textio.parse_instance(p.read_text()) for p in sorted(FIXTURES.glob("*.txt"))]
    rng = random.Random(37)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, m + 1))
        instances.append(Instance(
            students, schools, {s: rng.randint(1, 2) for s in schools},
            {i: _weak_order(rng, schools, True) for i in students},
            {s: _weak_order(rng, students) for s in schools}))
    for _ in range(3):
        students = tuple(f"i{k}" for k in range(1, 301))
        schools = tuple(f"s{k}" for k in range(1, 7))
        prios = {}
        for s in schools:
            order = rng.sample(students, len(students))
            prios[s] = WeakOrder.of(order[c::4] for c in range(4))
        instances.append(Instance(
            students, schools, dict.fromkeys(schools, 50),
            {i: WeakOrder.strict(rng.sample(schools, rng.randint(4, 6))) for i in students},
            prios))
    assert len(instances) > 200 and sum(not inst.is_strict for inst in instances) > 150
    assert sum(any(len(p.items()) < len(inst.schools) for p in inst.prefs.values())
               for inst in instances if not inst.is_strict) > 150
    for inst in instances:
        for seed in (None, 0, 1, 2, 7):
            tied = inst if seed is None else tie_break(inst, seed)
            assert textio.serialize_instance(tied) == classed_tie_break_text(inst, seed)
            if tied is inst:
                continue
            assert CARRIED <= vars(tied).keys()
            fresh = Instance(tied.students, tied.schools, tied.capacity, tied.prefs, tied.prios)
            for name in CARRIED:
                assert vars(tied)[name] == getattr(fresh, name), name


def test_shuffle_matches_stdlib():
    """``_shuffle`` makes the permutation ``random.Random.shuffle`` makes and
    leaves the generator in the same state, for lengths 0-300."""
    for seed in range(50):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n in range(301):
            x, y = list(range(n)), list(range(n))
            _shuffle(ours, x)
            stdlib.shuffle(y)
            assert x == y and ours.getstate() == stdlib.getstate(), (seed, n)
