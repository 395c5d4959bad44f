import random

from schoolmatch import (
    Instance,
    Matching,
    UNASSIGNED,
    WeakOrder,
    rank,
    tie_break,
    validate,
)
from schoolmatch import textio
from conftest import FIXTURES
from test_oracle import _weak_order


def test_integer_rows_follow_rank_map():
    """The integer view and the students' rank rows hold exactly the ranks
    of each order's ``rank_map``, on weak and truncated orders too."""
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


def test_strict_order_keeps_only_its_items():
    """A strict order stores its items, not one class per item, and builds
    ``classes`` on first read; equality and hashing see the classes."""
    xs = ("s3", "s1", "s2")
    compact, classed = WeakOrder.strict(xs), WeakOrder(tuple((x,) for x in xs))
    assert compact == classed and hash(compact) == hash(classed) and len({compact, classed}) == 1
    assert "classes" not in vars(compact) and "classes" not in vars(classed)
    assert compact.classes == (("s3",), ("s1",), ("s2",)) == classed.classes
    assert repr(compact) == "WeakOrder(classes=(('s3',), ('s1',), ('s2',)))"
    assert compact.rank_map == {None: 4, "s3": 1, "s1": 2, "s2": 3}
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
    """Every fixture and 200 random weak instances print, as they are and
    after ``tie_break`` at seeds 0, 1, 2 and 7, byte for byte as orders of
    one class per item printed."""
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
    assert len(instances) > 200 and sum(not inst.is_strict for inst in instances) > 150
    for inst in instances:
        for seed in (None, 0, 1, 2, 7):
            tied = inst if seed is None else tie_break(inst, seed)
            assert textio.serialize_instance(tied) == classed_tie_break_text(inst, seed)
