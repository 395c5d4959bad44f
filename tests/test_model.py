from schoolmatch import (
    Instance,
    Matching,
    UNASSIGNED,
    WeakOrder,
    rank,
    tie_break,
    validate,
)


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
