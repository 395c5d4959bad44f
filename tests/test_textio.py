import gc
import random
import re
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

from schoolmatch import Instance, Matching, WeakOrder, sosm, tie_break, validate
from schoolmatch import textio
from schoolmatch.cli import main
from schoolmatch.errors import ParseError
from test_oracle import _weak_order

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_scp1_roundtrip(scp1):
    text = textio.serialize_instance(scp1)
    again = textio.parse_instance(text)
    assert again == scp1
    assert textio.serialize_instance(again) == text


def test_parse_ties(scp6):
    assert len(scp6.prefs["i1"].classes) == 2
    assert scp6.prefs["i1"].classes[0] == ("s1", "s2")


def test_parse_capacity_and_comments():
    inst = textio.parse_instance(
        "# comment\n"
        "students i1\n"
        "schools s1 s2\n"
        "capacity s1 2  # two seats\n"
        "pref i1: s1 > s2\n"
        "prio s1: i1\n"
        "prio s2: i1\n"
    )
    assert inst.capacity == {"s1": 2, "s2": 1}


def test_parse_missing_priority():
    with pytest.raises(ParseError, match="priority"):
        textio.parse_instance(
            "students i1\nschools s1\npref i1: s1\n"
        )


def test_parse_bad_directive_has_line():
    with pytest.raises(ParseError) as err:
        textio.parse_instance("students i1\nschools s1\nbogus x\n")
    assert err.value.line == 3


def test_parse_incomplete_profile_rejected():
    with pytest.raises(ParseError):
        textio.parse_instance(
            "students i1\nschools s1 s2\npref i1: s1\nprio s1: i1\nprio s2: i1\n"
        )


@pytest.mark.parametrize("line", [
    "pref ghost: s1 > s2",
    "prio zz: i1",
    "capacity zz 3",
    "pref s1: s1 > s2",   # a school id is not a declared student
])
def test_parse_undeclared_id_rejected(line):
    text = "students i1\nschools s1 s2\npref i1: s1 > s2\nprio s1: i1\nprio s2: i1\n"
    with pytest.raises(ParseError, match="undeclared ids") as err:
        textio.parse_instance(text + line + "\n")
    assert line.split()[1].rstrip(":") in str(err.value)


def test_every_fixture_parses():
    for path in sorted(FIXTURES.glob("*.txt")):
        inst = textio.parse_instance(path.read_text())
        assert textio.parse_instance(textio.serialize_instance(inst)) == inst


def test_matching_roundtrip(scp3):
    m, _ = sosm(scp3)
    text = textio.serialize_matching(m)
    assert textio.parse_matching(text, scp3) == m


def test_matching_unassigned(scp1):
    m = textio.parse_matching("i1 s1\ni2 -\ni3 s3\n", scp1)
    assert m["i2"] is None


def test_matching_over_capacity(scp1):
    with pytest.raises(ParseError, match="capacity"):
        textio.parse_matching("i1 s1\ni2 s1\ni3 s3\n", scp1)


def test_matching_duplicate_student_line(scp1):
    with pytest.raises(ParseError, match="duplicate line for student 'i1'") as err:
        textio.parse_matching("i1 s1\ni1 s2\ni2 s1\ni3 s3\n", scp1)
    assert err.value.line == 2


def test_matching_missing_student(scp1):
    with pytest.raises(ParseError, match="missing"):
        textio.parse_matching("i1 s1\n", scp1)


def test_parse_duplicate_capacity_rejected():
    """A second ``capacity`` line for a school is an error, not a silent
    replacement of the first."""
    text = "students i1\nschools s1\ncapacity s1 2\ncapacity s1 1\npref i1: s1\nprio s1: i1\n"
    with pytest.raises(ParseError) as err:
        textio.parse_instance(text)
    assert str(err.value) == "line 4: duplicate capacity line for s1" and err.value.line == 4


@pytest.mark.parametrize("size, error", [
    ("1_0", "line 3: bad capacity '1_0'"),
    ("\u0663", "line 3: bad capacity '\u0663'"),
    ("+", "line 3: bad capacity '+'"),
    ("0", "invalid instance: capacity must be >= 1 (school s1)"),
    ("-1", "invalid instance: capacity must be >= 1 (school s1)"),
])
def test_capacity_is_a_plain_integer(size, error):
    """A capacity is an optional sign and ASCII digits: ``int`` would also
    read ``1_0`` as 10 and an Arabic-Indic three as 3.  A plain integer
    below one still reaches ``validate``'s message."""
    def text(size):
        return f"students i1\nschools s1\ncapacity s1 {size}\npref i1: s1\nprio s1: i1\n"

    with pytest.raises(ParseError) as err:
        textio.parse_instance(text(size))
    assert str(err.value) == error
    assert outcome(reference_parse, text(size)) == (error, err.value.line)
    assert textio.parse_instance(text("+12")).capacity == {"s1": 12}


def test_parse_tab_after_directive():
    """Any whitespace separates a directive from its arguments, as it
    separates ids."""
    text = ("students\ti1 i2\nschools\ts1\ncapacity\ts1\t2\n"
            "pref\ti1: s1\npref i2:\ts1\nprio\ts1: i2 > i1\n")
    inst = textio.parse_instance(text)
    assert inst == textio.parse_instance(text.replace("\t", " "))
    assert inst.students == ("i1", "i2") and inst.capacity == {"s1": 2}
    with pytest.raises(ParseError) as err:
        textio.parse_instance("students i1\nschools s1\nbogus\tx\n")
    assert str(err.value) == "line 3: unknown directive 'bogus'"


def reference_parse(text):
    """The name-level route: parse every line to names, then report what
    ``validate`` finds.  It keeps the three input rules the parser gained on
    purpose: any whitespace after a directive, no second capacity line, and
    no school named ``-``, which a matching file reads as unassigned."""
    students, schools, capacity, prefs, prios = [], [], {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.replace("\t", " ").partition(" ")
        rest = rest.strip()
        if keyword == "students":
            students.extend(rest.split())
        elif keyword == "schools":
            if "-" in rest.split():
                raise ParseError("school id '-' is reserved for unassigned", lineno)
            schools.extend(rest.split())
        elif keyword == "capacity":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected: capacity <school> <int>", lineno)
            if parts[0] in capacity:
                raise ParseError(f"duplicate capacity line for {parts[0]}", lineno)
            digits = parts[1][1:] if parts[1][0] in "+-" else parts[1]
            if not (digits.isascii() and digits.isdigit()):   # a sign and ASCII digits only
                raise ParseError(f"bad capacity {parts[1]!r}", lineno)
            capacity[parts[0]] = int(parts[1])
        elif keyword in ("pref", "prio"):
            owner, sep, ranking = rest.partition(":")
            owner = owner.strip()
            if not sep or not owner:
                raise ParseError(f"expected: {keyword} <id>: a > b = c", lineno)
            target = prefs if keyword == "pref" else prios
            if owner in target:
                raise ParseError(f"duplicate {keyword} line for {owner}", lineno)
            target[owner] = textio._parse_order(ranking, lineno, {})
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if not students:
        raise ParseError("no students declared")
    if not schools:
        raise ParseError("no schools declared")
    undeclared = sorted((set(prefs) - set(students)) | (set(prios) | set(capacity)) - set(schools))
    if undeclared:
        raise ParseError(f"pref, prio or capacity lines for undeclared ids {undeclared}")
    for s in schools:
        capacity.setdefault(s, 1)
    instance = Instance(tuple(students), tuple(schools), capacity, prefs, prios)
    problems = validate(instance)
    if problems:
        raise ParseError("invalid instance: " + "; ".join(problems))
    return instance


def random_instance(rng, strict):
    """Complete lists, 1-6 students, 1-5 schools, 1-3 seats; weak orders tie
    some items unless ``strict``."""
    n, m = rng.randint(1, 6), rng.randint(1, 5)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))

    def order(items):
        if strict:
            return WeakOrder.strict(rng.sample(items, len(items)))
        return _weak_order(rng, items)

    return Instance(students, schools, {s: rng.randint(1, 3) for s in schools},
                    {i: order(schools) for i in students}, {s: order(students) for s in schools})


def corpus():
    """Every fixture's text, then 240 random instances' (half strict)."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.txt"))]
    rng = random.Random(16)
    return texts + [textio.serialize_instance(random_instance(rng, t % 2 == 0)) for t in range(240)]


def _ids(lines, keyword):
    """The ids of the first ``students`` or ``schools`` line; ["x"] if none."""
    return next((line.split()[1:] for line in lines if line.split()[:1] == [keyword]), ["x"])


def _insert(make):
    """A mutation that inserts the line ``make(lines, rng)`` anywhere."""
    def mutate(lines, rng):
        lines.insert(rng.randint(0, len(lines)), make(lines, rng))
        return True
    return mutate


def _drop(keyword):
    """A mutation that deletes one ``keyword`` line."""
    def mutate(lines, rng):
        picks = [k for k, line in enumerate(lines) if line.split()[:1] == [keyword]]
        if picks:
            del lines[rng.choice(picks)]
        return bool(picks)
    return mutate


def _repeat(keyword):
    """A mutation that copies one ``keyword`` line to a later place."""
    def mutate(lines, rng):
        picks = [k for k, line in enumerate(lines) if line.split()[:1] == [keyword]]
        if picks:
            k = rng.choice(picks)
            lines.insert(rng.randint(k + 1, len(lines)), lines[k])
        return bool(picks)
    return mutate


def _edit_item(keyword, how):
    """A mutation that overwrites one item of a ``keyword`` line ranking two
    items or more with another, repeats one at its end, renames one to an
    unknown id or deletes one."""
    def mutate(lines, rng):
        picks = [k for k, line in enumerate(lines) if line.split()[:1] == [keyword]
                 and len(line.partition(":")[2].split()) > 2]
        if not picks:
            return False
        k = rng.choice(picks)
        owner, _, ranking = lines[k].partition(":")
        items = ranking.replace("=", ">").split(">")
        a, b = rng.sample(range(len(items)), 2)
        if how == "duplicate":
            items[a] = items[b]
        elif how == "repeated":
            items.append(items[b])
        elif how == "unknown":
            items[a] = " zz "
        else:
            del items[a]
        lines[k] = owner + ":" + ">".join(items)
        return True
    return mutate


MUTATIONS = {
    # line-numbered ParseErrors
    "unknown directive": _insert(lambda lines, rng: "bogus x y"),
    "capacity arity": _insert(lambda lines, rng: "capacity " + rng.choice(_ids(lines, "schools"))),
    "bad capacity": _insert(lambda lines, rng: f"capacity {rng.choice(_ids(lines, 'schools'))} 2x"),
    "duplicate capacity": _insert(lambda lines, rng: f"capacity {_ids(lines, 'schools')[0]} 2"),
    "pref without colon": _insert(lambda lines, rng: f"pref {_ids(lines, 'students')[0]} s1"),
    "prio without owner": _insert(lambda lines, rng: "prio : i1"),
    "duplicate pref": _repeat("pref"),
    "duplicate prio": _repeat("prio"),
    "empty id": _insert(lambda lines, rng: f"pref {rng.choice(['ghost', 'i1'])}: s1 > > s2"),
    "school named -": _insert(lambda lines, rng: rng.choice(["schools -", "schools zz - yy"])),
    # ParseErrors after the line loop
    "no students": _drop("students"),
    "no schools": _drop("schools"),
    "undeclared pref": _insert(lambda lines, rng: "pref ghost: s1"),
    "undeclared prio": _insert(lambda lines, rng: "prio zz: i1"),
    "undeclared capacity": _insert(lambda lines, rng: "capacity zz 2"),
    # validate's messages
    "duplicate student id": _insert(lambda lines, rng: f"students {_ids(lines, 'students')[-1]}"),
    "duplicate school id": _insert(lambda lines, rng: f"schools {_ids(lines, 'schools')[0]}"),
    "id overlap": _insert(lambda lines, rng: f"students {_ids(lines, 'schools')[-1]}"),
    "capacity below one": _insert(
        lambda lines, rng: f"capacity {_ids(lines, 'schools')[-1]} {rng.choice([0, -2])}"),
    "missing pref": _drop("pref"),
    "missing prio": _drop("prio"),
    **{f"{keyword} with {how} item": _edit_item(keyword, how)
       for keyword in ("pref", "prio") for how in ("duplicate", "repeated", "unknown", "missing")},
}


MESSAGE_KINDS = (
    "unknown directive", "expected: capacity", "bad capacity", "duplicate capacity line",
    "expected: pref", "expected: prio", "duplicate pref line", "duplicate prio line",
    "empty id in ranking", "reserved for unassigned", "no students declared",
    "no schools declared", "undeclared ids", "duplicate student ids", "duplicate school ids",
    "ids used as both", "capacity must be >= 1",
    "missing preference profile", "incomplete priority", "duplicate school s", "unknown school",
    "missing schools", "duplicate student i", "unknown student", "missing students",
)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


def test_parse_errors_match_name_level_route():
    """On every fixture and 240 random instance texts, each mutation kind
    alone and 400 random pairs of kinds, the parser fails with the message
    and line of the name-level route, or both give equal instances.  Files
    that ``parse_instance`` cannot produce (empty classes, missing
    capacities, stray entries) have no case."""
    rng = random.Random(61)
    texts = corpus()
    names = sorted(MUTATIONS)
    messages = set()
    cases = [(text, [name]) for text in texts for name in rng.sample(names, 4)]
    cases += [(text, [name]) for name, text in zip(names, texts)]
    cases += [(rng.choice(texts), rng.sample(names, 2)) for _ in range(400)]
    for text, kinds in cases:
        lines = text.splitlines()
        if not all(MUTATIONS[name](lines, rng) for name in kinds):
            continue
        broken = "\n".join(lines) + "\n"
        got, want = outcome(textio.parse_instance, broken), outcome(reference_parse, broken)
        assert got == want, (kinds, broken)
        if isinstance(want, tuple):
            messages.add(want[0])
    for text in texts:
        assert textio.parse_instance(text) == reference_parse(text)
    for kind in MESSAGE_KINDS:
        assert any(kind in message for message in messages), kind


VIEWS = ("student_index", "school_index", "int_view", "pref_rows")


def shuffled_declarations(text, rng):
    """``text`` with its ``students`` and ``schools`` lines cut in two at
    random, the pieces kept in order but moved among the other lines (after
    the pref lines too), and a tab after some directives."""
    lines = text.splitlines()
    declared = [line for line in lines if line.split()[:1] in (["students"], ["schools"])]
    body = [line for line in lines if line not in declared]
    for line in declared:
        keyword, *ids = line.split()
        cut = rng.randint(1, len(ids))
        pieces = [ids[:cut], ids[cut:]] if cut < len(ids) else [ids]
        spots = sorted(rng.choices(range(len(body) + 1), k=len(pieces)))
        for shift, (spot, piece) in enumerate(zip(spots, pieces)):
            body.insert(spot + shift, keyword + rng.choice(" \t") + " ".join(piece))
    return "\n".join(body) + "\n"


def test_parser_hands_over_fresh_views():
    """On every fixture and 240 random instances, strict and weak, their
    declarations split and moved: the parsed instance equals the one parsed
    from the text as written, comes with its id indexes, ``int_view`` and ``pref_rows``
    built and equal to a fresh instance's, and ``tie_break`` builds no view
    of it."""
    rng = random.Random(62)
    texts = corpus()
    assert sum("\t" in shuffled_declarations(text, rng) for text in texts) > 100
    moved = 0
    for text in texts:
        want = textio.parse_instance(text)
        varied = shuffled_declarations(text, rng)
        moved += not varied.startswith(("students", "schools"))
        for inst in (want, textio.parse_instance(varied)):
            assert inst == want
            fresh = Instance(inst.students, inst.schools, inst.capacity, inst.prefs, inst.prios)
            built = dict(vars(inst))
            for name in reversed(VIEWS):   # pref_rows first: it looks names up itself
                assert built[name] == getattr(fresh, name), name
            for seed in (0, 1, 7):
                tie_break(inst, seed)
            assert vars(inst).keys() - built.keys() <= {"is_strict"}
            assert all(vars(inst)[name] is built[name] for name in VIEWS)
    assert moved > 100


def test_orders_hold_the_declared_ids():
    """On every corpus text, each declaring its ids before its orders, and on
    each with its declarations split and moved after orders, every id in every
    parsed and every tie-broken order is the declared object."""
    rng = random.Random(63)
    texts = corpus()
    for text in texts:
        directives = [line.split()[0] for line in text.splitlines() if line.strip()[:1] not in "#"]
        assert set(directives[:2]) == {"students", "schools"}, text
    late = 0   # texts with an order line before some declaration line
    for text in texts + [shuffled_declarations(text, rng) for text in texts]:
        late += bool(re.search(r"^pr(ef|io)\s.*^s(tudents|chools)\s", text, re.M | re.S))
        inst = textio.parse_instance(text)
        declared = {x: x for x in inst.students + inst.schools}
        for broken in (inst, tie_break(inst, 0), tie_break(inst, 7)):
            for order in (*broken.prefs.values(), *broken.prios.values()):
                assert all(x is declared[x] for x in chain(order.items(), *order.classes))
    assert late > 100


def district_text(n_students, n_schools, rng):
    """A district-shaped file: every student ranks every school, and every
    school ranks every student in four priority classes."""
    students = [f"i{k}" for k in range(1, n_students + 1)]
    schools = [f"s{k}" for k in range(1, n_schools + 1)]
    lines = ["students " + " ".join(students), "schools " + " ".join(schools)]
    lines += [f"capacity {s} {round(1.1 * n_students / n_schools)}" for s in schools]
    for i in students:
        lines.append(f"pref {i}: " + " > ".join(rng.sample(schools, n_schools)))
    for s in schools:
        order = rng.sample(students, n_students)
        lines.append(f"prio {s}: " + " > ".join(" = ".join(order[c::4]) for c in range(4)))
    return "\n".join(lines) + "\n"


def test_loaded_instance_shares_ids_and_ranks():
    """On a 1,000-student, 50-school district file, ``parse_instance`` keeps
    at most 45 bytes per ranked entry and ``tie_break(..., 1)`` adds at most
    14, as orders hold the declared ids and rows share their ints: 29-31 and
    9 bytes on CPython 3.10-3.13, against 74-83 and 19 when every mention kept
    its own str and every rank above 256 its own int."""
    text = district_text(1000, 50, random.Random(1))
    entries = 2 * 1000 * 50
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = textio.parse_instance(text)
        gc.collect()
        parsed = tracemalloc.get_traced_memory()[0]
        broken = tie_break(inst, 1)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept, added = (parsed - before) / entries, (after - parsed) / entries
    assert broken.is_strict and kept <= 45 and added <= 14, (kept, added)


def split_parse_order(text, lineno):
    """The ranking split that tokenizing on whitespace must match: split on
    ``>`` (and ``=``) and strip every piece."""
    chunks = text.split(">")
    if "=" in text:
        order = WeakOrder(tuple(tuple(map(str.strip, c.split("="))) for c in chunks))
    else:
        order = WeakOrder.strict(map(str.strip, chunks))
    if "" in order.items():
        raise ParseError("empty id in ranking", lineno)
    return order


RANKING_IDS = ("s1", "s2", "s3", "i1", "i2", "x") * 5 + ("s1 s2", "a\tb", "")
GAPS = (" ",) * 8 + ("", "", "  ", "\t", " \t ", "\xa0")


def random_ranking(rng):
    """Random ids joined by ``>`` and ``=`` in runs of spaces and tabs, some
    glued to their neighbours; some ids have inner spaces or are empty, and
    some rankings start or end with a separator."""
    ids = [rng.choice(RANKING_IDS) for _ in range(rng.randint(0, 7))]
    pieces = [ids[0]] if ids else []
    for x in ids[1:]:
        pieces += [rng.choice(">>>=="), x]
    if rng.random() < 0.1:
        pieces.insert(0, rng.choice("><="))
    if rng.random() < 0.1:
        pieces.append(rng.choice(">="))
    return rng.choice(GAPS) + "".join(p + rng.choice(GAPS) for p in pieces)


def test_tokenized_rankings_match_the_separator_split():
    """On 6,000 generated rankings the parser returns the order, or raises
    the error, of splitting on the separators and stripping."""
    rng = random.Random(18)
    parsed = failed = weak = 0
    for _ in range(6000):
        text = random_ranking(rng)
        got = outcome(lambda t: textio._parse_order(t, 3, {}), text)
        want = outcome(lambda t: split_parse_order(t, 3), text)
        assert got == want, text
        if isinstance(want, WeakOrder):
            assert (got.is_strict, got.classes) == (want.is_strict, want.classes), text
            parsed += 1
            weak += not want.is_strict
        else:
            failed += 1
    assert min(parsed, failed, weak) > 1000


MALFORMED = """students i1 i2
schools s1 s2 s3
pref i1: s1 > s2 > s3
pref i2: s2 = s1 > s3
prio s1: i1 > i2
prio s2: i2 = i1
prio s3: i1 > i2
"""


@pytest.mark.parametrize("lines, error", [
    (["pref i1:"], "line 3: empty id in ranking"),
    (["pref i1: > s1 > s2 > s3"], "line 3: empty id in ranking"),
    (["pref i1: s1 > s2 > s3 >"], "line 3: empty id in ranking"),
    (["pref i1: s1 > > s2 > s3"], "line 3: empty id in ranking"),
    (["pref i1: s1 = = s2 > s3"], "line 3: empty id in ranking"),
    (["pref i1: = s1 > s2 > s3"], "line 3: empty id in ranking"),
    (["pref i1: s1 > s2 = > s3"], "line 3: empty id in ranking"),
    (["pref i1: s1 s2 > s3"], "invalid instance: profile of i1: unknown school s1 s2; "
                              "profile of i1: missing schools ['s1', 's2']"),
    (["pref i1: s1>s2>s9"], "invalid instance: profile of i1: unknown school s9; "
                            "profile of i1: missing schools ['s3']"),
    (["pref i1: s1 > s2 > s1"], "invalid instance: profile of i1: duplicate school s1; "
                                "profile of i1: missing schools ['s3']"),
    (["pref i1:\ts1 >\ts2\t> s3 s4"], "invalid instance: profile of i1: unknown school s3 s4; "
                                      "profile of i1: missing schools ['s3']"),
    (["prio s2: i2=i1=i9"], "invalid instance: priority of s2: unknown student i9"),
    (["prio s1: i1 i2"], "invalid instance: priority of s1: unknown student i1 i2; "
                         "priority of s1: missing students ['i1', 'i2']"),
    (["prio s1: i1 = i2 = i2"], "invalid instance: priority of s1: duplicate student i2"),
    (["pref i1: s1 s2 > s3", "prio s3: i1 >"], "line 7: empty id in ranking"),
])
def test_malformed_ranking_error_lines(tmp_path, capsys, lines, error):
    """Each kind of malformed ranking line, put in place of the line of the
    same owner, gives the CLI's one ``error:`` line; a line-numbered error
    comes before a fault that ``validate`` words."""
    text = MALFORMED
    for line in lines:
        owner = line.split(":")[0] + ":"
        text = "".join(line + "\n" if old.startswith(owner) else old + "\n"
                       for old in text.splitlines())
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["solve", "--mechanism", "da", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
