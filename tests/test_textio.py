from pathlib import Path

import pytest

from schoolmatch import Matching, sosm
from schoolmatch import textio
from schoolmatch.errors import ParseError

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


def test_matching_missing_student(scp1):
    with pytest.raises(ParseError, match="missing"):
        textio.parse_matching("i1 s1\n", scp1)
