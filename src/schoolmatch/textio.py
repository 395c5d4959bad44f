"""Line-oriented instance and matching files.

Grammar (comments ``#`` and blank lines ignored)::

    students i1 i2 i3
    schools s1 s2 s3
    capacity s2 2            # default 1
    pref i1: s2 > s1 = s3    # '>' strict, '=' ties within a class
    prio s1: i1 > i3 > i2

Matching files are ``student school`` lines, ``-`` for unassigned, so no
school may be named ``-``.

:func:`parse_instance` reads every id through one table per file, so the
first object seen for an id is the one each later mention holds, declared or
ranked; the parsed instance builds its integer views as any instance does,
and is checked on them; :func:`~schoolmatch.model.validate` words a fault.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import ParseError
from .model import Instance, Matching, UNASSIGNED, WeakOrder, validate


def _parse_order(text: str, lineno: int, ids: dict[str, str]) -> WeakOrder:
    """Split on whitespace where the tokens alternate id and separator and
    every ``>`` (every ``=`` of a ``>``-chunk) is a token of its own; any
    other ranking or chunk is split on the separators and stripped, the only
    route that words an empty id or keeps an odd one, such as ``s1 s2``.
    Every id is read through ``ids``, the parse's table of one object per id."""
    if "=" not in text:
        toks = text.split()
        seps = toks[1::2]
        if len(toks) % 2 and seps.count(">") == len(seps) == text.count(">"):
            names = toks[::2]
            return WeakOrder.strict(map(ids.setdefault, names, names))
        names = [*map(str.strip, text.split(">"))]
        order = WeakOrder.strict(map(ids.setdefault, names, names))
    else:
        classes = []
        for chunk in text.split(">"):
            toks = chunk.split()
            whole = len(toks) % 2 and toks[1::2].count("=") == len(toks) // 2 == chunk.count("=")
            names = toks[::2] if whole else [*map(str.strip, chunk.split("="))]
            classes.append(tuple(map(ids.setdefault, names, names)))
        order = WeakOrder(tuple(classes))
    if "" in order.items():
        raise ParseError("empty id in ranking", lineno)
    return order


def parse_instance(text: str) -> Instance:
    students: list[str] = []
    schools: list[str] = []
    declared = {"students": students, "schools": schools}
    ids: dict[str, str] = {}   # the one object of each id the file names
    capacity: dict[str, int] = {}
    prefs: dict[str, WeakOrder] = {}
    prios: dict[str, WeakOrder] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split(None, 1)
        rest = "".join(rest)
        if keyword in declared:
            toks = rest.split()
            if keyword == "schools" and "-" in toks:
                raise ParseError("school id '-' is reserved for unassigned", lineno)
            declared[keyword].extend(map(ids.setdefault, toks, toks))
        elif keyword == "capacity":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected: capacity <school> <int>", lineno)
            if parts[0] in capacity:
                raise ParseError(f"duplicate capacity line for {parts[0]}", lineno)
            if not re.fullmatch("[+-]?[0-9]+", parts[1]):   # int() also reads 1_0, non-ASCII
                raise ParseError(f"bad capacity {parts[1]!r}", lineno)
            capacity[ids.setdefault(parts[0], parts[0])] = int(parts[1])
        elif keyword in ("pref", "prio"):
            owner, sep, ranking = rest.partition(":")
            owner = owner.strip()
            if not sep or not owner:
                raise ParseError(f"expected: {keyword} <id>: a > b = c", lineno)
            target = prefs if keyword == "pref" else prios
            if owner in target:
                raise ParseError(f"duplicate {keyword} line for {owner}", lineno)
            target[ids.setdefault(owner, owner)] = _parse_order(ranking, lineno, ids)
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
    if not _valid(instance):
        raise ParseError("invalid instance: " + "; ".join(validate(instance)))
    return instance


def _valid(inst: Instance) -> bool:
    """``not validate(inst)``, checked on the integer views ``inst`` builds
    (and keeps) as any instance does; an order that is missing or names an
    unknown id stops them with a ``KeyError``.  A parsed order has no empty
    class: it is whole if it has one item per index, all ranked."""
    students, schools = inst.students, inst.schools
    if len(inst.student_index.keys() | inst.school_index.keys()) < len(students) + len(schools):
        return False   # some id repeats
    try:
        view, pref_rows = inst.int_view, inst.pref_rows
    except KeyError:
        return False
    orders = [*map(inst.prios.get, schools), *map(inst.prefs.get, students)]
    return min(view.seats) >= 1 and all(
        len(order.items()) == len(row) - 1 and row[-1] + 1 not in row
        for order, row in zip(orders, view.prio_rows + pref_rows))


def _format_order(order: WeakOrder) -> str:
    return " > ".join(order.items() if order.is_strict else map(" = ".join, order.classes))


def serialize_instance(instance: Instance) -> str:
    lines = [
        "students " + " ".join(instance.students),
        "schools " + " ".join(instance.schools),
    ]
    for s in instance.schools:
        if instance.capacity[s] != 1:
            lines.append(f"capacity {s} {instance.capacity[s]}")
    for i in instance.students:
        lines.append(f"pref {i}: {_format_order(instance.prefs[i])}")
    for s in instance.schools:
        lines.append(f"prio {s}: {_format_order(instance.prios[s])}")
    return "\n".join(lines) + "\n"


def parse_matching(text: str, instance: Instance) -> Matching:
    assignment: dict[str, Optional[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected: <student> <school-or-->", lineno)
        student, school = parts
        if student not in instance.student_index:
            raise ParseError(f"unknown student {student!r}", lineno)
        if student in assignment:
            raise ParseError(f"duplicate line for student {student!r}", lineno)
        if school == "-":
            assignment[student] = UNASSIGNED
        elif school in instance.school_index:
            assignment[student] = school
        else:
            raise ParseError(f"unknown school {school!r}", lineno)
    missing = set(instance.students) - set(assignment)
    if missing:
        raise ParseError(f"matching missing students {sorted(missing)}")
    matching = Matching.of(assignment, instance)
    fill = matching.fill_counts()
    for s, count in fill.items():
        if count > instance.capacity[s]:
            raise ParseError(f"school {s} over capacity ({count})")
    return matching


def serialize_matching(matching: Matching) -> str:
    return "\n".join(
        f"{i} {s if s is not UNASSIGNED else '-'}" for i, s in matching.pairs
    ) + "\n"
