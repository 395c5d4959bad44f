"""Line-oriented instance and matching files.

Grammar (comments ``#`` and blank lines ignored)::

    students i1 i2 i3
    schools s1 s2 s3
    capacity s2 2            # default 1
    pref i1: s2 > s1 = s3    # '>' strict, '=' ties within a class
    prio s1: i1 > i3 > i2

Matching files are ``student school`` lines, ``-`` for unassigned.

:func:`parse_instance` looks each ranked id up once, as its line is read: the
order keeps the declared id object, and the index found builds the integer
views it hands over and checks the instance on; :func:`~schoolmatch.model.validate`
words a fault.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .errors import ParseError
from .model import (Instance, IntView, Matching, UNASSIGNED, WeakOrder, _index_list, _rank_row,
                    _ranks, validate)


def _parse_order(text: str, lineno: int) -> WeakOrder:
    """Split on whitespace where the tokens alternate id and separator and
    every ``>`` (every ``=`` of a ``>``-chunk) is a token of its own; any
    other ranking or chunk is split on the separators and stripped, the only
    route that words an empty id or keeps an odd one, such as ``s1 s2``."""
    if "=" not in text:
        toks = text.split()
        seps = toks[1::2]
        if len(toks) % 2 and seps.count(">") == len(seps) == text.count(">"):
            return WeakOrder.strict(toks[::2])
        order = WeakOrder.strict(map(str.strip, text.split(">")))
    else:
        classes = []
        for chunk in text.split(">"):
            toks = chunk.split()
            whole = len(toks) % 2 and toks[1::2].count("=") == len(toks) // 2 == chunk.count("=")
            classes.append(tuple(toks[::2]) if whole else tuple(map(str.strip, chunk.split("="))))
        order = WeakOrder(tuple(classes))
    if "" in order.items():
        raise ParseError("empty id in ranking", lineno)
    return order


def _declared(order: WeakOrder, names: list[str], index: dict[str, int]):
    """``order`` on the declared id objects, and its item indices: one lookup
    per item.  An order naming an id not declared yet keeps its own objects,
    and its indices are looked up once the file is read."""
    try:
        ks = _index_list(order, index)
    except KeyError:
        return order, None
    items = map(names.__getitem__, ks)
    if order.is_strict:
        return WeakOrder.strict(items), ks
    return WeakOrder(tuple(tuple(islice(items, len(cl))) for cl in order.classes)), ks


def parse_instance(text: str) -> Instance:
    students: list[str] = []
    schools: list[str] = []
    # each kind's ids and the place of each id declared so far (a repeat's last)
    declared = {"students": (students, {}), "schools": (schools, {})}
    capacity: dict[str, int] = {}
    prefs: dict[str, WeakOrder] = {}
    prios: dict[str, WeakOrder] = {}
    found: dict[str, dict] = {"pref": {}, "prio": {}}   # each order's item indices, or None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split(None, 1)
        rest = "".join(rest)
        if keyword in declared:
            names, index = declared[keyword]
            ids = rest.split()
            index.update(zip(ids, range(len(names), len(names) + len(ids))))
            names.extend(ids)
        elif keyword == "capacity":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected: capacity <school> <int>", lineno)
            if parts[0] in capacity:
                raise ParseError(f"duplicate capacity line for {parts[0]}", lineno)
            try:
                capacity[parts[0]] = int(parts[1])
            except ValueError:
                raise ParseError(f"bad capacity {parts[1]!r}", lineno) from None
        elif keyword in ("pref", "prio"):
            owner, sep, ranking = rest.partition(":")
            owner = owner.strip()
            if not sep or not owner:
                raise ParseError(f"expected: {keyword} <id>: a > b = c", lineno)
            target, ranked = (prefs, "schools") if keyword == "pref" else (prios, "students")
            if owner in target:
                raise ParseError(f"duplicate {keyword} line for {owner}", lineno)
            order = _parse_order(ranking, lineno)
            target[owner], found[keyword][owner] = _declared(order, *declared[ranked])
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
    instance = Instance._with_views(tuple(students), tuple(schools), capacity, prefs, prios,
                                    student_index=declared["students"][1],
                                    school_index=declared["schools"][1])
    if not _valid(instance, found):
        raise ParseError("invalid instance: " + "; ".join(validate(instance)))
    return instance


def _valid(inst: Instance, found: dict[str, dict]) -> bool:
    """``not validate(inst)``, checked on indices while ``inst``'s integer
    views get built from the item indices ``found`` as each line was read (an
    order read before its ids were declared is looked up now), every rank an
    object of one list.  A parsed order has no empty class: it is whole if it
    has one item per index, all ranked."""
    students, schools = inst.students, inst.schools
    if len(inst.student_index.keys() | inst.school_index.keys()) < len(students) + len(schools):
        return False   # some id repeats
    try:   # a missing order or an unknown id
        lists = [found["pref"][i] or _index_list(inst.prefs[i], inst.school_index)
                 for i in students]
        prio_ks = [found["prio"][s] or _index_list(inst.prios[s], inst.student_index)
                   for s in schools]
    except KeyError:
        return False
    ranks = _ranks([*inst.prefs.values(), *inst.prios.values()])
    rows = [_rank_row(inst.prios[s], inst.student_index, ks, ranks)
            for s, ks in zip(schools, prio_ks)]
    pref_rows = [_rank_row(inst.prefs[i], inst.school_index, ks, ranks)
                 for i, ks in zip(students, lists)]
    vars(inst).update(int_view=IntView(lists, rows, [inst.capacity[s] for s in schools]),
                      pref_rows=pref_rows)
    orders = [*map(inst.prios.get, schools), *map(inst.prefs.get, students)]
    return min(inst.int_view.seats) >= 1 and all(
        len(order.items()) == len(row) - 1 and row[-1] + 1 not in row
        for order, row in zip(orders, rows + pref_rows))


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
