"""Core problem representation: instances, weak orders, matchings.

Students and schools are identified by plain strings.  An unassigned
student is represented by ``UNASSIGNED`` (``None``).  Preference profiles
and priority structures share one representation, :class:`WeakOrder`: an
ordered tuple of indifference classes, earlier classes preferred.  Its
:attr:`WeakOrder.rank_map` is the one rank rule: listed classes, then
``UNASSIGNED``, then anything not on the list.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional

UNASSIGNED = None


class _RankTable(dict):
    """Class index by item; an item off the list ranks just below
    ``UNASSIGNED``, which ranks just below the last class."""

    def __missing__(self, item):
        return self[UNASSIGNED] + 1


class WeakOrder:
    """An ordered partition of items into indifference classes.

    ``classes[0]`` is the most preferred class.  Order within a class is
    kept as given (it carries no meaning beyond determinism).  A strict
    order keeps only its items and builds ``classes`` on first read.
    Treated as immutable; orders with equal classes are equal.
    """

    def __init__(self, classes: tuple[tuple[str, ...], ...]):
        items = tuple(chain.from_iterable(classes))
        vars(self).update(is_strict=len(items) == len(classes) and all(classes), _items=items)
        if not self.is_strict:
            vars(self)["classes"] = classes

    @classmethod
    def strict(cls, items: Iterable[str]) -> "WeakOrder":
        order = object.__new__(cls)
        vars(order).update(is_strict=True, _items=tuple(items))
        return order

    @classmethod
    def of(cls, classes: Iterable[Iterable[str]]) -> "WeakOrder":
        return cls(tuple(tuple(c) for c in classes))

    @cached_property
    def classes(self) -> tuple[tuple[str, ...], ...]:   # other orders store theirs
        return tuple(zip(self._items))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, WeakOrder) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"WeakOrder(classes={self.classes!r})"

    def _key(self):
        return self._items if self.is_strict else self.classes

    def _class_ranks(self) -> tuple[int, Iterable[int]]:
        """The number of classes, and each item's class index in item order."""
        if self.is_strict:
            return len(self._items), range(1, len(self._items) + 1)
        return len(self.classes), [r for r, cl in enumerate(self.classes, start=1) for _ in cl]

    @cached_property
    def rank_map(self) -> dict[Optional[str], int]:
        # UNASSIGNED goes in first: a late non-str key would re-table the
        # dict at three times its size.
        n, ranks = self._class_ranks()
        table = _RankTable({UNASSIGNED: n + 1})
        table.update(zip(self._items, ranks))
        return table

    def items(self) -> tuple[str, ...]:
        return self._items

    def strict_sequence(self) -> tuple[str, ...]:
        if not self.is_strict:
            raise ValueError("order has ties; run tie_break first")
        return self._items


# The two roles a WeakOrder plays; distinct names for readability only.
PreferenceProfile = WeakOrder
PriorityStructure = WeakOrder


def rank(profile: WeakOrder, item: Optional[str]) -> int:
    """Class index of ``item`` (1 = top); UNASSIGNED ranks just below all
    classes and an item off the list just below UNASSIGNED."""
    return profile.rank_map[item]


@dataclass(frozen=True)
class IntView:
    """An instance on indices: student k's list of school indices, each
    school's ``rank_map`` rank of each student k, and the seat counts.
    Rows are shared between instances; never mutate them."""

    lists: list[tuple[int, ...]]
    prio_rows: list[list[int]]
    seats: list[int]


@dataclass
class Instance:
    """A school-choice problem: ids, seat counts, preferences, priorities.

    Treated as immutable after construction; the declaration order of
    ``students`` and ``schools`` is the canonical id order used by every
    deterministic tie-break in the package.
    """

    students: tuple[str, ...]
    schools: tuple[str, ...]
    capacity: dict[str, int]
    prefs: dict[str, PreferenceProfile]
    prios: dict[str, PriorityStructure]

    @cached_property
    def student_index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.students)}

    @cached_property
    def school_index(self) -> dict[str, int]:
        return {s: k for k, s in enumerate(self.schools)}

    @cached_property
    def has_strict_prefs(self) -> bool:
        return all(p.is_strict for p in self.prefs.values())

    @cached_property
    def is_strict(self) -> bool:
        return self.has_strict_prefs and all(p.is_strict for p in self.prios.values())

    @cached_property
    def pref_rank(self) -> dict[str, dict[Optional[str], int]]:
        return {i: self.prefs[i].rank_map for i in self.students}

    @cached_property
    def prio_rank(self) -> dict[str, dict[Optional[str], int]]:
        return {s: self.prios[s].rank_map for s in self.schools}

    @cached_property
    def int_view(self) -> IntView:
        index = self.school_index
        return IntView(
            [_index_list(self.prefs[i], index) for i in self.students],
            [_rank_row(self.prios[s], self.student_index) for s in self.schools],
            [self.capacity[s] for s in self.schools],
        )

    @cached_property
    def pref_rows(self) -> list[list[int]]:
        """Student k's rank of each school j, then of unassigned (seat -1)."""
        return [_rank_row(self.prefs[i], self.school_index) for i in self.students]

    def replace_prefs(self, new_prefs: Mapping[str, PreferenceProfile]) -> "Instance":
        """The instance with some students' profiles replaced.  Views already
        built carry over; only the replaced students' list and row are rebuilt."""
        index, built = self.student_index, vars(self)
        unknown = sorted(new_prefs.keys() - index.keys())
        if unknown:
            raise ValueError(f"replace_prefs: unknown students {unknown}")
        out = Instance(self.students, self.schools, dict(self.capacity),
                       {**self.prefs, **new_prefs}, self.prios)
        vars(out).update((k, built[k]) for k in ("student_index", "school_index") if k in built)

        def rebuilt(rows, per_order):
            rows = list(rows)
            for i, order in new_prefs.items():
                rows[index[i]] = per_order(order, self.school_index)
            return rows

        if (view := built.get("int_view")) is not None:
            out.int_view = IntView(rebuilt(view.lists, _index_list), view.prio_rows, view.seats)
        if "pref_rows" in built:
            out.pref_rows = rebuilt(built["pref_rows"], _rank_row)
        return out


def _index_list(order: WeakOrder, index: Mapping[str, int]) -> tuple[int, ...]:
    """The order's items as indices, in order."""
    return tuple(map(index.__getitem__, order.items()))


def _rank_row(order: WeakOrder, index: Mapping[str, int]) -> list[int]:
    """``order.rank_map`` as a list by item index, with unassigned last."""
    n, ranks = order._class_ranks()
    row = [n + 2] * len(index) + [n + 1]
    for k, r in zip(map(index.__getitem__, order.items()), ranks):
        row[k] = r
    return row


@dataclass(frozen=True)
class Matching:
    """A total assignment student -> school-or-UNASSIGNED."""

    pairs: tuple[tuple[str, Optional[str]], ...]
    _lookup: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.pairs))

    @classmethod
    def of(cls, assignment: Mapping[str, Optional[str]], instance: Instance) -> "Matching":
        return cls(tuple((i, assignment.get(i, UNASSIGNED)) for i in instance.students))

    @classmethod
    def of_seats(cls, instance: Instance, seats: Iterable[int]) -> "Matching":
        """From a school index per student, -1 for unassigned."""
        names = (*instance.schools, UNASSIGNED)
        return cls(tuple(zip(instance.students, map(names.__getitem__, seats))))

    def __getitem__(self, student: str) -> Optional[str]:
        return self._lookup[student]

    def seats(self, instance: Instance) -> list[int]:
        """The inverse of :meth:`of_seats`: a school index per student, -1
        for unassigned."""
        index = instance.school_index
        return [index.get(self[i], -1) for i in instance.students]

    def as_dict(self) -> dict[str, Optional[str]]:
        return dict(self.pairs)

    def students_at(self, school: str) -> tuple[str, ...]:
        return tuple(i for i, s in self.pairs if s == school)

    def fill_counts(self) -> dict[str, int]:
        return dict(Counter(s for _, s in self.pairs if s is not UNASSIGNED))


def validate(instance: Instance) -> list[str]:
    """Return every broken invariant as a human-readable message."""
    problems: list[str] = []
    students, schools = instance.students, instance.schools
    if len(set(students)) != len(students):
        problems.append("duplicate student ids")
    if len(set(schools)) != len(schools):
        problems.append("duplicate school ids")
    overlap = set(students) & set(schools)
    if overlap:
        problems.append(f"ids used as both student and school: {sorted(overlap)}")

    for s in schools:
        cap = instance.capacity.get(s)
        if cap is None:
            problems.append(f"missing capacity for {s}")
        elif cap < 1:
            problems.append(f"capacity must be >= 1 (school {s})")

    school_set, student_set = set(schools), set(students)
    stray = sorted(instance.prefs.keys() - student_set) + sorted(instance.prios.keys() - school_set)
    if stray:
        problems.append(f"pref or prio entries for undeclared ids: {stray}")
    for i in students:
        profile = instance.prefs.get(i)
        if profile is None:
            problems.append(f"missing preference profile for {i}")
            continue
        problems.extend(_partition_problems(profile, school_set, f"profile of {i}", "school"))
    for s in schools:
        prio = instance.prios.get(s)
        if prio is None:
            problems.append(f"incomplete priority: missing structure for {s}")
            continue
        problems.extend(_partition_problems(prio, student_set, f"priority of {s}", "student"))
    return problems


def _partition_problems(order: WeakOrder, universe: set[str], where: str, kind: str) -> list[str]:
    items = order.items()
    if len(items) == len(universe) and set(items) == universe and (
            order.is_strict or all(order.classes)):
        return []
    problems = []
    seen: set[str] = set()
    for cl in order.classes:
        if not cl:
            problems.append(f"{where}: empty indifference class")
        for x in cl:
            if x in seen:
                problems.append(f"{where}: duplicate {kind} {x}")
            seen.add(x)
            if x not in universe:
                problems.append(f"{where}: unknown {kind} {x}")
    missing = universe - seen
    if missing:
        problems.append(f"{where}: missing {kind}s {sorted(missing)}")
    return problems


def tie_break(instance: Instance, seed: int) -> Instance:
    """Refine every indifference class to a strict order.

    Seed 0 means canonical (declaration-order) refinement; any other seed
    applies a seeded pseudorandom permutation within each class.  Strict
    instances, and strict orders within an instance, come back as the same
    objects; they consume no random draws.
    """
    if instance.is_strict:
        return instance
    rng = random.Random(seed) if seed != 0 else None
    s_index, i_index = instance.school_index, instance.student_index

    def refine(order: WeakOrder, index: dict[str, int]) -> WeakOrder:
        if order.is_strict:
            return order
        out: list[str] = []
        for cl in order.classes:
            members = sorted(cl, key=index.__getitem__)
            if rng is not None and len(members) > 1:
                rng.shuffle(members)
            out += members
        return WeakOrder.strict(out)

    prefs = {i: refine(instance.prefs[i], s_index) for i in instance.students}
    prios = {s: refine(instance.prios[s], i_index) for s in instance.schools}
    return Instance(instance.students, instance.schools, dict(instance.capacity), prefs, prios)
