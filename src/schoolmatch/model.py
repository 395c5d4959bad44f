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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional

UNASSIGNED = None


class _RankTable(dict):
    """Class index by item; an item off the list ranks just below
    ``UNASSIGNED``, which ranks just below the last class."""

    def __missing__(self, item):
        return self[UNASSIGNED] + 1


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of items into indifference classes.

    ``classes[0]`` is the most preferred class.  Order within a class is
    kept as given (it carries no meaning beyond determinism).
    """

    classes: tuple[tuple[str, ...], ...]
    # Set once, at construction: cheaper than cached_property for small orders.
    is_strict: bool = field(init=False, repr=False, compare=False)
    _items: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_strict", set(map(len, self.classes)) <= {1})
        object.__setattr__(self, "_items", tuple(chain.from_iterable(self.classes)))

    @classmethod
    def strict(cls, items: Iterable[str]) -> "WeakOrder":
        return cls(tuple((x,) for x in items))

    @classmethod
    def of(cls, classes: Iterable[Iterable[str]]) -> "WeakOrder":
        return cls(tuple(tuple(c) for c in classes))

    @cached_property
    def rank_map(self) -> dict[Optional[str], int]:
        # UNASSIGNED goes in first: a late non-str key would re-table the
        # dict at three times its size.
        n = len(self.classes)
        ranks = _RankTable({UNASSIGNED: n + 1})
        if self.is_strict:
            ranks.update(zip(self._items, range(1, n + 1)))
        else:
            for j, cl in enumerate(self.classes, start=1):
                ranks.update(zip(cl, repeat(j)))
        return ranks

    def items(self) -> tuple[str, ...]:
        return self._items

    def strict_sequence(self) -> tuple[str, ...]:
        if not self.is_strict:
            raise ValueError("order has ties; run tie_break first")
        return self._items

    def without(self, item: str) -> "WeakOrder":
        """Drop one item, preserving the relative order of the rest."""
        classes = []
        for cl in self.classes:
            kept = tuple(x for x in cl if x != item)
            if kept:
                classes.append(kept)
        return WeakOrder(tuple(classes))


# The two roles a WeakOrder plays; distinct names for readability only.
PreferenceProfile = WeakOrder
PriorityStructure = WeakOrder


def rank(profile: WeakOrder, item: Optional[str]) -> int:
    """Class index of ``item`` (1 = top); UNASSIGNED ranks just below all
    classes and an item off the list just below UNASSIGNED."""
    return profile.rank_map[item]


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
    def strict_pref_lists(self) -> dict[str, tuple[str, ...]]:
        return {i: self.prefs[i].strict_sequence() for i in self.students}

    def replace_prefs(self, new_prefs: Mapping[str, PreferenceProfile]) -> "Instance":
        prefs = dict(self.prefs)
        prefs.update(new_prefs)
        return Instance(self.students, self.schools, dict(self.capacity), prefs, self.prios)


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

    def __getitem__(self, student: str) -> Optional[str]:
        return self._lookup[student]

    def as_dict(self) -> dict[str, Optional[str]]:
        return dict(self.pairs)

    def students_at(self, school: str) -> tuple[str, ...]:
        return tuple(i for i, s in self.pairs if s == school)

    def fill_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, s in self.pairs:
            if s is not UNASSIGNED:
                counts[s] = counts.get(s, 0) + 1
        return counts


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
    if len(items) == len(universe) and set(items) == universe and all(order.classes):
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
        out: list[tuple[str, ...]] = []
        for cl in order.classes:
            members = sorted(cl, key=index.__getitem__)
            if rng is not None and len(members) > 1:
                rng.shuffle(members)
            out.extend((m,) for m in members)
        return WeakOrder(tuple(out))

    prefs = {i: refine(instance.prefs[i], s_index) for i in instance.students}
    prios = {s: refine(instance.prios[s], i_index) for s in instance.schools}
    return Instance(instance.students, instance.schools, dict(instance.capacity), prefs, prios)
