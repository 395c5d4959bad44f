"""Core problem representation: instances, weak orders, matchings.

Students and schools are identified by plain strings.  An unassigned
student is represented by ``UNASSIGNED`` (``None``).  Preference profiles
and priority structures share one representation, :class:`WeakOrder`: an
ordered tuple of indifference classes, earlier classes preferred.
:func:`rank` states the one rank rule; the integer rank rows hold its values.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from typing import Iterable, Mapping, Optional

UNASSIGNED = None


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
    """The one rank rule: for an order of n classes, ``item``'s class index
    1..n (1 = top), n + 1 for UNASSIGNED and n + 2 for an item off the list."""
    if profile.is_strict:
        items = profile.items()
        if item in items:
            return items.index(item) + 1
        n = len(items)
    else:
        for r, cl in enumerate(profile.classes, 1):
            if item in cl:
                return r
        n = len(profile.classes)
    return n + 1 if item is UNASSIGNED else n + 2


@dataclass(frozen=True)
class IntView:
    """An instance on indices: student k's list of school indices, each
    school's :func:`rank` of each student k, and the seat counts.
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

    @classmethod
    def _with_views(cls, *fields, **views) -> "Instance":
        """An instance handed views already built; each equals its lazy builder's."""
        vars(out := cls(*fields)).update(views)
        return out

    @cached_property
    def student_index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.students)}

    @cached_property
    def school_index(self) -> dict[str, int]:
        return {s: k for k, s in enumerate(self.schools)}

    @cached_property
    def is_strict(self) -> bool:
        return all(p.is_strict for p in chain(self.prefs.values(), self.prios.values()))

    @cached_property
    def int_view(self) -> IntView:
        index, ranks = self.school_index, _ranks(self.prios.values())
        return IntView(
            [_index_list(self.prefs[i], index) for i in self.students],
            [_rank_row(self.prios[s], self.student_index, None, ranks) for s in self.schools],
            [self.capacity[s] for s in self.schools],
        )

    @cached_property
    def pref_rows(self) -> list[list[int]]:
        """Student k's rank of each school j, then of unassigned (seat -1)."""
        view = vars(self).get("int_view")   # its lists spare the name lookups
        ks = view.lists if view is not None else repeat(None)
        ranks = _ranks(self.prefs.values())
        return [_rank_row(self.prefs[i], self.school_index, k, ranks)
                for i, k in zip(self.students, ks)]

    def replace_prefs(self, new_prefs: Mapping[str, PreferenceProfile]) -> "Instance":
        """The instance with some students' profiles replaced.  Views already
        built carry over; only the replaced students' list and row are rebuilt,
        and the strictness flag carries over if True and every new order is strict."""
        index, built = self.student_index, vars(self)
        named = {s for order in new_prefs.values() for s in order.items()}
        for kind, unknown in (("students", new_prefs.keys() - index.keys()),
                              ("schools", named.difference(self.schools))):
            if unknown:
                raise ValueError(f"replace_prefs: unknown {kind} {sorted(unknown)}")
        kept = {k: built[k] for k in ("student_index", "school_index") if k in built}

        def rebuilt(rows, per_order):
            rows = list(rows)
            for i, order in new_prefs.items():
                rows[index[i]] = per_order(order, self.school_index)
            return rows

        if (view := built.get("int_view")) is not None:
            kept["int_view"] = IntView(rebuilt(view.lists, _index_list), view.prio_rows, view.seats)
        if "pref_rows" in built:
            kept["pref_rows"] = rebuilt(built["pref_rows"], _rank_row)
        if built.get("is_strict") and all(order.is_strict for order in new_prefs.values()):
            kept["is_strict"] = True
        return Instance._with_views(self.students, self.schools, dict(self.capacity),
                                    {**self.prefs, **new_prefs}, self.prios, **kept)


def _index_list(order: WeakOrder, index: Mapping[str, int]) -> tuple[int, ...]:
    """The order's items as indices, in order."""
    return tuple(map(index.__getitem__, order.items()))


def _ranks(orders: Iterable[WeakOrder]) -> list[int]:
    """One ``int`` object per rank, as many as the longest of ``orders`` needs."""
    return list(range(1, max(map(len, map(WeakOrder.items, orders)), default=0) + 1))


def _rank_row(order: WeakOrder, index: Mapping[str, int], ks=None, ranks=None) -> list[int]:
    """:func:`rank` of each item by index, unassigned last, filled in one pass
    over the item indices (``ks``, if known).  Rank r is the object
    ``ranks[r - 1]`` when a rank list is given, so rows built from one list
    make no int per entry."""
    if ks is None:
        ks = map(index.__getitem__, order.items())
    if order.is_strict:
        n, pairs = len(order.items()), enumerate(ks, 1) if ranks is None else zip(ranks, ks)
    else:
        n, ranks = len(order.classes), count(1) if ranks is None else ranks
        pairs = zip(chain.from_iterable(map(repeat, ranks, map(len, order.classes))), ks)
    row = [n + 2] * len(index) + [n + 1]
    for r, k in pairs:
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
        for unassigned.  A school the instance does not declare is an error."""
        index = instance.school_index
        seat = [index.get(self[i], -1) for i in instance.students]
        stray = {self[i] for i, j in zip(instance.students, seat) if j < 0} - {UNASSIGNED}
        if stray:
            raise ValueError(f"matching assigns undeclared schools {sorted(stray)}")
        return seat

    def as_dict(self) -> dict[str, Optional[str]]:
        return dict(self.pairs)

    def students_at(self, school: str) -> tuple[str, ...]:
        return tuple(i for i, s in self.pairs if s == school)

    def fill_counts(self) -> dict[str, int]:
        return dict(Counter(s for _, s in self.pairs if s is not UNASSIGNED))


def validate(instance: Instance) -> list[str]:
    """Return every broken invariant as a human-readable message.  The message
    path of ``textio.parse_instance``, which checks the same on indices."""
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
    stray = sorted(instance.prefs.keys() - student_set) + sorted(
        (instance.prios.keys() | instance.capacity.keys()) - school_set)
    if stray:
        problems.append(f"pref, prio or capacity entries for undeclared ids: {stray}")
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


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)`` inlined: the same draws, permutation and state after."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def tie_break(instance: Instance, seed: int) -> Instance:
    """Refine every indifference class to a strict order.

    Seed 0 means canonical (declaration-order) refinement; any other seed
    applies a seeded pseudorandom permutation within each class.  Strict
    instances, and strict orders within an instance, come back as the same
    objects; they consume no random draws.  Runs on the rank rows of the weak
    orders only, and the result comes with its integer views built, sharing
    strict orders' rows; every index and rank in the new rows is an object of
    one list built per call.
    """
    if instance.is_strict:
        return instance
    rng = random.Random(seed) if seed != 0 else None
    students, schools, view = instance.students, instance.schools, instance.int_view
    i_index, s_index = instance.student_index, instance.school_index
    ints = list(range(max(len(students), len(schools)) + 1))
    ranks = ints[1:]

    def refine(order: WeakOrder, row: list[int], names: tuple[str, ...], index: dict[str, int]):
        """``order`` refined, its item indices and its rank row, from its own ``row``."""
        buckets: list[list[int]] = [[] for _ in range(len(order.classes) + 2)]
        for k, r in zip(ints, row):   # by class rank, in ascending index
            buckets[r - 1].append(k)
        out: list[int] = []
        for members in buckets[:-2]:   # the classes, not unassigned or off the list
            if rng is not None and len(members) > 1:
                _shuffle(rng, members)
            out += members
        refined = WeakOrder.strict(map(names.__getitem__, out))
        return refined, tuple(out), _rank_row(refined, index, out, ranks)

    prefs = {i: instance.prefs[i] for i in students}
    lists, pref_rows = list(view.lists), list(instance.pref_rows)
    for k, i in enumerate(students):
        if not prefs[i].is_strict:
            prefs[i], lists[k], pref_rows[k] = refine(prefs[i], pref_rows[k], schools, s_index)
    prios, prio_rows = {s: instance.prios[s] for s in schools}, list(view.prio_rows)
    for j, s in enumerate(schools):
        if not prios[s].is_strict:
            prios[s], _, prio_rows[j] = refine(prios[s], prio_rows[j], students, i_index)
    return Instance._with_views(students, schools, dict(instance.capacity), prefs, prios,
                                student_index=i_index, school_index=s_index, pref_rows=pref_rows,
                                int_view=IntView(lists, prio_rows, view.seats))
