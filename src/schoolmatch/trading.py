"""Trading cycles over a matching: its trading graph (:class:`SeatGraph`),
trading/null clique detection, the clique-application mechanism run on top
of the deferred-acceptance baseline, one walk over the matchings reachable
by cliques, and seat permutations split into cycles.  Every cycle of
students is found by one walk on the seat graph, :func:`_cycles`, sorted and
with polynomial delay: :func:`find_cliques` names its cycles, and
:func:`least_trading_clique` takes the first of its trading-only mode."""

from __future__ import annotations

import enum
import random
from typing import Collection, Iterator, NamedTuple, Optional

from .errors import CycleLimitExceededError, SearchLimitExceededError
from .mechanisms import _deferred_acceptance, sosm
from .model import Instance, Matching, tie_break

DEFAULT_CYCLE_LIMIT = 10**6
DEFAULT_MAX_VISITED = 100_000


class CliqueKind(enum.Enum):
    TRADING = "trading"
    NULL = "null"


class Clique(NamedTuple):
    """A cycle of students; each receives the assignment of the next."""

    cycle: tuple[str, ...]
    kind: CliqueKind


class SeatGraph:
    """The trading graph on groups of seats: the schools, then
    "unassigned".  Student k points to every group she ranks no worse
    than her own, with weight 1 iff strictly better, and each group points
    to its holders.  ``seat[k]`` is k's group and ``into[g]`` maps each
    student pointing to group g to the weight.  Student i points to j
    when i points to j's group and i != j; cycles of students are cliques.
    Built from ``Instance.pref_rows`` and a :meth:`Matching.seats` vector."""

    def __init__(self, instance: Instance, seat: list[int]):
        m = len(instance.schools)
        self.instance, self.rows = instance, instance.pref_rows
        self.seat = [m if g < 0 else g for g in seat]
        self.into: list[dict[int, int]] = [{} for _ in range(m + 1)]
        for k in range(len(seat)):
            self._point(k)

    def _point(self, k: int, was: int = 0) -> None:
        """Point k to the groups she ranks no worse than her own, having
        pointed to those she ranked no worse than ``was`` (0: to none)."""
        row = self.rows[k]
        own = row[self.seat[k]]
        for r, into in zip(row, self.into):
            if r < own:
                into[k] = 1
            elif r == own:
                into[k] = 0
            elif r <= was:
                del into[k]

    def trade(self, cycle: tuple[int, ...]) -> None:
        """Give each student of ``cycle`` the group of the next, in place."""
        seat, rows = self.seat, self.rows
        was = [rows[k][seat[k]] for k in cycle]
        for k, g in zip(cycle, [seat[k] for k in cycle[1:] + cycle[:1]]):
            seat[k] = g
        for k, r in zip(cycle, was):
            self._point(k, r)


def build_graph(instance: Instance, matching: Matching) -> SeatGraph:
    """The :class:`SeatGraph` of ``matching``."""
    return SeatGraph(instance, matching.seats(instance))


def _cycles(
    graph: SeatGraph, into: list[dict[int, int]], limit: int, trading: bool = False
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The elementary cycles of students over the edges ``into``, sorted
    as index tuples, each with whether it has a weight-1 edge; with
    ``trading``, only those that have one.  For each least student v in
    turn, a depth-first search over the students above v, successors
    ascending, closes the path at v before extending it.  It steps to u
    only if u reaches a seed, an in-neighbour of v, off the path: one
    reverse search visiting each student once, so every branch ends in a
    cycle and two cycles are at most O(n) searches apart.  Until the path
    holds a weight-1 edge, the ``trading`` walk seeds from v's weight-1
    in-neighbours only: exact if weight-0 edges stay within their group
    (see :func:`least_trading_clique`); if not, it walks every cycle.
    Closing a cycle past ``limit``, yielded or not, raises with partial [].
    """
    seat, n = graph.seat, len(graph.seat)
    # Sets of students are bitmasks: who holds group g, who points to it
    # (by weight 1: ``gain``), and whom k points to.
    held, points, gain, out = [0] * len(into), [], [], [0] * n
    for k, g in enumerate(seat):
        held[g] |= 1 << k
    for group, h in zip(into, held):
        p = w = 0
        for k, wt in group.items():
            p, w, out[k] = p | 1 << k, w | wt << k, out[k] | h
        points.append(p)
        gain.append(w)
    exact = trading and all(p == w | h for p, w, h in zip(points, gain, held))
    seeds = gain if exact else points
    outside = [((1 << n) - 1) ^ h for h in held]   # everyone but group g's holders

    def ahead(v: int, on: int, seed: int) -> int:
        """The students above v, off the path ``on``, that reach ``seed`` off it."""
        free, reach = ~on & -(2 << v), 0
        fresh = seed & free
        while fresh:
            reach, nxt = reach | fresh, 0
            while fresh:   # once per group the frontier touches
                g = seat[(fresh & -fresh).bit_length() - 1]
                nxt |= points[g]
                fresh &= outside[g]
            fresh = nxt & free & ~reach
        return reach

    closed = 0
    for v in range(n):
        g = seat[v]
        home, path, on, gained = into[g], [v], 1 << v, [False]
        todo = [out[v] & ahead(v, on, seeds[g])]   # each path node's successors still to try
        while todo:
            if not (left := todo[-1]):
                todo.pop()
                gained.pop()
                on ^= 1 << path.pop()
                continue
            low = left & -left
            todo[-1], u = left ^ low, low.bit_length() - 1
            traded = gained[-1] or into[seat[u]][path[-1]] == 1
            path.append(u)
            gained.append(traded)
            on |= low
            if u in home:
                if (closed := closed + 1) > limit:
                    raise CycleLimitExceededError(
                        f"found more than {limit} cycles; raise cycle_limit to enumerate further",
                        partial=[])
                if (trades := traded or home[u] == 1) or not trading:
                    yield tuple(path), trades
            todo.append(out[u] & ahead(v, on, points[g] if traded else seeds[g]))


def find_cliques(
    graph: SeatGraph,
    limit: int = DEFAULT_CYCLE_LIMIT,
    strict_edges: bool = False,
) -> list[Clique]:
    """Every elementary cycle of students (see :class:`SeatGraph`), trading
    if it has a weight-1 edge, else null, sorted as index tuples with
    polynomial delay (see :func:`_cycles`); ``strict_edges`` keeps only
    weight-1 edges.  Past ``limit`` cycles it raises with the least ``limit``.
    """
    name = graph.instance.students.__getitem__
    into = [{k: 1 for k, w in g.items() if w} for g in graph.into] if strict_edges else graph.into
    cliques: list[Clique] = []
    try:
        for cycle, trades in _cycles(graph, into, limit):
            cliques.append(Clique(tuple(map(name, cycle)),
                                  CliqueKind.TRADING if trades else CliqueKind.NULL))
    except CycleLimitExceededError as exc:
        exc.partial = cliques
        raise
    return cliques


def least_trading_clique(
    graph: SeatGraph, limit: int = DEFAULT_CYCLE_LIMIT
) -> Optional[tuple[int, ...]]:
    """The cycle of the first trading clique of :func:`find_cliques`, as
    student indices: the first cycle of :func:`_cycles`' ``trading`` walk,
    on any profile, counted to ``limit``.  With strict preferences a
    weight-0 edge joins students who hold the same school (or none), unless
    one holds a school off her list.  Then a path of weight-0 edges from v
    stays in v's group, and a cycle through v is trading iff it leaves the
    group, when the student leading it back points to v by weight 1.  So,
    while the path has no weight-1 edge, u can close a trading cycle iff u
    reaches a weight-1 in-neighbour of v off the path, and after one, iff u
    reaches any: the walk is polynomial.  Elsewhere it walks every cycle.
    """
    return next((cycle for cycle, _ in _cycles(graph, graph.into, limit, trading=True)), None)


def has_trading_clique(graph: SeatGraph, vacant: Collection[int] = ()) -> bool:
    """True iff some cycle of students carries a weight-1 edge; with
    ``vacant`` groups, some cycle through a vacancy vertex may close it.
    That is, iff some weight-1 edge (k, g) has both ends in one strongly
    connected component of the seat graph plus a vacancy vertex, which the
    ``vacant`` groups point to and which points to every group.  With none
    vacant, a shortest path from g back to k closes a cycle of students.
    Vertices are the students 0..n-1, then group g as n + g, then the
    vacancy, then a root pointing to all of them, where Tarjan's search
    starts; it stays iterative, as district graphs are too deep for
    recursion.  ``comp[v]`` is the first vertex of v's component.
    """
    n, vacancy = len(graph.seat), len(graph.seat) + len(graph.into)
    succ = [[] for _ in range(n)] + [[vacancy] * (g in vacant) for g in range(len(graph.into))]
    succ += [range(n, vacancy), range(vacancy + 1)]
    for g, into in enumerate(graph.into):
        for k in into:
            succ[k].append(n + g)
    for k, g in enumerate(graph.seat):
        succ[n + g].append(k)
    root = len(succ) - 1
    index, low, comp = [-1] * len(succ), [0] * len(succ), [-1] * len(succ)
    index[root] = count = 0
    stack = [root]                      # visited vertices not yet in a component
    work = [(root, iter(succ[root]))]   # the search path, each with its unread out-edges
    while work:
        v, edges = work[-1]
        for w in edges:
            if index[w] < 0:
                index[w] = low[w] = count = count + 1
                stack.append(w)
                work.append((w, iter(succ[w])))
                break
            if comp[w] < 0 and index[w] < low[v]:
                low[v] = index[w]
        else:
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while comp[v] < 0:
                    comp[stack.pop()] = v
    return any(w and comp[k] == comp[n + g]
               for g, into in enumerate(graph.into) for k, w in into.items())


class TadamResult(NamedTuple):
    matching: Matching
    baseline: Matching
    applied: tuple[Clique, ...]


def tadam_run(
    instance: Instance,
    policy: "str | int" = "canonical",
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    tiebreak: int = 0,
) -> TadamResult:
    """Run deferred acceptance, then apply trading cliques until none remain.

    ``policy`` is either ``"canonical"`` (always take the canonically least
    trading clique) or an integer seed for a reproducible random choice.
    Ties in preferences or priorities are broken with seed ``tiebreak``
    for the baseline run; the trading graph uses the true weak preferences.
    Null cliques are never applied (they change no ranks).  Every run
    trades in place on one :class:`SeatGraph`.  Canonical runs take each
    clique with :func:`least_trading_clique` on any profile, seeded runs
    pick among the trading cycles of the full :func:`_cycles` walk; a pick
    closing over ``cycle_limit`` cycles raises with an empty partial.
    """
    rng = None if policy == "canonical" else random.Random(policy)
    strict = tie_break(instance, tiebreak)
    seat, _ = _deferred_acceptance(strict, strict.int_view.lists, traced=False)
    graph, cycles = SeatGraph(instance, seat), []
    while True:
        if rng is None:
            cycle = least_trading_clique(graph, cycle_limit)
        else:
            found = [c for c, trades in _cycles(graph, graph.into, cycle_limit) if trades]
            cycle = found and rng.choice(found)
        if not cycle:
            break
        graph.trade(cycle)
        cycles.append(cycle)
    name = instance.students.__getitem__
    return TadamResult(
        Matching.of_seats(instance, graph.seat), Matching.of_seats(instance, seat),
        tuple(Clique(tuple(map(name, c)), CliqueKind.TRADING) for c in cycles))


def reachable(
    instance: Instance,
    start: Matching,
    kind: CliqueKind,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> Iterator[tuple[Matching, list[Clique]]]:
    """Depth-first walk over the matchings reachable from ``start`` by
    cliques of ``kind``: yields each once, with its cliques of that kind
    in :func:`find_cliques` order; more than ``max_visited`` raises."""
    index, first = instance.student_index, tuple(start.seats(instance))
    seen, stack = {first}, [first]
    while stack:
        seat = stack.pop()
        cliques = [c for c in find_cliques(SeatGraph(instance, seat), cycle_limit)
                   if c.kind is kind]
        yield Matching.of_seats(instance, seat), cliques
        for clique in cliques:
            nxt = list(seat)
            for i, j in zip(clique.cycle, clique.cycle[1:] + clique.cycle[:1]):
                nxt[index[i]] = seat[index[j]]
            if (nxt := tuple(nxt)) not in seen:
                if len(seen) >= max_visited:
                    raise SearchLimitExceededError(
                        f"reached more than {max_visited} matchings; "
                        "raise max_visited to search further",
                        partial=frozenset(Matching.of_seats(instance, s) for s in seen),
                    )
                seen.add(nxt)
                stack.append(nxt)


class TadamEnumeration(NamedTuple):
    terminals: frozenset[Matching]
    # Null-clique closures of the terminals; equal closures mean the
    # terminals differ only by swaps among indifferent students.
    classes: tuple[frozenset[Matching], ...]


def tadam_enumerate(
    instance: Instance,
    max_visited: int = DEFAULT_MAX_VISITED,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    tiebreak: int = 0,
) -> TadamEnumeration:
    """Every matching that trading-clique sequences reach from the DA
    baseline (ties broken with seed ``tiebreak``) and that admits no further
    trading clique; past ``max_visited`` the error carries those found."""
    baseline, _ = sosm(tie_break(instance, tiebreak))
    terminals: set[Matching] = set()
    classes: list[frozenset[Matching]] = []
    try:
        for current, cliques in reachable(
            instance, baseline, CliqueKind.TRADING, cycle_limit, max_visited
        ):
            if not cliques:
                terminals.add(current)
        placed: set[Matching] = set()
        for terminal in sorted(terminals, key=lambda m: m.pairs):
            if terminal in placed:
                continue
            closure = frozenset(m for m, _ in reachable(
                instance, terminal, CliqueKind.NULL, cycle_limit, max_visited
            ))
            placed |= closure
            classes.append(closure)
    except SearchLimitExceededError as exc:
        exc.partial = frozenset(terminals)
        raise
    return TadamEnumeration(frozenset(terminals), tuple(classes))


def seat_cycles(baseline: Matching, target: Matching) -> list[list[str]]:
    """The students whose seat differs, as cycles in which each receives
    the ``baseline`` seat of the next, from its least student; seats of
    one school are interchangeable: each takes her school's last giver."""
    moved = [i for i, seat in target.pairs if seat != baseline[i]]
    givers: dict[Optional[str], list[str]] = {}
    for i in moved:
        givers.setdefault(baseline[i], []).append(i)
    succ = {}
    for i in moved:
        pool = givers.get(target[i])
        if not pool:
            raise ValueError("target assigns a seat nobody gives up; "
                             "not realizable by seat trades")
        succ[i] = pool.pop()

    cycles: list[list[str]] = []
    while succ:  # each cycle starts at its first student in matching order
        cycle = [next(iter(succ))]
        node = succ.pop(cycle[0])
        while node != cycle[0]:
            cycle.append(node)
            node = succ.pop(node)
        cycles.append(cycle)
    return cycles


def realize_domination(
    instance: Instance, baseline: Matching, target: Matching
) -> Optional[list[Clique]]:
    """Clique sequence turning ``baseline`` (as :attr:`TadamResult.baseline`)
    into ``target``, trading cliques first; None if ``target`` does not
    dominate-or-equal ``baseline``."""
    from .analysis import dominates

    if target == baseline:
        return []
    if not dominates(instance, target, baseline):
        return None

    cliques: list[Clique] = []
    index, rows = instance.student_index, instance.pref_rows
    was, now = baseline.seats(instance), target.seats(instance)
    for cycle in seat_cycles(baseline, target):
        better = any(rows[k][now[k]] < rows[k][was[k]] for k in map(index.__getitem__, cycle))
        cliques.append(Clique(tuple(cycle), CliqueKind.TRADING if better else CliqueKind.NULL))
    cliques.sort(key=lambda c: c.kind is CliqueKind.NULL)  # trading first
    return cliques


def to_dot(graph: SeatGraph) -> str:
    """Export the students' graph in DOT syntax, by name, with a ``w``
    attribute on each edge (i, j): i points to j's group and i != j."""
    names = graph.instance.students
    edges = sorted((names[i], names[j], w) for j, g in enumerate(graph.seat)
                   for i, w in graph.into[g].items() if i != j)
    return "\n".join(["digraph matching {", *(f'  "{v}";' for v in names),
                      *(f'  "{i}" -> "{j}" [w={w}];' for i, j, w in edges), "}"])
