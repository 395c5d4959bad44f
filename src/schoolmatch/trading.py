"""Trading cycles over a matching: its seat-level and student-level trading
graphs, trading/null clique detection, the clique-application mechanism run
on top of the deferred-acceptance baseline, one walk over the matchings
reachable by cliques, and seat permutations split into cycles."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from operator import getitem
from typing import Iterator, Optional

from .errors import CycleLimitExceededError, SearchLimitExceededError
from .mechanisms import _deferred_acceptance, sosm
from .model import Instance, Matching, rank, tie_break

DEFAULT_CYCLE_LIMIT = 10**6
DEFAULT_MAX_VISITED = 100_000


@dataclass(frozen=True)
class MatchGraph:
    """Directed graph with 0/1 edge weights.  From :func:`build_graph`: on
    students, edge (i, j) when i weakly prefers j's seat to her own, with
    weight 1 iff strictly."""

    vertices: tuple
    weights: dict[tuple, int]


class CliqueKind(enum.Enum):
    TRADING = "trading"
    NULL = "null"


@dataclass(frozen=True)
class Clique:
    """A cycle of students; each receives the assignment of the next."""

    cycle: tuple[str, ...]
    kind: CliqueKind


def build_graph(instance: Instance, matching: Matching) -> MatchGraph:
    """Edge (i, j) when student i ranks j's seat no worse than her own,
    weight 1 iff better: i points to j's group in the :class:`SeatGraph`."""
    names, seat, rows = instance.students, matching.seats(instance), instance.pref_rows
    return MatchGraph(names, {(i, j): 1 if row[t] < own else 0
                              for i, row, own in zip(names, rows, map(getitem, rows, seat))
                              for j, t in zip(names, seat) if row[t] <= own and i != j})


def prune(graph: MatchGraph) -> MatchGraph:
    """Iteratively delete vertices with no incoming or no outgoing edge."""
    alive, weights = set(graph.vertices), dict(graph.weights)
    while (kept := {i for i, _ in weights} & {j for _, j in weights}) != alive:
        alive = kept
        weights = {e: w for e, w in weights.items() if e[0] in kept and e[1] in kept}
    return MatchGraph(tuple(v for v in graph.vertices if v in alive), weights)


def _canonical_cycle(cycle: list[str], order: dict[str, int]) -> tuple[str, ...]:
    k = min(range(len(cycle)), key=lambda idx: order[cycle[idx]])
    return tuple(cycle[k:] + cycle[:k])


def find_cliques(
    graph: MatchGraph,
    instance: Instance,
    limit: int = DEFAULT_CYCLE_LIMIT,
) -> list[Clique]:
    """All elementary cycles of the graph, classified trading or null.

    Cycles are rotated to start at the canonically smallest student and
    sorted; exceeding ``limit`` raises with the partial list attached.
    """
    import networkx as nx  # only cycle enumeration needs it

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.vertices)
    digraph.add_edges_from(graph.weights)
    order = instance.student_index

    def by_index(clique: Clique) -> tuple[int, ...]:
        return tuple(map(order.__getitem__, clique.cycle))

    cliques = []
    for count, cycle in enumerate(nx.simple_cycles(digraph), start=1):
        if count > limit:
            cliques.sort(key=by_index)
            raise CycleLimitExceededError(
                f"found more than {limit} cycles; raise cycle_limit to enumerate further",
                partial=cliques,
            )
        canon = _canonical_cycle(cycle, order)
        strict = any(graph.weights[e] == 1 for e in zip(canon, canon[1:] + canon[:1]))
        cliques.append(Clique(canon, CliqueKind.TRADING if strict else CliqueKind.NULL))
    cliques.sort(key=by_index)
    return cliques


class SeatGraph:
    """The trading graph on groups of seats: the schools, then
    "unassigned".  Student k points to every group she ranks no worse
    than her own, with weight 1 iff strictly better, and each group points
    to its holders.  ``seat[k]`` is k's group and ``into[g]`` maps each
    student pointing to group g to the weight.  Student i points to j in
    :func:`build_graph` iff i points to j's group, with the same weight.
    Built from ``Instance.pref_rows`` and a :meth:`Matching.seats` vector."""

    def __init__(self, instance: Instance, seat: list[int]):
        m = len(instance.schools)
        self.instance, self.rows = instance, instance.pref_rows
        self.seat = [m if g < 0 else g for g in seat]
        self.into: list[dict[int, int]] = [{} for _ in range(m + 1)]
        for k in range(len(seat)):
            self._point(k)

    def _point(self, k: int) -> None:
        row = self.rows[k]
        own = row[self.seat[k]]
        for r, into in zip(row, self.into):
            if r < own:
                into[k] = 1
            elif r == own:
                into[k] = 0
            elif k in into:
                del into[k]

    def trade(self, cycle: tuple[int, ...]) -> None:
        """Give each student of ``cycle`` the group of the next, in place."""
        seat = self.seat
        for k, g in zip(cycle, [seat[k] for k in cycle[1:] + cycle[:1]]):
            seat[k] = g
        for k in cycle:
            self._point(k)

    def match_graph(self) -> MatchGraph:
        """Students 0..n-1, then group g as vertex n + g."""
        n = len(self.seat)
        weights = {(k, n + g): w for g, into in enumerate(self.into) for k, w in into.items()}
        weights.update(((n + g, k), 0) for k, g in enumerate(self.seat))
        return MatchGraph(tuple(range(n + len(self.into))), weights)


def least_trading_clique(graph: SeatGraph) -> Optional[tuple[int, ...]]:
    """The cycle of the first trading clique of :func:`find_cliques`, as
    student indices, found without enumerating cycles; needs strict
    preference profiles.

    Cycles start at their least student and compare as index tuples, so
    take the least v on a trading cycle of G[>= v] and grow a path from v:
    close it at v once it holds a weight-1 edge, else step to the least
    out-neighbour u that still has a completion.  With strict preferences
    a weight-0 edge only joins students who hold the same school (or
    none), and such students have the same in-neighbours.  So a cycle
    through v is trading iff it leaves v's school group, (w, v) has weight
    1 iff w is outside it, and a path back into the group enters it from
    such a w.  Hence u has a completion iff, avoiding the path and all
    students up to v, u reaches an in-neighbour w of v, with (w, v) of
    weight 1 while the path has no weight-1 edge yet: one reverse search
    per step, and the walk never dead-ends after its first step.  The
    in-neighbours of a student are those pointing to her group, so the
    search expands each group once, and it stops at the least candidate.
    """
    if not graph.instance.has_strict_prefs:
        raise ValueError("least_trading_clique needs strict preferences")
    seat, into = graph.seat, graph.into
    for v in range(len(seat)):
        path, strict = [v], False
        while True:
            x, seen = path[-1], set(path)
            if strict and x in into[seat[v]]:
                return tuple(path)
            stack = [w for w, wt in into[seat[v]].items() if w > v and w not in seen
                     and (strict or wt)]
            succ = [u for u in range(v + 1, len(seat)) if u not in seen and x in into[seat[u]]]
            seen.update(stack)   # the path, then every student reached
            expanded = set()
            while stack and succ and succ[0] not in seen:
                g = seat[stack.pop()]
                if g not in expanded:
                    expanded.add(g)
                    fresh = [w for w in into[g] if w > v and w not in seen]
                    seen.update(fresh)
                    stack += fresh
            nxt = next((u for u in succ if u in seen), None)
            if nxt is None:  # only on the first step: no trading cycle from v
                break
            strict = strict or into[seat[nxt]][x] == 1
            path.append(nxt)
    return None


def has_trading_clique(graph: MatchGraph) -> bool:
    """True iff some cycle carries a weight-1 edge.

    That holds iff some weight-1 edge (a, b) has both ends in one strongly
    connected component: a shortest path from b back to a closes a simple
    cycle.  The components come from Tarjan's search, kept iterative as
    district graphs are too deep for recursion; any hashable vertex works.
    """
    succ: dict = {v: [] for v in graph.vertices}
    for i, j in graph.weights:
        succ[i].append(j)
    index: dict = {}
    low: dict = {}
    comp: dict = {}      # vertex -> the root of its component
    stack: list = []     # visited vertices not yet in a component
    work: list = []      # the search path, each with its unread out-edges

    def visit(v) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        work.append((v, iter(succ[v])))

    for root in succ:
        if root not in index:
            visit(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    visit(w)
                    break
                if w not in comp:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while v not in comp:
                        comp[stack.pop()] = v
    return any(w == 1 and comp[i] == comp[j] for (i, j), w in graph.weights.items())


def apply_clique(instance: Instance, matching: Matching, clique: Clique) -> Matching:
    """Give each student in the cycle the seat of the student she points to."""
    cycle = clique.cycle
    assignment = matching.as_dict()
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        ranks = instance.pref_rank[i]
        if i == j or ranks[matching[j]] > ranks[matching[i]]:
            raise ValueError(f"stale clique: edge {i}->{j} no longer valid")
        assignment[i] = matching[j]
    return Matching.of(assignment, instance)


@dataclass(frozen=True)
class TadamResult:
    matching: Matching
    baseline: Matching
    applied: tuple[Clique, ...]


def tadam_run(
    instance: Instance,
    policy: "str | int" = "canonical",
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
) -> TadamResult:
    """Run deferred acceptance, then apply trading cliques until none remain.

    ``policy`` is either ``"canonical"`` (always take the canonically least
    trading clique) or an integer seed for a reproducible random choice.
    Ties in preferences or priorities are broken with seed 0 for the
    baseline run; the trading graph always uses the true weak preferences.
    Null cliques are never applied (they change no ranks).
    Canonical runs on strict preferences (priorities may be weak) pick
    each clique in polynomial time with :func:`least_trading_clique` on
    one :class:`SeatGraph`, traded in place; all other runs enumerate
    every cycle, and only they obey ``cycle_limit``.
    """
    rng = None if policy == "canonical" else random.Random(policy)
    strict = tie_break(instance, 0)
    if rng is None and instance.has_strict_prefs:
        seat, _ = _deferred_acceptance(strict, strict.int_view.lists)
        graph, cycles = SeatGraph(instance, seat), []
        while (cycle := least_trading_clique(graph)) is not None:
            graph.trade(cycle)
            cycles.append(cycle)
        name = instance.students.__getitem__
        return TadamResult(
            Matching.of_seats(instance, graph.seat), Matching.of_seats(instance, seat),
            tuple(Clique(tuple(map(name, c)), CliqueKind.TRADING) for c in cycles))
    current = baseline = sosm(strict)[0]
    applied: list[Clique] = []
    while True:
        graph = prune(build_graph(instance, current))
        trading = [c for c in find_cliques(graph, instance, cycle_limit)
                   if c.kind is CliqueKind.TRADING]
        if not trading:
            return TadamResult(current, baseline, tuple(applied))
        pick = trading[0] if rng is None else rng.choice(trading)
        current = apply_clique(instance, current, pick)
        applied.append(pick)


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
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        graph = prune(build_graph(instance, current))
        cliques = [c for c in find_cliques(graph, instance, cycle_limit) if c.kind is kind]
        yield current, cliques
        for clique in cliques:
            nxt = apply_clique(instance, current, clique)
            if nxt not in seen:
                if len(seen) >= max_visited:
                    raise SearchLimitExceededError(
                        f"reached more than {max_visited} matchings; "
                        "raise max_visited to search further",
                        partial=frozenset(seen),
                    )
                seen.add(nxt)
                stack.append(nxt)


@dataclass(frozen=True)
class TadamEnumeration:
    terminals: frozenset[Matching]
    # Null-clique closures of the terminals; equal closures mean the
    # terminals differ only by swaps among indifferent students.
    classes: tuple[frozenset[Matching], ...]


def tadam_enumerate(
    instance: Instance,
    max_visited: int = DEFAULT_MAX_VISITED,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
) -> TadamEnumeration:
    """All matchings reachable from the deferred-acceptance baseline by
    trading-clique sequences that admit no further trading clique; past
    ``max_visited`` the error carries the terminals found so far."""
    baseline, _ = sosm(tie_break(instance, 0))
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
    the ``baseline`` seat of the next; seats of one school are
    interchangeable, so each takes the last giver left at her school."""
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
    instance: Instance, target: Matching
) -> Optional[list[Clique]]:
    """Clique sequence turning the deferred-acceptance baseline into
    ``target``, trading cliques first; None if ``target`` does not
    dominate-or-equal the baseline."""
    from .analysis import dominates

    baseline, _ = sosm(tie_break(instance, 0))
    if target == baseline:
        return []
    if not dominates(instance, target, baseline):
        return None

    cliques: list[Clique] = []
    for cycle in seat_cycles(baseline, target):
        better = any(rank(instance.prefs[i], target[i]) < rank(instance.prefs[i], baseline[i])
                     for i in cycle)
        canon = _canonical_cycle(cycle, instance.student_index)
        cliques.append(Clique(canon, CliqueKind.TRADING if better else CliqueKind.NULL))
    cliques.sort(key=lambda c: c.kind is CliqueKind.NULL)  # trading first
    return cliques


def to_dot(graph: MatchGraph) -> str:
    """Export in DOT syntax with a ``w`` attribute on each edge."""
    lines = ["digraph matching {"]
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for (i, j), w in sorted(graph.weights.items()):
        lines.append(f'  "{i}" -> "{j}" [w={w}];')
    lines.append("}")
    return "\n".join(lines)
