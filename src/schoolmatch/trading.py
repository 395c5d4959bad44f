"""Trading cycles over a matching: the directed weighted graph of a
matching, trading/null clique detection, the clique-application mechanism
run on top of the deferred-acceptance baseline, one walk over the
matchings reachable by cliques, and seat permutations split into cycles."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CycleLimitExceededError, SearchLimitExceededError
from .mechanisms import sosm
from .model import Instance, Matching, rank, tie_break

DEFAULT_CYCLE_LIMIT = 10**6
DEFAULT_MAX_VISITED = 100_000


@dataclass(frozen=True)
class MatchGraph:
    """Directed graph on students; edge (i, j) means i weakly prefers j's
    seat to her own, with weight 1 iff the preference is strict."""

    vertices: tuple[str, ...]
    weights: dict[tuple[str, str], int]


class CliqueKind(enum.Enum):
    TRADING = "trading"
    NULL = "null"


@dataclass(frozen=True)
class Clique:
    """A cycle of students; each receives the assignment of the next."""

    cycle: tuple[str, ...]
    kind: CliqueKind


def build_graph(instance: Instance, matching: Matching) -> MatchGraph:
    held = [(j, matching[j]) for j in instance.students]
    pref_rank = instance.pref_rank
    weights: dict[tuple[str, str], int] = {}
    for i in instance.students:
        ranks = pref_rank[i]
        own = ranks[matching[i]]
        for j, seat in held:
            if i == j:
                continue
            other = ranks[seat]
            if other < own:
                weights[(i, j)] = 1
            elif other == own:
                weights[(i, j)] = 0
    return MatchGraph(instance.students, weights)


def prune(graph: MatchGraph) -> MatchGraph:
    """Iteratively delete vertices with no incoming or no outgoing edge."""
    alive = set(graph.vertices)
    weights = dict(graph.weights)
    changed = True
    while changed:
        changed = False
        outs = {v: 0 for v in alive}
        ins = {v: 0 for v in alive}
        for (i, j) in weights:
            outs[i] += 1
            ins[j] += 1
        dead = {v for v in alive if not outs[v] or not ins[v]}
        if dead:
            changed = True
            alive -= dead
            weights = {
                e: w for e, w in weights.items() if e[0] in alive and e[1] in alive
            }
    vertices = tuple(v for v in graph.vertices if v in alive)
    return MatchGraph(vertices, weights)


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

    cliques = []
    for count, cycle in enumerate(nx.simple_cycles(digraph), start=1):
        if count > limit:
            cliques.sort(key=lambda c: c.cycle)
            raise CycleLimitExceededError(
                f"found more than {limit} cycles; raise cycle_limit to enumerate further",
                partial=cliques,
            )
        canon = _canonical_cycle(cycle, order)
        edges = list(zip(canon, canon[1:] + canon[:1]))
        kind = (
            CliqueKind.TRADING
            if any(graph.weights[e] == 1 for e in edges)
            else CliqueKind.NULL
        )
        cliques.append(Clique(canon, kind))
    cliques.sort(key=lambda c: tuple(order[v] for v in c.cycle))
    return cliques


def least_trading_clique(graph: MatchGraph, instance: Instance) -> Optional[Clique]:
    """The first trading clique of :func:`find_cliques`, found without
    enumerating cycles; needs strict preference profiles.

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
    per step, and the walk never dead-ends after its first step.
    """
    if not instance.has_strict_prefs:
        raise ValueError("least_trading_clique needs strict preferences")
    order = instance.student_index
    succ: dict[str, list[str]] = {v: [] for v in graph.vertices}
    pred: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for i, j in graph.weights:
        succ[i].append(j)
        pred[j].append(i)
    for v in sorted(graph.vertices, key=order.__getitem__):
        path, strict = [v], False
        while True:
            if strict and (path[-1], v) in graph.weights:
                return Clique(tuple(path), CliqueKind.TRADING)
            free = {x for x in graph.vertices if order[x] > order[v]} - set(path)
            stack = [w for w in pred[v] if w in free and (strict or graph.weights[w, v])]
            reach = set(stack)
            while stack:
                for x in pred[stack.pop()]:
                    if x in free and x not in reach:
                        reach.add(x)
                        stack.append(x)
            nxt = min((u for u in succ[path[-1]] if u in reach), key=order.__getitem__,
                      default=None)
            if nxt is None:  # only on the first step: no trading cycle from v
                break
            strict = strict or graph.weights[path[-1], nxt] == 1
            path.append(nxt)
    return None


def has_trading_clique(graph: MatchGraph) -> bool:
    """True iff some cycle carries a weight-1 edge.

    A cycle with a strict edge exists iff some strongly connected
    component (of the full graph) contains a weight-1 edge.
    """
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.vertices)
    digraph.add_edges_from(graph.weights)
    for comp in nx.strongly_connected_components(digraph):
        if len(comp) < 2:
            continue
        for (i, j), w in graph.weights.items():
            if w == 1 and i in comp and j in comp:
                return True
    return False


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
    each clique in polynomial time with :func:`least_trading_clique`; all
    other runs enumerate every cycle, and only they obey ``cycle_limit``.
    """
    rng = None if policy == "canonical" else random.Random(policy)
    polynomial = rng is None and instance.has_strict_prefs
    strict = tie_break(instance, 0)
    baseline, _ = sosm(strict)
    current = baseline
    applied: list[Clique] = []
    while True:
        graph = prune(build_graph(instance, current))
        if polynomial:
            pick = least_trading_clique(graph, instance)
        else:
            trading = [
                c for c in find_cliques(graph, instance, cycle_limit)
                if c.kind is CliqueKind.TRADING
            ]
            pick = (trading[0] if rng is None else rng.choice(trading)) if trading else None
        if pick is None:
            return TadamResult(current, baseline, tuple(applied))
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
        cliques = [
            c for c in find_cliques(graph, instance, cycle_limit) if c.kind is kind
        ]
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
            raise ValueError(
                "target assigns a seat nobody gives up; "
                "not realizable by seat trades"
            )
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

    strict = tie_break(instance, 0)
    baseline, _ = sosm(strict)
    if target == baseline:
        return []
    if not dominates(instance, target, baseline):
        return None

    cliques: list[Clique] = []
    for cycle in seat_cycles(baseline, target):
        strict_edge = any(
            rank(instance.prefs[i], target[i]) < rank(instance.prefs[i], baseline[i])
            for i in cycle
        )
        cliques.append(
            Clique(
                _canonical_cycle(cycle, instance.student_index),
                CliqueKind.TRADING if strict_edge else CliqueKind.NULL,
            )
        )
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
