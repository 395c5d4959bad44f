"""The name-keyed cycle route that ``trading`` ran before it enumerated on
the seat graph, kept as the tests' reference: build the student graph on
names, prune it, enumerate its cycles with networkx, rotate and sort them,
and apply a clique to a name-keyed matching.

networkx comes with the ``test`` extra; the package itself does not need
it.  Imported from test modules as ``networkx_route``.
"""

import functools
from dataclasses import dataclass

from schoolmatch.errors import CycleLimitExceededError
from schoolmatch.model import Matching, rank
from schoolmatch.trading import Clique, CliqueKind

DEFAULT_CYCLE_LIMIT = 10**6


@dataclass(frozen=True)
class StudentGraph:
    """Directed graph with 0/1 edge weights, keyed by vertex names."""

    vertices: tuple
    weights: dict[tuple, int]


@functools.lru_cache(maxsize=1024)
def school_ranks(profile, schools):
    """Name-keyed ranks of each school and of unassigned, from :func:`rank`;
    kept across the graphs a reference run rebuilds after every clique."""
    return {s: rank(profile, s) for s in (*schools, None)}


def student_graph(instance, matching: Matching) -> StudentGraph:
    """Edge (i, j) when student i ranks j's seat no worse than her own,
    weight 1 iff better, on name-keyed ranks."""
    weights = {}
    for i in instance.students:
        ranks = school_ranks(instance.prefs[i], instance.schools)
        own = ranks[matching[i]]
        for j in instance.students:
            if i != j and ranks[matching[j]] <= own:
                weights[(i, j)] = int(ranks[matching[j]] < own)
    return StudentGraph(instance.students, weights)


def prune(graph: StudentGraph) -> StudentGraph:
    """Iteratively delete vertices with no incoming or no outgoing edge."""
    alive, weights = set(graph.vertices), dict(graph.weights)
    while (kept := {i for i, _ in weights} & {j for _, j in weights}) != alive:
        alive = kept
        weights = {e: w for e, w in weights.items() if e[0] in kept and e[1] in kept}
    return StudentGraph(tuple(v for v in graph.vertices if v in alive), weights)


def canonical_cycle(cycle, order):
    k = min(range(len(cycle)), key=lambda idx: order[cycle[idx]])
    return tuple(cycle[k:] + cycle[:k])


def find_cliques(graph: StudentGraph, instance, limit=DEFAULT_CYCLE_LIMIT):
    """All elementary cycles of the graph, classified trading or null.

    Cycles are rotated to start at the canonically smallest student and
    sorted; more than ``limit`` raises with the first ``limit`` networkx
    found, sorted, attached.
    """
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.vertices)
    digraph.add_edges_from(graph.weights)
    order = instance.student_index

    def by_index(clique):
        return tuple(map(order.__getitem__, clique.cycle))

    cliques = []
    for count, cycle in enumerate(nx.simple_cycles(digraph), start=1):
        if count > limit:
            cliques.sort(key=by_index)
            raise CycleLimitExceededError(
                f"found more than {limit} cycles; raise cycle_limit to enumerate further",
                partial=cliques,
            )
        canon = canonical_cycle(cycle, order)
        strict = any(graph.weights[e] == 1 for e in zip(canon, canon[1:] + canon[:1]))
        cliques.append(Clique(canon, CliqueKind.TRADING if strict else CliqueKind.NULL))
    cliques.sort(key=by_index)
    return cliques


def apply_clique(instance, matching: Matching, clique: Clique) -> Matching:
    """Give each student in the cycle the seat of the student she points to."""
    cycle = clique.cycle
    assignment = matching.as_dict()
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        profile = instance.prefs[i]
        if i == j or rank(profile, matching[j]) > rank(profile, matching[i]):
            raise ValueError(f"stale clique: edge {i}->{j} no longer valid")
        assignment[i] = matching[j]
    return Matching.of(assignment, instance)
