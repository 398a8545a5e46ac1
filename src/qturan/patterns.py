"""Forbidden-subgraph machinery: containment, F-freeness, chromatic number.

Containment is plain subgraph containment (not induced): F fits in a host
iff some injection of V(F) sends every edge of F to a host edge.  Patterns
are tiny, so the matcher backtracks over pattern vertices in descending
degree order with bitmask candidate pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import graphs
from ._kernels import subgraph_search
from .graphs import Graph, _interchangeable


@dataclass(frozen=True)
class ForbiddenPattern:
    graph: Graph
    chi: int
    degseq: tuple
    name: Optional[str] = None

    @classmethod
    def from_graph(cls, g: Graph, name: Optional[str] = None) -> "ForbiddenPattern":
        return cls(
            graph=g,
            chi=chromatic_number(g),
            degseq=g.degree_sequence(),
            name=name,
        )

    def canonical(self) -> str:
        return graphs.canonical_form(self.graph)

    def label(self) -> str:
        return self.name if self.name is not None else self.canonical()


def _pattern_graph(f) -> Graph:
    return f.graph if isinstance(f, ForbiddenPattern) else f


@lru_cache(maxsize=4096)
def _match_order(pg: Graph) -> tuple:
    """Assignment order for an unanchored search: descending degree."""
    return tuple(sorted(range(pg.n), key=lambda v: -pg.degree(v)))


@lru_cache(maxsize=4096)
def anchor_vertices(pg: Graph) -> tuple:
    """Pattern vertices that can be mapped onto one fixed host vertex, deduped
    by transposition automorphisms (enough when anchoring a single host vertex)."""
    reps = []
    for p in range(pg.n):
        if not any(_interchangeable(pg.adj, p, r) for r in reps):
            reps.append(p)
    return tuple(reps)


@lru_cache(maxsize=4096)
def _anchored_orders(pg: Graph):
    """One assignment order per anchor vertex, the anchor first."""
    return tuple(
        (p,) + tuple(v for v in _match_order(pg) if v != p)
        for p in anchor_vertices(pg)
    )


def contains_subgraph(host: Graph, f, anchor: Optional[int] = None) -> bool:
    """True iff the pattern embeds into ``host`` as a (non-induced) subgraph.

    With ``anchor`` set, only embeddings whose image includes that host
    vertex are sought; when ``host`` minus the anchor is already known to be
    pattern-free this equals the unanchored verdict but prunes much harder.
    """
    pg = _pattern_graph(f)
    if pg.n > host.n:
        return False
    if pg.edge_count() > host.edge_count():
        return False
    if anchor is None:
        return subgraph_search(host.adj, pg.adj, _match_order(pg), (1 << host.n) - 1)
    return any(
        subgraph_search(host.adj, pg.adj, order, 1 << anchor)
        for order in _anchored_orders(pg)
    )


def is_free(host: Graph, f) -> bool:
    return not contains_subgraph(host, f)


def contains_subgraph_naive(host: Graph, pattern_graph: Graph) -> bool:
    """Oracle matcher: try every injective vertex map.  Test use only."""
    pg = _pattern_graph(pattern_graph)
    if pg.n > host.n:
        return False
    pedges = list(pg.edges())
    for image in itertools.permutations(range(host.n), pg.n):
        if all(host.has_edge(image[u], image[v]) for u, v in pedges):
            return True
    return False


# -- chromatic number ----------------------------------------------------


def _greedy_clique_bound(g: Graph) -> int:
    best = 1
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    for start in order:
        clique = [start]
        cmask = 1 << start
        cand = g.adj[start]
        while cand:
            v = max(
                (w for w in range(g.n) if (cand >> w) & 1),
                key=lambda w: (g.adj[w] & cand).bit_count(),
            )
            clique.append(v)
            cmask |= 1 << v
            cand &= g.adj[v]
        best = max(best, len(clique))
    return best


def _dsatur_greedy(g: Graph):
    colors = [-1] * g.n
    for _ in range(g.n):
        pick = max(
            (v for v in range(g.n) if colors[v] < 0),
            key=lambda v: (
                len({colors[w] for w in g.neighbors(v) if colors[w] >= 0}),
                g.degree(v),
            ),
        )
        used = {colors[w] for w in g.neighbors(pick) if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[pick] = c
    return max(colors) + 1


def _k_colorable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def rec(count):
        if count == g.n:
            return True
        pick = max(
            (v for v in range(g.n) if colors[v] < 0),
            key=lambda v: (
                len({colors[w] for w in g.neighbors(v) if colors[w] >= 0}),
                g.degree(v),
            ),
        )
        used = {colors[w] for w in g.neighbors(pick) if colors[w] >= 0}
        top = max([colors[v] for v in range(g.n)], default=-1)
        for c in range(min(k, top + 2)):
            if c in used:
                continue
            colors[pick] = c
            if rec(count + 1):
                return True
            colors[pick] = -1
        return False

    return rec(0)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via DSATUR branch and bound."""
    if g.edge_count() == 0:
        return 1
    lb = _greedy_clique_bound(g)
    ub = _dsatur_greedy(g)
    for k in range(lb, ub):
        if _k_colorable(g, k):
            return k
    return ub


# -- named pattern registry ----------------------------------------------


def _registry_builders():
    reg = {
        "K3": lambda: graphs.complete(3),
        "K4": lambda: graphs.complete(4),
        "K5": lambda: graphs.complete(5),
        "C4": lambda: graphs.cycle(4),
        "C5": lambda: graphs.cycle(5),
        "C6": lambda: graphs.cycle(6),
        "C7": lambda: graphs.cycle(7),
        "K1_2": lambda: graphs.star(2),
        "K1_3": lambda: graphs.star(3),
        "K1_4": lambda: graphs.star(4),
        "K2_3": lambda: graphs.complete_bipartite(2, 3),
        "petersen": graphs.petersen,
    }
    return reg


PATTERN_NAMES = tuple(_registry_builders())


class UnknownPatternError(ValueError):
    pass


@lru_cache(maxsize=None)
def pattern_by_name(name: str) -> ForbiddenPattern:
    builders = _registry_builders()
    if name not in builders:
        raise UnknownPatternError(
            f"unknown pattern {name!r}; known: {', '.join(PATTERN_NAMES)}"
        )
    return ForbiddenPattern.from_graph(builders[name](), name=name)


def parse_pattern(spec: str) -> ForbiddenPattern:
    """Pattern from a registry name, or from a graph6 string otherwise."""
    builders = _registry_builders()
    if spec in builders:
        return pattern_by_name(spec)
    try:
        g = graphs.from_graph6(spec)
    except graphs.Graph6Error as exc:
        raise UnknownPatternError(
            f"{spec!r} is neither a registry name nor valid graph6: {exc}"
        ) from None
    return ForbiddenPattern.from_graph(g)
