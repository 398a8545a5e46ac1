"""Forbidden-subgraph machinery: containment, F-freeness, chromatic number.

Containment is plain subgraph containment (not induced): F fits in a host
iff some injection of V(F) sends every edge of F to a host edge.  Patterns
are tiny, so one backtracker over bitmask rows answers every embedding
question.  It follows a plan per anchor vertex p of F, one anchor per
orbit of Aut(F) (``graphs.orbits``): p first, then its neighbours, then
the rest, each part ordered by edges to the vertices already placed.
The same plans decide containment, anchored containment and the
forbidden neighbourhoods of canonical augmentation; the naive matcher in
``tests/conftest.py`` is the test oracle for all of them, and the
twin-anchor plans kept there are the oracle for the forbidden sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import graphs
from .graphs import Graph


@dataclass(frozen=True)
class ForbiddenPattern:
    graph: Graph
    chi: int
    canonical_g6: str
    name: Optional[str] = None

    @classmethod
    def from_graph(cls, g: Graph, name: Optional[str] = None) -> "ForbiddenPattern":
        return cls(
            graph=g,
            chi=chromatic_number(g),
            canonical_g6=graphs.canonical_form(g),
            name=name,
        )

    def canonical(self) -> str:
        return self.canonical_g6

    def label(self) -> str:
        return self.name if self.name is not None else self.canonical()


def _pattern_graph(f) -> Graph:
    return f.graph if isinstance(f, ForbiddenPattern) else f


@lru_cache(maxsize=4096)
def _plans(pg: Graph) -> tuple:
    """One embedding plan ``(k, back)`` per anchor vertex p of F.

    F is labelled once by ``graphs._canonical``, and each orbit of Aut(F)
    on its canonical rows (``graphs.orbits``) gives one anchor, its lowest
    vertex.  That is exact: if an automorphism s maps p to p', an
    embedding phi with p' on a host vertex gives the embedding phi o s
    with p on it, and phi(N_F(p')) = (phi o s)(N_F(p)).  The order puts p
    in slot 0, p's k neighbours in slots 1..k and the rest after them;
    within each part it takes the vertex with the most edges to those
    already placed, ties broken by degree.  ``back[d]`` lists the earlier
    slots adjacent to slot d.
    """
    adj, _, autos = graphs._canonical(pg.n, pg.adj)
    plans = []
    for p, orbit in enumerate(graphs.orbits(adj, autos)):
        if orbit & -orbit != 1 << p:
            continue
        nbrs = [u for u in range(pg.n) if (adj[p] >> u) & 1]
        others = [u for u in range(pg.n) if u != p and not (adj[p] >> u) & 1]
        order = [p]
        for group in (nbrs, others):
            while group:
                placed = sum(1 << u for u in order)
                u = max(
                    group,
                    key=lambda u: ((adj[u] & placed).bit_count(), adj[u].bit_count()),
                )
                group.remove(u)
                order.append(u)
        back = tuple(
            tuple(j for j in range(d) if (adj[order[j]] >> u) & 1)
            for d, u in enumerate(order)
        )
        plans.append((adj[p].bit_count(), back))
    return tuple(plans)


def _fills(adj, back, img, d, stop, used):
    """Yield the used-vertex mask once per way to fill slots d..stop-1.

    Slots below d already hold their host vertices in ``img`` and their
    bits in ``used``; slot d may take any unused host vertex adjacent to
    the images of the slots in ``back[d]``.
    """
    if d == stop:
        yield used
        return
    cand = ((1 << len(adj)) - 1) & ~used
    for j in back[d]:
        cand &= adj[img[j]]
    while cand:
        low = cand & -cand
        cand ^= low
        img[d] = low.bit_length() - 1
        yield from _fills(adj, back, img, d + 1, stop, used | low)


def _completes(adj, back, img, d, used) -> bool:
    return any(True for _ in _fills(adj, back, img, d, len(back), used))


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
    img = [0] * pg.n
    if anchor is None:
        # a maximum-degree anchor first: its slot constrains the most others
        back = max(_plans(pg), key=lambda plan: plan[0])[1]
        return _completes(host.adj, back, img, 0, 0)
    img[0] = anchor
    return any(
        _completes(host.adj, back, img, 1, 1 << anchor) for _, back in _plans(pg)
    )


def forbidden_sets(parent: Graph, pg: Graph) -> tuple:
    """Inclusion-minimal masks S such that the child of ``parent`` with
    neighbourhood mask M contains F iff some S satisfies ``S & ~M == 0``.

    Each S is phi(N_F(p)) for an anchor vertex p of F and an embedding phi
    of F - p into ``parent``.  The equivalence holds only because
    ``parent`` is F-free, so every copy of F in a child uses the new vertex.
    The search runs on ``parent`` plus a vertex n adjacent to all, with
    slot 0 fixed on n: each fill of slots 1..k is a candidate S, kept when
    the rest of the plan completes.
    """
    n = parent.n
    if pg.n > n + 1:
        return ()
    new = 1 << n
    adj = parent.adj + (new - 1,)
    img = [n] * pg.n
    found = set()
    for k, back in _plans(pg):
        for used in _fills(adj, back, img, 1, k + 1, new):
            s = used ^ new
            if s not in found and _completes(adj, back, img, k + 1, used):
                found.add(s)
    minimal = []
    for s in sorted(found, key=int.bit_count):
        if all(t & ~s for t in minimal):
            minimal.append(s)
    return tuple(minimal)


def is_free(host: Graph, f) -> bool:
    return not contains_subgraph(host, f)


# -- chromatic number ----------------------------------------------------


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
    """Exact chromatic number: the least k for which DSATUR search succeeds."""
    return next(k for k in range(1, g.n + 1) if _k_colorable(g, k))


# -- named pattern registry ----------------------------------------------


_REGISTRY = {
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

PATTERN_NAMES = tuple(_REGISTRY)


class UnknownPatternError(ValueError):
    pass


@lru_cache(maxsize=None)
def pattern_by_name(name: str) -> ForbiddenPattern:
    if name not in _REGISTRY:
        raise UnknownPatternError(
            f"unknown pattern {name!r}; known: {', '.join(PATTERN_NAMES)}"
        )
    return ForbiddenPattern.from_graph(_REGISTRY[name](), name=name)


def parse_graph(spec: str) -> Graph:
    """Graph from a registry name, or from a graph6 string otherwise."""
    if spec in _REGISTRY:
        return _REGISTRY[spec]()
    try:
        return graphs.from_graph6(spec)
    except graphs.Graph6Error as exc:
        raise UnknownPatternError(
            f"{spec!r} is neither a registry name nor valid graph6: {exc}"
        ) from None


def parse_pattern(spec: str) -> ForbiddenPattern:
    """Pattern from a registry name, or from a graph6 string otherwise."""
    if spec in _REGISTRY:
        return pattern_by_name(spec)
    return ForbiddenPattern.from_graph(parse_graph(spec))
