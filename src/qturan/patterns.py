"""Forbidden-subgraph machinery: containment, F-freeness, chromatic number.

Containment is plain subgraph containment (not induced): F fits in a host
iff some injection of V(F) sends every edge of F to a host edge.  Patterns
are tiny, so one backtracker over bitmask rows answers every embedding
question.  It follows a plan per anchor vertex p of F, one anchor per
orbit of Aut(F) (``graphs.orbit``): p first, then its neighbours, then
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
    """One embedding plan ``(k, back, rise)`` per anchor vertex p of F.

    F is labelled once by ``graphs._canonical``, and each orbit of Aut(F)
    on its canonical rows gives one anchor, its lowest vertex: p is an
    anchor unless {p}, twin-normalised, lies in the ``graphs.orbit`` of an
    earlier anchor.  That is exact: if an automorphism s maps p to p', an
    embedding phi with p' on a host vertex gives the embedding phi o s
    with p on it, and phi(N_F(p')) = (phi o s)(N_F(p)).  The order puts p
    in slot 0, p's k neighbours in slots 1..k and the rest after them;
    within each part it takes the vertex with the most edges to those
    already placed, ties broken by degree.  ``back[d]`` lists the earlier
    slots adjacent to slot d.

    ``rise`` is k when every permutation of N_F(p) extends to an
    automorphism of F that fixes p, else 0; ``_fills`` then demands
    increasing host vertices in slots 1..rise.  That is exact for every
    search the plan serves: composing an embedding phi with such an
    automorphism s gives phi o s, with the same image and the images of
    N_F(p) in any order, so some embedding with a given image has them in
    increasing order.  The induced permutations form a group, so it is
    the whole symmetric group iff it holds each swap of neighbouring
    slots; a swap extends iff the plan, started from slots 0..k so
    filled, embeds F in itself, which is an automorphism.
    """
    adj, _, autos = graphs._canonical(pg.n, pg.adj)
    twins = graphs.twin_prefixes(adj)
    # the twin-normal one-vertex masks in the orbits of the anchors so far
    covered = set()
    plans = []
    for p in range(pg.n):
        if graphs.twin_normal(1 << p, twins) in covered:
            continue
        covered |= graphs.orbit(1 << p, autos, twins)
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
        k = adj[p].bit_count()
        placed = sum(1 << u for u in order[: k + 1])
        swaps = []
        for d in range(2, k + 1):
            img = order.copy()
            img[d - 1], img[d] = img[d], img[d - 1]
            swaps.append(
                all(adj[img[e]] >> img[j] & 1 for e in range(k + 1) for j in back[e])
                and _completes(adj, back, 0, img, k + 1, placed)
            )
        plans.append((k, back, k if all(swaps) else 0))
    return tuple(plans)


def _fills(adj, back, rise, img, d, stop, used):
    """Yield the used-vertex mask once per way to fill slots d..stop-1.

    Slots below d already hold their host vertices in ``img`` and their
    bits in ``used``; slot d may take any unused host vertex adjacent to
    the images of the slots in ``back[d]``, and above the image of slot
    d - 1 if 1 < d <= ``rise`` (see ``_plans``).
    """
    if d == stop:
        yield used
        return
    cand = ((1 << len(adj)) - 1) & ~used
    for j in back[d]:
        cand &= adj[img[j]]
    if 1 < d <= rise:
        cand &= -2 << img[d - 1]
    while cand:
        low = cand & -cand
        cand ^= low
        img[d] = low.bit_length() - 1
        yield from _fills(adj, back, rise, img, d + 1, stop, used | low)


def _completes(adj, back, rise, img, d, used) -> bool:
    return any(True for _ in _fills(adj, back, rise, img, d, len(back), used))


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
        _, back, rise = max(_plans(pg), key=lambda plan: plan[0])
        return _completes(host.adj, back, rise, img, 0, 0)
    img[0] = anchor
    return any(
        _completes(host.adj, back, rise, img, 1, 1 << anchor)
        for _, back, rise in _plans(pg)
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
    for k, back, rise in _plans(pg):
        for used in _fills(adj, back, rise, img, 1, k + 1, new):
            s = used ^ new
            if s not in found and _completes(adj, back, rise, img, k + 1, used):
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
