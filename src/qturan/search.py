"""Isomorph-free exhaustive search for ex(n,F), ex_lambda(n,F), ex_q(n,F).

Generation is by canonical augmentation: representatives on n vertices are
obtained by attaching a new vertex to each (n-1)-vertex representative with
every neighborhood mask, keeping a child iff deleting its deletion vertex
reproduces the parent (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)).  Any isomorphism-invariant choice of deletion
vertex is exact; as in McKay's geng, a cheap invariant decides first.  The
deletion vertex maximises (degree, sum of neighbour degrees), and ties go
to the largest canonical position.  The key is read off the parent's
degrees without building the child: the new vertex of mask M gets
(|M|, |M| + sum of d_P(i) over M), and a parent vertex i of child degree
|M| gets (|M|, sum of d_P(j) over N_P(i) + |N_P(i) & M| + [i in M] |M|).
A mask is dropped before any labelling if some vertex beats the new one:
first, in O(1), on degree alone (with parent maximum degree dmax reached
on the vertex set top, the new vertex has maximum degree iff
|M| >= dmax + [M meets top]), then on the key.

Every filter is invariant under Aut(P), so one mask per orbit of Aut(P)
is labelled.  If the new vertex is the unique maximum, the child is
accepted, since the child minus it is the parent.  On a tie the labelling
names the deletion vertex w, and the child is accepted iff the new vertex
lies in the orbit of w under the child's automorphism group, one
membership test in the orbit of {w} that ``graphs.orbit`` gives.  A class
then has one parent class and one orbit of that parent's masks that
gives it, so it is accepted once.  Both groups come from
``graphs._canonical``, which returns automorphisms that, with the twin
transpositions, generate the group; each class keeps those of its own
labelling beside its level, so a parent brings its own.

Vertices of the parent with equal open neighbourhoods, or equal closed
ones, form disjoint classes that Aut(P) permutes freely, so only masks
that meet each class in that class's lowest vertices are formed
(``graphs.twin_normal``), and ``graphs.orbit``, the one routine that maps
vertex sets through automorphisms, brings each image back to that form.

Classes are keyed on canonical adjacency rows, and each representative is
stored unvalidated on its rows, so a parent is its own canonical labelling
and its stored automorphisms act on its rows.

Children that contain F are rejected by forbidden neighbourhoods (the new
vertex's neighbourhood pruning of McKay's geng): once per parent P,
``patterns.forbidden_sets`` marks the image of N_F(p) under every
embedding of F - p into P, for each anchor vertex p of F, and a mask is
dropped iff it contains one of the inclusion-minimal forbidden sets.  This
is exact only because every parent is F-free, so every copy of F in a
child passes through the new vertex.  This filter runs after the twin
filter and before the degree filter.

Each level is built on one thread, parent by parent, and sorted into
canonical graph6 order by ``graphs.order_key``, so its order does not
depend on the deletion rule.  Level n examines all 2^(n-1) masks of every
class on n - 1 vertices, so its cost is known before it is built: the
budget is checked once per level against that cost, a level it cannot
cover is never started, and the candidates examined never exceed it.
All three measures are edge-monotone, so the edge-maximal mode is exact
for extremal values; ``equivalence_check`` keeps that honest.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, get_type_hints

from . import graphs, spectra
from .graphs import Graph
from .patterns import ForbiddenPattern, contains_subgraph, forbidden_sets

MEASURES = ("edges", "lambda", "q")
ALL_GRAPHS = "all"
MAXIMAL_ONLY = "maximal"

# maximal mode enumerates every class before it filters, so one cap serves both
HARD_CAP = 12

# two values within VALUE_TOL are equal: the witness window of extremal,
# equivalence_check and verify's star check all decide by it
VALUE_TOL = 1e-9

# hashed into every cache key; bump it when a record's format or the
# meaning of one of its fields changes, so older records become misses
CACHE_SCHEMA = 3


@dataclass
class SearchConfig:
    mode: str = ALL_GRAPHS
    cache_dir: Optional[str] = None
    budget: int = 10**8


@dataclass
class ExtremalRecord:
    n: int
    pattern: str
    measure: str
    value: float
    witnesses: list
    graphs_examined: int


_RECORD_TYPES = get_type_hints(ExtremalRecord)


class SearchError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """Enumeration budget exhausted: the next level's cost would take the
    candidates examined past the budget, so that level was not started.
    ``progress`` maps each complete level to its class count and
    ``examined`` (never above the budget) counts the candidates examined
    by those levels."""

    def __init__(self, message: str, progress: dict, examined: int):
        super().__init__(message)
        self.progress = progress
        self.examined = examined


# level cache: (pattern_key, n) -> (canonical Graphs, their automorphisms);
# each class keeps what graphs._canonical returned for it, the empty tuple
# when it found none
_LEVELS: dict = {}


def clear_caches():
    _LEVELS.clear()


def _pattern_key(f: Optional[ForbiddenPattern]) -> str:
    return "none" if f is None else f.canonical()


def _extend(parent: Graph, mask: int) -> Graph:
    n = parent.n
    rows = []
    for i in range(n):
        row = parent.adj[i]
        if (mask >> i) & 1:
            row |= 1 << n
        rows.append(row)
    rows.append(mask)
    return graphs._unchecked(n + 1, tuple(rows))


def _twin_masks(n: int, twins) -> list:
    """The masks on n vertices whose intersection with each twin class is
    one of that class's prefixes in ``twins`` (see ``graphs.twin_prefixes``);
    every mask is the image of one of them under an automorphism that
    permutes twins."""
    masks = [0]
    rest = (1 << n) - 1
    for whole, prefixes in twins:
        masks = [m | p for m in masks for p in prefixes]
        rest &= ~whole
    while rest:
        bit = rest & -rest
        rest &= rest - 1
        masks += [m | bit for m in masks]
    return masks


def _children(parent: Graph, f: Optional[ForbiddenPattern], autos) -> tuple:
    """Accepted children, as a dict from canonical rows to the
    automorphisms ``graphs._canonical`` found for them, plus candidates
    examined.

    ``parent`` must be canonically labelled, and ``autos`` are
    automorphisms of its rows.  Those its labelling returned generate
    Aut(P) with the twin transpositions; fewer only split orbits, which
    costs labellings but accepts the same children.  The
    deletion vertex maximises (degree, sum of neighbour degrees), ties
    going to the largest canonical position.  One mask per twin-class
    choice is considered; masks that contain a forbidden set, then masks
    whose new vertex some parent vertex beats on that key, are dropped
    before any child is built.  Of the rest, one mask per orbit of Aut(P)
    is labelled, and its child is kept iff the new vertex lies in the
    orbit of the deletion vertex under the child's automorphisms; both
    orbits come from ``graphs.orbit``.  Every filter is invariant under
    Aut(P), so an orbit passes or fails whole.  ``examined`` still counts
    every mask.
    """
    n = parent.n
    adj = parent.adj
    examined = 1 << n
    twins = graphs.twin_prefixes(adj)
    masks = _twin_masks(n, twins)
    if f is not None:
        forbidden = forbidden_sets(parent, f.graph)
        masks = [m for m in masks if all(s & ~m for s in forbidden)]
    degrees = [row.bit_count() for row in adj]
    dmax = max(degrees)
    # no parent vertex has degree n, so of_degree[-1] is 0
    of_degree = [0] * (n + 1)
    for v, d in enumerate(degrees):
        of_degree[d] |= 1 << v
    # the new vertex has degree |M|; the parent's maximum rises iff M meets top
    top = of_degree[dmax]
    masks = [m for m in masks if m.bit_count() >= dmax + (1 if m & top else 0)]
    nsums = [sum(degrees[j] for j in parent.neighbors(i)) for i in range(n)]
    accepted = {}
    # masks in the orbit of one already labelled
    labelled = set()
    for mask in masks:
        if mask in labelled:
            continue
        k = mask.bit_count()
        # the parent vertices of child degree k: degree k outside M, k - 1 in M
        rivals = (of_degree[k] & ~mask) | (of_degree[k - 1] & mask)
        ties = 0
        if rivals:
            # sums of neighbour degrees in the child, read off the parent
            key = k + sum(d for i, d in enumerate(degrees) if mask >> i & 1)
            sums = {
                i: nsums[i] + (adj[i] & mask).bit_count() + (k if mask >> i & 1 else 0)
                for i in range(n)
                if rivals >> i & 1
            }
            if max(sums.values()) > key:
                continue
            ties = sum(1 << i for i, s in sums.items() if s == key)
        if autos:
            labelled |= graphs.orbit(mask, autos, twins)
        child = _extend(parent, mask)
        rows, perm, child_autos = graphs._canonical(child.n, child.adj)
        if ties:
            ties |= 1 << n
            w = next(v for v in reversed(perm) if ties >> v & 1)
            # child - n is the parent itself, so only w != n needs a test;
            # the orbit is of canonical positions, where child_autos act
            if w != n:
                # the child's twin classes; the parent's twins still serve
                # the masks to come
                ct = graphs.twin_prefixes(rows)
                new_vertex = graphs.twin_normal(1 << perm.index(n), ct)
                if new_vertex not in graphs.orbit(1 << perm.index(w), child_autos, ct):
                    continue
        # stored with the level: a byte per position (n <= HARD_CAP) takes
        # less memory than a tuple of ints
        accepted[rows] = tuple(map(bytes, child_autos))
    return accepted, examined


def _cost(f: Optional[ForbiddenPattern], n: int) -> int:
    """Candidates examined to build level n: one for K1, else every class on
    n - 1 vertices with all 2**(n - 1) masks; level n - 1 must be cached."""
    if n == 1:
        return 1
    return len(_LEVELS[(_pattern_key(f), n - 1)][0]) << (n - 1)


def _level(f: Optional[ForbiddenPattern], n: int) -> tuple:
    """Representatives of F-free classes on n vertices, in canonical graph6
    order and stored on their canonical rows, with their automorphisms
    beside them; level n - 1 must be cached."""
    key = (_pattern_key(f), n)
    hit = _LEVELS.get(key)
    if hit is not None:
        return hit[0]
    if n == 1:
        g = graphs.empty(1)
        reps = () if (f is not None and contains_subgraph(g, f)) else (g,)
        autos = ((),) * len(reps)
    else:
        found = {}
        for parent, parent_autos in zip(*_LEVELS[(key[0], n - 1)]):
            found.update(_children(parent, f, parent_autos)[0])
        # each class has exactly one parent, so sorting makes the order
        # independent of the deletion rule
        reps = tuple(
            sorted((graphs._unchecked(n, r) for r in found), key=graphs.order_key)
        )
        autos = tuple(found[g.adj] for g in reps)
    _LEVELS[key] = (reps, autos)
    return reps


def _check_cap(n: int, budget: int):
    if n < 1:
        raise SearchError(f"n={n} is below 1")
    if n > HARD_CAP:
        raise SearchError(f"n={n} exceeds the cap of {HARD_CAP}")
    if budget < 0:
        raise SearchError(f"budget {budget} is below 0")


def _is_edge_maximal(g: Graph, f: Optional[ForbiddenPattern]) -> bool:
    if f is None:
        return g.edge_count() == g.n * (g.n - 1) // 2
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                # new copies of F must pass through the new edge, so the
                # anchored check at u is exact here
                if not contains_subgraph(g.add_edge(u, v), f, anchor=u):
                    return False
    return True


def enumerate_free(
    n: int,
    f: Optional[ForbiddenPattern] = None,
    config: Optional[SearchConfig] = None,
):
    """One canonical representative per isomorphism class of F-free graphs.

    ``config.mode == "maximal"`` keeps only the edge-maximal (F-saturated)
    classes.  Before level k is built, its cost ``_cost(f, k)`` is added to
    the candidates examined so far; if the sum exceeds ``config.budget``,
    ``BudgetExceededError`` is raised and level k is never started.  The
    same levels complete whether or not they are cached.
    """
    config = config or SearchConfig()
    if config.mode not in (ALL_GRAPHS, MAXIMAL_ONLY):
        raise SearchError(f"unknown mode {config.mode!r}")
    _check_cap(n, config.budget)
    examined = 0
    progress = {}
    for k in range(1, n + 1):
        cost = _cost(f, k)
        if examined + cost > config.budget:
            raise BudgetExceededError(
                f"examined {examined} candidates, level {k} needs {cost} more, "
                f"budget {config.budget}",
                progress,
                examined,
            )
        examined += cost
        reps = _level(f, k)
        progress[k] = len(reps)
    reps = list(reps)
    if config.mode == MAXIMAL_ONLY:
        reps = [g for g in reps if _is_edge_maximal(g, f)]
    return reps


def _config_hash(f, n, measure, config: SearchConfig) -> str:
    payload = json.dumps(
        {
            "pattern": _pattern_key(f),
            "n": n,
            "measure": measure,
            "mode": config.mode,
            "schema": CACHE_SCHEMA,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_path(f, n, measure, config: SearchConfig) -> Path:
    label = f.name if f.name else "g6-" + f.canonical().encode().hex()
    # each mode keeps its own file, so alternating modes never evict each other
    suffix = "" if config.mode == ALL_GRAPHS else f".{config.mode}"
    return Path(config.cache_dir) / label / measure / f"n={n}{suffix}.json"


def _read_cached(path: Path, chash: str) -> Optional[ExtremalRecord]:
    """The record stored at ``path`` for ``chash``; None for a missing,
    stale, unreadable or malformed file, which the caller recomputes."""
    try:
        blob = json.loads(path.read_text())
        if blob["config_hash"] != chash:
            return None
        record = ExtremalRecord(**blob["record"])
    except (OSError, ValueError, LookupError, TypeError):
        return None
    well_typed = all(
        isinstance(getattr(record, name), kind)
        for name, kind in _RECORD_TYPES.items()
    ) and all(isinstance(w, str) for w in record.witnesses)
    return record if well_typed else None


def _write_cached(path: Path, chash: str, record: ExtremalRecord) -> None:
    """Write to a temporary file beside ``path`` and rename it into place,
    so a concurrent reader sees the old record or the new one, never half."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"config_hash": chash, "record": asdict(record)}, indent=1)
    # process and thread id keep concurrent writers off each other's file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def extremal(
    n: int,
    f: ForbiddenPattern,
    measure: str = "q",
    config: Optional[SearchConfig] = None,
) -> ExtremalRecord:
    """Exact maximum of the measure over n-vertex F-free graphs, with
    all witnesses attaining it (within VALUE_TOL) as sorted canonical graph6.

    With ``config.cache_dir`` set, a valid cached record is returned as it
    is, and a computed one is written back; a write that fails with an
    ``OSError`` is dropped, so the disk cache never fails a run."""
    config = config or SearchConfig()
    if measure not in MEASURES:
        raise SearchError(f"unknown measure {measure!r}; known: {MEASURES}")
    # a usage error does not depend on what the cache holds
    _check_cap(n, config.budget)
    chash = _config_hash(f, n, measure, config)
    cache_file = None
    if config.cache_dir:
        cache_file = _cache_path(f, n, measure, config)
        cached = _read_cached(cache_file, chash)
        if cached is not None:
            return cached
    reps = enumerate_free(n, f, config)
    if not reps:
        raise SearchError(f"no {f.label()}-free graphs on {n} vertices")
    if measure == "edges":
        values = [float(g.edge_count()) for g in reps]
    else:
        values = spectra.top_eigenvalues(reps, measure)
    best = max(values)
    witnesses = sorted(
        graphs.to_graph6(g) for g, v in zip(reps, values) if v >= best - VALUE_TOL
    )
    record = ExtremalRecord(
        n=n,
        pattern=f.label(),
        measure=measure,
        value=best,
        witnesses=witnesses,
        graphs_examined=sum(_cost(f, k) for k in range(1, n + 1)),
    )
    if cache_file is not None:
        try:
            _write_cached(cache_file, chash, record)
        except OSError:
            pass  # a cache that cannot be written never fails the run
    return record


def equivalence_check(n: int, f: ForbiddenPattern, measure: str) -> bool:
    """True iff full and edge-maximal enumeration agree on the extremum."""
    full = extremal(n, f, measure, SearchConfig(mode=ALL_GRAPHS))
    maximal = extremal(n, f, measure, SearchConfig(mode=MAXIMAL_ONLY))
    return abs(full.value - maximal.value) <= VALUE_TOL
