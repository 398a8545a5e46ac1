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
(``graphs.twin_normal``); ``graphs.orbit``, the one routine that maps
vertex sets through automorphisms, keeps that form with those of
``graphs._canonical``, which keep each twin class in order.

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
filter and the size floor below, once per orbit of Aut(P), and before the
key filter.

Each level is built parent by parent and sorted into canonical graph6
order by ``graphs.order_key``, so its order does not depend on the
deletion rule.  ``_grow`` builds every level extended from a stored one,
stored or top: it deals the parents by index mod W, as geng's res/mod
splits a run, over W - 1 children made with ``os.fork`` and the calling
process (``_deal``), and puts what they send back in parent order, so no
level, order or automorphism depends on W.  W is one per
``PARALLEL_COST`` candidates, at most one per CPU the process may use
(``_workers``).  Level n examines all 2^(n-1) masks of every class on
n - 1 vertices, so its cost, ``_cost``, is known before it is built: the
budget is checked once per level against that cost, a level it cannot
cover is never started, and the candidates examined never exceed it.
All three measures are edge-monotone, so the edge-maximal mode is exact
for extremal values; ``equivalence_check`` keeps that honest.

``_children`` is the one acceptance step of every level: ``_masks``
applies the filters above and keeps one mask per orbit with its tie set.
A child whose new vertex is the unique maximum of the key is accepted on
the key alone and left unlabelled, on its parent's rows plus the new
vertex, as McKay's geng emits it; only ties are labelled.  A child is a
tuple of rows (``_extend``) until it is kept as a ``Graph``: in a stored
level (``_level``, so ``enumerate_free``), whose children ``_grow``
labels, or in the top level (``_classes``).  An extremal request stores
only the levels that serve as parents: its top level, the largest n with
a record to compute and no stored level, is ``_children`` over level
n - 1 and is not stored.  Each measure is evaluated once over the top
level, and the children within VALUE_TOL + 1e-9 of its maximum are
labelled and evaluated again on their canonical rows, since the last
bits of ``eigvalsh`` depend on the vertex order; the record is the one
the stored level gives.  ``extremal_records`` walks a range of n and reads
every measure from one pass over each level, so a range builds each
level once, where ascending ``extremal`` calls build each one twice:
unstored as a top level, then stored as a parent.

The top level is bounded by an incumbent, the Turán graph T_r(n) with
r = min(chi(F) - 1, n): it is r-colourable, so F-free, and no extremal
value lies below its value.  Each measure has an upper bound in n and the
edge count m alone (``_EDGE_BOUNDS``): m itself, Stanley's
lambda <= (sqrt(1 + 8m) - 1)/2 and Feng and Yu's q <= 2m/(n - 1) + n - 2.
``_least_edges`` turns each into one integer, the fewest edges with
which that measure can reach T's value less
VALUE_TOL + 2e-9, a margin 1e-9 wider than ``_best``'s window that
absorbs the last bits in which T's rows and canonical rows differ.  A
parent whose children cannot have that many edges, even with the new
vertex joined to all of it, is skipped before its forbidden sets are
built.  ``_masks`` drops the masks too small to reach it first, in the
one size floor max(dmax, least - e(P)) that it shares with the degree
filter.  A dropped child lies strictly below the window, so the records
do not change; the budget and ``graphs_examined`` still count every mask.
The top level keeps the children that reach the smallest of the
requested measures' thresholds, and each measure, at the top level and at
every stored level of a range, is evaluated only on the classes that
reach its own.  With chi(F) <= 2 there is no incumbent and nothing is
dropped.  ``equivalence_check`` reads the whole top level: in maximal
mode the incumbent is reached only through an edge-maximal supergraph of
T, so the bound relies on the edge-monotonicity that check tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, get_type_hints

from . import graphs, spectra
from .graphs import Graph
from .patterns import ForbiddenPattern, contains_subgraph, forbidden_sets
from .spectra import VALUE_TOL

MEASURES = ("edges", "lambda", "q")
ALL_GRAPHS = "all"
MAXIMAL_ONLY = "maximal"

# maximal mode enumerates every class before it filters, so one cap serves both
HARD_CAP = 12

# upper bounds on each measure of a graph with n >= 2 vertices and m edges:
# m itself, Stanley's for lambda (Linear Algebra Appl. 87 (1987)) and Feng
# and Yu's for q (Publ. Inst. Math. 85 (2009))
_EDGE_BOUNDS = {
    "edges": lambda n, m: m,
    "lambda": lambda n, m: (math.sqrt(1 + 8 * m) - 1) / 2,
    "q": lambda n, m: 2 * m / (n - 1) + n - 2,
}

# candidates per process below which a level is not dealt out: a fork, its
# pipe and its reaping cost 2.2 to 2.5 ms on a two-core host, against 5 to
# 7 us per candidate at n = 7, so a share of PARALLEL_COST candidates (20 to
# 30 ms) repays the extra process about ninefold (see _workers)
PARALLEL_COST = 4096

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


def _extend(parent: Graph, mask: int) -> tuple:
    """``parent``'s rows plus a new vertex n joined to ``mask``."""
    n = parent.n
    rows = []
    for i in range(n):
        row = parent.adj[i]
        if (mask >> i) & 1:
            row |= 1 << n
        rows.append(row)
    rows.append(mask)
    return tuple(rows)


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


def _masks(parent: Graph, f: Optional[ForbiddenPattern], autos, least: int) -> list:
    """The mask stage of ``_children``: (mask, ties) for one mask per orbit
    of Aut(P) among those that pass every filter, where ties is the set of
    parent vertices whose deletion key equals the new vertex's, 0 when the
    new vertex is the unique maximum.

    ``parent`` must be canonically labelled, and ``autos`` are
    automorphisms of its rows.  Those its labelling returned generate
    Aut(P) with the twin transpositions; fewer only split orbits, which
    keeps more masks but accepts the same children.  The deletion vertex
    maximises (degree, sum of neighbour degrees), ties going to the
    largest canonical position.  One mask per twin-class choice is
    considered, and one size floor drops first the masks whose new vertex
    is not of maximum degree or whose child has fewer than ``least`` edges
    (see ``_least_edges``).  Then, one mask per orbit, masks that contain a
    forbidden set, and masks whose new vertex some parent vertex beats on
    that key, are dropped before any child is built.  Every filter is
    invariant under Aut(P), so an orbit passes or fails whole, and the
    orbit of each mask kept, from ``graphs.orbit``, is skipped after it.
    """
    n = parent.n
    adj = parent.adj
    twins = graphs.twin_prefixes(adj)
    degrees = [row.bit_count() for row in adj]
    dmax = max(degrees)
    # no parent vertex has degree n, so of_degree[-1] is 0
    of_degree = [0] * (n + 1)
    for v, d in enumerate(degrees):
        of_degree[d] |= 1 << v
    # |M| must reach the child's maximum degree, dmax + [M meets degree dmax],
    # and least - e(P); a floor above dmax covers that rise
    floor = max(dmax, least - sum(degrees) // 2)
    rise = of_degree[dmax] if floor == dmax else 0
    masks = _twin_masks(n, twins)
    masks = [m for m in masks if m.bit_count() >= floor + (1 if m & rise else 0)]
    forbidden = () if f is None else forbidden_sets(parent, f.graph)
    nsums = [sum(degrees[j] for j in parent.neighbors(i)) for i in range(n)]
    # masks in the orbit of one already kept
    labelled = set()
    kept = []
    for mask in masks:
        if mask in labelled:
            continue
        if forbidden and not all(s & ~mask for s in forbidden):
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
        kept.append((mask, ties))
    return kept


def _children(
    parent: Graph, f: Optional[ForbiddenPattern], autos, least: int = 0
) -> list:
    """The accepted children of ``parent`` with at least ``least`` edges as
    (rows, automorphisms); ``_cost`` counts the candidates.  A child whose
    new vertex is the unique maximum of the key (``ties`` 0 in ``_masks``)
    is the parent plus that vertex, so it is accepted unlabelled, on the
    rows ``_extend`` gives, with automorphisms None.  On a tie the
    labelling names the deletion vertex w, and the child is accepted iff
    the new vertex lies in the orbit of w under its automorphisms, and
    comes on its canonical rows with them."""
    n = parent.n
    children = []
    for mask, ties in _masks(parent, f, autos, least):
        rows = _extend(parent, mask)
        if not ties:
            children.append((rows, None))
            continue
        rows, perm, child_autos = graphs._canonical(n + 1, rows)
        ties |= 1 << n
        w = next(v for v in reversed(perm) if ties >> v & 1)
        # child - n is the parent itself, so only w != n needs a test;
        # the orbit is of canonical positions, where child_autos act
        if w != n:
            ct = graphs.twin_prefixes(rows)
            new_vertex = graphs.twin_normal(1 << perm.index(n), ct)
            if new_vertex not in graphs.orbit(1 << perm.index(w), child_autos, ct):
                continue
        children.append((rows, child_autos))
    return children


def _cost(f: Optional[ForbiddenPattern], n: int) -> int:
    """Candidates examined to build level n: one for K1, else every class on
    n - 1 vertices with all 2**(n - 1) masks; level n - 1 must be cached."""
    if n == 1:
        return 1
    return len(_LEVELS[(_pattern_key(f), n - 1)][0]) << (n - 1)


def _workers(candidates: int) -> int:
    """The processes that build a level of ``candidates`` candidates: one
    per ``PARALLEL_COST`` candidates, at most one per CPU this process may
    use and at least one; one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, candidates // PARALLEL_COST))


def _serve(fd: int, inherited, work, items):
    """The body of a forked worker: close the ``inherited`` read ends, send
    ``[work(item) for item in items]``, or the traceback of what it raised,
    as one pickle to the pipe ``fd``, and leave by ``os._exit``, so no
    atexit handler runs and no copy of the parent's buffered output is
    flushed.  Never returns."""
    code = 1
    try:
        for r in inherited:
            os.close(r)
        try:
            payload = (True, [work(item) for item in items])
        except BaseException:
            payload = (False, traceback.format_exc())
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _deal(work, items: list, workers: int) -> list:
    """``[work(item) for item in items]``, with item i dealt to worker
    i mod ``workers``, as geng's res/mod splits a run.  Worker 0 is this
    process; the others are children made with ``os.fork`` that each send
    their share back through a pipe (``_serve``).  The results come back in
    item order, so they do not depend on ``workers``.  A child's failure is
    raised here, and every child is killed, if it is still running, and
    reaped before this returns or raises: once its share is read it has
    nothing left to do.  Children are forked, not spawned, so they read
    the stored levels in place instead of receiving them pickled; so
    ``work`` must not call numpy, whose BLAS threads exist only in the
    parent, nor take a lock another thread of the parent may hold."""
    pids, pipes = [], []
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(w, pipes, work, items[j::workers])
                pids.append(pid)
            finally:
                os.close(w)
        shares = [[work(item) for item in items[::workers]]]
        for pid, r in zip(pids, pipes):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                ok, share = pickle.loads(data)
            except Exception:
                raise RuntimeError(f"level worker {pid} died without a result") from None
            if not ok:
                raise RuntimeError(f"level worker {pid} failed:\n{share}")
            shares.append(share)
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(items))]


def _grow(f: Optional[ForbiddenPattern], n: int, least: int = 0, label: bool = False):
    """The accepted children of the stored level n - 1 with at least
    ``least`` edges, one list per parent extended, in the stored order: the
    rows ``_children`` gives, or with ``label`` each child's canonical rows
    and then its automorphisms as bytes (n <= HARD_CAP): bytes take less
    memory than tuples of ints, and the flat list less than pairs.  A parent
    whose children cannot reach ``least``, even with the new vertex joined
    to all n - 1 of its vertices, is skipped before its forbidden sets are
    built.  The parents extended are dealt over ``_workers`` processes by
    ``_deal``, so neither the children nor their order depend on the worker
    count."""

    def work(item):
        parent, parent_autos = item
        children = _children(parent, f, parent_autos, least)
        if not label:
            return [rows for rows, _ in children]
        out = []
        for rows, autos in children:
            if autos is None:
                rows, _, autos = graphs._canonical(n, rows)
            out += rows, tuple(map(bytes, autos))
        return out

    items = [
        item
        for item in zip(*_LEVELS[(_pattern_key(f), n - 1)])
        if item[0].edge_count() + n - 1 >= least
    ]
    return _deal(work, items, _workers(len(items) << (n - 1)))


def _level(f: Optional[ForbiddenPattern], n: int) -> tuple:
    """Representatives of F-free classes on n vertices, in canonical graph6
    order and stored on their canonical rows, with their automorphisms
    beside them; ``_grow`` labels the children ``_children`` leaves
    unlabelled, so each class is labelled once.  Level n - 1 must be
    cached."""
    key = (_pattern_key(f), n)
    hit = _LEVELS.get(key)
    if hit is not None:
        return hit[0]
    if n == 1:
        g = graphs.empty(1)
        reps = () if (f is not None and contains_subgraph(g, f)) else (g,)
        autos = ((),) * len(reps)
    else:
        # each parent brings its stored automorphisms, so each class comes
        # once; the dict pairs its rows with its automorphisms for the sort
        flat = itertools.chain.from_iterable(_grow(f, n, label=True))
        found = dict(zip(flat, flat))
        # each class has exactly one parent, so sorting makes the order
        # independent of the deletion rule and of the worker count; the
        # graphs are made after the sort, so they never coexist with its keys
        order = sorted(found, key=lambda r: graphs.order_key(graphs._unchecked(n, r)))
        reps = tuple(graphs._unchecked(n, r) for r in order)
        autos = tuple(found[r] for r in order)
    _LEVELS[key] = (reps, autos)
    return reps


def _classes(f: Optional[ForbiddenPattern], n: int, least: int = 0):
    """One graph per F-free class on n vertices: the stored level if there
    is one, else the top level, ``_grow`` over the stored level n - 1,
    which is not stored and, but for its ties, not labelled.  The top level
    keeps only the classes with at least ``least`` edges."""
    key = (_pattern_key(f), n)
    if n == 1 or key in _LEVELS:
        return _level(f, n)
    return [
        graphs._unchecked(n, rows)
        for children in _grow(f, n, least)
        for rows in children
    ]


def _check_request(n: int, config: SearchConfig):
    if config.mode not in (ALL_GRAPHS, MAXIMAL_ONLY):
        raise SearchError(f"unknown mode {config.mode!r}")
    if n < 1:
        raise SearchError(f"n={n} is below 1")
    if n > HARD_CAP:
        raise SearchError(f"n={n} exceeds the cap of {HARD_CAP}")
    if config.budget < 0:
        raise SearchError(f"budget {config.budget} is below 0")


def _build_below(f: Optional[ForbiddenPattern], n: int, budget: int) -> int:
    """Build levels 1..n-1 and return the candidates examined by levels
    1..n.  Before level k <= n is started, its cost ``_cost(f, k)`` is
    added to the candidates examined so far; if the sum exceeds
    ``budget``, ``BudgetExceededError`` is raised and level k is never
    started.  The same levels complete whether or not they are cached."""
    examined = 0
    progress = {}
    for k in range(1, n + 1):
        cost = _cost(f, k)
        if examined + cost > budget:
            raise BudgetExceededError(
                f"examined {examined} candidates, level {k} needs {cost} more, "
                f"budget {budget}",
                progress,
                examined,
            )
        examined += cost
        if k < n:
            progress[k] = len(_level(f, k))
    return examined


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
    """One canonical representative per isomorphism class of F-free graphs,
    in canonical graph6 order; levels 1..n are built within
    ``config.budget`` by ``_build_below`` and stored.

    ``config.mode == "maximal"`` keeps only the edge-maximal (F-saturated)
    classes.
    """
    config = config or SearchConfig()
    _check_request(n, config)
    _build_below(f, n, config.budget)
    reps = list(_level(f, n))
    if config.mode == MAXIMAL_ONLY:
        reps = [g for g in reps if _is_edge_maximal(g, f)]
    return reps


def _cache_file(f, n, measure, config: SearchConfig) -> tuple:
    """(file under ``config.cache_dir``, hash it must carry) of a record."""
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
    label = f.name if f.name else "g6-" + f.canonical().encode().hex()
    # each mode keeps its own file, so alternating modes never evict each other
    suffix = "" if config.mode == ALL_GRAPHS else f".{config.mode}"
    path = Path(config.cache_dir) / label / measure / f"n={n}{suffix}.json"
    return path, hashlib.sha256(payload.encode()).hexdigest()


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


def _values(gs, measure: str) -> list:
    if measure == "edges":
        return [float(g.edge_count()) for g in gs]
    return spectra.top_eigenvalues(gs, measure)


def _best(gs, least: dict) -> dict:
    """{measure: (value, witnesses)} for each measure of ``least`` over the
    graphs of ``gs``, one graph per class on any rows, with at least
    ``least[measure]`` edges (see ``_least_edges``).  Each measure is
    evaluated once on each of those graphs; those within
    VALUE_TOL + 1e-9 of the largest value are labelled and evaluated again
    on their canonical rows, and the value is the largest of these and the
    witnesses the sorted graph6 of those within VALUE_TOL of it.  The last
    bits of ``eigvalsh`` depend on the vertex order, by far less than 1e-9,
    so the result is the one the canonical representatives give."""
    canonical = {}
    out = {}
    edges = [g.edge_count() for g in gs]
    for measure, m in least.items():
        index = [i for i, e in enumerate(edges) if e >= m]
        values = _values([gs[i] for i in index], measure)
        floor = max(values) - VALUE_TOL - 1e-9
        near = [i for i, v in zip(index, values) if v >= floor]
        for i in near:
            if i not in canonical:
                g = gs[i]
                canonical[i] = graphs._unchecked(g.n, graphs._canonical(g.n, g.adj)[0])
        reps = [canonical[i] for i in near]
        values = _values(reps, measure)
        best = max(values)
        out[measure] = best, sorted(
            graphs.to_graph6(g) for g, v in zip(reps, values) if v >= best - VALUE_TOL
        )
    return out


def _least_edges(f: ForbiddenPattern, n: int, measure: str) -> int:
    """The fewest edges m for which the bound ``_EDGE_BOUNDS[measure](n, m)``
    reaches the incumbent's value less VALUE_TOL + 2e-9.  The incumbent is
    T_r(n) with r = min(chi(F) - 1, n): it is r-colourable, so F-free, and
    no maximum lies below its value.  So a graph with fewer edges lies
    below ``_best``'s window, by 1e-9 more than that window, which absorbs
    the last bits in which T's rows and canonical rows differ, and T_r(n)
    keeps enough edges.  0, pruning nothing, when r < 2 (chi(F) <= 2)."""
    r = min(f.chi - 1, n)
    if r < 2:
        return 0
    t = graphs.turan(r, n)
    floor = _values([t], measure)[0] - VALUE_TOL - 2e-9
    bound = _EDGE_BOUNDS[measure]
    least = t.edge_count()
    return next((m for m in range(least) if bound(n, m) >= floor), least)


def extremal_records(
    f: ForbiddenPattern,
    n_values,
    measures=MEASURES,
    config: Optional[SearchConfig] = None,
):
    """For each n of the ascending ``n_values``, yield a tuple of one
    ``ExtremalRecord`` per measure of ``measures`` (see ``extremal``).

    With ``config.cache_dir`` set, every record is looked up first, so a
    run whose records are all cached builds nothing; a computed record is
    written back, and a write that fails with an ``OSError`` is dropped,
    so the disk cache never fails a run.  The top level, the largest n
    with a record to compute, comes from ``_classes``: unless it is
    stored, it is not stored, only its ties are labelled, and it holds only
    the classes with at least ``_least_edges`` edges, those whose edge
    count lets one of the measures to compute reach the Turán incumbent
    T_min(chi(F)-1, n)(n); with chi(F) <= 2 it holds every class.  The
    levels below are built and stored once, by ``_build_below`` and
    ``_level``, within ``config.budget``; a ``BudgetExceededError`` is
    raised where ``enumerate_free`` raises it, after the records of smaller
    n are yielded.  ``_best`` reads every measure of a level, top or
    stored, from one pass, and evaluates each only on the classes with its
    own ``_least_edges`` edges."""
    config = config or SearchConfig()
    for measure in measures:
        if measure not in MEASURES:
            raise SearchError(f"unknown measure {measure!r}; known: {MEASURES}")
    n_values = list(n_values)
    # a usage error does not depend on what the cache holds
    for n in n_values:
        _check_request(n, config)
    files = {}
    if config.cache_dir:
        files = {
            (n, m): _cache_file(f, n, m, config) for n in n_values for m in measures
        }
    records = {}
    for key, (path, chash) in files.items():
        cached = _read_cached(path, chash)
        if cached is not None:
            records[key] = cached
    top = max(
        (n for n in n_values for m in measures if (n, m) not in records), default=0
    )
    for n in n_values:
        todo = [m for m in measures if (n, m) not in records]
        if todo:
            examined = _build_below(f, n, config.budget)
            least = {m: _least_edges(f, n, m) for m in todo}
            gs = _classes(f, n, min(least.values())) if n == top else _level(f, n)
            if config.mode == MAXIMAL_ONLY:
                gs = [g for g in gs if _is_edge_maximal(g, f)]
            if not gs:
                raise SearchError(f"no {f.label()}-free graphs on {n} vertices")
            for measure, (value, witnesses) in _best(gs, least).items():
                record = ExtremalRecord(
                    n=n,
                    pattern=f.label(),
                    measure=measure,
                    value=value,
                    witnesses=witnesses,
                    graphs_examined=examined,
                )
                records[n, measure] = record
                if files:
                    try:
                        _write_cached(*files[n, measure], record)
                    except OSError:
                        pass  # a cache that cannot be written never fails the run
        yield tuple(records[n, m] for m in measures)


def extremal(
    n: int,
    f: ForbiddenPattern,
    measure: str = "q",
    config: Optional[SearchConfig] = None,
) -> ExtremalRecord:
    """Exact maximum of the measure over n-vertex F-free graphs, with
    all witnesses attaining it (within VALUE_TOL) as sorted canonical graph6:
    the one-record case of ``extremal_records``.

    Unless level n is stored, it is the top level, ``_children`` over
    level n - 1: it is not stored, and only its ties and its children
    within VALUE_TOL + 1e-9 of the maximum are labelled.  For chi(F) >= 3
    it skips the children with too few edges to reach the value of the
    incumbent T_min(chi(F)-1, n)(n) less VALUE_TOL + 2e-9 by the measure's
    bound in the edge count (the count itself, Stanley's for lambda,
    Feng and Yu's for q), so they are never built.  A later call for
    n + 1 must then build level n again, labelled and stored, as the
    parents of level n + 1, so ascending values of n belong in one
    ``extremal_records`` call, which builds each level once.  With
    ``config.cache_dir`` set, a valid cached record is returned as it is,
    and a computed one is written back; a write that fails with an
    ``OSError`` is dropped, so the disk cache never fails a run."""
    (record,) = next(extremal_records(f, (n,), (measure,), config))
    return record


def equivalence_check(n: int, f: ForbiddenPattern, measure: str) -> bool:
    """True iff full and edge-maximal enumeration agree on the extremum,
    read as ``extremal`` reads it in each mode off one list of level n.
    That list is the whole level, never bounded by the Turán incumbent as
    ``extremal``'s top level is: the bound is exact in maximal mode only
    because the measures are edge-monotone, which this check tests."""
    if measure not in MEASURES:
        raise SearchError(f"unknown measure {measure!r}; known: {MEASURES}")
    _check_request(n, SearchConfig())
    _build_below(f, n, SearchConfig().budget)
    gs = _classes(f, n)
    if not gs:
        raise SearchError(f"no {f.label()}-free graphs on {n} vertices")
    maximal = [g for g in gs if _is_edge_maximal(g, f)]
    full, edge_maximal = (_best(g, {measure: 0})[measure][0] for g in (gs, maximal))
    return abs(full - edge_maximal) <= VALUE_TOL
