import itertools
import os

import numpy as np
import pytest

from qturan import graphs, search, spectra, verify
from qturan.patterns import forbidden_sets


def all_labeled_graphs(n):
    """Every labeled simple graph on n vertices (oracle enumeration)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield graphs.from_edges(
            n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        )


def isomorphic_naive(g, h):
    """Oracle isomorphism test by trying every vertex bijection."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    for perm in itertools.permutations(range(g.n)):
        if g.relabel(perm).adj == h.adj:
            return True
    return False


def classes_naive(graph_iter):
    """Isomorphism classes by pairwise oracle comparison."""
    reps = []
    for g in graph_iter:
        if not any(isomorphic_naive(g, r) for r in reps):
            reps.append(g)
    return reps


def contains_subgraph_naive(host, pattern_graph):
    """Oracle matcher: try every injective vertex map."""
    if pattern_graph.n > host.n:
        return False
    pedges = list(pattern_graph.edges())
    for image in itertools.permutations(range(host.n), pattern_graph.n):
        if all(host.has_edge(image[u], image[v]) for u, v in pedges):
            return True
    return False


def canonical_graph(g):
    """g relabelled into its canonical order."""
    return g.relabel(graphs.canonical_permutation(g))


# -- reference canonical labelling ----------------------------------------
# The labelling as it stood before cells became bitmasks: every round
# recounts every vertex against every cell, and twins are found by pairwise
# comparison.  graphs._canonical must return the same (rows, perm) on every
# input, since search._children picks its deletion vertex from perm.


def reference_refine(n, adj, cells):
    """Equitable refinement of an ordered partition by neighbor counts."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) > 1:
                changed = True
            for sig in sorted(buckets):
                new_cells.append(tuple(buckets[sig]))
        cells = new_cells
        if not changed:
            return tuple(cells)


def _reference_interchangeable(adj, u, v):
    m = ~((1 << u) | (1 << v))
    return (adj[u] & m) == (adj[v] & m)


def _reference_encode(n, adj, perm):
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * n
    for i, v in enumerate(perm):
        m = adj[v]
        row = 0
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            row |= 1 << pos[w]
        rows[i] = row
    return tuple(rows)


def reference_canonical(n, adj):
    """Canonical labeling: (adjacency rows of the relabeled graph, permutation).

    Degree-partition refinement with backtracking over cell individualization
    (McKay-style); branches whose chosen vertex is swappable with an already
    tried one are skipped, which collapses cliques, cocliques and equal parts.
    """
    if n == 1:
        return (0,), (0,)
    by_deg = {}
    for v in range(n):
        by_deg.setdefault(adj[v].bit_count(), []).append(v)
    initial = tuple(tuple(by_deg[d]) for d in sorted(by_deg, reverse=True))

    best = [None, None]

    def rec(cells):
        cells = reference_refine(n, adj, cells)
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            perm = tuple(c[0] for c in cells)
            enc = _reference_encode(n, adj, perm)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = perm
            return
        cell = cells[target]
        reps = []
        for v in cell:
            if any(_reference_interchangeable(adj, v, u) for u in reps):
                continue
            reps.append(v)
            rest = tuple(w for w in cell if w != v)
            rec(cells[:target] + ((v,), rest) + cells[target + 1 :])

    rec(initial)
    return best[0], best[1]


# -- reference graph6 encoder ---------------------------------------------
# graphs.to_graph6 as it stood before it was built from graphs.order_key:
# bit by bit, six at a time.


def reference_to_graph6(g):
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(chr(63 + ((g.n >> s) & 0x3F)) for s in (12, 6, 0))
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    out = [head]
    for k in range(0, len(bits), 6):
        chunk = bits[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


# -- reference augmentation ------------------------------------------------
# search._children as it stood before masks were cut to one per orbit of
# Aut(P): every twin-normal mask that passes the filters is labelled, a
# class already labelled from the same parent is skipped, and on a tie the
# child minus its deletion vertex is compared with the parent, after a
# sorted-degree pre-check.  search._children must accept the same classes.


def _reference_twin_masks(parent):
    masks = [0]
    rest = (1 << parent.n) - 1
    for cls in graphs.twin_classes(parent.adj):
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
            rest &= ~(1 << v)
        masks = [m | p for m in masks for p in prefixes]
    while rest:
        bit = rest & -rest
        rest &= rest - 1
        masks += [m | bit for m in masks]
    return masks


def reference_children(parent, f):
    """(set of the accepted children's canonical rows, masks examined)."""
    n = parent.n
    adj = parent.adj
    examined = 1 << n
    masks = _reference_twin_masks(parent)
    if f is not None:
        forbidden = forbidden_sets(parent, f.graph)
        masks = [m for m in masks if all(s & ~m for s in forbidden)]
    degrees = [row.bit_count() for row in adj]
    dmax = max(degrees)
    of_degree = [0] * (n + 1)
    for v, d in enumerate(degrees):
        of_degree[d] |= 1 << v
    top = of_degree[dmax]
    masks = [m for m in masks if m.bit_count() >= dmax + (1 if m & top else 0)]
    nsums = [sum(degrees[j] for j in parent.neighbors(i)) for i in range(n)]
    parent_degrees = sorted(degrees)
    accepted = set()
    seen = set()
    for mask in masks:
        k = mask.bit_count()
        rivals = (of_degree[k] & ~mask) | (of_degree[k - 1] & mask)
        ties = 0
        if rivals:
            key = k + sum(d for i, d in enumerate(degrees) if mask >> i & 1)
            sums = {
                i: nsums[i] + (adj[i] & mask).bit_count() + (k if mask >> i & 1 else 0)
                for i in range(n)
                if rivals >> i & 1
            }
            if max(sums.values()) > key:
                continue
            ties = sum(1 << i for i, s in sums.items() if s == key)
        child = search._extend(parent, mask)
        rows, perm = graphs._canonical(child.n, child.adj)[:2]
        if rows in seen:
            continue
        seen.add(rows)
        if ties:
            ties |= 1 << n
            w = next(v for v in reversed(perm) if ties >> v & 1)
            if w != n:
                rest = child.delete_vertex(w)
                if sorted(row.bit_count() for row in rest.adj) != parent_degrees:
                    continue
                if graphs._canonical(n, rest.adj)[0] != adj:
                    continue
        accepted.add(rows)
    return accepted, examined


# -- reference embedding plans ----------------------------------------------
# patterns._plans as it stood before it took one anchor per orbit of Aut(F)
# and one ordering of N_F(p): one anchor per twin class, on F's own labels,
# and no slot ordered (rise 0).  forbidden_sets must give the same sets
# under both.


def reference_plans(pg):
    twins = {v for cls in graphs.twin_classes(pg.adj) for v in cls[1:]}
    plans = []
    for p in range(pg.n):
        if p in twins:
            continue
        nbrs = [u for u in range(pg.n) if (pg.adj[p] >> u) & 1]
        others = [u for u in range(pg.n) if u != p and not (pg.adj[p] >> u) & 1]
        order = [p]
        for group in (nbrs, others):
            while group:
                placed = sum(1 << u for u in order)
                u = max(
                    group,
                    key=lambda u: ((pg.adj[u] & placed).bit_count(), pg.degree(u)),
                )
                group.remove(u)
                order.append(u)
        back = tuple(
            tuple(j for j in range(d) if pg.has_edge(order[j], u))
            for d, u in enumerate(order)
        )
        plans.append((pg.degree(p), back, 0))
    return tuple(plans)


# -- automorphism groups ----------------------------------------------------


def group_order(n, gens):
    """Order of the permutation group on range(n) generated by ``gens``,
    closed by breadth-first search from the identity."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def automorphism_order_naive(g):
    """|Aut(g)| by trying every vertex permutation."""
    return sum(
        1 for p in itertools.permutations(range(g.n)) if g.relabel(p).adj == g.adj
    )


def orbits_naive(n, adj):
    """Each vertex's orbit, as a vertex mask, under Aut of the graph on
    ``adj``, found by trying every vertex map that keeps adjacency and
    non-adjacency.  Vertices are mapped in breadth-first order, so each
    vertex after the first of its component has a mapped neighbour."""
    order = []
    for s in range(n):
        if s in order:
            continue
        queue = [s]
        order.append(s)
        for v in queue:
            for u in range(n):
                if adj[v] >> u & 1 and u not in order:
                    order.append(u)
                    queue.append(u)
    full = (1 << n) - 1
    orbit = [0] * n
    image = [0] * n

    def rec(d, used):
        if d == n:
            for v in range(n):
                orbit[v] |= 1 << image[v]
            return
        v = order[d]
        cand = full & ~used
        for u in order[:d]:
            cand &= adj[image[u]] if adj[v] >> u & 1 else ~adj[image[u]]
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            rec(d + 1, used | low)

    rec(0, 0)
    return orbit


# -- reference checkers -----------------------------------------------------
# bound_chain and vertex_deletion as they stood when every spectral value they
# read came from power iteration (spectra.spectral_radius).  They now read
# values from LAPACK, so they must agree with these on every status and to
# within rounding on every number.


def reference_check_vertex_deletion(h):
    subject = graphs.to_graph6(h)
    if h.n < 2 or not h.is_connected():
        return verify._not_applicable("vertex_deletion", subject)
    res = spectra.spectral_radius(h, "q")
    mu2 = float(res.vector.min()) ** 2
    u = int(np.argmin(res.vector))
    bound = res.value * (1 - 2 * mu2) / (1 - mu2) - (1 - h.n * mu2) / (1 - mu2)
    lhs = spectra.spectral_radius(h.delete_vertex(u), "q").value
    return verify._report("vertex_deletion", subject, lhs, bound, lhs - bound)


def reference_check_bound_chain(g):
    subject = graphs.to_graph6(g)
    if g.n < 2:
        return verify._not_applicable("bound_chain", subject)
    e = g.edge_count()
    lam = spectra.spectral_radius(g, "adjacency").value
    q = spectra.spectral_radius(g, "q").value
    feng_yu = 2 * e / (g.n - 1) + g.n - 2
    degs = [g.degree(v) for v in range(g.n)]
    edge_deg = max((degs[u] + degs[v] for u, v in g.edges()), default=0)
    upper = min(feng_yu, edge_deg)
    links = [
        (2 * lam, 4 * e / g.n),
        (q, 2 * lam),
        (upper, q),
    ]
    upper_v, lower_v = min(links, key=lambda ab: ab[0] - ab[1])
    return verify._report("bound_chain", subject, lower_v, upper_v, upper_v - lower_v)


def subgraph_naive(g, verts):
    """The graph with old vertex ``verts[i]`` at position i, the edges
    between the vertices of ``verts`` kept and every other edge dropped
    (oracle for relabel, induced_subgraph and delete_vertex)."""
    pos = {v: i for i, v in enumerate(verts)}
    kept = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return graphs.from_edges(len(verts), kept)


def reference_adjacency_matrix(g):
    """The adjacency matrix built edge by edge, as before it was unpacked
    from the bit rows."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def min_perron_entry(result):
    return float(result.vector.min())


def eigen_equation_residual(g, result, u):
    """|(q - d(u)) x_u - sum_{j ~ u} x_j| for the reported eigenpair."""
    x = result.vector
    s = sum(x[j] for j in g.neighbors(u))
    return abs((result.value - g.degree(u)) * x[u] - s)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not
    reaped: search._deal must reap every worker it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test ({pid or 'still running'})")


@pytest.fixture(scope="session")
def four_vertex_classes():
    return classes_naive(all_labeled_graphs(4))


# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance_report():
    """Record a per-criterion verdict line, then assert it."""

    def record(num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_RESULTS.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
