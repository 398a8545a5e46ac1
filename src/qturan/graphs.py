"""Immutable bitmask graphs, named families, graph6 codec, canonical forms.

A graph on n <= MAX_VERTICES vertices is stored as a tuple of n adjacency
bitmasks (Python ints, so of any width), so degree/neighborhood queries are
single popcounts and intersections.
All operations are pure: mutation returns a fresh Graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the largest n the graph6 codec writes: the four-byte header is "~" and
# three 6-bit characters, the first of which must not be "~" (that would
# open the 8-byte form), so n <= 62 * 2**12 + 2**12 - 1
MAX_VERTICES = 258047


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class Graph6Error(GraphError):
    """Malformed graph6 string; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; ``adj[i]`` has bit j set iff {i, j} is an edge."""

    n: int
    adj: tuple

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"row {i} has bits beyond vertex {self.n - 1}")
            if (row >> i) & 1:
                raise GraphError(f"loop at vertex {i}")
        for i, row in enumerate(self.adj):
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if not (self.adj[j] >> i) & 1:
                    raise GraphError(f"asymmetric adjacency between {i} and {j}")

    # -- queries ---------------------------------------------------------

    def degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range")
        return self.adj[u].bit_count()

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        return max(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range")
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range")
        return bool((self.adj[u] >> v) & 1)

    def edges(self):
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                yield (u, u + 1 + v)

    def degree_sequence(self) -> tuple:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def neighbors(self, u: int):
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range")
        m = self.adj[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            yield v

    # -- mutation by copy ------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        # has_edge rejects a vertex out of range, and Graph a loop
        if self.has_edge(u, v):
            raise GraphError(f"edge {{{u},{v}}} already present")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def delete_vertex(self, u: int) -> "Graph":
        if self.n < 2:
            raise GraphError("cannot delete the last vertex")
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range")
        return self.induced_subgraph(((1 << self.n) - 1) ^ (1 << u))

    def relabel(self, perm) -> "Graph":
        """Return the graph with old vertex ``perm[i]`` at new position i."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        return Graph(self.n, _encode(self.n, self.adj, perm))

    # -- structure -------------------------------------------------------

    def components(self):
        """Vertex bitmasks of connected components, ascending by lowest vertex."""
        seen = 0
        comps = []
        for s in range(self.n):
            if (seen >> s) & 1:
                continue
            comp = 1 << s
            frontier = self.adj[s] & ~comp
            while frontier:
                comp |= frontier
                nxt = 0
                m = frontier
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def induced_subgraph(self, mask: int) -> "Graph":
        """The subgraph on the vertices of ``mask``, in ascending order."""
        if not 0 < mask < 1 << self.n:
            raise GraphError(f"mask {mask:#x} empty or beyond vertex {self.n - 1}")
        verts = [v for v in range(self.n) if (mask >> v) & 1]
        return _unchecked(len(verts), _encode(self.n, self.adj, verts))

    def adjacency_matrix(self) -> np.ndarray:
        return adjacency_matrices([self], self.n)[0]

    def __repr__(self):
        return f"Graph({self.n}, g6={to_graph6(self)!r})"


def adjacency_matrices(gs, n: int) -> np.ndarray:
    """The float64 adjacency matrices of graphs on n vertices, stacked in one
    array, unpacked from their bit rows."""
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in gs for row in g.adj)
    bits = np.frombuffer(raw, np.uint8).reshape(-1, n, width)
    return np.unpackbits(bits, axis=2, count=n, bitorder="little").astype(np.float64)


# -- constructors --------------------------------------------------------


def _unchecked(n: int, rows: tuple) -> Graph:
    """Graph on ``rows`` that are valid by construction, skipping validation."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError("loop in edge list")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(r: int) -> Graph:
    if r < 1:
        raise GraphError("complete graph needs r >= 1")
    return complete_multipartite([1] * r)


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("part sizes must be positive")
    full = (1 << sum(sizes)) - 1
    rows = []
    for s in sizes:
        rows += [full ^ (((1 << s) - 1) << len(rows))] * s
    return Graph(len(rows), tuple(rows))


def complete_bipartite(s: int, t: int) -> Graph:
    return complete_multipartite([s, t])


def turan(r: int, n: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts."""
    if r < 1 or n < r:
        raise GraphError(f"Turan graph needs 1 <= r <= n, got r={r}, n={n}")
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(sizes)


def cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs k >= 3")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    if k < 1:
        raise GraphError("path needs k >= 1")
    return from_edges(k, [(i, i + 1) for i in range(k - 1)])


def star(t: int) -> Graph:
    """K_{1,t}: a center joined to t leaves (t + 1 vertices)."""
    if t < 1:
        raise GraphError("star needs t >= 1")
    return from_edges(t + 1, [(0, i) for i in range(1, t + 1)])


def disjoint_union(graphs) -> Graph:
    graphs = list(graphs)
    if not graphs:
        raise GraphError("union of no graphs")
    n = sum(g.n for g in graphs)
    rows = []
    shift = 0
    for g in graphs:
        rows.extend(row << shift for row in g.adj)
        shift += g.n
    return Graph(n, tuple(rows))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# -- graph6 codec --------------------------------------------------------


# each byte with its bit order reversed
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(bits: int, count: int) -> int:
    """The lowest ``count`` bits of ``bits`` in reverse order: reversing the
    bit order of every byte and then the byte order reverses them all."""
    width = (count + 7) // 8
    flipped = bits.to_bytes(width, "little").translate(_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * width - count)


def order_key(g: Graph) -> int:
    """The upper-triangle bits in graph6 order, (0,1), (0,2), (1,2), (0,3)
    ..., the first the most significant, as one int.

    Column j's bits land at positions j(j-1)/2 + i, first bit lowest, and
    reversing them puts the first bit on top.  For a fixed n, keys order
    graphs as their graph6 strings do: graph6 is a header followed by these
    bits, padded alike.  ``_from_order_key`` is the inverse.
    """
    bits = 0
    shift = 0
    for j in range(1, g.n):
        bits |= (g.adj[j] & ((1 << j) - 1)) << shift
        shift += j
    return _reverse_bits(bits, shift)


def _from_order_key(n: int, key: int) -> tuple:
    """The rows of the graph on n vertices whose ``order_key`` is ``key``."""
    bits = _reverse_bits(key, n * (n - 1) // 2)
    rows = [0] * n
    for j in range(1, n):
        # column j: the neighbours of j below it
        m = bits & ((1 << j) - 1)
        bits >>= j
        rows[j] = m
        while m:
            low = m & -m
            m ^= low
            rows[low.bit_length() - 1] |= 1 << j
    return tuple(rows)


def to_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(
            chr(63 + ((g.n >> s) & 0x3F)) for s in (12, 6, 0)
        )
    nbits = g.n * (g.n - 1) // 2
    chunks = (nbits + 5) // 6
    body = order_key(g) << (6 * chunks - nbits)
    return head + "".join(
        chr(63 + ((body >> s) & 0x3F)) for s in range(6 * chunks - 6, -1, -6)
    )


def from_graph6(s: str) -> Graph:
    if not s:
        raise Graph6Error("empty string", 0)
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range", off)
    if s[0] == "~":
        if len(s) < 4:
            raise Graph6Error("truncated long-form vertex count", len(s))
        if s[1] == "~":
            raise Graph6Error(
                f"8-byte vertex counts exceed the {MAX_VERTICES}-vertex cap", 1
            )
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
        body_off = 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        body_off = 1
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"body length {len(body)} != expected {need} for n={n}",
            body_off + min(len(body), need),
        )
    pad = 6 * need - nbits
    body_bits = int("".join(f"{ord(ch) - 63:06b}" for ch in body) or "0", 2)
    if body_bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", body_off + need - 1)
    return Graph(n, _from_order_key(n, body_bits >> pad))


# -- canonical form ------------------------------------------------------


def twin_classes(adj) -> tuple:
    """Vertex tuples, in increasing order, of the classes of two or more
    vertices with equal open (``adj[v]``) or equal closed
    (``adj[v] | 1 << v``) neighbourhoods.

    Both kinds share one key space, since an open key never equals a closed
    one (see ``_canonical``).  A vertex lies in at most one class: an open
    twin is not adjacent to its twin and a closed twin is, so a vertex with
    both kinds of twin would make its open twin adjacent to itself.  Any
    permutation inside one class is an automorphism.
    """
    groups = {}
    for v, row in enumerate(adj):
        groups.setdefault(row, []).append(v)
        groups.setdefault(row | 1 << v, []).append(v)
    return tuple(tuple(vs) for vs in groups.values() if len(vs) > 1)


def twin_prefixes(adj) -> list:
    """(vertex mask, masks of its lowest 0, 1, ..., all vertices) for each
    twin class of ``twin_classes(adj)``."""
    out = []
    for cls in twin_classes(adj):
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
        out.append((prefixes[-1], prefixes))
    return out


def twin_normal(mask: int, twins) -> int:
    """The image of ``mask`` under a twin permutation that meets each twin
    class of ``twins`` (see ``twin_prefixes``) in its lowest vertices."""
    for whole, prefixes in twins:
        mask = mask & ~whole | prefixes[(mask & whole).bit_count()]
    return mask


def orbit(mask: int, autos, twins) -> set:
    """The twin-normal masks (``twin_normal``) in the orbit of the vertex
    set ``mask`` under ``autos`` (permutations, a[v] the image of v) and
    the twin transpositions of ``twins``; v's orbit is that of ``1 << v``.

    The twin permutations form a normal subgroup, since automorphisms map
    twin classes onto twin classes, so it suffices to normalise ``mask``
    if ``autos`` keep each twin class in order, as those ``_canonical``
    returns do; with the twin classes of its rows, they give Aut(G).
    """
    mask = twin_normal(mask, twins)
    seen = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for a in autos:
            image = 0
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                image |= 1 << a[low.bit_length() - 1]
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def _refine(adj, cells, splitters):
    """Equitable refinement of an ordered partition of vertex bitmasks.

    The vertices of each cell agree on their neighbour counts in every cell
    of a coarser partition, and ``splitters`` lists, in partition order,
    the parts into which ``cells`` splits that partition's cells, leaving
    out the last part of each.  Rounds are synchronous.  A round splits
    each cell by its vertices' neighbour counts in the splitters and puts
    the parts in its place, in increasing lexicographic order of the
    counts, each part's vertices ascending; the new parts, the last of
    each split left out, are the next round's splitters.  Refinement stops
    when a round splits nothing.

    Counting in every cell, as a full recount does, gives the same parts in
    the same order.  A cell's vertices agree on their counts in each cell
    of the coarser partition, so their counts first differ in a new part,
    and the count in the last part of a split is the count in the old cell
    minus the counts in the other parts.  A queue that splits by one cell
    at a time would order the parts differently and change the canonical
    form.
    """
    while splitters:
        fresh = []
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts = [cell]
            for s in splitters:
                split = []
                if not s & (s - 1):
                    # one vertex: non-neighbours (count 0), then neighbours
                    row = adj[s.bit_length() - 1]
                    for part in parts:
                        low = part & ~row
                        if low and low != part:
                            split += (low, part & row)
                        else:
                            split.append(part)
                    parts = split
                    continue
                for part in parts:
                    if not part & (part - 1):
                        split.append(part)
                        continue
                    by_count = {}
                    m = part
                    while m:
                        bit = m & -m
                        m ^= bit
                        k = (adj[bit.bit_length() - 1] & s).bit_count()
                        by_count[k] = by_count.get(k, 0) | bit
                    split += [by_count[k] for k in sorted(by_count)]
                parts = split
            out += parts
            fresh += parts[:-1]
        cells = out
        splitters = fresh
    return cells


def _encode(n, adj, perm):
    """Rows of the graph with old vertex ``perm[i]`` at position i; the
    vertices ``perm`` leaves out are dropped, so it may list a subset."""
    # the bit of each old vertex's new position
    posbit = [0] * n
    for i, v in enumerate(perm):
        posbit[v] = 1 << i
    rows = []
    for v in perm:
        m = adj[v]
        row = 0
        while m:
            low = m & -m
            m ^= low
            row |= posbit[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def _canonical(n, adj):
    """Canonical labeling: (adjacency rows of the relabeled graph,
    permutation, automorphisms).

    Cells are vertex bitmasks.  The root partition is the degree cells in
    decreasing degree, refined against all of them but the last (the count
    in the last is the degree minus the others).  The first cell of two or
    more vertices is then individualised, one vertex v at a time in
    ascending order: {v} goes just before the rest of the cell, and the
    refinement starts from the single splitter {v}, which splits a cell c
    as (c & ~adj[v], c & adj[v]).  Each leaf lists its vertices in cell
    order, and the leaf whose relabelled rows are least wins, the first
    such on a tie (McKay, Congr. Numer. 30 (1981)).  A vertex whose open
    (``adj[v]``) or closed (``adj[v] | 1 << v``) neighbourhood is a key of
    an earlier vertex of the cell is skipped: the two are twins, swapped by
    an automorphism that fixes every other vertex, so the leaves under it
    give the rows of leaves already seen.  An open key never equals a
    closed one: adj[u] == adj[w] | 1 << w would put w in adj[u], so u in
    adj[w] and in adj[u], a loop.

    The automorphisms are permutations a of the canonical positions, a[i]
    the image of position i, so each maps the returned rows onto
    themselves.  They come from the leaves whose rows equal the winner's.
    Each comes after the winner, the first least leaf, and if the winner
    lists vertex perm[i] at position i and the leaf lists perm2[i], then
    perm[i] -> perm2[i] is an automorphism.  One such leaf is kept for each
    node of the winner's path and each child of it off the path: the first
    below that child.  With the twin transpositions they generate Aut(G)
    (the stabiliser chain of Schreier-Sims, read off the search tree).
    Automorphisms map the tree onto itself.  Let G_i fix the first i
    vertices that the winner's path individualises, b the next one, and c a
    vertex of b's cell in the G_i-orbit of b.  The leaf kept below c gives
    an element of G_i taking b to c, so G_i is generated by G_{i+1} and
    these elements; G_0 = Aut(G), and G_i is trivial at the winner.  If c
    was skipped as the twin of an earlier u, then u is in the orbit too,
    and (u c), which lies in G_i, takes u's element to one for c.  Below
    each child visited in the orbit some leaf has the winner's rows: the
    child's subtree holds an image of the winner, and a twin skipped below
    the child leaves its twin's leaves, which have the same rows.

    Each automorphism returned maps every twin class onto a twin class in
    increasing order, as ``orbit`` needs.  Refinement never splits twins:
    two twins in one cell agree outside their pair, and every splitter
    holds both or neither.  Only the lowest twin left in a cell is branched
    on, before the rest of its cell, so every leaf lists each twin class in
    increasing order, and a map read off two such leaves keeps that order.

    ``(rows, perm)`` equals that of the full recount kept as the reference
    in ``tests/conftest.py``; ``search._children`` reads its deletion
    vertex off ``perm``, so both must stay the same.
    """
    if n == 1:
        return (0,), (0,), ()
    by_deg = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    initial = [by_deg[d] for d in sorted(by_deg, reverse=True)]

    # rows, perm and individualised vertices of the least leaf so far
    best = [None, None, None]
    # the leaves equal to it, one per (depth, vertex) where they leave its path
    equal = {}

    def rec(cells, splitters, path):
        cells = _refine(adj, cells, splitters)
        for target, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            perm = tuple(c.bit_length() - 1 for c in cells)
            enc = _encode(n, adj, perm)
            if best[0] is None or enc < best[0]:
                best[:] = enc, perm, path
                equal.clear()
            elif enc == best[0]:
                i = next(i for i, (u, v) in enumerate(zip(path, best[2])) if u != v)
                equal.setdefault((i, path[i]), perm)
            return
        keys = set()
        m = cell
        while m:
            bit = m & -m
            m ^= bit
            row = adj[bit.bit_length() - 1]
            if row in keys or row | bit in keys:
                continue
            keys.add(row)
            keys.add(row | bit)
            rec(
                cells[:target] + [bit, cell ^ bit] + cells[target + 1 :],
                [bit],
                path + (bit,),
            )

    rec(initial, initial[:-1], ())
    rows, perm = best[0], best[1]
    if not equal:
        return rows, perm, ()
    position = [0] * n
    for i, v in enumerate(perm):
        position[v] = i
    autos = tuple(tuple(position[v] for v in other) for other in equal.values())
    return rows, perm, autos


def canonical_form(g: Graph) -> str:
    """String equal for two graphs iff they are isomorphic."""
    return to_graph6(_unchecked(g.n, _canonical(g.n, g.adj)[0]))


def canonical_permutation(g: Graph):
    """Permutation p with p[i] = old vertex at canonical position i."""
    return _canonical(g.n, g.adj)[1]
