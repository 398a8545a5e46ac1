import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan import graphs, search
from tests.conftest import (
    all_labeled_graphs,
    automorphism_order_naive,
    canonical_graph,
    group_order,
    orbits_naive,
    reference_adjacency_matrix,
    reference_canonical,
    reference_to_graph6,
    subgraph_naive,
)


def random_graphs(count, seed=12345, n_max=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        out.append(graphs.random_graph(n, float(rng.uniform(0, 1)), rng))
    return out


class TestFamilies:
    def test_turan_2_4_is_k22(self):
        t = graphs.turan(2, 4)
        assert t.edge_count() == 4
        assert graphs.canonical_form(t) == graphs.canonical_form(
            graphs.complete_bipartite(2, 2)
        )

    @pytest.mark.parametrize("n", range(2, 21))
    def test_turan_2_edge_count(self, n):
        assert graphs.turan(2, n).edge_count() == n * n // 4

    def test_turan_part_sizes(self):
        g = graphs.turan(3, 8)
        # parts of sizes 3,3,2: degree is n - own part size
        assert sorted(g.degree(v) for v in range(8)) == [5, 5, 5, 5, 5, 5, 6, 6]

    def test_star_degrees(self):
        s = graphs.star(3)
        assert s.degree_sequence() == (3, 1, 1, 1)
        assert graphs.star(4).degree(0) == 4

    def test_min_degree_k33(self):
        assert graphs.complete_bipartite(3, 3).min_degree() == 3

    def test_invalid_parameters(self):
        with pytest.raises(graphs.GraphError):
            graphs.turan(3, 2)
        with pytest.raises(graphs.GraphError):
            graphs.cycle(2)
        with pytest.raises(graphs.GraphError):
            graphs.star(0)
        with pytest.raises(graphs.GraphError):
            graphs.Graph(graphs.MAX_VERTICES + 1, (0,) * (graphs.MAX_VERTICES + 1))


class TestMutation:
    def test_delete_vertex_k4(self):
        assert graphs.canonical_form(
            graphs.complete(4).delete_vertex(2)
        ) == graphs.canonical_form(graphs.complete(3))

    def test_delete_vertex_k33(self):
        assert graphs.canonical_form(
            graphs.complete_bipartite(3, 3).delete_vertex(0)
        ) == graphs.canonical_form(graphs.complete_bipartite(2, 3))

    def test_delete_vertex_c5(self):
        assert graphs.canonical_form(
            graphs.cycle(5).delete_vertex(3)
        ) == graphs.canonical_form(graphs.path(4))

    def test_delete_last_vertex_errors(self):
        with pytest.raises(graphs.GraphError):
            graphs.empty(1).delete_vertex(0)

    def test_vertex_maps_match_the_edge_filter(self):
        # every vertex subset of every class with n <= 6, and random graphs
        # on 70 vertices, whose rows span two 64-bit words
        rng = np.random.default_rng(25)
        gs = [g for n in range(1, 7) for g in search.enumerate_free(n)]
        gs += [graphs.random_graph(70, p, rng) for p in (0.1, 0.5, 0.9)]
        for g in gs:
            if g.n <= 6:
                masks = range(1, 1 << g.n)
            else:
                masks = [(1 << g.n) - 1, 1, 1 << (g.n - 1)]
                masks += [int(rng.integers(1, 1 << 62)) << 8 | 1 for _ in range(20)]
            for mask in masks:
                verts = [v for v in range(g.n) if (mask >> v) & 1]
                h = g.induced_subgraph(mask)
                assert (h.n, h.adj) == (len(verts), subgraph_naive(g, verts).adj)
            for u in range(g.n if g.n > 1 else 0):
                rest = [v for v in range(g.n) if v != u]
                assert g.delete_vertex(u).adj == subgraph_naive(g, rest).adj
            for _ in range(3):
                perm = [int(v) for v in rng.permutation(g.n)]
                assert g.relabel(perm).adj == subgraph_naive(g, perm).adj

    def test_induced_subgraph_rejects_empty_and_stray_masks(self):
        g = graphs.cycle(5)
        for mask in (0, 1 << 5, 0b100001, -1):
            with pytest.raises(graphs.GraphError):
                g.induced_subgraph(mask)
        for u in (-1, 5):
            with pytest.raises(graphs.GraphError):
                g.delete_vertex(u)

    def test_add_edge(self):
        assert graphs.empty(2).add_edge(0, 1).adj == graphs.complete(2).adj
        p3 = graphs.path(3)
        assert graphs.canonical_form(p3.add_edge(0, 2)) == graphs.canonical_form(
            graphs.cycle(3)
        )
        g = graphs.cycle(5)
        assert g.add_edge(0, 2).edge_count() == g.edge_count() + 1
        assert g.edge_count() == 5  # input unchanged

    def test_add_edge_errors(self):
        with pytest.raises(graphs.GraphError):
            graphs.complete(3).add_edge(0, 1)
        with pytest.raises(graphs.GraphError):
            graphs.empty(3).add_edge(1, 1)

    def test_degree_sum_is_twice_edges(self):
        for g in random_graphs(50, seed=7):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


class TestAdjacencyMatrices:
    def test_unpacked_rows_match_edge_by_edge(self):
        # n = 8, 9, 64, 65 and 70 put the last vertex at a byte's edge
        gs = random_graphs(200, seed=21) + [
            graphs.random_graph(n, 0.5, np.random.default_rng(n))
            for n in (8, 9, 64, 65, 70)
        ]
        for g in gs:
            a = g.adjacency_matrix()
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert np.array_equal(a, reference_adjacency_matrix(g))

    def test_stack_of_one_size(self):
        gs = search.enumerate_free(5)
        stack = graphs.adjacency_matrices(gs, 5)
        assert stack.shape == (len(gs), 5, 5)
        for a, g in zip(stack, gs):
            assert np.array_equal(a, reference_adjacency_matrix(g))
        assert graphs.adjacency_matrices([], 5).shape == (0, 5, 5)


class TestGraph6:
    def test_k4_encoding(self):
        # hand-encoded: header chr(63+4)='C', six upper-triangle ones -> chr(126)
        assert graphs.to_graph6(graphs.complete(4)) == "C~"
        assert graphs.to_graph6(graphs.empty(4)) == "C?"

    def test_roundtrip_random(self):
        for g in random_graphs(1000, seed=99):
            assert graphs.from_graph6(graphs.to_graph6(g)).adj == g.adj
            assert graphs._from_order_key(g.n, graphs.order_key(g)) == g.adj

    def test_roundtrip_long_form(self):
        for n in (63, 64, 65, 200):
            g = graphs.cycle(n)
            s = graphs.to_graph6(g)
            assert s.startswith("~")
            assert graphs.from_graph6(s).adj == g.adj
            assert graphs._from_order_key(n, graphs.order_key(g)) == g.adj

    def test_rejects_nonzero_padding(self):
        # C5 uses 10 of 12 body bits; flip each padding bit of a few cycles.
        # The padding lies in the last body byte, which the offset names
        for n in (3, 5, 6, 7, 70):
            s = graphs.to_graph6(graphs.cycle(n))
            pad = -(n * (n - 1) // 2) % 6
            for bit in range(pad):
                bad = s[:-1] + chr(63 + ((ord(s[-1]) - 63) | 1 << bit))
                with pytest.raises(graphs.Graph6Error, match="padding") as exc:
                    graphs.from_graph6(bad)
                assert exc.value.offset == len(s) - 1

    def test_rejects_malformed(self):
        with pytest.raises(graphs.Graph6Error) as exc:
            graphs.from_graph6("C")  # truncated body
        assert exc.value.offset >= 0
        with pytest.raises(graphs.Graph6Error):
            graphs.from_graph6("C~~")  # trailing junk
        with pytest.raises(graphs.Graph6Error):
            graphs.from_graph6("B\x1f")  # out-of-range byte
        with pytest.raises(graphs.Graph6Error, match=str(graphs.MAX_VERTICES)):
            graphs.from_graph6("~~?????" + "B")  # 8-byte vertex count
        with pytest.raises(graphs.Graph6Error):
            graphs.from_graph6("")

    def test_matches_reference_encoder(self):
        # the encoder built from order_key writes the bytes of the bit-by-bit
        # one, long-form header included
        gs = [g for n in range(1, 8) for g in search.enumerate_free(n)]
        rng = np.random.default_rng(18)
        for _ in range(150):
            n = int(rng.integers(1, 131))
            gs.append(graphs.random_graph(n, float(rng.uniform(0, 1)), rng))
        for g in gs:
            assert graphs.to_graph6(g) == reference_to_graph6(g), g.adj

    def test_order_key_orders_as_graph6(self):
        # for a fixed n the key is the graph6 body read as one number, so
        # levels sorted by it are in graph6 order
        for n in range(1, 8):
            reps = search.enumerate_free(n)
            for g in reps:
                nbits = n * (n - 1) // 2
                body = "".join(
                    f"{ord(ch) - 63:06b}" for ch in reference_to_graph6(g)[1:]
                )
                assert graphs.order_key(g) == int(body[:nbits] or "0", 2)
            shuffled = list(reversed(reps))
            assert sorted(shuffled, key=graphs.order_key) == sorted(
                shuffled, key=reference_to_graph6
            )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.integers(2, 7))
    def test_roundtrip_property(self, bits, n):
        import itertools

        pairs = list(itertools.combinations(range(n), 2))
        g = graphs.from_edges(
            n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        )
        assert graphs.from_graph6(graphs.to_graph6(g)).adj == g.adj
        assert graphs._from_order_key(n, graphs.order_key(g)) == g.adj


class TestCanonical:
    def test_same_class_equal_forms(self):
        assert graphs.canonical_form(graphs.cycle(4)) == graphs.canonical_form(
            graphs.complete_bipartite(2, 2)
        )

    def test_different_classes_differ(self):
        assert graphs.canonical_form(graphs.path(4)) != graphs.canonical_form(
            graphs.star(3)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 8))
    def test_permutation_invariance(self, rnd, n):
        rng = np.random.default_rng(rnd.getrandbits(32))
        g = graphs.random_graph(n, 0.5, rng)
        perm = list(range(n))
        rnd.shuffle(perm)
        assert graphs.canonical_form(g) == graphs.canonical_form(g.relabel(perm))

    def test_eleven_classes_on_four_vertices(self, four_vertex_classes):
        # oracle: naive pairwise isomorphism over all 64 labeled graphs
        assert len(four_vertex_classes) == 11
        forms = {graphs.canonical_form(g) for g in all_labeled_graphs(4)}
        assert len(forms) == 11

    def test_canonical_graph_idempotent(self):
        for g in random_graphs(50, seed=3, n_max=9):
            cg = canonical_graph(g)
            assert graphs.to_graph6(cg) == graphs.canonical_form(g)
            assert graphs.canonical_form(cg) == graphs.canonical_form(g)

    def test_permutation_lists_degrees_in_nonincreasing_order(self):
        # search._children finds its deletion vertex, the last maximum-degree
        # vertex in canonical order, at position k - 1 by relying on this
        for g in random_graphs(200, seed=11, n_max=12):
            perm = graphs.canonical_permutation(g)
            degrees = [g.degree(v) for v in perm]
            assert degrees == sorted(degrees, reverse=True)

    def test_agrees_with_naive_classes(self, four_vertex_classes):
        # each oracle class maps to a distinct canonical string
        forms = {graphs.canonical_form(g) for g in four_vertex_classes}
        assert len(forms) == len(four_vertex_classes)

    def test_relabel_rejects_a_non_permutation(self):
        g = graphs.path(3)
        for perm in ((0, 0, 1), (0, 1), (0, 1, 3)):
            with pytest.raises(graphs.GraphError, match="not a permutation"):
                g.relabel(perm)


def _generators(g):
    """The automorphisms _canonical returns for g, checked to be
    automorphisms of its canonical rows, plus the twin transpositions."""
    rows, _, autos = graphs._canonical(g.n, g.adj)
    for a in autos:
        assert sorted(a) == list(range(g.n))
        for i in range(g.n):
            image = sum(1 << a[j] for j in range(g.n) if rows[i] >> j & 1)
            assert rows[a[i]] == image
    gens = list(autos)
    for cls in graphs.twin_classes(rows):
        for u, v in zip(cls, cls[1:]):
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            gens.append(tuple(swap))
    return gens


class TestAutomorphisms:
    """The automorphisms _canonical returns, with the twin transpositions,
    generate Aut(G), and graphs.orbit turns them into its orbits on vertex
    sets: search._children and patterns._plans rely on both."""

    @staticmethod
    def assert_orbits(g):
        # u lies in v's orbit iff {u}, twin-normalised, lies in {v}'s orbit
        rows, _, autos = graphs._canonical(g.n, g.adj)
        twins = graphs.twin_prefixes(rows)
        naive = orbits_naive(g.n, rows)
        for v in range(g.n):
            found = graphs.orbit(1 << v, autos, twins)
            for u in range(g.n):
                inside = graphs.twin_normal(1 << u, twins) in found
                assert inside == bool(naive[v] >> u & 1), (g, v, u)

    def test_every_class_to_six_vertices(self):
        for n in range(1, 7):
            for g in search.enumerate_free(n):
                assert group_order(n, _generators(g)) == automorphism_order_naive(g)
                self.assert_orbits(g)

    def test_mask_orbits_match_every_automorphism(self):
        # the oracle maps each mask search._children forms through every
        # automorphism that itertools.permutations finds, then twin-normalises.
        # The automorphisms _canonical returns keep twin order, so orbit
        # leaves its images as they are; the whole group, given as
        # generators, does not, so those images are normalised here
        for n in range(1, 7):
            for g in search.enumerate_free(n):
                rows, _, autos = graphs._canonical(n, g.adj)
                full = graphs._unchecked(n, rows)
                group = [
                    p
                    for p in itertools.permutations(range(n))
                    if full.relabel(p).adj == rows
                ]
                twins = graphs.twin_prefixes(rows)
                for mask in search._twin_masks(n, twins):
                    naive = {
                        graphs.twin_normal(
                            sum(1 << a[v] for v in range(n) if mask >> v & 1), twins
                        )
                        for a in group
                    }
                    assert graphs.orbit(mask, autos, twins) == naive, (g, mask)
                    images = graphs.orbit(mask, group, twins)
                    assert {graphs.twin_normal(m, twins) for m in images} == naive

    @staticmethod
    def assert_twin_order(g):
        # each returned automorphism maps every twin class onto a twin class
        # in increasing order, so graphs.orbit need not normalise its images
        rows, _, autos = graphs._canonical(g.n, g.adj)
        classes = set(graphs.twin_classes(rows))
        for a in autos:
            for cls in classes:
                image = tuple(a[v] for v in cls)
                assert image in classes, (g, a, cls)

    def test_automorphisms_keep_twin_order(self):
        rng = np.random.default_rng(7)
        symmetric = [
            graphs.petersen(),
            graphs.disjoint_union([graphs.cycle(5)] * 3),
            graphs.complete_bipartite(3, 3),
            graphs.turan(3, 9),
            graphs.disjoint_union([graphs.complete(3)] * 4),
            graphs.cycle(12),
        ]
        for g in [g for n in range(1, 8) for g in search.enumerate_free(n)] + symmetric:
            self.assert_twin_order(g)
            self.assert_twin_order(g.relabel([int(v) for v in rng.permutation(g.n)]))

    def test_start_mask_is_twin_normalised(self):
        # no automorphism is returned for the empty graph, so only the
        # normalisation of the start mask takes vertex 2 to vertex 0
        rows = graphs.empty(3).adj
        assert graphs._canonical(3, rows)[2] == ()
        assert graphs.orbit(1 << 2, (), graphs.twin_prefixes(rows)) == {1}
        assert graphs.orbit(0b110, (), graphs.twin_prefixes(rows)) == {0b011}

    @pytest.mark.parametrize(
        "g, order",
        [
            (graphs.petersen(), 120),
            (graphs.disjoint_union([graphs.cycle(5)] * 3), 6000),
            (graphs.cycle(12), 24),
        ],
        ids=["petersen", "3C5", "C12"],
    )
    def test_twin_free_graphs(self, g, order):
        # no twins here, so the returned automorphisms generate alone
        assert not graphs.twin_classes(g.adj)
        assert group_order(g.n, _generators(g)) == order
        self.assert_orbits(g)

    def test_twin_swaps_are_left_to_the_transpositions(self):
        # the path's one flip is a leaf equal to the winner, but a group of
        # twin swaps alone (K5, the empty graph, K2_3) is never met as a
        # leaf, since the search skips twins
        assert len(graphs._canonical(4, graphs.path(4).adj)[2]) == 1
        for g in (graphs.complete(5), graphs.empty(5), graphs.complete_bipartite(2, 3)):
            assert graphs._canonical(g.n, g.adj)[2] == ()


class TestCanonicalMatchesReference:
    """graphs._canonical returns the (rows, perm) of the reference labelling
    in tests/conftest.py, perm included, since search._children picks its
    deletion vertex from perm."""

    @staticmethod
    def assert_same(g):
        assert graphs._canonical(g.n, g.adj)[:2] == reference_canonical(g.n, g.adj), g

    def test_every_class_to_seven_vertices_relabelled(self):
        rng = np.random.default_rng(2024)
        for n in range(1, 8):
            for g in search.enumerate_free(n):
                for _ in range(3):
                    self.assert_same(g.relabel([int(v) for v in rng.permutation(n)]))

    def test_random_graphs(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            n = int(rng.integers(2, 17))
            self.assert_same(graphs.random_graph(n, float(rng.uniform(0, 1)), rng))

    @pytest.mark.parametrize(
        "g",
        [
            graphs.petersen(),
            graphs.turan(3, 9),
            graphs.cycle(12),
            graphs.complete_bipartite(4, 5),
            graphs.complete(9),
            graphs.empty(7),
            graphs.disjoint_union([graphs.cycle(5)] * 3),
        ],
        ids=["petersen", "T3_9", "C12", "K4_5", "K9", "empty7", "3C5"],
    )
    def test_regular_and_twin_rich_graphs(self, g):
        # no degree split at the root, and whole cells of twins to skip
        self.assert_same(g)
