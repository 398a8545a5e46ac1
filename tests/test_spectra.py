import dataclasses
import itertools
import math

import numpy as np
import pytest

from qturan import graphs, search, spectra
from tests.conftest import (
    eigen_equation_residual,
    min_perron_entry,
    reference_adjacency_matrix,
    reference_top_eigenvalue,
    reference_with_degrees,
)


def seeded_graphs(per_n, n_values, seed=4242, p=0.5):
    rng = np.random.default_rng(seed)
    for n in n_values:
        for _ in range(per_n):
            yield graphs.random_graph(n, p, rng)


def k3_wins():
    """(G, K3's vertices) for K3 beside K1 and K2 in every order, where it
    wins on value, and beside C4 in both orders, where it ties on q = 4 and
    lambda = 2 and wins by its smaller canonical form ("Bw" < "C]")."""
    k1, k2, k3 = graphs.complete(1), graphs.complete(2), graphs.complete(3)
    cases = list(itertools.permutations([k1, k2, k3]))
    cases += [(graphs.cycle(4), k3), (k3, graphs.cycle(4))]
    for parts in cases:
        start = sum(p.n for p in parts[: parts.index(k3)])
        yield graphs.disjoint_union(list(parts)), list(range(start, start + 3))


def disconnected_and_k1():
    """K1 twice, edgeless graphs and disjoint unions, in an order that
    changes n from one graph to the next."""
    k1, k2, k3 = graphs.complete(1), graphs.complete(2), graphs.complete(3)
    c4 = graphs.cycle(4)
    return [
        k1,
        graphs.disjoint_union([k3, c4]),
        graphs.disjoint_union([c4, k3]),
        graphs.empty(7),
        k1,
        graphs.disjoint_union([k2, k2, k1]),
        graphs.disjoint_union([k3, k1]),
        graphs.empty(5),
    ]


def top(g, kind="q"):
    """The top eigenvalue of one graph through the production path."""
    (value,) = spectra.top_eigenvalues([g], kind)
    return value


def assert_bits_match_the_oracle(gs, kind):
    """top_eigenvalues over all of ``gs``, and over each graph alone, gives
    the bits of the oracle."""
    oracle = [reference_top_eigenvalue(g, kind).hex() for g in gs]
    assert [v.hex() for v in spectra.top_eigenvalues(gs, kind)] == oracle
    assert [top(g, kind).hex() for g in gs] == oracle


class TestTopEigenvalues:
    @pytest.mark.parametrize("kind", ["q", "adjacency"])
    def test_bits_match_eigvalsh_on_seven_vertices(self, kind):
        # every class to n = 7; the run of n = 7 spans several blocks
        assert len(search.enumerate_free(7)) > spectra.BLOCK
        gs = [g for n in range(1, 8) for g in search.enumerate_free(n)]
        assert_bits_match_the_oracle(gs, kind)

    @pytest.mark.parametrize("kind", ["q", "adjacency"])
    def test_disconnected_graphs_and_k1(self, kind):
        assert_bits_match_the_oracle(disconnected_and_k1(), kind)

    @pytest.mark.parametrize("kind", ["q", "adjacency"])
    def test_seeded_hosts(self, kind):
        assert_bits_match_the_oracle(list(seeded_graphs(20, range(8, 13))), kind)

    def test_empty_list(self):
        assert spectra.top_eigenvalues([]) == []


class TestLambdaAndQ:
    def test_bits_match_the_per_graph_calls(self):
        gs = [g for n in range(1, 8) for g in search.enumerate_free(n)]
        gs += disconnected_and_k1()
        gs += list(seeded_graphs(20, range(8, 13)))
        for g in gs:
            lam, q = spectra.lambda_and_q(g)
            assert (lam.hex(), q.hex()) == (
                reference_top_eigenvalue(g, "adjacency").hex(),
                reference_top_eigenvalue(g, "q").hex(),
            ), graphs.to_graph6(g)


def test_with_degrees_matches_the_sum_with_eye():
    # single matrices (K1 included) and a stack; the input stays unchanged
    singles = list(seeded_graphs(6, [9])) + [graphs.complete(1), graphs.petersen()]
    arrays = [g.adjacency_matrix() for g in singles]
    arrays.append(graphs.adjacency_matrices(list(seeded_graphs(5, [7])), 7))
    for a in arrays:
        kept = a.copy()
        q = spectra._with_degrees(a, spectra.SIGNLESS_LAPLACIAN)
        assert q.shape == a.shape
        assert q.tobytes() == reference_with_degrees(a).tobytes()
        assert a.tobytes() == kept.tobytes()
        assert spectra._with_degrees(a, spectra.ADJACENCY) is a


class TestClosedForms:
    def test_q_turan2(self):
        assert top(graphs.turan(2, 6)) == pytest.approx(6, abs=1e-9)

    def test_q_complete(self):
        assert top(graphs.complete(4)) == pytest.approx(6, abs=1e-9)

    def test_q_c5(self):
        # 2-regular, so Q = 2I + A and q = 2 + 2
        assert top(graphs.cycle(5)) == pytest.approx(4, abs=1e-9)

    def test_q_star4(self):
        assert top(graphs.star(4)) == pytest.approx(5, abs=1e-9)

    def test_lambda_star4(self):
        assert top(graphs.star(4), "adjacency") == pytest.approx(2, abs=1e-8)

    def test_complete_bipartite_q_is_n(self):
        for s, t in [(1, 1), (2, 5), (4, 4), (7, 3)]:
            assert top(graphs.complete_bipartite(s, t)) == pytest.approx(
                s + t, abs=1e-8
            )


class TestSpectralResult:
    def test_unit_nonnegative_vector(self):
        for g in seeded_graphs(5, range(2, 10), seed=11):
            for kind in ("q", "adjacency"):
                r = spectra.spectral_radius(g, kind)
                assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
                assert (r.vector >= 0).all()
                assert r.residual <= 1e-8

    def test_eigen_equation_residual(self):
        for g in seeded_graphs(3, range(2, 9), seed=12):
            r = spectra.spectral_radius(g, "q")
            for u in range(g.n):
                assert eigen_equation_residual(g, r, u) <= 1e-9

    def test_k2_eigen_terms(self):
        g = graphs.complete(2)
        r = spectra.spectral_radius(g, "q")
        # (q - d(0)) x_0 = (2 - 1)/sqrt(2)
        assert (r.value - 1) * r.vector[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert eigen_equation_residual(g, r, 0) <= 1e-10

    def test_c4_uniform_vector(self):
        r = spectra.spectral_radius(graphs.cycle(4), "q")
        assert np.allclose(r.vector, 0.5, atol=1e-9)
        assert eigen_equation_residual(graphs.cycle(4), r, 1) <= 1e-9

    def test_bad_tol(self):
        with pytest.raises(spectra.SpectralError):
            spectra.spectral_radius(graphs.complete(3), "nope")


class TestRayleigh:
    def test_uniform_vector_gives_4e_over_n(self):
        for g in seeded_graphs(4, range(2, 9), seed=13):
            x = np.full(g.n, 1 / math.sqrt(g.n))
            assert spectra.rayleigh_q(g, x) == pytest.approx(
                4 * g.edge_count() / g.n, abs=1e-9
            )

    def test_single_edge(self):
        x = np.array([1, 1]) / math.sqrt(2)
        assert spectra.rayleigh_q(graphs.complete(2), x) == pytest.approx(2.0)

    def test_perron_vector_attains_q(self):
        for g in seeded_graphs(3, range(2, 9), seed=14):
            r = spectra.spectral_radius(g, "q")
            assert spectra.rayleigh_q(g, r.vector) == pytest.approx(
                r.value, abs=1e-7
            )

    def test_rayleigh_below_q(self):
        rng = np.random.default_rng(5)
        for g in seeded_graphs(3, range(3, 9), seed=15):
            x = rng.uniform(0, 1, g.n)
            x /= np.linalg.norm(x)
            assert spectra.rayleigh_q(g, x) <= reference_top_eigenvalue(g, "q") + 1e-8

    def test_zero_vector_rejected(self):
        with pytest.raises(spectra.SpectralError):
            spectra.rayleigh_q(graphs.complete(2), np.zeros(2))

    def test_scaling_invariant(self):
        rng = np.random.default_rng(6)
        for g in seeded_graphs(3, range(2, 9), seed=16):
            x = rng.uniform(0, 1, g.n)
            assert spectra.rayleigh_q(g, 7.5 * x) == pytest.approx(
                spectra.rayleigh_q(g, x), rel=1e-12
            )


class TestMinPerron:
    def test_regular_uniform(self):
        r = spectra.spectral_radius(graphs.complete_bipartite(3, 3), "q")
        assert min_perron_entry(r) ** 2 == pytest.approx(1 / 6, abs=1e-9)

    def test_disconnected_zero(self):
        g = graphs.disjoint_union([graphs.empty(1), graphs.complete(2)])
        r = spectra.spectral_radius(g, "q")
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert min_perron_entry(r) == 0.0

    def test_star_leaf_below_center(self):
        r = spectra.spectral_radius(graphs.star(4), "q")
        center, leaves = r.vector[0], r.vector[1:]
        assert np.allclose(leaves, leaves[0], atol=1e-8)
        assert leaves[0] < center
        # oracle: dense eigensolve of the 5x5 Q matrix
        mat = reference_with_degrees(reference_adjacency_matrix(graphs.star(4)))
        vals, vecs = np.linalg.eigh(mat)
        oracle = np.abs(vecs[:, -1])
        assert min_perron_entry(r) == pytest.approx(oracle.min(), abs=1e-8)


class TestProperties:
    def test_bound_chain_random(self):
        for g in seeded_graphs(10, range(2, 11), seed=16):
            e, n = g.edge_count(), g.n
            lam, q = spectra.lambda_and_q(g)
            assert q >= 2 * lam - 1e-8
            assert 2 * lam >= 4 * e / n - 1e-8
            assert q <= 2 * e / (n - 1) + n - 2 + 1e-8  # Feng-Yu
            degs = [g.degree(v) for v in range(n)]
            edge_deg = max((degs[u] + degs[v] for u, v in g.edges()), default=0)
            assert q <= edge_deg + 1e-8

    def test_edge_monotonicity(self):
        rng = np.random.default_rng(17)
        for g in seeded_graphs(5, range(3, 9), seed=18, p=0.4):
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            u, v = missing[rng.integers(len(missing))]
            bigger = g.add_edge(u, v)
            for kind in ("q", "adjacency"):
                assert top(bigger, kind) >= top(g, kind) - 1e-8

    def test_regular_q_is_2d(self):
        for g, d in [
            (graphs.cycle(7), 2),
            (graphs.complete(5), 4),
            (graphs.complete_bipartite(4, 4), 4),
            (graphs.petersen(), 3),
        ]:
            assert top(g) == pytest.approx(2 * d, abs=1e-8)

    def test_power_agrees_with_dense(self):
        for g in seeded_graphs(5, range(2, 13), seed=19):
            for kind in ("q", "adjacency"):
                assert spectra.spectral_radius(g, kind).value == pytest.approx(
                    reference_top_eigenvalue(g, kind), abs=1e-7
                )

    def test_disconnected_component_tie_is_deterministic(self, monkeypatch):
        g = graphs.disjoint_union([graphs.cycle(4), graphs.complete(3)])
        # q(C4) = q(K3) = 4; the winner must not depend on run order
        r1 = spectra.spectral_radius(g, "q")
        r2 = spectra.spectral_radius(g, "q")
        assert r1.value == pytest.approx(4.0, abs=1e-9)
        assert np.array_equal(r1.vector, r2.vector)
        # support is confined to one component
        assert (r1.vector[:4] == 0).all() or (r1.vector[4:] == 0).all()

        calls = []
        canonical = graphs._canonical

        def counting(n, adj):
            calls.append(n)
            return canonical(n, adj)

        monkeypatch.setattr(graphs, "_canonical", counting)
        # q(K3) = 4 > q(K2) = 2: no tie, so no component is labelled
        r = spectra.spectral_radius(
            graphs.disjoint_union([graphs.complete(3), graphs.complete(2)]), "q"
        )
        assert r.value == pytest.approx(4.0, abs=1e-9)
        assert not calls
        # nor is the 6-cube, whose labelling visits |Aut(Q6)| = 46080 leaves,
        # beside K1: q(Q6) = 12 > q(K1) = 0
        q6 = graphs.from_edges(
            64, [(u, u | 1 << b) for u in range(64) for b in range(6) if u < u | 1 << b]
        )
        g = graphs.disjoint_union([q6, graphs.complete(1)])
        r = spectra.spectral_radius(g, "q")
        assert r.value == pytest.approx(12.0, abs=1e-9)
        assert not calls
        # on the tie K3 wins (graph6 "Bw" < "C]" for C4) in either order
        third = 1 / math.sqrt(3)
        for parts, k3 in (
            ([graphs.cycle(4), graphs.complete(3)], slice(4, 7)),
            ([graphs.complete(3), graphs.cycle(4)], slice(0, 3)),
        ):
            calls.clear()
            r = spectra.spectral_radius(graphs.disjoint_union(parts), "q")
            assert sorted(calls) == [3, 4]
            assert r.value == pytest.approx(4.0, abs=1e-9)
            expected = np.zeros(7)
            expected[k3] = third
            assert r.vector == pytest.approx(expected, abs=1e-9)

    def test_component_result_is_the_winning_components_own(self):
        for g, idx in k3_wins():
            comp = sum(1 << v for v in idx)
            for kind in ("q", "adjacency"):
                r = spectra.spectral_radius(g, kind)
                own = spectra.spectral_radius(g.induced_subgraph(comp), kind)
                assert np.array_equal(r.vector[idx], own.vector)
                assert (r.value, r.iterations, r.method) == (
                    own.value, own.iterations, own.method
                )
                assert (np.delete(r.vector, idx) == 0).all()
                assert r.residual <= 1e-8

    def test_component_tie_does_not_hang_on_the_last_bit(self, monkeypatch):
        # eigh puts q(K3) at 3.9999999999999996, one ulp under q(C4) = 4:
        # only the VALUE_TOL window still hands the tie to K3
        def eigh_radius(adj, kind):
            vals, vecs = np.linalg.eigh(spectra._with_degrees(adj, kind))
            return spectra.SpectralResult(
                float(vals[-1]), np.abs(vecs[:, -1]), 0.0, 0, "dense"
            )

        monkeypatch.setattr(spectra, "_radius_of_matrix", eigh_radius)
        for g, idx in k3_wins():
            for kind, value in (("q", 4.0), ("adjacency", 2.0)):
                r = spectra.spectral_radius(g, kind)
                assert r.value == pytest.approx(value, abs=1e-9)
                assert (r.vector[idx] > 0).all()
                assert (np.delete(r.vector, idx) == 0).all()

    def test_component_tie_takes_the_smallest_form_in_the_window(self, monkeypatch):
        # K1, K2, K3 ("@" < "A_" < "Bw") at values v, v + 0.6e-9, v + 1.2e-9:
        # K2 and K3 are within VALUE_TOL of the largest, and K2 has the
        # smaller form, whatever the order of the components
        solve = spectra._radius_of_matrix

        def staggered(adj, kind):
            value = 1.0 + 0.6e-9 * (adj.shape[0] - 1)
            return dataclasses.replace(solve(adj, kind), value=value)

        calls = []
        canonical = graphs._canonical

        def counting(n, adj):
            calls.append(n)
            return canonical(n, adj)

        monkeypatch.setattr(spectra, "_radius_of_matrix", staggered)
        monkeypatch.setattr(graphs, "_canonical", counting)
        parts = [graphs.complete(1), graphs.complete(2), graphs.complete(3)]
        for order in itertools.permutations(parts):
            calls.clear()
            r = spectra.spectral_radius(graphs.disjoint_union(list(order)), "q")
            start = sum(p.n for p in order[: order.index(parts[1])])
            assert r.value == 1.0 + 0.6e-9
            assert (r.vector[start : start + 2] > 0).all()
            assert (np.delete(r.vector, [start, start + 1]) == 0).all()
            # K1 lies outside the window and is not labelled
            assert sorted(calls) == [2, 3]
