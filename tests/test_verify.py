import dataclasses
import math

import numpy as np
import pytest

from qturan import graphs, spectra, verify
from qturan.patterns import pattern_by_name
from qturan.search import SearchConfig, enumerate_free
from qturan.verify import (
    ROW_FIELDS,
    VerifyError,
    check_bound_chain,
    check_lemma22,
    check_monotone_sequence,
    check_star_theorem,
    check_vertex_deletion,
    convergence_table,
    sweep_graphs,
    sweep_random,
)
from tests.conftest import (
    reference_check_bound_chain,
    reference_check_vertex_deletion,
    reference_top_eigenvalue,
)


class TestVertexDeletion:
    def test_k33_values(self):
        # q(K33) = 6, mu^2 = 1/6; bound = 6*(2/3)/(5/6) - 0/(5/6) = 4.8,
        # and q(K33 - u) = q(K23) = 5 >= 4.8
        rep = check_vertex_deletion(graphs.complete_bipartite(3, 3))
        assert rep.passed is True
        assert rep.lhs == pytest.approx(5.0, abs=1e-7)
        assert rep.rhs == pytest.approx(4.8, abs=1e-7)
        assert rep.slack == pytest.approx(0.2, abs=1e-7)

    def test_complete_graph(self):
        # q(K5)=8, mu^2=1/5: bound = 8*(3/5)/(4/5) - 0 = 6 = q(K4)
        rep = check_vertex_deletion(graphs.complete(5))
        assert rep.passed is True
        assert rep.slack == pytest.approx(0.0, abs=1e-7)

    def test_disconnected_not_applicable(self):
        g = graphs.disjoint_union([graphs.complete(2)] * 2)
        rep = check_vertex_deletion(g)
        assert rep.passed is None
        assert not rep.applicable
        assert rep.status() == "N/A"

    def test_single_vertex_not_applicable(self):
        assert check_vertex_deletion(graphs.empty(1)).passed is None

    def test_exhaustive_small(self):
        reports = sweep_graphs("vertex_deletion", 7)
        assert reports and all(r.passed for r in reports if r.applicable)


@pytest.mark.parametrize(
    "check, reference",
    [
        (check_bound_chain, reference_check_bound_chain),
        (check_vertex_deletion, reference_check_vertex_deletion),
    ],
    ids=["bound_chain", "vertex_deletion"],
)
def test_lapack_values_agree_with_power_iteration(check, reference):
    # every class with n <= 6, disconnected ones included (N/A on both sides
    # for vertex_deletion)
    for n in range(1, 7):
        for g in enumerate_free(n):
            new, old = check(g), reference(g)
            assert new.status() == old.status(), new.subject
            for field in ("lhs", "rhs", "slack"):
                a, b = getattr(new, field), getattr(old, field)
                assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12, (
                    new.subject, field, a, b
                )


def _same_report(a, b):
    """Field by field equality of two reports, NaN equal to NaN."""
    return all(
        x == y or (x != x and y != y)
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))
    )


def test_bound_chain_matches_per_graph_eigvalsh_calls(monkeypatch):
    # seeded hosts past the n <= 6 classes of the CLI sweep digest
    rng = np.random.default_rng(20261022)
    hosts = [graphs.random_graph(n, 0.5, rng) for n in range(8, 13) for _ in range(30)]
    new = [check_bound_chain(g) for g in hosts]
    monkeypatch.setattr(
        spectra,
        "lambda_and_q",
        lambda g: tuple(reference_top_eigenvalue(g, k) for k in ("lambda", "q")),
    )
    old = [check_bound_chain(g) for g in hosts]
    for g, a, b in zip(hosts, new, old):
        assert _same_report(a, b), graphs.to_graph6(g)


class TestLemma22:
    def test_tight_on_regular(self):
        # K33: delta=3, n mu^2 = 1 so the bound is delta + sqrt(delta^2) = 6 = q
        rep = check_lemma22(graphs.complete_bipartite(3, 3))
        assert rep.passed is True
        assert rep.slack == pytest.approx(0.0, abs=1e-7)

    def test_k2_boundary(self):
        rep = check_lemma22(graphs.complete(2))
        assert rep.passed is True
        assert rep.lhs == pytest.approx(2.0, abs=1e-9)

    def test_zero_mu_not_applicable(self):
        g = graphs.disjoint_union([graphs.complete(3), graphs.empty(1)])
        assert check_lemma22(g).passed is None

    def test_exhaustive_small(self):
        reports = sweep_graphs("lemma22", 7)
        applicable = [r for r in reports if r.applicable]
        assert applicable and all(r.passed for r in applicable)


class TestBoundChain:
    def test_exhaustive_small(self):
        reports = sweep_graphs("bound_chain", 7)
        applicable = [r for r in reports if r.applicable]
        assert applicable and all(r.passed for r in applicable)

    def test_random_sweep(self):
        reports = sweep_random("bound_chain", range(2, 13), per_n=40)
        assert all(r.passed for r in reports if r.applicable)

    def test_tight_on_complete(self):
        # all four quantities coincide at 2(n-1) for K_n
        rep = check_bound_chain(graphs.complete(6))
        assert rep.passed is True
        assert rep.slack == pytest.approx(0.0, abs=1e-7)

    def test_single_vertex_not_applicable(self):
        assert check_bound_chain(graphs.empty(1)).passed is None


class TestMonotone:
    def test_triangle(self):
        rep = check_monotone_sequence(pattern_by_name("K3"), 7)
        assert rep.passed is True

    def test_k4(self):
        rep = check_monotone_sequence(pattern_by_name("K4"), 7)
        assert rep.passed is True

    def test_bipartite_not_applicable(self):
        assert check_monotone_sequence(pattern_by_name("C4"), 6).passed is None


class TestStarTheorem:
    def test_t2_matchings(self):
        # K_{1,2}-free graphs are matchings plus isolates: ex_q = 2 = 2(t-1)
        rep = check_star_theorem(2, 6)
        assert rep.passed is True

    def test_t3(self):
        rep = check_star_theorem(3, 7)
        assert rep.passed is True

    def test_bad_parameters(self):
        with pytest.raises(VerifyError):
            check_star_theorem(1, 2)
        with pytest.raises(VerifyError):
            check_star_theorem(5, 4)


class TestConvergenceTable:
    def test_triangle_ratio_q_is_one(self):
        table = convergence_table(pattern_by_name("K3"), 7)
        assert table.partial is False
        assert len(table.rows) == 7
        assert [row.n for row in table.rows] == list(range(1, 8))
        for row in table.rows[1:]:
            # ex_q(n, K3) = n exactly (complete bipartite witness)
            assert row.ratio_q_n == pytest.approx(1.0, abs=1e-8)
        assert table.rows[0].ratio_edges == 0.0
        assert table.rows[0].ratio_q_n1 == 0.0

    def test_targets_by_pattern_class(self):
        assert convergence_table(pattern_by_name("K4"), 3).targets == {
            "ratio_edges": pytest.approx(2 / 3),
            "ratio_lambda": pytest.approx(2 / 3),
            "ratio_q_n": pytest.approx(4 / 3),
        }
        star = convergence_table(pattern_by_name("K1_3"), 4).targets
        assert star == {"ex_q": 4.0, "ratio_q_n": 0.0}
        assert convergence_table(pattern_by_name("C4"), 4).targets == {
            "ratio_q_n": 1.0
        }

    def test_partial_on_budget(self):
        import qturan.search as search

        search.clear_caches()
        cfg = SearchConfig(budget=200)
        table = convergence_table(pattern_by_name("K3"), 9, cfg)
        assert table.partial is True
        assert 0 < len(table.rows) < 9
        search.clear_caches()

    def test_row_fields_match_dataclass(self):
        import dataclasses

        names = tuple(f.name for f in dataclasses.fields(verify.ConvergenceRow))
        assert names == ROW_FIELDS

    def test_mu_column_regular_witness(self):
        # q-extremal K3-free witness is complete bipartite; balanced ones are
        # regular so n*mu^2 = 1
        table = convergence_table(pattern_by_name("K3"), 6)
        assert table.rows[5].mu_sq_times_n == pytest.approx(1.0, abs=1e-6)
