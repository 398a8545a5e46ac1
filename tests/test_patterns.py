import itertools

import numpy as np
import pytest

from qturan import graphs, patterns, search
from qturan.patterns import (
    ForbiddenPattern,
    chromatic_number,
    contains_subgraph,
    is_free,
    pattern_by_name,
    parse_pattern,
)
from tests.conftest import (
    all_labeled_graphs,
    classes_naive,
    contains_subgraph_naive,
    reference_plans,
)


class TestContainment:
    def test_c4_in_k23(self):
        assert contains_subgraph(
            graphs.complete_bipartite(2, 3), pattern_by_name("C4")
        )

    def test_bipartite_is_triangle_free(self):
        assert not contains_subgraph(graphs.turan(2, 6), pattern_by_name("K3"))

    def test_c4_free_count_on_four_vertices(self, four_vertex_classes):
        # oracle count with the naive permutation matcher
        c4 = graphs.cycle(4)
        free_naive = [
            g for g in four_vertex_classes if not contains_subgraph_naive(g, c4)
        ]
        assert len(free_naive) == 8  # frozen from the oracle: 11 classes minus 3
        f = pattern_by_name("C4")
        assert sum(1 for g in four_vertex_classes if is_free(g, f)) == len(free_naive)

    def test_turan_is_clique_free(self):
        for r in range(1, 6):
            f = ForbiddenPattern.from_graph(graphs.complete(r + 1))
            for n in range(r, 13):
                assert is_free(graphs.turan(r, n), f)

    def test_union_of_cliques_is_star_free(self):
        for t in (2, 3, 4):
            g = graphs.disjoint_union([graphs.complete(t)] * 2)
            assert is_free(g, ForbiddenPattern.from_graph(graphs.star(t)))

    def test_large_pattern_always_free(self):
        assert is_free(graphs.complete(5), pattern_by_name("petersen"))

    def test_matcher_agrees_with_naive_exhaustively(self):
        # all hosts with n <= 6, all patterns with <= 4 vertices; anchored
        # at the last host vertex, the oracle is every injective map whose
        # image contains the anchor
        pattern_classes = []
        for k in range(1, 5):
            pattern_classes.extend(classes_naive(all_labeled_graphs(k)))
        hosts = []
        for n in range(1, 7):
            hosts.extend(search.enumerate_free(n))
        for pg in pattern_classes:
            f = ForbiddenPattern.from_graph(pg)
            pedges = list(pg.edges())
            for host in hosts:
                where = (graphs.to_graph6(host), graphs.to_graph6(pg))
                assert contains_subgraph(host, f) == contains_subgraph_naive(
                    host, pg
                ), where
                anchor = host.n - 1
                anchored = any(
                    anchor in image
                    and all(host.has_edge(image[u], image[v]) for u, v in pedges)
                    for image in itertools.permutations(range(host.n), pg.n)
                )
                assert contains_subgraph(host, f, anchor=anchor) == anchored, where

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(23)
        f = pattern_by_name("C5")
        for _ in range(100):
            g = graphs.random_graph(8, 0.35, rng)
            if not contains_subgraph(g, f):
                continue
            missing = [
                (u, v)
                for u in range(8)
                for v in range(u + 1, 8)
                if not g.has_edge(u, v)
            ]
            for u, v in missing[:3]:
                assert contains_subgraph(g.add_edge(u, v), f)

    def test_anchored_matches_plain_when_rest_is_free(self):
        rng = np.random.default_rng(29)
        for name in ("K3", "C4", "K1_3"):
            f = pattern_by_name(name)
            found = 0
            while found < 30:
                g = graphs.random_graph(7, 0.35, rng)
                if contains_subgraph(g.delete_vertex(6), f):
                    continue
                found += 1
                assert contains_subgraph(g, f) == contains_subgraph(g, f, anchor=6)


class TestPlans:
    """One plan per orbit of Aut(F) gives the forbidden sets of one plan
    per twin class (reference_plans in tests/conftest.py)."""

    PLAN_COUNTS = {
        "K3": 1, "K4": 1, "K5": 1, "C4": 1, "C5": 1, "C6": 1, "C7": 1,
        "petersen": 1, "K1_2": 2, "K1_3": 2, "K1_4": 2, "K2_3": 2,
    }

    def test_one_plan_per_orbit(self):
        assert set(self.PLAN_COUNTS) == set(patterns.PATTERN_NAMES)
        for name, count in self.PLAN_COUNTS.items():
            assert len(patterns._plans(pattern_by_name(name).graph)) == count, name

    @pytest.mark.parametrize("name", patterns.PATTERN_NAMES)
    def test_forbidden_sets_match_the_twin_plans(self, name, monkeypatch):
        f = pattern_by_name(name)
        parents = [g for n in range(1, 7) for g in search.enumerate_free(n, f)]
        orbit_sets = [set(patterns.forbidden_sets(g, f.graph)) for g in parents]
        monkeypatch.setattr(patterns, "_plans", reference_plans)
        twin_sets = [set(patterns.forbidden_sets(g, f.graph)) for g in parents]
        assert orbit_sets == twin_sets


class TestChromatic:
    def test_odd_cycles(self):
        assert chromatic_number(graphs.cycle(5)) == 3
        assert chromatic_number(graphs.cycle(7)) == 3

    def test_cliques(self):
        for r in range(1, 7):
            assert chromatic_number(graphs.complete(r)) == r

    def test_petersen(self):
        assert chromatic_number(graphs.petersen()) == 3
        # cross-check: exhaustive 3-coloring search
        g = graphs.petersen()

        def exists_coloring(k):
            for assign in itertools.product(range(k), repeat=g.n):
                if all(assign[u] != assign[v] for u, v in g.edges()):
                    return True
            return False

        assert not exists_coloring(2)
        assert exists_coloring(3)

    def test_bipartite(self):
        assert chromatic_number(graphs.complete_bipartite(3, 4)) == 2
        assert chromatic_number(graphs.turan(2, 9)) == 2
        assert chromatic_number(graphs.empty(5)) == 1

    def test_bounds_on_small_sweep(self):
        for g in search.enumerate_free(5):
            chi = chromatic_number(g)
            cliq = max(
                (k for k in range(1, 6) if contains_subgraph_naive(g, graphs.complete(k))),
                default=1,
            )
            assert cliq <= chi <= g.max_degree() + 1


class TestRegistry:
    def test_all_names_build(self):
        for name in patterns.PATTERN_NAMES:
            f = pattern_by_name(name)
            assert f.chi >= 1
            assert f.chi == chromatic_number(f.graph)

    def test_known_chromatic_numbers(self):
        assert pattern_by_name("K4").chi == 4
        assert pattern_by_name("C5").chi == 3
        assert pattern_by_name("C4").chi == 2
        assert pattern_by_name("K1_3").chi == 2

    def test_parse_graph6(self):
        f = parse_pattern(graphs.to_graph6(graphs.cycle(5)))
        assert f.chi == 3
        assert f.graph.edge_count() == 5

    def test_unknown_pattern(self):
        with pytest.raises(patterns.UnknownPatternError):
            parse_pattern("K99_nonsense")
