import hashlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from qturan import graphs, patterns, search
from qturan.patterns import pattern_by_name
from qturan.search import (
    MAXIMAL_ONLY,
    BudgetExceededError,
    SearchConfig,
    SearchError,
    enumerate_free,
    equivalence_check,
    extremal,
)
from tests.conftest import (
    all_labeled_graphs,
    canonical_graph,
    classes_naive,
    isomorphic_naive,
    reference_children,
    reference_to_graph6,
)


class TestEnumeration:
    def test_unrestricted_counts(self):
        # number of graphs on n unlabeled vertices
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
        for n, count in expected.items():
            assert len(enumerate_free(n)) == count

    # SHA-256 of the sorted graph6 strings at n = 8, joined by "\n", as
    # the earlier deletion rule enumerated them; the old-rule oracle below
    # stops at n = 7.  C6 (1541 classes) and C7 (3139) were taken from the
    # twin-anchor embedding plans, before plans took one anchor per orbit
    N8_SHA256 = {
        None: "51f2b95930d702ada5054f3ad801bae0e43ff9b27eadad94108a0667b4e99b58",
        "K4": "0f7ad39efa06ac2099e815ee7f9ac9f37f140df3fca7c5d6a38ca02613416417",
        "C5": "0c684382abbc7c6a7e426adf294efccef7a69ccf0c396bfa9fda460165a7408e",
        "C6": "673c86853d9ddc9b0506e7789cd00a7328dcc809a521f485160ac36891849e33",
        "C7": "b6e97b3fa64cf37f9276e5e1d9939b013a44838e15207fea29d5c4d5c40e3097",
    }

    @pytest.mark.parametrize("name", list(N8_SHA256), ids=str)
    def test_class_sets_pinned_at_n8(self, name):
        # the unrestricted level is still cached from the test above
        f = None if name is None else pattern_by_name(name)
        forms = sorted(graphs.to_graph6(g) for g in enumerate_free(8, f))
        digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
        assert digest == self.N8_SHA256[name]

    def test_triangle_free_counts(self):
        f = pattern_by_name("K3")
        expected = {
            1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410, 9: 1897, 10: 12172
        }
        for n, count in expected.items():
            assert len(enumerate_free(n, f)) == count

    def test_repeat_call_labels_nothing(self, monkeypatch):
        # the pattern is labelled once, when it is built, and the levels of
        # the first call are cached, so a repeat call labels no graph
        f = pattern_by_name("K4")
        enumerate_free(5, f)
        calls = []
        real = graphs._canonical

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(graphs, "_canonical", counting)
        enumerate_free(5, f)
        assert calls == []

    def test_labelling_count_pinned(self, monkeypatch):
        # one mask per orbit of Aut(P) and the orbit parent test leave 1306
        # labellings for the 1251 classes with 2 <= n <= 7: each is accepted
        # from one labelling, and 55 children of classes accepted from another
        # orbit of masks are rejected because the new vertex is not in the
        # orbit of the deletion vertex.  The earlier rule (reference_children
        # in tests/conftest.py) made 1791; an orbit lost from the stored
        # automorphisms would show here
        search.clear_caches()
        calls = []
        real = graphs._canonical

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(graphs, "_canonical", counting)
        enumerate_free(7)
        assert len(calls) == 1306
        search.clear_caches()

    def test_triangle_free_classes_match_oracle(self):
        f = pattern_by_name("K3")
        for n in (3, 4):
            reps = enumerate_free(n, f)
            k3 = graphs.complete(3)
            oracle = classes_naive(
                g
                for g in all_labeled_graphs(n)
                if not any(
                    isomorphic_naive(k3, g.induced_subgraph(sum(1 << v for v in s)))
                    for s in _triples(n)
                )
            )
            assert len(reps) == len(oracle)
            for g in oracle:
                assert any(isomorphic_naive(g, r) for r in reps)

    def test_representatives_are_canonical_and_distinct(self):
        # levels are stored unvalidated on canonical rows, and serve as
        # parents on the assumption that they are their own labelling
        for f, n in ((pattern_by_name("C4"), 6), (None, 7), (pattern_by_name("K4"), 7)):
            reps = enumerate_free(n, f)
            forms = [graphs.to_graph6(g) for g in reps]
            assert len(set(forms)) == len(forms)
            for g, s in zip(reps, forms):
                assert graphs.canonical_form(g) == s
                graphs.Graph(g.n, g.adj)  # raises GraphError on invalid rows
                assert canonical_graph(g).adj == g.adj

    def test_all_representatives_are_free(self):
        from qturan.patterns import is_free

        for name in ("K3", "C5", "K1_3"):
            f = pattern_by_name(name)
            for g in enumerate_free(6, f):
                assert is_free(g, f)

    def test_levels_are_in_graph6_order(self):
        # the order must not depend on the deletion rule
        for f, n in ((None, 6), (pattern_by_name("K4"), 7)):
            search.clear_caches()
            forms = [graphs.to_graph6(g) for g in enumerate_free(n, f)]
            assert forms == sorted(forms)
        search.clear_caches()

    def test_cap_errors(self):
        with pytest.raises(SearchError):
            enumerate_free(13)
        with pytest.raises(SearchError):
            enumerate_free(0)
        with pytest.raises(SearchError):
            enumerate_free(4, config=SearchConfig(mode="bogus"))
        with pytest.raises(SearchError, match="budget -1 is below 0"):
            enumerate_free(4, config=SearchConfig(budget=-1))

    def test_maximal_mode_has_the_same_cap(self):
        # maximal mode enumerates every class before filtering, so it
        # cannot reach further than full mode; the cap is checked before
        # any level is built (a budget of 1 makes a missed cap fail at once)
        search.clear_caches()
        with pytest.raises(SearchError):
            enumerate_free(13, config=SearchConfig(mode=MAXIMAL_ONLY, budget=1))
        assert not search._LEVELS

    def test_budget_exceeded(self):
        search.clear_caches()
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_free(7, config=SearchConfig(budget=100))
        assert exc.value.progress  # partial per-level progress is reported
        search.clear_caches()

    def test_budget_bounds_work(self):
        # each level's cost is known before it is built, so a level the
        # budget cannot cover is never started and is never cached
        search.clear_caches()
        budget = 2000
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_free(8, config=SearchConfig(budget=budget))
        assert exc.value.progress == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        examined = exc.value.examined
        assert examined <= budget < examined + search._cost(None, 7)
        assert ("none", 7) not in search._LEVELS
        assert len(enumerate_free(7)) == 1044
        search.clear_caches()

    def test_budget_error_does_not_depend_on_the_cache(self):
        errors = []
        for warm in (False, True):
            search.clear_caches()
            if warm:
                enumerate_free(7)
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_free(7, config=SearchConfig(budget=100))
            errors.append((str(exc.value), exc.value.progress, exc.value.examined))
        assert errors[0] == errors[1]
        search.clear_caches()

    def test_cost_counts_every_mask_of_every_parent(self):
        for f in (None, *map(pattern_by_name, ("K3", "K4", "C5"))):
            enumerate_free(7, f)
            assert search._cost(f, 1) == 1
            for k in range(2, 8):
                parents = search._level(f, k - 1)
                examined = sum(search._children(p, f, ())[1] for p in parents)
                assert search._cost(f, k) == examined, (f, k)


def _last_vertex_levels(f, top):
    """Class strings per level by the earlier rule, as the oracle: keep a
    child iff deleting its canonically-last vertex gives back the parent,
    with no degree pre-filter and F found by the anchored matcher."""
    from qturan.patterns import contains_subgraph

    level = [] if f and contains_subgraph(graphs.empty(1), f) else ["@"]
    levels = {1: level}
    for n in range(1, top):
        found = set()
        for pstr in level:
            parent = graphs.from_graph6(pstr)
            for mask in range(1 << n):
                child = search._extend(parent, mask)
                if f and contains_subgraph(child, f, anchor=n):
                    continue
                last = graphs.canonical_permutation(child)[n]
                if graphs.canonical_form(child.delete_vertex(last)) == pstr:
                    found.add(graphs.canonical_form(child))
        level = levels[n + 1] = sorted(found)
    return levels


class TestDeletionRule:
    def test_levels_match_last_vertex_rule(self):
        from qturan.patterns import PATTERN_NAMES

        cases = [(None, 7)] + [
            (pattern_by_name(name), 7 if name in ("K3", "K4", "C4", "C5") else 6)
            for name in PATTERN_NAMES
        ]
        for f, top in cases:
            for n, expected in _last_vertex_levels(f, top).items():
                forms = [graphs.to_graph6(g) for g in enumerate_free(n, f)]
                assert len(set(forms)) == len(forms), (f, n)
                assert sorted(forms) == expected, (f, n)


class TestOrbitAugmentation:
    """search._children labels one mask per orbit of Aut(P) and tests the
    parent by orbit; the earlier rule in tests/conftest.py is the oracle."""

    def test_levels_match_reference_children(self):
        from qturan.patterns import PATTERN_NAMES

        for f in (None, *map(pattern_by_name, PATTERN_NAMES)):
            level = search._level(f, 1)
            for n in range(2, 8):
                found = set()
                examined = 0
                for parent in level:
                    rows, count = reference_children(parent, f)
                    found |= rows
                    examined += count
                level = sorted(
                    (graphs._unchecked(n, r) for r in found), key=reference_to_graph6
                )
                reps = enumerate_free(n, f)
                assert [g.adj for g in reps] == [g.adj for g in level], (f, n)
                assert search._cost(f, n) == examined, (f, n)

    def test_each_class_is_accepted_from_one_parent(self):
        # on a tie, a child is accepted iff its new vertex lies in the orbit
        # of its deletion vertex; a level merges children on their rows, so
        # a class accepted twice shows only in the count over all parents
        for f in (None, pattern_by_name("K4"), pattern_by_name("C5")):
            enumerate_free(7, f)
            for n in range(2, 8):
                reps, autos = search._LEVELS[(search._pattern_key(f), n - 1)]
                accepted = sum(
                    len(search._children(parent, f, stored)[0])
                    for parent, stored in zip(reps, autos)
                )
                assert accepted == len(enumerate_free(n, f)), (f, n)

    def test_every_accepted_class_is_labelled_once(self, monkeypatch):
        # the stored automorphisms are automorphisms of the parent's rows and
        # cut its masks to one per orbit of Aut(P), so each accepted class is
        # labelled once from its parent; without them the twin-normal masks
        # of one orbit are all labelled, and the same classes are accepted
        real = graphs._canonical
        labelled = []

        def recording(n, adj):
            out = real(n, adj)
            labelled.append(out[0])
            return out

        for f in (None, pattern_by_name("C4")):
            enumerate_free(7, f)
            monkeypatch.setattr(graphs, "_canonical", recording)
            for n in range(1, 7):
                reps, autos = search._LEVELS[(search._pattern_key(f), n)]
                for parent, stored in zip(reps, autos):
                    for a in stored:
                        assert parent.relabel(list(a)).adj == parent.adj
                    labelled.clear()
                    accepted, _ = search._children(parent, f, stored)
                    assert all(labelled.count(rows) == 1 for rows in accepted)
                    plain, _ = search._children(parent, f, ())
                    assert set(accepted) == set(plain)
            monkeypatch.setattr(graphs, "_canonical", real)


class TestTwinClasses:
    def test_classes_are_disjoint_automorphism_classes(self):
        for n in range(1, 7):
            for parent in enumerate_free(n):
                classes = graphs.twin_classes(parent.adj)
                members = [v for cls in classes for v in cls]
                assert len(members) == len(set(members))
                for cls in classes:
                    assert len(cls) > 1 and list(cls) == sorted(cls)
                    for u, v in itertools.combinations(cls, 2):
                        perm = list(range(n))
                        perm[u], perm[v] = v, u
                        assert parent.relabel(perm).adj == parent.adj

    def test_one_mask_per_twin_choice(self):
        # every mask is a permutation of twins away from exactly one kept
        # mask: the one meeting each class in its lowest vertices
        for n in range(1, 7):
            for parent in enumerate_free(n):
                classes = graphs.twin_classes(parent.adj)
                kept = search._twin_masks(n, graphs.twin_prefixes(parent.adj))
                assert len(kept) == len(set(kept))
                normal = set()
                for mask in range(1 << n):
                    for cls in classes:
                        inside = sum(mask >> v & 1 for v in cls)
                        for j, v in enumerate(cls):
                            mask = mask | 1 << v if j < inside else mask & ~(1 << v)
                    normal.add(mask)
                assert normal == set(kept)


def _graph6_pattern(g):
    from qturan.patterns import parse_pattern

    return parse_pattern(graphs.to_graph6(g))


class TestForbiddenSets:
    def test_verdict_matches_anchored_matcher(self):
        # oracle gate: on every mask of every F-free parent, a mask contains
        # a forbidden set iff the anchored matcher finds F in the child
        from qturan.patterns import PATTERN_NAMES, contains_subgraph

        k1, k2, k3 = graphs.empty(1), graphs.complete(2), graphs.complete(3)
        cases = [(pattern_by_name(name), 5) for name in PATTERN_NAMES]
        cases += [
            (_graph6_pattern(graphs.disjoint_union([k3, k1])), 5),
            (_graph6_pattern(graphs.disjoint_union([k2, k1, k1])), 5),
            (_graph6_pattern(graphs.disjoint_union([k2, k2])), 5),
        ]
        cases += [(pattern_by_name(name), 6) for name in ("K3", "K4", "C4", "C5")]
        checked = 0
        for f, top in cases:
            parents = enumerate_free(top, f) if top == 6 else [
                p for n in range(1, top + 1) for p in enumerate_free(n, f)
            ]
            for parent in parents:
                sets = patterns.forbidden_sets(parent, f.graph)
                for mask in range(1 << parent.n):
                    rejected = any(s & ~mask == 0 for s in sets)
                    child = search._extend(parent, mask)
                    oracle = contains_subgraph(child, f, anchor=parent.n)
                    assert rejected == oracle, (f.label(), parent.adj, mask)
                    checked += 1
        assert checked == 30478  # every mask of every parent above

    @pytest.mark.parametrize(
        "names, count",
        [(None, 6518), (("C5", "K2_3"), 2132)],
        ids=["all-classes-le-4", "C5-K2_3"],
    )
    def test_verdict_matches_naive_oracle(self, names, count):
        # independent gate: a mask contains a forbidden set iff some
        # injective map of V(F) into the child puts a pattern vertex on the
        # new vertex n and sends every edge of F to a child edge
        if names is None:
            fs = [
                patterns.ForbiddenPattern.from_graph(g)
                for k in range(1, 5)
                for g in classes_naive(all_labeled_graphs(k))
            ]
        else:
            fs = [pattern_by_name(name) for name in names]
        checked = 0
        for f in fs:
            edges = list(f.graph.edges())
            for parent in (p for n in range(1, 6) for p in enumerate_free(n, f)):
                n = parent.n
                images = [
                    img
                    for img in itertools.permutations(range(n + 1), f.graph.n)
                    if n in img
                ]
                sets = patterns.forbidden_sets(parent, f.graph)
                for mask in range(1 << n):
                    adj = search._extend(parent, mask).adj
                    oracle = any(
                        all((adj[img[u]] >> img[v]) & 1 for u, v in edges)
                        for img in images
                    )
                    rejected = any(s & ~mask == 0 for s in sets)
                    assert rejected == oracle, (f.label(), parent.adj, mask)
                    checked += 1
        assert checked == count  # every mask of every parent with n <= 5

    def test_k4_sets_are_the_parent_triangles(self):
        f = pattern_by_name("K4")
        for parent in enumerate_free(6, f):
            triangles = {
                (1 << a) | (1 << b) | (1 << c)
                for a, b, c in itertools.combinations(range(parent.n), 3)
                if parent.has_edge(a, b)
                and parent.has_edge(a, c)
                and parent.has_edge(b, c)
            }
            assert set(patterns.forbidden_sets(parent, f.graph)) == triangles

    def test_sets_are_inclusion_minimal(self):
        for name in ("C4", "K1_3", "K2_3"):
            f = pattern_by_name(name)
            for parent in enumerate_free(5, f):
                sets = patterns.forbidden_sets(parent, f.graph)
                assert len(set(sets)) == len(sets)
                for s, t in itertools.permutations(sets, 2):
                    assert s & ~t != 0


def _triples(n):
    import itertools

    return itertools.combinations(range(n), 3)


class TestMaximalMode:
    def test_maximal_triangle_free_are_complete_bipartite_plus(self):
        # every maximal triangle-free graph has diameter <= 2;
        # spot-check the count is a strict subset of the full level
        f = pattern_by_name("K3")
        full = enumerate_free(6, f)
        maximal = enumerate_free(6, f, config=SearchConfig(mode=MAXIMAL_ONLY))
        assert 0 < len(maximal) < len(full)
        # K_{1,5}, K_{2,4}, K_{3,3} and C5 with one vertex doubled
        assert len(maximal) == 4
        forms = {graphs.to_graph6(g) for g in full}
        for g in maximal:
            assert graphs.to_graph6(g) in forms
            # adding any edge creates a triangle
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        from qturan.patterns import contains_subgraph

                        assert contains_subgraph(g.add_edge(u, v), f)

    def test_unrestricted_maximal_is_complete(self):
        maximal = enumerate_free(5, None, config=SearchConfig(mode=MAXIMAL_ONLY))
        assert len(maximal) == 1
        assert maximal[0].adj == graphs.complete(5).adj

    def test_equivalence_full_vs_maximal(self):
        for name in ("K3", "C4"):
            for measure in ("edges", "q"):
                assert equivalence_check(6, pattern_by_name(name), measure)


class TestExtremal:
    def test_mantel_edges(self):
        rec = extremal(5, pattern_by_name("K3"), "edges")
        assert rec.value == 6.0
        assert rec.witnesses == [graphs.canonical_form(graphs.turan(2, 5))]
        assert rec.graphs_examined > 0

    def test_q_triangle_free_is_n(self):
        # the q-extremal triangle-free graph is complete bipartite: q = n
        f = pattern_by_name("K3")
        for n in range(2, 8):
            rec = extremal(n, f, "q")
            assert rec.value == pytest.approx(n, abs=1e-8)
        rec6 = extremal(6, f, "q")
        assert graphs.canonical_form(graphs.complete_bipartite(3, 3)) in rec6.witnesses

    def test_q_star_free(self):
        # 2K_3 attains ex_q(6, K_{1,3}) = 4
        rec = extremal(6, pattern_by_name("K1_3"), "q")
        assert rec.value == pytest.approx(4.0, abs=1e-8)
        twok3 = graphs.disjoint_union([graphs.complete(3)] * 2)
        assert graphs.canonical_form(twok3) in rec.witnesses

    def test_q_k4_free(self):
        rec = extremal(8, pattern_by_name("K4"), "q")
        assert rec.value == pytest.approx(10.605551275464, abs=1e-8)
        assert graphs.canonical_form(graphs.turan(3, 8)) in rec.witnesses

    def test_lambda_matches_brute_force(self):
        from qturan import spectra

        f = pattern_by_name("C4")
        rec = extremal(6, f, "lambda")
        brute = max(spectra.dense_lambda_value(g) for g in enumerate_free(6, f))
        assert rec.value == pytest.approx(brute, abs=1e-10)

    def test_pinned_examined_counts_and_witnesses(self):
        # the CLI's graphs_examined line and the cache records depend on
        # these exact figures, so rejection changes must leave them alone
        for name, examined, witnesses in (
            ("K4", 8811, ["F]~v_"]),
            ("C5", 6171, ["F}rE?"]),
        ):
            rec = extremal(7, pattern_by_name(name), "q")
            assert rec.graphs_examined == examined
            assert rec.witnesses == witnesses

    def test_unknown_measure(self):
        with pytest.raises(SearchError):
            extremal(4, pattern_by_name("K3"), "girth")

    def test_empty_level_errors(self):
        # K_{1,2}-free graphs exist at every n (matchings), but K2-free
        # graphs on >= 2 vertices still exist (empty); use a 1-vertex
        # pattern to force an empty level instead
        from qturan.patterns import ForbiddenPattern

        f = ForbiddenPattern.from_graph(graphs.empty(1))
        with pytest.raises(SearchError):
            extremal(3, f, "edges")


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        f = pattern_by_name("K3")
        cfg = SearchConfig(cache_dir=str(tmp_path))
        rec1 = extremal(5, f, "q", cfg)
        path = tmp_path / "K3" / "q" / "n=5.json"
        assert path.exists()
        rec2 = extremal(5, f, "q", cfg)
        assert rec2.value == rec1.value
        assert rec2.witnesses == rec1.witnesses
        assert rec2.graphs_examined == rec1.graphs_examined

    def test_stale_hash_recomputed(self, tmp_path):
        f = pattern_by_name("K3")
        cfg = SearchConfig(cache_dir=str(tmp_path))
        rec1 = extremal(4, f, "edges", cfg)
        path = tmp_path / "K3" / "edges" / "n=4.json"
        blob = json.loads(path.read_text())
        blob["config_hash"] = "0" * 64
        blob["record"]["value"] = -1.0
        path.write_text(json.dumps(blob))
        rec2 = extremal(4, f, "edges", cfg)
        assert rec2.value == rec1.value  # poisoned entry was ignored

    def test_budget_excluded_from_hash(self, tmp_path):
        f = pattern_by_name("K3")
        extremal(4, f, "edges", SearchConfig(cache_dir=str(tmp_path)))
        path = tmp_path / "K3" / "edges" / "n=4.json"
        blob = json.loads(path.read_text())
        blob["record"]["graphs_examined"] = -1  # marks a record served from disk
        path.write_text(json.dumps(blob))
        cfg = SearchConfig(cache_dir=str(tmp_path), budget=10**5)
        assert extremal(4, f, "edges", cfg).graphs_examined == -1

    def test_modes_keep_separate_records(self, tmp_path):
        # alternating all and maximal mode must not evict each other's record
        f = pattern_by_name("K3")
        all_cfg = SearchConfig(cache_dir=str(tmp_path))
        maximal_cfg = SearchConfig(cache_dir=str(tmp_path), mode=MAXIMAL_ONLY)
        extremal(5, f, "q", all_cfg)
        extremal(5, f, "q", maximal_cfg)
        folder = tmp_path / "K3" / "q"
        assert len(list(folder.iterdir())) == 2
        for path in folder.iterdir():
            blob = json.loads(path.read_text())
            blob["record"]["graphs_examined"] = -1  # marks a record served from disk
            path.write_text(json.dumps(blob))
        assert extremal(5, f, "q", all_cfg).graphs_examined == -1
        assert extremal(5, f, "q", maximal_cfg).graphs_examined == -1

    def test_graph6_fallback_dir_for_unnamed_pattern(self, tmp_path):
        from qturan.patterns import ForbiddenPattern

        f = ForbiddenPattern.from_graph(graphs.path(4))
        extremal(4, f, "edges", SearchConfig(cache_dir=str(tmp_path)))
        dirs = [p.name for p in Path(tmp_path).iterdir()]
        assert len(dirs) == 1 and dirs[0].startswith("g6-")

    @pytest.mark.parametrize(
        "text",
        [
            '{"config_hash": "',  # truncated mid-write
            "",
            "[1, 2]",
            '{"record": {}}',
            None,  # the record of another hash made malformed, see below
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, text):
        f = pattern_by_name("K3")
        cfg = SearchConfig(cache_dir=str(tmp_path))
        rec1 = extremal(4, f, "edges", cfg)
        path = tmp_path / "K3" / "edges" / "n=4.json"
        if text is None:
            blob = json.loads(path.read_text())
            blob["record"]["witnesses"] = "not a list"
            text = json.dumps(blob)
        path.write_text(text)
        rec2 = extremal(4, f, "edges", cfg)
        assert rec2.value == rec1.value
        assert rec2.witnesses == rec1.witnesses
        # the entry was rewritten and now serves hits
        assert json.loads(path.read_text())["record"]["witnesses"] == rec1.witnesses

    def test_corrupt_entry_cli_exits_ok(self, tmp_path, capsys):
        from qturan import cli

        argv = [
            "extremal", "--pattern", "K3", "--n", "4",
            "--measure", "edges", "--cache-dir", str(tmp_path),
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        path = tmp_path / "K3" / "edges" / "n=4.json"
        path.write_text(path.read_text()[:20])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        json.loads(path.read_text())

    def test_write_is_atomic_and_leaves_no_temporary(self, tmp_path):
        f = pattern_by_name("K3")
        cfg = SearchConfig(cache_dir=str(tmp_path))
        rec1 = extremal(5, f, "q", cfg)
        folder = tmp_path / "K3" / "q"
        assert [p.name for p in folder.iterdir()] == ["n=5.json"]
        blob = json.loads((folder / "n=5.json").read_text())
        assert blob["record"] == asdict(rec1)
        rec2 = extremal(5, f, "q", cfg)
        assert rec2 == rec1  # served from the record, wall clock included
        assert [p.name for p in folder.iterdir()] == ["n=5.json"]

    def test_failed_write_keeps_the_old_record(self, tmp_path, monkeypatch):
        f = pattern_by_name("K3")
        rec = extremal(4, f, "edges", SearchConfig(cache_dir=str(tmp_path)))
        path = tmp_path / "K3" / "edges" / "n=4.json"
        before = path.read_text()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(search.os, "replace", fail)
        with pytest.raises(OSError):
            search._write_cached(path, "0" * 64, rec)
        assert path.read_text() == before
        assert [p.name for p in path.parent.iterdir()] == ["n=4.json"]
