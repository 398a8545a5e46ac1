import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from qturan import cli, graphs, patterns, search, spectra, verify
from qturan.patterns import PATTERN_NAMES, pattern_by_name
from qturan.search import (
    ALL_GRAPHS,
    MAXIMAL_ONLY,
    MEASURES,
    VALUE_TOL,
    BudgetExceededError,
    SearchConfig,
    SearchError,
    enumerate_free,
    equivalence_check,
    extremal,
    extremal_records,
)
from tests.conftest import (
    all_labeled_graphs,
    canonical_graph,
    classes_naive,
    contains_subgraph_naive,
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
        # automorphisms would show here.  Level 7 is dealt over processes
        # where there are two CPUs, and a forked worker's calls never reach
        # this counter, so the count is taken on one process
        search.clear_caches()
        calls = []
        real = graphs._canonical

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(graphs, "_canonical", counting)
        monkeypatch.setattr(search, "_workers", lambda candidates: 1)
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
        # _children labels the ties and _level the children it left
        # unlabelled.  The stored automorphisms are automorphisms of the
        # parent's rows and cut its masks to one per orbit of Aut(P), so
        # while _level stores a level each class is labelled once from its
        # parent; without them the twin-normal masks of one orbit are all
        # labelled, and the same classes are stored
        real_canonical = graphs._canonical
        real_children = search._children
        # per parent: its labellings, and the canonical rows it accepted
        per_parent = []

        def canonical(n, adj):
            out = real_canonical(n, adj)
            per_parent[-1][0].append(out[0])
            return out

        def children(parent, f, autos, least=0):
            per_parent.append(([], []))
            accepted, examined = real_children(parent, f, autos, least)
            per_parent[-1][1].extend(
                rows if a is not None else real_canonical(parent.n + 1, rows)[0]
                for rows, a in accepted
            )
            return accepted, examined

        for f in (None, pattern_by_name("C4")):
            enumerate_free(7, f)
            pk = search._pattern_key(f)
            for n in range(2, 8):
                reps, autos = search._LEVELS.pop((pk, n))
                parents, parent_autos = search._LEVELS[(pk, n - 1)]
                for parent, stored in zip(parents, parent_autos):
                    for a in stored:
                        assert parent.relabel(list(a)).adj == parent.adj
                for stored in (parent_autos, ((),) * len(parents)):
                    search._LEVELS[(pk, n - 1)] = (parents, stored)
                    per_parent.clear()
                    with monkeypatch.context() as m:
                        m.setattr(graphs, "_canonical", canonical)
                        m.setattr(search, "_children", children)
                        # a forked worker's calls never reach these wrappers
                        m.setattr(search, "_workers", lambda candidates: 1)
                        rebuilt = search._level(f, n)
                    del search._LEVELS[(pk, n)]
                    assert [g.adj for g in rebuilt] == [g.adj for g in reps]
                    if stored is parent_autos:
                        for labelled, accepted in per_parent:
                            assert all(labelled.count(rows) == 1 for rows in accepted)
                search._LEVELS[(pk, n - 1)] = (parents, parent_autos)
                search._LEVELS[(pk, n)] = (reps, autos)


class TestDealing:
    """A level's parents are dealt over forked processes (search._deal);
    what comes back must not depend on how many."""

    def test_stored_levels_do_not_depend_on_the_worker_count(self, monkeypatch):
        for name in (None, "K4", "C5"):
            f = None if name is None else pattern_by_name(name)
            built = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(search, "_workers", lambda c, w=workers: w)
                search.clear_caches()
                enumerate_free(8, f)
                pk = search._pattern_key(f)
                # (representatives, automorphisms) of each level
                built.append([search._LEVELS[(pk, k)] for k in range(1, 9)])
            assert built[1] == built[0] and built[2] == built[0], name
        search.clear_caches()

    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch):
        # K2_3 and K1_3 (chi = 2) have no incumbent, so their top level
        # is not bounded; maximal mode costs most at n = 8, so it runs at 7
        for name, n, modes in (
            ("K4", 8, (ALL_GRAPHS,)),
            ("C5", 8, (ALL_GRAPHS,)),
            ("K4", 7, (MAXIMAL_ONLY,)),
            ("K2_3", 7, (ALL_GRAPHS, MAXIMAL_ONLY)),
            ("K1_3", 7, (ALL_GRAPHS, MAXIMAL_ONLY)),
        ):
            f = pattern_by_name(name)
            got = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(search, "_workers", lambda c, w=workers: w)
                for mode in modes:
                    search.clear_caches()
                    config = SearchConfig(mode=mode)
                    records = list(extremal_records(f, range(1, n + 1), MEASURES, config))
                    # the unstored top level n, in parent order
                    top = [g.adj for g in search._classes(f, n)]
                    got.append((workers, mode, records, top))
            for workers, mode, records, top in got[len(modes):]:
                _, _, expected, expected_top = got[modes.index(mode)]
                assert records == expected, (name, workers, mode)
                assert top == expected_top, (name, workers, mode)
        search.clear_caches()

    def test_deal_keeps_item_order(self):
        items = list(range(11))
        for workers in (1, 2, 3, 12):
            got = search._deal(lambda x: x * x, items, workers)
            assert got == [x * x for x in items], workers

    def test_share_is_worked_in_a_child(self):
        pids = search._deal(lambda x: os.getpid(), [0, 1, 2, 3], 2)
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] == pids[3] != os.getpid()

    def test_failing_worker_raises_here(self, monkeypatch):
        here = os.getpid()
        real = search._children

        def children(parent, f, autos, least=0):
            if os.getpid() != here:
                raise ValueError("boom in a worker")
            return real(parent, f, autos, least)

        monkeypatch.setattr(search, "_children", children)
        monkeypatch.setattr(search, "_workers", lambda candidates: 2)
        search.clear_caches()
        with pytest.raises(RuntimeError, match="boom in a worker"):
            enumerate_free(5)
        # level 2 has one parent, which this process extends; level 3 is
        # the first whose worker has a parent, and it is not stored
        assert sorted(n for _, n in search._LEVELS) == [1, 2]
        search.clear_caches()

    def test_worker_that_dies_raises_here(self):
        here = os.getpid()

        def work(x):
            if os.getpid() != here:
                os._exit(3)
            return x

        with pytest.raises(RuntimeError, match="died without a result"):
            search._deal(work, [0, 1], 2)

    def test_worker_count(self, monkeypatch):
        cost = search.PARALLEL_COST
        cpus = len(os.sched_getaffinity(0))
        assert search._workers(0) == 1
        assert search._workers(2 * cost - 1) == 1
        assert search._workers(2 * cost) == min(2, cpus)
        assert search._workers(1000 * cost) == cpus
        # all graphs on 7 vertices deal level 7 (156 parents, 9984
        # candidates) where two CPUs are allowed; the K4 table's bounded
        # top level 7 (67 parents, 4288 candidates) and every level up to
        # 6 (at most 34 parents, 1088 candidates) are built in one process
        assert search._workers(156 << 6) == min(2, cpus)
        assert search._workers(67 << 6) == 1
        assert search._workers(34 << 5) == 1
        monkeypatch.delattr(os, "fork")
        assert search._workers(1000 * cost) == 1

    def test_interrupt_here_kills_the_workers(self):
        # the workers would sleep for a minute; the fixture checks that
        # none is left
        here = os.getpid()

        def work(x):
            if os.getpid() == here:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            search._deal(work, [0, 1, 2], 3)
        assert time.monotonic() - start < 30


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

    def test_equivalence_builds_the_top_level_once(self, monkeypatch):
        # one list of level 7 serves the full and the edge-maximal extremum
        f = pattern_by_name("K4")
        search.clear_caches()
        masked = _counting(
            monkeypatch, search, "_masks", lambda p, f, a, least: (p.n, p.adj)
        )
        assert equivalence_check(7, f, "q")
        parents = [p.adj for p in search._level(f, 6)]
        assert len(parents) == 120
        assert all(masked[6, adj] == 1 for adj in parents)
        assert (search._pattern_key(f), 7) not in search._LEVELS
        search.clear_caches()


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
        with pytest.raises(SearchError, match="unknown measure"):
            equivalence_check(4, pattern_by_name("K3"), "girth")

    def test_empty_level_errors(self):
        # K_{1,2}-free graphs exist at every n (matchings), but K2-free
        # graphs on >= 2 vertices still exist (empty); use a 1-vertex
        # pattern to force an empty level instead
        from qturan.patterns import ForbiddenPattern

        f = ForbiddenPattern.from_graph(graphs.empty(1))
        with pytest.raises(SearchError):
            extremal(3, f, "edges")
        with pytest.raises(SearchError, match="no .*-free graphs on 3 vertices"):
            equivalence_check(3, f, "edges")


def _labelled_record(f, n, measure, config):
    """(value, witnesses) read off the stored, fully labelled level, as
    extremal computed them before its top level went unlabelled."""
    reps = enumerate_free(n, f, config)
    if measure == "edges":
        values = [float(g.edge_count()) for g in reps]
    else:
        values = spectra.top_eigenvalues(reps, measure)
    best = max(values)
    witnesses = sorted(
        graphs.to_graph6(g) for g, v in zip(reps, values) if v >= best - VALUE_TOL
    )
    return repr(best), witnesses


def _counting(monkeypatch, module, name, key):
    """Count the calls of module.name by key(*args)."""
    calls = {}
    real = getattr(module, name)

    def counted(*args):
        k = key(*args)
        calls[k] = calls.get(k, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestTopLevel:
    """The top level of an extremal request is built unstored, and only
    its ties are labelled; the fully labelled level is the oracle."""

    CASES = [(name, n) for name in PATTERN_NAMES for n in range(1, 8)] + [
        ("K4", 8),
        ("C5", 8),
    ]

    def test_records_match_the_labelled_level(self):
        for name, n in self.CASES:
            f = pattern_by_name(name)
            key = (search._pattern_key(f), n)
            for mode in (ALL_GRAPHS, MAXIMAL_ONLY):
                config = SearchConfig(mode=mode)
                expected = [_labelled_record(f, n, m, config) for m in MEASURES]
                stored = search._LEVELS.pop(key)
                try:
                    (records,) = extremal_records(f, [n], MEASURES, config)
                    # level 1 labels nothing and is stored as it is built
                    assert (key in search._LEVELS) == (n == 1)
                finally:
                    search._LEVELS[key] = stored
                got = [(repr(r.value), r.witnesses) for r in records]
                assert got == expected, (name, n, mode)

    def test_incumbent_bounds_hold(self):
        # the top level drops the classes with fewer than _least_edges
        # edges, which is exact if (1) each bound of _EDGE_BOUNDS holds at
        # a graph's own edge count, (2) the incumbent T_r(n) is F-free and
        # (3) no witness of a record has fewer edges
        for n in range(2, 8):
            reps = enumerate_free(n)
            m = [g.edge_count() for g in reps]
            for measure in MEASURES:
                bound = search._EDGE_BOUNDS[measure]
                for g, e, v in zip(reps, m, search._values(reps, measure)):
                    assert v <= bound(n, e) + 1e-12, (measure, graphs.to_graph6(g))
        for name in PATTERN_NAMES:
            f = pattern_by_name(name)
            if f.chi < 3:
                continue
            for n in range(1, 9):
                t = graphs.turan(min(f.chi - 1, n), n)
                assert not contains_subgraph_naive(t, f.graph), (name, n)
        for name, n in self.CASES:
            f = pattern_by_name(name)
            for measure in MEASURES:
                least = search._least_edges(f, n, measure)
                _, witnesses = _labelled_record(f, n, measure, SearchConfig())
                edges = [graphs.from_graph6(w).edge_count() for w in witnesses]
                assert least <= min(edges), (name, n, measure)

    def test_table_labelling_count_pinned(self, monkeypatch, tmp_path):
        # levels 2..6 make the 168 labellings they made when every level
        # was stored, and the children near each measure's maximum at
        # n = 1..6 are labelled again, 6 more; the unstored top level 7
        # keeps only the children with at least 13 edges (_least_edges:
        # T_3(7) has 16, and Stanley's and Feng and Yu's bounds reach its
        # lambda and q from 13) and labels their ties and those near a
        # maximum, 23 labellings.  So 197 in all, against 424 when the top
        # level was not bounded and 894 when it was stored.  Every parent of
        # levels 1..5 goes through _children once (46 calls), and so do
        # the 67 parents of level 6 with at least 13 - 6 edges: 113 calls.
        # A warm table reads every record and builds nothing
        f = pattern_by_name("K4")
        patterns._plans(f.graph)  # labels K4 itself
        config = SearchConfig(cache_dir=str(tmp_path))
        for expected in (197, 0):
            search.clear_caches()
            labelled = _counting(monkeypatch, graphs, "_canonical", lambda n, adj: n)
            children = _counting(monkeypatch, search, "_children", lambda *a: None)
            table = verify.convergence_table(f, 7, config)
            assert len(table.rows) == 7 and not table.partial
            assert sum(labelled.values()) == expected
            assert sum(children.values()) == (113 if expected else 0)
            monkeypatch.undo()
        search.clear_caches()

    def test_budget_stops_every_caller_alike(self, capsys):
        # a budget that covers levels 1..k-1 and not level k stops
        # enumerate_free, extremal and the range walk under table with one
        # error; table keeps the rows before n = k, and the CLI exits 3
        f = pattern_by_name("K4")
        enumerate_free(7, f)
        spent = [0]
        for k in range(1, 8):
            spent.append(spent[-1] + search._cost(f, k))
        full_table = cli.main(["table", "--pattern", "K4", "--n-max", "7", "--no-cache"])
        assert full_table == 0
        table_lines = capsys.readouterr().out.splitlines(keepends=True)
        for k in range(1, 8):
            for budget in (spent[k - 1], spent[k] - 1):
                config = SearchConfig(budget=budget)
                errors = []
                for run in (
                    lambda: enumerate_free(7, f, config),
                    lambda: extremal(7, f, "q", config),
                    lambda: list(extremal_records(f, range(1, 8), MEASURES, config)),
                ):
                    search.clear_caches()
                    with pytest.raises(BudgetExceededError) as exc:
                        run()
                    e = exc.value
                    errors.append((str(e), e.progress, e.examined))
                message, progress, examined = errors[0]
                assert errors == [errors[0]] * 3, (k, budget)
                assert f"level {k} needs" in message
                assert list(progress) == list(range(1, k)) and examined == spent[k - 1]
                search.clear_caches()
                table = verify.convergence_table(f, 7, config)
                assert table.partial and [r.n for r in table.rows] == list(range(1, k))
                for argv, out, err in (
                    (
                        ["extremal", "--pattern", "K4", "--n", "7"],
                        f"budget exhausted: {message}\nprogress: {progress}\n",
                        "",
                    ),
                    (
                        ["table", "--pattern", "K4", "--n-max", "7"],
                        "".join(table_lines[:k]),
                        "partial: enumeration budget exhausted\n",
                    ),
                ):
                    search.clear_caches()
                    code = cli.main([*argv, "--budget", str(budget), "--no-cache"])
                    assert (code, *capsys.readouterr()) == (3, out, err), (argv, k)
        search.clear_caches()

    @pytest.mark.parametrize(
        "check, bounded",
        [
            (lambda: verify.check_monotone_sequence(pattern_by_name("K4"), 7), True),
            (lambda: verify.check_star_theorem(3, 7), False),
        ],
        ids=["monotone", "star"],
    )
    def test_no_level_is_built_twice(self, monkeypatch, check, bounded):
        # the checks walk n = 2..7 (3..7) in one range, so levels 1..6 are
        # built and stored once and the top level 7 once, unstored: each
        # parent of levels 1..6 goes through _masks and _children at most
        # once.  One extremal call per n would build each level twice, once
        # unstored.  K4's top level skips the parents of level 6 whose
        # children cannot reach T_3(7); a star has chi = 2, so no incumbent
        # bounds its top level and every parent goes through once
        search.clear_caches()
        masked = _counting(
            monkeypatch, search, "_masks", lambda p, f, a, least: (p.n, p.adj)
        )
        children = _counting(
            monkeypatch, search, "_children", lambda p, f, a, least=0: p.n
        )
        assert check().passed
        stored = {n: len(reps) for (_, n), (reps, _) in search._LEVELS.items()}
        assert sorted(stored) == [1, 2, 3, 4, 5, 6]
        assert set(masked.values()) == {1}
        parents = {}
        for n, _ in masked:
            parents[n] = parents.get(n, 0) + 1
        assert parents == children
        if bounded:
            assert all(parents[n] == stored[n] for n in range(1, 6))
            assert 0 < parents[6] < stored[6]
        else:
            assert parents == stored
        search.clear_caches()


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
