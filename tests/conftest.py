import itertools

import pytest

from qturan import graphs


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


def min_perron_entry(result):
    return float(result.vector.min())


def eigen_equation_residual(g, result, u):
    """|(q - d(u)) x_u - sum_{j ~ u} x_j| for the reported eigenpair."""
    x = result.vector
    s = sum(x[j] for j in g.neighbors(u))
    return abs((result.value - g.degree(u)) * x[u] - s)


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
