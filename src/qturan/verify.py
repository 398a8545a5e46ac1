"""Mechanical finite-n checkers for the spectral inequalities and identities,
plus convergence tables toward the edge and q-spectral Turan densities.

Each checker returns a CheckReport; ``passed`` is None when a hypothesis
fails (disconnected input, chi(F) < 3) so gaps are surfaced rather than
silently counted as passes.  ``GRAPH_CHECKS`` names the per-graph checkers;
a sweep over all classes gives those that need a connected graph only the
connected ones.  The star check covers every n from t to its ``n_max``.

An inequality passes when it loses at most ``CHECK_TOL`` (its slack is at
least -CHECK_TOL), and every such report carries that value in ``tol``.
The star theorem asks for equality, so it uses ``spectra.VALUE_TOL``, the
window that also decides which graphs are extremal witnesses and which
component of a disconnected graph carries its Perron vector.  Spectral
values come from LAPACK, and Perron vectors (lemma22, the vertex_deletion
bound, monotone) from power iteration, which stops at ``spectra.TOL``.  A
range with nothing to check raises ``VerifyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import graphs, search, spectra
from .graphs import Graph
from .patterns import ForbiddenPattern
from .search import SearchConfig

CHECK_TOL = 1e-8


class VerifyError(ValueError):
    """A checker's parameters are out of its range."""


@dataclass
class CheckReport:
    check_id: str
    subject: str
    lhs: float
    rhs: float
    slack: float
    passed: Optional[bool]  # None = hypotheses not met (not applicable)
    tol: float

    @property
    def applicable(self) -> bool:
        return self.passed is not None

    def status(self) -> str:
        if self.passed is None:
            return "N/A"
        return "PASS" if self.passed else "FAIL"


def _not_applicable(check_id: str, subject: str) -> CheckReport:
    return CheckReport(
        check_id, subject, math.nan, math.nan, math.nan, None, CHECK_TOL
    )


def _report(check_id, subject, lhs, rhs, slack) -> CheckReport:
    """Passes iff the inequality loses at most CHECK_TOL: slack >= -CHECK_TOL."""
    return CheckReport(
        check_id, subject, lhs, rhs, slack, slack >= -CHECK_TOL, CHECK_TOL
    )


def check_vertex_deletion(h: Graph) -> CheckReport:
    """q(H-u) >= q(H)(1-2mu^2)/(1-mu^2) - (1-n mu^2)/(1-mu^2) for a vertex u
    of minimum Perron entry mu.  Needs H connected with n >= 2."""
    subject = graphs.to_graph6(h)
    if h.n < 2 or not h.is_connected():
        return _not_applicable("vertex_deletion", subject)
    res = spectra.spectral_radius(h, "q")
    mu2 = float(res.vector.min()) ** 2
    u = int(np.argmin(res.vector))
    bound = res.value * (1 - 2 * mu2) / (1 - mu2) - (1 - h.n * mu2) / (1 - mu2)
    (lhs,) = spectra.top_eigenvalues([h.delete_vertex(u)], "q")
    return _report("vertex_deletion", subject, lhs, bound, lhs - bound)


def check_lemma22(g: Graph) -> CheckReport:
    """q(G) <= delta + sqrt(delta^2 + (1/(n mu^2) - 1) n delta), where mu is
    the minimum Perron entry.  Needs G connected, so that mu > 0."""
    subject = graphs.to_graph6(g)
    if not g.is_connected():
        return _not_applicable("lemma22", subject)
    res = spectra.spectral_radius(g, "q")
    mu = float(res.vector.min())
    delta = g.min_degree()
    n = g.n
    bound = delta + math.sqrt(delta**2 + (1.0 / (n * mu * mu) - 1.0) * n * delta)
    return _report("lemma22", subject, res.value, bound, bound - res.value)


def check_bound_chain(g: Graph) -> CheckReport:
    """4e/n <= 2 lambda <= q <= min(2e/(n-1) + n - 2, max edge-degree)."""
    subject = graphs.to_graph6(g)
    if g.n < 2:
        return _not_applicable("bound_chain", subject)
    e = g.edge_count()
    lam, q = spectra.lambda_and_q(g)
    feng_yu = search._EDGE_BOUNDS["q"](g.n, e)
    degs = [g.degree(v) for v in range(g.n)]
    edge_deg = max((degs[u] + degs[v] for u, v in g.edges()), default=0)
    upper = min(feng_yu, edge_deg)
    links = [(2 * lam, 4 * e / g.n), (q, 2 * lam), (upper, q)]
    upper_v, lower_v = min(links, key=lambda ab: ab[0] - ab[1])
    return _report("bound_chain", subject, lower_v, upper_v, upper_v - lower_v)


def _least_perron_entry(rec: search.ExtremalRecord) -> float:
    """The minimum Perron entry of the first witness of a q-extremal record."""
    witness = graphs.from_graph6(rec.witnesses[0])
    return float(spectra.spectral_radius(witness, "q").vector.min())


def check_monotone_sequence(
    f: ForbiddenPattern, n_max: int, config: Optional[SearchConfig] = None
) -> CheckReport:
    """The sequence ex_q(n,F)/(n-1) is nonincreasing for chi(F) >= 3, and
    each consecutive pair satisfies the sharper instance inequality driven
    by the minimum Perron entry of the q-extremal witness."""
    if n_max < 3:
        raise VerifyError(f"monotone sequence needs n_max >= 3, got n_max={n_max}")
    subject = f"{f.label()}, n=2..{n_max}"
    if f.chi < 3:
        return _not_applicable("monotone_sequence", subject)
    config = config or SearchConfig()
    records = {
        rec.n: rec
        for (rec,) in search.extremal_records(f, range(2, n_max + 1), ("q",), config)
    }
    worst = math.inf
    lhs = rhs = math.nan
    for n in range(3, n_max + 1):
        prev_ratio = records[n - 1].value / (n - 2)
        ratio = records[n].value / (n - 1)
        mu2 = _least_perron_entry(records[n]) ** 2
        c = (1 - n * mu2) / ((n - 2) * (1 - mu2))
        for bound in (ratio, ratio * (1 + c) - c):
            slack = prev_ratio - bound
            if slack < worst:
                worst = slack
                lhs, rhs = prev_ratio, bound
    return _report("monotone_sequence", subject, lhs, rhs, worst)


def check_star_theorem(
    t: int, n_max: int, config: Optional[SearchConfig] = None
) -> CheckReport:
    """Brute-force ex_q(n, K_{1,t}) equals 2(t-1) for every n in t..n_max,
    with a disjoint union of K_t's (plus isolated vertices) among the
    witnesses."""
    if t < 2:
        raise VerifyError(f"star theorem needs t >= 2, got t={t}")
    if n_max < t:
        raise VerifyError(f"star theorem needs some n >= t={t}")
    config = config or SearchConfig()
    f = ForbiddenPattern.from_graph(graphs.star(t), name=f"K1_{t}")
    expected = 2.0 * (t - 1)
    n_range = range(t, n_max + 1)
    subject = f"K1_{t}, n in {list(n_range)}"
    worst = math.inf
    for (rec,) in search.extremal_records(f, n_range, ("q",), config):
        n = rec.n
        worst = min(worst, spectra.VALUE_TOL - abs(rec.value - expected))
        copies = n // t
        parts = [graphs.complete(t)] * copies + [graphs.empty(1)] * (n - copies * t)
        union_canon = graphs.canonical_form(graphs.disjoint_union(parts))
        if union_canon not in rec.witnesses:
            worst = -math.inf
    return CheckReport(
        "star_theorem", subject, expected, expected, worst, worst >= 0,
        spectra.VALUE_TOL,
    )


# -- sweeps --------------------------------------------------------------

# per-graph checker and whether its hypothesis needs a connected graph
_CHECKS = {
    "vertex_deletion": (check_vertex_deletion, True),
    "lemma22": (check_lemma22, True),
    "bound_chain": (check_bound_chain, False),
}

GRAPH_CHECKS = tuple(_CHECKS)


def sweep_graphs(check_id: str, n_max: int, config: Optional[SearchConfig] = None):
    """Run one per-graph checker over every isomorphism class with n <= n_max,
    or over the connected ones when its hypothesis needs connectivity."""
    if n_max < 1:
        raise VerifyError(f"sweep needs n_max >= 1, got n_max={n_max}")
    check, connected = _CHECKS[check_id]
    config = config or SearchConfig()
    reports = []
    for n in range(1, n_max + 1):
        for g in search.enumerate_free(n, None, config):
            if connected and not g.is_connected():
                continue
            reports.append(check(g))
    return reports


def sweep_random(check_id: str, n_values, per_n: int = 500):
    """A per-graph checker on per_n G(n, 1/2) graphs for each n, seeded."""
    check = _CHECKS[check_id][0]
    rng = np.random.default_rng(20240817)
    reports = []
    for n in n_values:
        for _ in range(per_n):
            reports.append(check(graphs.random_graph(n, 0.5, rng)))
    return reports


# -- convergence tables --------------------------------------------------


@dataclass
class ConvergenceRow:
    n: int
    ex_edges: float
    ex_lambda: float
    ex_q: float
    ratio_edges: float
    ratio_lambda: float
    ratio_q_n: float
    ratio_q_n1: float
    mu_sq_times_n: float


ROW_FIELDS = tuple(f.name for f in fields(ConvergenceRow))


@dataclass
class TableResult:
    pattern: str
    rows: list
    targets: dict
    partial: bool = False


def _is_star(g: Graph) -> bool:
    return g.n >= 2 and g.edge_count() == g.n - 1 and g.max_degree() == g.n - 1


def _targets_for(f: ForbiddenPattern) -> dict:
    if f.chi >= 3:
        density = 1.0 - 1.0 / (f.chi - 1)
        return {
            "ratio_edges": density,
            "ratio_lambda": density,
            "ratio_q_n": 2.0 * density,
        }
    if _is_star(f.graph):
        t = f.graph.n - 1
        return {"ex_q": 2.0 * (t - 1), "ratio_q_n": 0.0}
    return {"ratio_q_n": 1.0}


def convergence_table(
    f: ForbiddenPattern, n_max: int, config: Optional[SearchConfig] = None
) -> TableResult:
    """Per-n extremal values and density ratios; on budget exhaustion the
    partial table is returned with ``partial=True``.  The n=1 row uses 0 for
    ratios whose denominator vanishes."""
    if n_max < 1:
        raise VerifyError(f"table needs n_max >= 1, got n_max={n_max}")
    config = config or SearchConfig()
    rows = []
    partial = False
    try:
        n_range = range(1, n_max + 1)
        records = search.extremal_records(f, n_range, search.MEASURES, config)
        for rec_e, rec_l, rec_q in records:
            n = rec_q.n
            ex_e = rec_e.value
            ex_l = rec_l.value
            mu = _least_perron_entry(rec_q)
            rows.append(
                ConvergenceRow(
                    n=n,
                    ex_edges=ex_e,
                    ex_lambda=ex_l,
                    ex_q=rec_q.value,
                    ratio_edges=ex_e / (n * (n - 1) / 2) if n >= 2 else 0.0,
                    ratio_lambda=ex_l / n,
                    ratio_q_n=rec_q.value / n,
                    ratio_q_n1=rec_q.value / (n - 1) if n >= 2 else 0.0,
                    mu_sq_times_n=n * mu * mu,
                )
            )
    except search.BudgetExceededError:
        partial = True
    return TableResult(
        pattern=f.label(), rows=rows, targets=_targets_for(f), partial=partial
    )
