"""The three fixed workloads: inputs, timed bodies, reference checks, plan.

Each workload has a ``setup`` (run before the clock starts: inputs, the
pattern, the cache dir), a ``body`` (the timed call into qturan's public
entry points) and a ``check`` (run after the clock stops, and after tracing
is removed) that compares the output with references hard-coded here.
The seed reaches only the random hosts of ``sweep-n6``; the other two
workloads do the same work on every seed.  qturan is imported inside the
functions because ``run.py`` imports this module without ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from pathlib import Path

# Class counts per level of all graphs on n = 1..7 vertices (OEIS A000088).
FREE_N7_LEVELS = (1, 2, 4, 11, 34, 156, 1044)
# SHA-256 of the sorted graph6 strings of the 1044 classes at n = 7,
# joined by "\n".
FREE_N7_SHA256 = "8b8020d08cb87726eefd90728494fa1a0b91e0348df1c61f5705b1a68fb1bf1e"
# SHA-256 of the stdout of `qturan table --pattern K4 --n-max 7`: the
# `--n-max 8` table (SHA-256 39911b857f3d9826...) without its n = 8 row.
K4_TABLE_SHA256 = "793497207419da0e56d32c23d066feb8e9c3be0f8f7212a85a9abdee74abd231"
K4_TABLE_RECORDS = 21  # n = 1..7 times the measures edges, lambda, q
K4_WORKERS = 2
SWEEP_N_MAX = 6
RANDOM_HOSTS_PER_N = 100
RANDOM_HOST_SIZES = range(8, 13)
SWEEP_REPORTS = 994  # 494 from the classes with n <= 6, 500 from hosts
# Applicable reports per lemma over the classes with n <= 6.
SWEEP_MIN_APPLICABLE = {"vertex_deletion": 142, "lemma22": 143}

PLAN = {
    "free-n7": {
        "why": (
            "All 1044 graphs on 7 vertices with no pattern: canonical "
            "labelling, augmentation, Graph validation and the graph6 "
            "round-trip do all the work, and the matcher and spectra none. "
            "It has the largest class count, so it sets the memory baseline."
        ),
        "moves": [
            "graphs.canon.*",
            "graphs.validate.*",
            "graphs.to_graph6.*",
            "graphs.from_graph6.*",
            "search.augment.*",
            "search.children.*",
            "search.accept_ratio",
        ],
        "bypass": [
            "patterns.match.*",
            "kernels.subgraph_search.*",
            "kernels.power_iteration.*",
            "spectra.*",
            "search.pool.*",
            "search.cache.*",
        ],
    },
    "k4-table-n7": {
        "why": (
            "The paper's headline table, `qturan table --pattern K4 --n-max 7 "
            "--workers 2`, run cold (21 cache records written) and then warm "
            "(21 read). Matcher and canonical labelling share the cold pass; "
            "the only workload with the thread pool and the disk cache."
        ),
        "moves": [
            "patterns.match.*",
            "kernels.subgraph_search.*",
            "graphs.canon.*",
            "search.augment.*",
            "search.children.*",
            "search.accept_ratio",
            "search.pool.*",
            "search.cache.*",
            "spectra.dense_eval.*",
        ],
        "bypass": ["kernels.power_iteration.*", "verify.check.*"],
    },
    "sweep-n6": {
        "why": (
            "The per-graph checkers of acceptance criterion 5: vertex_deletion "
            "and lemma22 over connected classes with n <= 6, bound_chain over "
            "all classes with n <= 6 and over 500 seeded G(n, 1/2) hosts, "
            "n = 8..12. Power iteration dominates, so the spectra layer is "
            "measured here and nowhere else."
        ),
        "moves": [
            "kernels.power_iteration.*",
            "spectra.radius.*",
            "verify.check.*",
            "graphs.canon.*",
        ],
        "bypass": [
            "patterns.match.*",
            "kernels.subgraph_search.*",
            "search.pool.*",
            "search.cache.*",
        ],
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- free-n7 ---------------------------------------------------------------


def free_setup(seed, tmp):
    return {}


def free_body(state):
    from qturan import search

    state["reps"] = search.enumerate_free(7)


def free_check(state):
    from qturan import graphs, search

    problems = []
    reps = state["reps"]
    levels = tuple(len(search.enumerate_free(n)) for n in range(1, 7)) + (len(reps),)
    if levels != FREE_N7_LEVELS:
        problems.append(f"class counts {levels} != {FREE_N7_LEVELS}")
    digest = _sha256("\n".join(sorted(graphs.to_graph6(g) for g in reps)))
    if digest != FREE_N7_SHA256:
        problems.append(f"n=7 graph6 digest {digest}")
    return problems


# -- k4-table-n7 -----------------------------------------------------------


def k4_setup(seed, tmp):
    from qturan import patterns

    patterns.pattern_by_name("K4")
    cache = Path(tmp) / "cache"
    cache.mkdir()
    return {"cache": cache}


def _run_cli(argv):
    from qturan import cli

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def k4_body(state):
    from qturan import search

    argv = ["table", "--pattern", "K4", "--n-max", "7", "--workers", str(K4_WORKERS),
            "--cache-dir", str(state["cache"])]
    state["cold"] = _run_cli(argv)
    state["cold_files"] = _cache_files(state["cache"])
    search.clear_caches()
    t0 = time.perf_counter()
    state["warm"] = _run_cli(argv)
    state["warm_s"] = time.perf_counter() - t0
    state["warm_files"] = _cache_files(state["cache"])


def _cache_files(cache: Path) -> dict:
    """{path: (size, mtime_ns)} of every record under the cache dir."""
    out = {}
    for p in cache.rglob("*"):
        if p.is_file():
            st = p.stat()
            out[str(p)] = (st.st_size, st.st_mtime_ns)
    return out


def k4_cache_writes(state) -> tuple:
    """(records written, bytes written) over the cold and the warm pass."""
    cold, warm = state["cold_files"], state["warm_files"]
    rewritten = [v for k, v in warm.items() if cold.get(k) != v]
    written = list(cold.values()) + rewritten
    return len(written), sum(size for size, _ in written)


def k4_check(state):
    problems = []
    (cold_code, cold_out), (warm_code, warm_out) = state["cold"], state["warm"]
    if (cold_code, warm_code) != (0, 0):
        problems.append(f"exit codes cold={cold_code} warm={warm_code}")
    if cold_out != warm_out:
        problems.append("cold and warm stdout differ")
    digest = _sha256(cold_out)
    if digest != K4_TABLE_SHA256:
        problems.append(f"table stdout digest {digest}")
    if len(state["cold_files"]) != K4_TABLE_RECORDS:
        problems.append(f"{len(state['cold_files'])} cache records written")
    return problems


# -- sweep-n6 --------------------------------------------------------------


def sweep_setup(seed, tmp):
    from qturan import graphs

    rng = random.Random(seed)
    hosts = []
    for n in RANDOM_HOST_SIZES:
        for _ in range(RANDOM_HOSTS_PER_N):
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            hosts.append(graphs.Graph(n, tuple(rows)))
    return {"hosts": hosts}


def sweep_body(state):
    from qturan import search, verify

    reports = []
    for n in range(1, SWEEP_N_MAX + 1):
        for g in search.enumerate_free(n):
            if g.is_connected():
                reports.append(verify.check_vertex_deletion(g))
                reports.append(verify.check_lemma22(g))
            reports.append(verify.check_bound_chain(g))
    for h in state["hosts"]:
        reports.append(verify.check_bound_chain(h))
    state["reports"] = reports


def sweep_check(state):
    problems = []
    reports = state["reports"]
    if len(reports) != SWEEP_REPORTS:
        problems.append(f"{len(reports)} reports != {SWEEP_REPORTS}")
    failed = [r for r in reports if r.passed is False]
    if failed:
        problems.append(f"{len(failed)} FAIL reports, first {failed[0]}")
    for check_id, least in SWEEP_MIN_APPLICABLE.items():
        applicable = sum(1 for r in reports if r.check_id == check_id and r.applicable)
        if applicable < least:
            problems.append(f"{check_id}: {applicable} applicable < {least}")
    return problems


# Threads each body runs qturan on; the calibration loop runs on as many.
THREADS = {"k4-table-n7": K4_WORKERS}

WORKLOADS = {
    "free-n7": (free_setup, free_body, free_check),
    "k4-table-n7": (k4_setup, k4_body, k4_check),
    "sweep-n6": (sweep_setup, sweep_body, sweep_check),
}
