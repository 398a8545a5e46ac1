"""One rep of one workload in a fresh interpreter; prints one JSON line.

Usage (normally spawned by ``run.py`` with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD SEED TMPDIR SPAWN_T TRACE [--setup-only]

SPAWN_T is the parent's CLOCK_MONOTONIC reading just before it started this
process; the clock is system-wide on Linux, so ``setup_s`` here spans the
interpreter start, the qturan import and the workload's setup.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
import traceback

import numpy as np

from spans import Tracer
from workloads import THREADS, WORKLOADS, k4_cache_writes

CAL_BLOCK = 3  # calibration loops just before and just after the timed body
_CAL_MATRIX = np.array(
    [[float(i != j and (i * 7 + j * 3) % 5 < 2) for j in range(10)] for i in range(10)]
)
_CAL_MATRIX = np.maximum(_CAL_MATRIX, _CAL_MATRIX.T)


def monotonic() -> float:
    """CLOCK_MONOTONIC, which Linux shares across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cal_loop() -> None:
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    seen = {}
    for i in range(2_500):
        rows = tuple((i * j * 2654435761) & 0xFF for j in range(7))
        key = min(rows[j:] + rows[:j] for j in range(7))
        seen[key] = seen.get(key, 0) + 1
    x = np.ones(len(_CAL_MATRIX))
    for _ in range(800):
        y = _CAL_MATRIX @ x
        x = y / np.linalg.norm(y)


def calibrate(threads: int = 1) -> float:
    """Seconds per copy of a fixed loop, ``threads`` copies run at once.

    The loop mixes work like qturan's inner loops: integer bit operations,
    tuple and dict churn, and small matrix-vector products.  It uses nothing
    from qturan, so only the host moves it.  Run on as many threads as the
    body, it meets the same contention for the GIL and for the cores.
    """
    t0 = time.perf_counter()
    if threads == 1:
        _cal_loop()
    else:
        pool = [threading.Thread(target=_cal_loop) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    return (time.perf_counter() - t0) / threads


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of any child it waited for (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _count_true(extra, result, elapsed):
    extra["calls_true"] = extra.get("calls_true", 0) + bool(result)


def _children_hook(extra, result, elapsed):
    extra.setdefault("durations", []).append(elapsed)
    try:
        accepted, examined = result
        extra["accepted"] = extra.get("accepted", 0) + len(accepted)
        extra["examined"] = extra.get("examined", 0) + int(examined)
    except (TypeError, ValueError):
        pass


def _radius_hook(extra, result, elapsed):
    extra["iterations"] = extra.get("iterations", 0) + int(getattr(result, "iterations", 0))
    extra["dense"] = extra.get("dense", 0) + (getattr(result, "method", None) == "dense")


# (layer, target, hook); several targets may feed one layer.
TARGETS = (
    ("patterns.match", "qturan.patterns:contains_subgraph", _count_true),
    ("kernels.subgraph_search", "qturan._kernels:subgraph_search", None),
    ("graphs.canon", "qturan.graphs:_canonical", None),
    ("graphs.validate", "qturan.graphs:Graph.__post_init__", None),
    ("graphs.to_graph6", "qturan.graphs:to_graph6", None),
    ("graphs.from_graph6", "qturan.graphs:from_graph6", None),
    ("search.augment", "qturan.search:_extend", None),
    ("search.children", "qturan.search:_children", _children_hook),
    ("search.extremal", "qturan.search:extremal", None),
    ("kernels.power_iteration", "qturan._kernels:power_iteration", None),
    ("spectra.radius", "qturan.spectra:spectral_radius", _radius_hook),
    ("spectra.dense_eval", "qturan.spectra:dense_q_value", None),
    ("spectra.dense_eval", "qturan.spectra:dense_lambda_value", None),
    ("verify.check", "qturan.verify:check_vertex_deletion", None),
    ("verify.check", "qturan.verify:check_lemma22", None),
    ("verify.check", "qturan.verify:check_bound_chain", None),
)

# Layers reported with calls, self and busy time; search.extremal is traced
# only to count cache lookups.
TIMED_LAYERS = tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS if layer != "search.extremal")
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer: Tracer, state: dict, canon_info) -> dict:
    layers = tracer.layers()
    empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "extra": {}}
    m = {}
    for name in TIMED_LAYERS:
        agg = layers.get(name, empty)
        m[f"{name}.calls"] = agg["calls"]
        m[f"{name}.self_s"] = agg["self_s"]
        m[f"{name}.busy_s"] = agg["busy_s"]
    match = layers.get("patterns.match", empty)
    m["patterns.match.reject_ratio"] = _ratio(
        match["extra"].get("calls_true", 0), match["calls"]
    )
    if canon_info is not None:
        lookups = canon_info.hits + canon_info.misses
        m["graphs.canon.lru_hit_ratio"] = _ratio(canon_info.hits, lookups)
        m["graphs.canon.lru_entries"] = canon_info.currsize
    else:
        m["graphs.canon.lru_hit_ratio"] = 0.0
        m["graphs.canon.lru_entries"] = 0
    children = layers.get("search.children", empty)["extra"]
    durations = sorted(children.get("durations", []))
    if durations:
        cuts = statistics.quantiles(durations, n=100, method="inclusive")
        m["search.children.p50_ms"] = cuts[49] * 1e3
        m["search.children.p99_ms"] = cuts[98] * 1e3
    else:
        m["search.children.p50_ms"] = m["search.children.p99_ms"] = 0.0
    m["search.accept_ratio"] = _ratio(
        children.get("accepted", 0), layers.get("search.augment", empty)["calls"]
    )
    m["search.pool.wait_s"] = tracer.worker_wait_s()
    if "warm_files" in state:
        written, nbytes = k4_cache_writes(state)
        calls = layers.get("search.extremal", empty)["calls"]
        m["search.cache.hits"] = calls - written
        m["search.cache.misses"] = written
        m["search.cache.bytes_written"] = nbytes
    else:
        m["search.cache.hits"] = m["search.cache.misses"] = 0
        m["search.cache.bytes_written"] = 0
    radius = layers.get("spectra.radius", empty)
    m["spectra.radius.power_iters"] = radius["extra"].get("iterations", 0)
    m["spectra.radius.dense_fallback_ratio"] = _ratio(
        radius["extra"].get("dense", 0), radius["calls"]
    )
    return m


def main(argv) -> int:
    workload, seed, tmp, spawn_t, trace = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    setup, body, check = WORKLOADS[workload]
    threads = THREADS.get(workload, 1)
    from qturan import graphs

    state = setup(int(seed), tmp)
    out = {"setup_s": monotonic() - float(spawn_t), "problems": []}
    out["cal_s"] = [calibrate(threads) for _ in range(CAL_BLOCK)]
    if setup_only:
        print(json.dumps(out))
        return 0
    tracer = None
    if trace == "1":
        tracer = Tracer()
        for layer, target, hook in TARGETS:
            tracer.install(layer, target, hook)
    t0 = monotonic()
    c0 = time.process_time()
    error = None
    try:
        body(state)
    except Exception:  # the rep is counted as failed, the run goes on
        error = traceback.format_exc()
    wall = monotonic() - t0
    cpu = time.process_time() - c0
    out["cal_s"] += [calibrate(threads) for _ in range(CAL_BLOCK)]
    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_mb())
    if "warm_s" in state:
        out["warm_s"] = state["warm_s"]
    if tracer is not None:
        tracer.uninstall()
        canon = getattr(graphs, "_canonical", None)
        info = canon.cache_info() if hasattr(canon, "cache_info") else None
        out["layers"] = _layer_metrics(tracer, state, info) if error is None else {}
        out["absent"] = tracer.absent
    if error is None:
        try:
            out["problems"] = check(state)
        except Exception:
            out["problems"] = [traceback.format_exc()]
    else:
        out["problems"] = [error]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
