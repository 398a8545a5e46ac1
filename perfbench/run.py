"""qturan benchmark: three fixed exhaustive-search workloads, end to end.

Run from the root of a source checkout (the directory that holds ``src``):

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload free-n7 --seed 3 --seconds 40 --trace 0

Every rep runs in a fresh interpreter (``worker.py``) with ``src`` on the
path and its own temp dir under ``.perfbench_tmp``, removed afterwards, so
no process-global cache of qturan carries over from one rep to the next.

``--trace 0`` runs a few set-up-only reps, then full reps until the next
would overrun ``--seconds``, and reports the median ``wall_s``, ``setup_s``
and ``peak_rss_mb``.  Each rep also times a fixed loop (``worker.calibrate``)
a few times just before and just after its timed body, in the same process
and on as many threads as the body runs qturan on.  The two times ``wall_s`` and ``setup_s`` are given in reference seconds:
each rep's measured seconds times ``CAL_REF_S`` over the median of that
rep's loop times.  On a shared host whose speed drifts by a third within
minutes this cancels most of the drift; a change to qturan cannot move the
loop.  The measured (unscaled) medians are printed beside them under
``stats``.

``--trace 1`` runs one untraced and one traced rep and reports the
per-layer metrics of the traced one, plus ``trace.overhead_frac`` = traced
wall / untraced wall - 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A rep whose output differs from
the references in ``workloads.py``, or that raises, counts as failed; the
error rate is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import TIMED_LAYERS, monotonic
from workloads import PLAN, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4
CAL_REF_S = 0.035  # one calibration loop on the reference host
RUN_LIMIT_S = 170.0  # every run must exit within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit, better) of every metric a traced run reports.
PER_LAYER = tuple(
    spec
    for layer in TIMED_LAYERS
    for spec in (
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.busy_s", "s", "lower"),
    )
) + (
    ("patterns.match.reject_ratio", "fraction", "higher"),
    ("graphs.canon.lru_hit_ratio", "fraction", "higher"),
    ("graphs.canon.lru_entries", "count", "lower"),
    ("search.children.p50_ms", "ms", "lower"),
    ("search.children.p99_ms", "ms", "lower"),
    ("search.accept_ratio", "fraction", "higher"),
    ("search.pool.cpu_per_wall", "ratio", "higher"),
    ("search.pool.wait_s", "s", "lower"),
    ("search.cache.hits", "count", "higher"),
    ("search.cache.misses", "count", "lower"),
    ("search.cache.warm_s", "s", "lower"),
    ("search.cache.bytes_written", "B", "lower"),
    ("spectra.radius.power_iters", "count", "lower"),
    ("spectra.radius.dense_fallback_ratio", "fraction", "lower"),
    ("trace.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
    }


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tmp_base = root / ".perfbench_tmp"
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["PYTHONHASHSEED"] = "0"
        self.calibration_s = []

    def rep(self, trace: int, setup_only: bool = False) -> dict:
        """One fresh-interpreter rep; {"problems": [...]} non-empty on failure."""
        self.tmp_base.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=self.workload + "-", dir=self.tmp_base)
        try:
            argv = [sys.executable, str(WORKER), self.workload, str(self.seed), tmp]
            argv += [repr(monotonic()), str(trace)]
            if setup_only:
                argv.append("--setup-only")
            try:
                proc = subprocess.run(
                    argv,
                    cwd=self.root,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=max(1.0, self.deadline - monotonic()),
                )
            except subprocess.TimeoutExpired:
                return {"problems": ["rep timed out"]}
            lines = proc.stdout.strip().splitlines()
            try:
                out = json.loads(lines[-1])
            except (IndexError, ValueError):
                out = None
            if proc.returncode != 0 or not isinstance(out, dict):
                tail = proc.stderr.strip().splitlines()[-5:]
                return {"problems": [f"worker exit {proc.returncode}: {tail}"]}
            self.calibration_s.extend(out["cal_s"])
            return out
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def cleanup(self):
        try:
            self.tmp_base.rmdir()
        except OSError:
            pass


def _summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_untraced(runner: Runner, seconds: float):
    start = monotonic()
    reps = []
    longest = 0.0
    while True:
        setup_only = len(reps) < SETUP_PROBES
        t0 = monotonic()
        reps.append(runner.rep(0, setup_only=setup_only))
        if setup_only:
            continue
        longest = max(longest, monotonic() - t0)
        now = monotonic()
        if now - start + longest > seconds or now + longest > runner.deadline:
            break
    ok = [(r, CAL_REF_S / statistics.median(r["cal_s"])) for r in reps if not r["problems"]]
    measured = [(r, k) for r, k in ok if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] * k for r, k in measured],
        "setup_s": [r["setup_s"] * k for r, k in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in measured],
        "measured_wall_s": [r["wall_s"] for r, _ in measured],
        "measured_setup_s": [r["setup_s"] for r, _ in ok],
    }
    if measured and "warm_s" in measured[0][0]:
        samples["warm_s"] = [r["warm_s"] for r, _ in measured]
    stats = {k: _summary(v) for k, v in samples.items() if v}
    metrics = {  # a metric with no sample reads 0; the run is then incorrect
        name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
        for name, unit in END_TO_END
    }
    return reps, metrics, stats


def run_traced(runner: Runner):
    plain = runner.rep(0)
    traced = runner.rep(1)
    layers = dict(traced.get("layers", {}))
    if not plain["problems"]:
        layers["search.pool.cpu_per_wall"] = plain["cpu_s"] / plain["wall_s"]
        layers["search.cache.warm_s"] = plain.get("warm_s", 0.0)
    if not (plain["problems"] or traced["problems"]):
        layers["trace.cpu_s"] = traced["cpu_s"]
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics = {
        name: {"value": layers.get(name, 0), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    stats = {"absent_targets": traced.get("absent", [])}
    return [plain, traced], metrics, stats


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int):
    runner = Runner(root, workload, seed, monotonic() + RUN_LIMIT_S)
    try:
        if trace:
            reps, metrics, stats = run_traced(runner)
        else:
            reps, metrics, stats = run_untraced(runner, seconds)
    finally:
        runner.cleanup()
    failed = [r for r in reps if r["problems"]]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "plan": PLAN[workload],
        "environment": _environment(root),
        "calibration_s": _summary(runner.calibration_s) if runner.calibration_s else None,
        "calibration_ref_s": CAL_REF_S,
        "stats": stats,
        "error_rate": {"value": len(failed) / len(reps), "unit": "fraction"},
        "problems": [p for r in failed for p in r["problems"]],
    }
    print(json.dumps(report, indent=1))
    for name, m in metrics.items():
        print(f"{workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} {'error_rate':40s} {report['error_rate']['value']:.6g} fraction")
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qturan" / "__init__.py").is_file():
        print(f"error: no qturan source under {root / 'src'}; run from the "
              "root of a qturan checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(root, name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
