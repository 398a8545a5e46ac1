"""Command-line front end: spectrum, extremal, verify, table.

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 enumeration budget exhausted (partial output emitted and flagged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import graphs, patterns, search, spectra, verify

DEFAULT_CACHE_DIR = ".strcache"
CACHE_ENV = "QTURAN_CACHE_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# verify options that a single check reads: option -> that check
VERIFY_OWN_OPTIONS = {"pattern": "monotone", "t": "star"}
DEFAULT_STAR_T = 3


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def _search_config(args) -> search.SearchConfig:
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)
    return search.SearchConfig(
        mode=getattr(args, "mode", search.ALL_GRAPHS),
        cache_dir=cache_dir,
        budget=args.budget,
    )


# -- emitters ------------------------------------------------------------


def emit_table_csv(result: verify.TableResult) -> str:
    lines = [",".join(verify.ROW_FIELDS)]
    for row in result.rows:
        d = asdict(row)
        lines.append(",".join(_fmt(d[k]) for k in verify.ROW_FIELDS))
    return "\n".join(lines) + "\n"


def emit_table_json(result: verify.TableResult) -> str:
    return json.dumps(
        {
            "pattern": result.pattern,
            "partial": result.partial,
            "targets": result.targets,
            "rows": [asdict(r) for r in result.rows],
        },
        indent=1,
    )


def emit_record(record: search.ExtremalRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(asdict(record), indent=1)
    if fmt == "g6":
        return "\n".join(record.witnesses) + "\n"
    lines = [
        f"n {record.n}",
        f"pattern {record.pattern}",
        f"measure {record.measure}",
        f"value {_fmt(record.value)}",
        f"witnesses {' '.join(record.witnesses)}",
        f"graphs_examined {record.graphs_examined}",
    ]
    return "\n".join(lines) + "\n"


def emit_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([asdict(r) for r in reports], indent=1)
    lines = []
    for r in reports:
        lines.append(
            f"{r.status():4s} {r.check_id} {r.subject} "
            f"lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} slack={_fmt(r.slack)}"
        )
    n_fail = sum(1 for r in reports if r.passed is False)
    n_na = sum(1 for r in reports if r.passed is None)
    lines.append(f"total {len(reports)} failed {n_fail} not-applicable {n_na}")
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------


def _cmd_spectrum(args) -> int:
    g = patterns.parse_graph(args.graph)
    res = spectra.spectral_radius(g, args.kind)
    print(f"value {_fmt(res.value)}")
    print("vector " + " ".join(_fmt(v) for v in res.vector))
    print(f"residual {_fmt(res.residual)}")
    print(f"iterations {res.iterations}")
    print(f"method {res.method}")
    return EXIT_OK


def _cmd_extremal(args) -> int:
    f = patterns.parse_pattern(args.pattern)
    config = _search_config(args)
    record = search.extremal(args.n, f, args.measure, config)
    sys.stdout.write(emit_record(record, args.format))
    return EXIT_OK


def _cmd_table(args) -> int:
    f = patterns.parse_pattern(args.pattern)
    config = _search_config(args)
    result = verify.convergence_table(f, args.n_max, config)
    if args.format == "json":
        print(emit_table_json(result))
    else:
        sys.stdout.write(emit_table_csv(result))
    if result.partial:
        print("partial: enumeration budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _search_config(args)
    if args.check == "monotone":
        f = patterns.parse_pattern(args.pattern)
        reports = [verify.check_monotone_sequence(f, args.n_max, config)]
    elif args.check == "star":
        t = DEFAULT_STAR_T if args.t is None else args.t
        reports = [verify.check_star_theorem(t, args.n_max, config)]
    else:
        reports = verify.sweep_graphs(args.check, args.n_max, config)
    sys.stdout.write(emit_reports(reports, args.format))
    if any(r.passed is False for r in reports):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qturan",
        description="Signless Laplacian spectral radii and exhaustive "
        "Turan-type extremal search on small graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, pattern_required=True):
        p.add_argument(
            "--pattern",
            required=pattern_required,
            help="pattern name (K3, C5, ...) or graph6 string",
        )
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--budget", type=int, default=search.SearchConfig.budget)

    p = sub.add_parser("spectrum", help="spectral radius of one graph")
    p.add_argument("--graph", required=True, help="graph name or graph6 string")
    p.add_argument("--kind", default="q", choices=["q", "adjacency", "lambda", "a"])
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("extremal", help="ex(n,F) for one measure")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--measure", default="q", choices=list(search.MEASURES))
    p.add_argument(
        "--mode", default=search.ALL_GRAPHS, choices=[search.ALL_GRAPHS, search.MAXIMAL_ONLY]
    )
    p.add_argument("--format", default="text", choices=["text", "json", "g6"])
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run a mechanical checker")
    add_common(p, pattern_required=False)
    p.add_argument(
        "--check",
        required=True,
        choices=[*verify.GRAPH_CHECKS, "monotone", "star"],
    )
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.add_argument("--t", type=int, help="star leaf count for --check star")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="convergence table toward the densities")
    add_common(p)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--workers", type=int, default=1, help="has no effect")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_table)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify":
        if args.check == "monotone" and not args.pattern:
            ap.error("--check monotone needs --pattern")
        for option, check in VERIFY_OWN_OPTIONS.items():
            if args.check != check and getattr(args, option) is not None:
                ap.error(f"--{option} applies only to --check {check}")
    try:
        return args.func(args)
    except search.BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stdout)
        print(f"progress: {exc.progress}", file=sys.stdout)
        return EXIT_BUDGET
    except (
        patterns.UnknownPatternError,
        graphs.Graph6Error,
        graphs.GraphError,
        search.SearchError,
        spectra.SpectralError,
        verify.VerifyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
