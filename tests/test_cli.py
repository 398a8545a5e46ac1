import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qturan import cli, graphs, patterns, search
from tests.conftest import reference_top_eigenvalue

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# perfbench's workloads and their references; it imports qturan only inside
# its functions, so it loads by path without src on it
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# SHA-256 of the stdout of `table --pattern K4 --n-max 7`
K4_TABLE_SHA256 = "793497207419da0e56d32c23d066feb8e9c3be0f8f7212a85a9abdee74abd231"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_named_graph(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph", "K4")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["value"]) == pytest.approx(6.0, abs=1e-9)
        assert len(lines["vector"].split()) == 4

    def test_graph6_input(self, capsys):
        g6 = graphs.to_graph6(graphs.cycle(5))
        code, out, _ = run(capsys, "spectrum", "--graph", g6, "--kind", "lambda")
        assert code == 0
        assert "value 2" in out

    def test_long_form_graph6_input(self, capsys):
        # T_3(90) needs the four-byte graph6 header; q(T_3(n)) = 4n/3
        g6 = graphs.to_graph6(graphs.turan(3, 90))
        code, out, _ = run(capsys, "spectrum", "--graph", g6)
        assert code == 0
        assert out.splitlines()[0] == "value 120"

    def test_unknown_graph_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "K99_junk")
        assert code == 2
        assert "error:" in err

    def test_graph6_builds_no_pattern(self, capsys, monkeypatch):
        # spectrum reads only the graph; a ForbiddenPattern would also
        # colour and canonically label it, which takes seconds at n = 60
        def refuse(g):
            raise AssertionError("spectrum computed a chromatic number")

        monkeypatch.setattr(patterns, "chromatic_number", refuse)
        g = graphs.random_graph(60, 0.5, np.random.default_rng(60))
        code, out, _ = run(capsys, "spectrum", "--graph", graphs.to_graph6(g))
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        expected = reference_top_eigenvalue(g, "q")
        assert value == pytest.approx(expected, abs=1e-9)


class TestExtremal:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "5",
            "--measure", "edges", "--no-cache",
        )
        assert code == 0
        assert "value 6" in out
        assert graphs.canonical_form(graphs.turan(2, 5)) in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "6",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["measure"] == "q"
        assert blob["value"] == pytest.approx(6.0, abs=1e-8)

    def test_json_output_is_deterministic(self, capsys):
        # records carry no wall clock, so two runs print the same bytes
        argv = (
            "extremal", "--pattern", "K3", "--n", "6",
            "--format", "json", "--no-cache",
        )
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first

    def test_g6_output(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "4",
            "--measure", "edges", "--format", "g6", "--no-cache",
        )
        assert code == 0
        assert out.strip() == graphs.canonical_form(graphs.turan(2, 4))

    def test_pattern_g6(self, capsys):
        g6 = graphs.to_graph6(graphs.complete(3))
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", g6, "--n", "5",
            "--measure", "edges", "--no-cache",
        )
        assert code == 0
        assert "value 6" in out

    def test_missing_pattern(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "extremal", "--n", "5", "--no-cache")
        assert exc.value.code == 2

    def test_cache_dir_written(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "4",
            "--measure", "edges", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "K3" / "edges" / "n=4.json").exists()

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        code, _, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "4", "--measure", "edges",
        )
        assert code == 0
        assert (tmp_path / "K3" / "edges" / "n=4.json").exists()

    def test_budget_exit_code(self, capsys):
        search.clear_caches()
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "8",
            "--budget", "50", "--no-cache",
        )
        assert code == 3
        assert "budget exhausted" in out
        # the budget counts parent x mask candidates, not graphs built
        assert "candidates" in out
        assert "progress" in out
        search.clear_caches()

    def test_cap_exceeded_usage_error(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--pattern", "K3", "--n", "13", "--no-cache"
        )
        assert code == 2
        assert "error: n=13 exceeds the cap of 12" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_usage_error(self, capsys, n):
        code, _, err = run(
            capsys, "extremal", "--pattern", "K3", "--n", n, "--no-cache"
        )
        assert code == 2
        assert f"error: n={n} is below 1" in err

    def test_negative_budget_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "4",
            "--budget", "-5", "--no-cache",
        )
        assert code == 2
        assert out == ""
        assert "error: budget -5 is below 0" in err

    def test_negative_budget_rejected_on_a_cache_hit(self, capsys, tmp_path):
        argv = ["extremal", "--pattern", "K3", "--n", "4", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--budget", "-1")
        assert code == 2
        assert "error: budget -1 is below 0" in err

    def test_zero_budget_is_exhausted(self, capsys):
        search.clear_caches()
        code, out, _ = run(
            capsys,
            "extremal", "--pattern", "K3", "--n", "4",
            "--budget", "0", "--no-cache",
        )
        assert code == 3
        assert (
            "budget exhausted: examined 0 candidates, level 1 needs 1 more, budget 0"
            in out
        )
        search.clear_caches()

    def test_unwritable_cache_dir_does_not_fail(self, capsys, tmp_path):
        # the cache directory is a regular file, so the record cannot be
        # written; the run prints what an uncached run prints and exits 0
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["extremal", "--pattern", "K3", "--n", "3"]
        code, out, err = run(capsys, *argv, "--cache-dir", str(blocker))
        assert code == 0
        assert err == ""
        assert (code, out) == run(capsys, *argv, "--no-cache")[:2]
        assert blocker.read_text() == ""


class TestVerify:
    def test_bound_chain_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--check", "bound_chain", "--n-max", "5", "--no-cache",
        )
        assert code == 0
        assert "failed 0" in out

    # SHA-256 of `verify --check <check> --n-max 6` stdout
    SWEEP_SHA256 = {
        "bound_chain": "aa3b52b88e34a160d96cdb84075a2e663876d2f451384f09991bc3611c99d985",
        "vertex_deletion": "4b07d6846bf6f5575a26ce3da84ec76d670d7e049f7e3155ff493c7270f9cf91",
        "lemma22": "d29561f4a39517152ff35f742a360b65003184d2e14fedabd48a4deaae2ececa",
    }

    @pytest.mark.parametrize("check", list(SWEEP_SHA256))
    def test_check_bytes_pinned(self, capsys, check):
        # the slacks sit at the last bits of the spectral values: LAPACK's
        # for bound_chain and the q(H - u) side of vertex_deletion, power
        # iteration's sums for lemma22 and the vertex_deletion bound, so
        # reordering those sums (e.g. x @ y for the Rayleigh quotient) shows
        # here even where the K4 table's 12 digits do not move
        code, out, _ = run(
            capsys, "verify", "--check", check, "--n-max", "6", "--no-cache"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEP_SHA256[check]

    # SHA-256 of the stdout of the two checks that solve extremal problems
    SEARCH_CHECK_SHA256 = {
        "verify --check star --t 3 --n-max 7": (
            "57aae567ed763e29491b55e291855008b823ae03c1a5cf738c41129928e62dee"
        ),
        "verify --check monotone --pattern K4 --n-max 7": (
            "59532c4292f631e567fd7d57a906a6f0c3059f5cd89d7525c0081608d2694f47"
        ),
    }

    @pytest.mark.parametrize("argv", list(SEARCH_CHECK_SHA256))
    def test_search_check_bytes_pinned(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split(), "--no-cache")
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == self.SEARCH_CHECK_SHA256[argv]
        )

    def test_monotone_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--check", "monotone", "--pattern", "K3",
            "--n-max", "6", "--format", "json", "--no-cache",
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["check_id"] == "monotone_sequence"
        assert reports[0]["passed"] is True
        # the reported tolerance is the one the pass gate applies
        assert reports[0]["tol"] == 1e-8

    def test_star_check(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--check", "star", "--t", "2", "--n-max", "5", "--no-cache",
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "verify --check star --t 0 --n-max 3",
                "star theorem needs t >= 2, got t=0",
            ),
            (
                "verify --check star --t 5 --n-max 3",
                "star theorem needs some n >= t=5",
            ),
            ("table --pattern K4 --n-max 0", "table needs n_max >= 1, got n_max=0"),
            ("verify --check bound_chain --n-max 0", "sweep needs n_max >= 1"),
            ("verify --check vertex_deletion --n-max 0", "sweep needs n_max >= 1"),
            ("verify --check lemma22 --n-max -1", "sweep needs n_max >= 1"),
            (
                "verify --check monotone --pattern K4 --n-max 2",
                "monotone sequence needs n_max >= 3, got n_max=2",
            ),
        ],
    )
    def test_bad_range_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split(), "--no-cache")
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --graph K4 --tol 1e-9",
            "extremal --pattern-g6 Bw --n 4 --no-cache",
            "table --pattern K3 --pattern-g6 Bw --n-max 3 --no-cache",
            "extremal --pattern K3 --n 4 --workers 2 --no-cache",
            "verify --check bound_chain --n-max 3 --workers 2 --no-cache",
        ],
    )
    def test_retired_options_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv.split())
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            ("verify --check star --t 2 --n-max 3 --pattern NOPE", "--pattern"),
            ("verify --check bound_chain --n-max 3 --pattern K4", "--pattern"),
            ("verify --check monotone --pattern K4 --n-max 4 --t 3", "--t"),
            ("verify --check lemma22 --n-max 3 --t 2", "--t"),
        ],
    )
    def test_option_of_another_check_usage_error(self, capsys, argv, option):
        # only monotone reads --pattern and only star reads --t
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv.split(), "--no-cache"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {option} applies only to --check" in captured.err

    def test_star_t_defaults_to_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "star", "--n-max", "7", "--no-cache")
        assert code == 0
        digest = self.SEARCH_CHECK_SHA256["verify --check star --t 3 --n-max 7"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_monotone_missing_pattern(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "monotone", "--n-max", "5")
        assert exc.value.code == 2

    def test_check_failed_exit_code(self, capsys, monkeypatch):
        from qturan import verify as v

        def fake_sweep(check_id, n_max, config=None):
            return [v.CheckReport("bound_chain", "X", 1.0, 0.0, -1.0, False, 1e-8)]

        monkeypatch.setattr(v, "sweep_graphs", fake_sweep)
        code, out, _ = run(
            capsys,
            "verify", "--check", "bound_chain", "--n-max", "3", "--no-cache",
        )
        assert code == 1
        assert "FAIL" in out


class TestTable:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--pattern", "K3", "--n-max", "5", "--no-cache",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(
            (
                "n", "ex_edges", "ex_lambda", "ex_q", "ratio_edges",
                "ratio_lambda", "ratio_q_n", "ratio_q_n1", "mu_sq_times_n",
            )
        )
        assert len(lines) == 6  # header + rows n=1..5
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(5.0, abs=1e-8)  # ex_q(5,K3)=5

    def test_json_targets(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--pattern", "K4", "--n-max", "4",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["targets"]["ratio_q_n"] == pytest.approx(4 / 3)
        assert blob["partial"] is False

    def test_k4_table_bytes_pinned(self, capsys):
        # any change to the arithmetic of power iteration or of the
        # evaluation shows up in the last digits of this table
        code, out, _ = run(
            capsys, "table", "--pattern", "K4", "--n-max", "7", "--no-cache"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == K4_TABLE_SHA256

    def test_perfbench_references_match(self):
        # perfbench refuses a run whose outputs miss these references, so a
        # change that moves them fails here first
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        levels = tuple(len(search.enumerate_free(n)) for n in range(1, 8))
        assert levels == workloads.FREE_N7_LEVELS
        g6 = "\n".join(sorted(graphs.to_graph6(g) for g in search.enumerate_free(7)))
        assert hashlib.sha256(g6.encode()).hexdigest() == workloads.FREE_N7_SHA256
        assert K4_TABLE_SHA256 == workloads.K4_TABLE_SHA256

    def test_partial_budget_exit(self, capsys):
        search.clear_caches()
        code, out, err = run(
            capsys,
            "table", "--pattern", "K3", "--n-max", "9",
            "--budget", "300", "--no-cache",
        )
        assert code == 3
        assert "partial" in err
        assert out.splitlines()  # partial rows still emitted
        search.clear_caches()

    def test_unknown_pattern(self, capsys):
        code, _, err = run(capsys, "table", "--pattern", "Q7", "--n-max", "3")
        assert code == 2
        assert "error:" in err


def readme_commands():
    """The argv of every ``qturan ...`` line in the README's sh blocks."""
    commands, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("qturan "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
