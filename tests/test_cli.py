"""End-to-end checks of the command-line driver.

Each test invokes ``main(argv)`` in-process and inspects the run
directory it creates: manifest completeness, exit codes, config
precedence, determinism, and that README usage lines parse.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import enstro.cli
from enstro.bounds_lab import INITS, SWEEP_COLUMNS, CharacteristicsRow, datum_family
from enstro.burgers_solver import DIAGNOSTIC_COLUMNS, SolverConfig, simulate, sup_enstrophy
from enstro.cli import _build_parser, load_config, main, run_sweep_e0
from enstro.extremizers import RECORD_COLUMNS, default_seeds
from enstro.field_core import ConfigurationError, GridSpec1D, write_csv


@pytest.fixture()
def runs_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("ENSTRO_RUNS_DIR", str(root))
    return root


def _single_run_dir(root: Path, command: str) -> Path:
    dirs = sorted(root.glob(f"*_{command}*"))
    assert dirs, f"no run directory for {command} under {root}"
    return dirs[-1]


def _manifest(root: Path, command: str) -> dict:
    return json.loads(
        (_single_run_dir(root, command) / "manifest.json").read_text()
    )


# command line -> the usage error it must exit 2 with
OUT_OF_RANGE = {
    "sweep-e0 --count 0": "--count must be at least 1, got 0",
    "heat-estimates --t-count 0": "--t-count must be at least 1, got 0",
    "sweep-e0 --prefactors ,": "--prefactors must be positive, got ','",
    "sweep-e0 --prefactors 0": "--prefactors must be positive, got '0'",
    "maximize-finite --horizon 0": "--horizon must be positive, got 0.0",
    "oracle-check --t 0": "--t must be positive, got 0.0",
    "conslaw-nd --stride 0": "--stride must be at least 1, got 0",
    "simulate --t-end 0": "--t-end must be positive, got 0.0",
    "maximize-finite --max-iters 0": "--max-iters must be at least 1, got 0",
    "maximize-finite --e0 0": "--e0 must be positive, got 0.0",
    "maximize-instant --e0 0": "--e0 must be positive, got 0.0",
    "sweep-e0 --prefactors abc": "--prefactors must be positive, got 'abc'",
    "sweep-e0 --prefactors 1,inf": "--prefactors must be finite, got '1,inf'",
    "sweep-e0 --seeds 0": "--seeds must be at least 1, got 0",
    "maximize-finite --seed-index -1": "--seed-index must be at least 0, got -1",
    # each of these hung or crashed the run before its range was checked
    "simulate --t-end inf": "--t-end must be finite, got inf",
    "oracle-check --t inf": "--t must be finite, got inf",
    "conslaw-nd --t-end inf": "--t-end must be finite, got inf",
    "maximize-finite --horizon inf": "--horizon must be finite, got inf",
    "dissipation --nu 0": "--nu must be positive, got 0.0",
    "simulate --nu nan": "--nu must be finite, got nan",
    "sweep-nu --nu-min 0": "--nu-min must be positive, got 0.0",
    "sweep-e0 --e0-min 0": "--e0-min must be positive, got 0.0",
    "sweep-e0 --max-iters 0": "--max-iters must be at least 1, got 0",
    "sweep-nu --t-end 0": "--t-end must be positive, got 0.0",
    "sweep-nu --count 3": "--count must be at least 4, got 3",
    # settings the library checks: each raises ConfigurationError
    "sweep-nu --family nope": "unknown datum family 'nope'; available: lower-bound, sine",
    "conslaw-nd --flux nope": (
        "unknown flux 'nope'; available: burgers1d, burgers2d, cubic, cubic2d, "
        "linear(c=1), linear2d(c=1)"
    ),
    "conslaw-nd --dim 2 --flux burgers1d": (
        "flux 'burgers1d' is 1-dimensional but the grid has dim 2"
    ),
    "simulate --cfl 2": "cfl must lie in (0, 1], got 2.0",
    "simulate --n-points 64 --nu 1e-4": (
        "grid spacing 1.562e-02 cannot resolve shock width 1.111e-04; "
        "use at least n_points = 65536"
    ),
    "simulate --t-end 1e9": (
        "t_end / dt of the first step is 1.15e+12, more than the 1e+07 steps a run may take"
    ),
}

# command line -> the failure of a run whose settings are all in range
RUN_FAILURES = {
    "dissipation --eps 0.42924": "too few snapshots inside the time window",
    "lower-bound --n-points 32": (
        "characteristics cross before reaching the origin at 1 points, "
        "first at alpha = -0.062500"
    ),
}


def _ranged_rows():
    """(command, flag, type, least) of every int or float schema row."""
    for command, schema in enstro.cli.SCHEMAS.items():
        for name, (typ, _, _, least) in {**enstro.cli._COMMON, **schema}.items():
            if typ in (int, float):
                flag = "--" + name.replace("_", "-")
                yield pytest.param(command, flag, typ, least, id=f"{command} {flag}")


class TestExitCodes:
    """0 on success, 1 on assertion failure, 2 on usage errors."""

    def test_success_exits_zero(self, runs_root):
        code = main(
            ["simulate", "--n-points", "256", "--t-end", "0.05", "--nu", "0.05"]
        )
        assert code == 0

    def test_assertion_failure_exits_one(self, runs_root):
        code = main(
            ["oracle-check", "--n-points", "512", "--t", "0.2", "--tol", "1e-18"]
        )
        assert code == 1
        manifest = _manifest(runs_root, "oracle-check")
        assert manifest["passed"] is False
        failed = [a for a in manifest["assertions"] if not a["passed"]]
        assert [a["name"] for a in failed] == ["matches_heat_kernel_solution"]

    def test_unknown_command_exits_two(self, runs_root, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, runs_root, capsys):
        assert main(["simulate", "--bogus", "3"]) == 2
        # settings that have one value and no flag
        assert main(["maximize-instant", "--inner-product", "l2"]) == 2
        assert main(["maximize-finite", "--inner-product", "h1"]) == 2
        assert main(["lower-bound", "--delta-s", "0.02"]) == 2
        capsys.readouterr()
        assert not runs_root.exists()

    def test_missing_config_file_exits_two(self, runs_root, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.cfg"
        not_utf8.write_bytes("nu = 0.05  # \u00b5\n".encode("latin-1"))
        for path in ("/nonexistent/f.cfg", tmp_path, not_utf8):
            assert main(["simulate", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert not runs_root.exists()

    def test_unknown_init_exits_two(self, runs_root, capsys):
        assert main(["simulate", "--init", "bogus"]) == 2
        valid = "sine, sine2, mix, lower-bound, smoothed-step"
        assert capsys.readouterr().err == f"error: unknown init 'bogus'; valid: {valid}\n"
        manifest = _manifest(runs_root, "simulate")
        assert manifest["outputs"] == [] and manifest["passed"] is False

    def test_failed_certification_exits_one(self, runs_root, capsys):
        # a valid config whose datum fails certification is a failed run
        assert main(["lower-bound", "--n-points", "32"]) == 1
        assert "characteristics cross" in capsys.readouterr().err
        manifest = _manifest(runs_root, "lower-bound")
        assert manifest["passed"] is False
        (check,) = manifest["assertions"]
        assert check["name"] == "run_completed" and not check["passed"]
        assert check["detail"].startswith("DatumConstructionError:")
        assert manifest["outputs"] == []
        run_dir = _single_run_dir(runs_root, "lower-bound")
        assert [p.name for p in run_dir.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("line", list(OUT_OF_RANGE))
    def test_out_of_range_flag_exits_two(self, runs_root, capsys, line):
        argv = line.split()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {OUT_OF_RANGE[line]}\n"
        manifest = _manifest(runs_root, argv[0])
        assert manifest["outputs"] == [] and manifest["passed"] is False

    @pytest.mark.parametrize("line", list(RUN_FAILURES))
    def test_failed_run_exits_one(self, runs_root, capsys, line):
        argv = line.split()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"run failed: {RUN_FAILURES[line]}\n"
        manifest = _manifest(runs_root, argv[0])
        assert manifest["outputs"] == [] and manifest["passed"] is False

    @pytest.mark.parametrize(
        "exc, detail",
        [(ValueError("bad data"), "ValueError: bad data"), (KeyError("k"), "KeyError: 'k'")],
        ids=["ValueError", "KeyError"],
    )
    def test_an_error_that_is_not_a_setting_fails_the_run(
        self, runs_root, capsys, monkeypatch, exc, detail
    ):
        def command(cfg, out, seed):
            raise exc

        monkeypatch.setitem(enstro.cli._COMMANDS, "simulate", command)
        assert main(["simulate"]) == 1
        assert capsys.readouterr().err == f"run failed: {exc}\n"
        manifest = _manifest(runs_root, "simulate")
        assert manifest["outputs"] == [] and manifest["passed"] is False
        assert [a["detail"] for a in manifest["assertions"]] == [detail]

    @pytest.mark.parametrize("command, flag, typ, least", list(_ranged_rows()))
    def test_every_schema_range_is_checked(
        self, runs_root, capsys, command, flag, typ, least
    ):
        # an int row declares its least value; a float row 0 or no bound
        assert least is not None if typ is int else least in (0, None)
        cases = {"nan": "must be finite, got nan", "inf": "must be finite, got inf"}
        if typ is int:
            cases = {str(least - 1): f"must be at least {least}, got {least - 1}"}
        elif least is not None:
            cases["0"] = "must be positive, got 0.0"
        for value, rule in cases.items():
            assert main([command, f"{flag}={value}"]) == 2
            assert capsys.readouterr().err == f"error: {flag} {rule}\n"
        manifests = [json.loads(p.read_text()) for p in runs_root.glob("*/manifest.json")]
        assert len(manifests) == len(cases)
        assert all(m["outputs"] == [] and not m["passed"] for m in manifests)

    def test_config_file_values_are_range_checked(self, runs_root, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("nu = 0\n")
        assert main(["dissipation", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: --nu must be positive, got 0.0\n"
        assert _manifest(runs_root, "dissipation")["outputs"] == []

    @pytest.mark.parametrize(
        "line",
        [
            "simulate --cfl 1e-300 --n-points 256",
            "maximize-finite --horizon 1e300",
            "sweep-nu --t-end 1e300",
            "conslaw-nd --t-end 1e300 --n-points 16",
        ],
    )
    def test_step_budget_exits_two(self, runs_root, capsys, line):
        # each passes the range check but would march for ever
        argv = line.split()
        assert main(argv) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: t_end / dt of the first step is ")
        assert err.endswith("more than the 1e+07 steps a run may take")
        manifest = _manifest(runs_root, argv[0])
        assert manifest["outputs"] == [] and manifest["passed"] is False

    def test_runs_dir_that_is_a_file_exits_two(self, tmp_path, capsys):
        not_a_dir = tmp_path / "runs"
        not_a_dir.write_text("")
        assert main(["simulate", "--runs-dir", str(not_a_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not_a_dir.read_text() == ""


def test_help_states_each_range(capsys):
    assert main(["simulate", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--nu NU viscosity (default: 0.05; must be finite and positive)" in help_text
    assert "(default: 512; must be at least 8)" in help_text


def test_cli_import_leaves_scipy_out():
    """The runtime needs numpy alone; scipy is a test dependency."""
    probe = (
        "import sys, enstro.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(enstro.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_random_loads_only_for_drawn_seeds(tmp_path):
    """Seeds past the three low modes draw from numpy.random: sweep-e0 with
    two seeds never imports it, and maximize-instant's five seeds do."""
    common = ["--n-points", "64", "--max-iters", "2", "--runs-dir", str(tmp_path)]
    sweep = ["sweep-e0", "--count", "1", "--prefactors", "1", "--seeds", "2", *common]
    probe = (
        "import sys\n"
        "from enstro.cli import main\n"
        f"assert main({sweep!r}) == 0\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
        f"assert main({['maximize-instant', *common]!r}) == 0\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(enstro.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "True"]


def test_no_run_loads_lapack_or_numpy_polynomial(tmp_path):
    """The peak fit, the power-law fits and the datum's quadrature nodes are
    closed forms: no run imports numpy.polynomial or calls LAPACK.  Every
    LAPACK routine of numpy.linalg (lstsq, eigvalsh, eigh, svd, ...) calls a
    gufunc of its ``_umath_linalg`` module, so a proxy there sees them all."""
    common = ["--runs-dir", str(tmp_path)]
    runs = [
        ["sweep-nu", "--nu-min", "0.01", "--nu-max", "0.1", "--count", "4", "--t-end", "0.3"],
        ["sweep-e0", "--count", "4", "--prefactors", "1", "--seeds", "1",
         "--n-points", "64", "--max-iters", "2"],
        ["lower-bound", "--n-points", "512"],
        ["dissipation", "--nu", "0.01"],
    ]
    probe = (
        "import sys, types\n"
        "import numpy.linalg._linalg as linalg\n"
        "called = []\n"
        "class Recorder(types.ModuleType):\n"
        "    def __getattr__(self, name):\n"
        "        called.append(name)\n"
        "        return getattr(gufuncs, name)\n"
        "gufuncs, linalg._umath_linalg = linalg._umath_linalg, Recorder('_umath_linalg')\n"
        "from enstro.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main([*argv, *{common!r}]) == 0, argv\n"
        "print('numpy.polynomial' in sys.modules, sorted(set(called)), file=sys.stderr)\n"
    )
    src = str(Path(enstro.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "[]"]


class TestConfigFile:
    """Flat key = value files with comments, validated against the schema."""

    def test_comments_and_blanks_are_ignored(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# header\n\nnu = 0.02  # inline\n\nt_end = 0.25\n")
        schema = {"nu": (float, 0.0, ""), "t_end": (float, 0.0, "")}
        assert load_config(cfg, schema) == {"nu": 0.02, "t_end": 0.25}

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("wrongkey = 3\n")
        schema = {"nu": (float, 0.0, ""), "amp": (float, 0.0, "")}
        with pytest.raises(
            ConfigurationError, match=r"unknown config key 'wrongkey'.*amp, nu"
        ):
            load_config(cfg, schema)
        # a setting with one value has no key
        cfg.write_text("inner_product = h1\n")
        with pytest.raises(ConfigurationError, match="unknown config key 'inner_product'"):
            load_config(cfg, enstro.cli.SCHEMAS["maximize-instant"])

    def test_type_mismatch_names_the_line(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# first line\nnu = banana\n")
        with pytest.raises(ConfigurationError, match=r":2: could not parse 'banana'"):
            load_config(cfg, {"nu": (float, 0.0, "")})

    def test_malformed_line_is_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigurationError, match=r":1: expected 'key = value'"):
            load_config(cfg, {"nu": (float, 0.0, "")})

    def test_a_file_names_no_further_file(self, runs_root, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("config = /nonexistent.cfg\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        valid = "amp, cfl, init, n_points, nu, runs_dir, seed, t_end"
        err = f"error: {cfg}:1: unknown config key 'config'; valid keys: {valid}\n"
        assert capsys.readouterr().err == err
        assert not runs_root.exists()

    def test_flags_override_file_values(self, runs_root, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("nu = 0.01\nt_end = 0.05\n")
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--nu",
                "0.02",
                "--n-points",
                "256",
            ]
        )
        assert code == 0
        manifest = _manifest(runs_root, "simulate")
        assert manifest["config"]["nu"] == 0.02  # flag wins
        assert manifest["config"]["t_end"] == 0.05  # file survives
        assert manifest["config"]["n_points"] == 256


class TestManifest:
    """Every run writes manifest.json naming outputs that really exist."""

    REQUIRED_KEYS = {
        "command",
        "version",
        "config",
        "seed",
        "started",
        "finished",
        "outputs",
        "assertions",
        "passed",
    }

    # one small config per subcommand and the outputs it must list
    SMALL_RUNS = {
        "simulate": (
            ["--n-points", "256", "--t-end", "0.05"],
            {"initial.dat", "final.dat", "diagnostics.csv"},
        ),
        "oracle-check": (
            ["--n-points", "256", "--t", "0.05"],
            {"diagnostics.csv", "report.json"},
        ),
        "heat-estimates": (
            ["--n-points", "256", "--t-count", "3"],
            {"ratios.csv", "report.json"},
        ),
        "sweep-nu": (
            ["--nu-min", "0.01", "--nu-max", "0.03", "--count", "4", "--t-end", "0.2",
             "--n-points", "512"],
            {"sweep.csv", "summary.json"},
        ),
        "sweep-e0": (
            ["--count", "2", "--prefactors", "0.5", "--n-points", "64", "--max-iters",
             "2", "--seeds", "1"],
            {"sweep.csv", "summary.json"},
        ),
        "maximize-instant": (
            ["--n-points", "64", "--max-iters", "3"],
            {"optimum.dat", "record.csv", "report.json"},
        ),
        "maximize-finite": (
            ["--n-points", "64", "--max-iters", "3"],
            {"optimum.dat", "record.csv", "report.json"},
        ),
        "lower-bound": (
            ["--n-points", "512"],
            {"datum.dat", "characteristics.csv", "report.json"},
        ),
        "dissipation": (
            ["--nu", "0.01", "--n-points", "512"],
            {"report.json"},
        ),
        "conslaw-nd": (
            ["--n-points", "16", "--t-end", "0.02"],
            {"initial.dat", "final.dat", "diagnostics.csv"},
        ),
        "report": ([], {"report.json"}),
    }

    @pytest.mark.parametrize("command", list(enstro.cli.SCHEMAS))
    def test_manifest_is_complete(self, runs_root, command):
        flags, expected = self.SMALL_RUNS[command]
        assert main([command, *flags]) == 0
        run_dir = _single_run_dir(runs_root, command)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert self.REQUIRED_KEYS <= set(manifest)
        assert manifest["command"] == command
        assert manifest["passed"] is True
        written = {p.name for p in run_dir.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == written == expected
        for entry in manifest["assertions"]:
            assert set(entry) == {"name", "passed", "detail"}

    def test_runs_dir_flag_overrides_env(self, runs_root, tmp_path):
        other = tmp_path / "elsewhere"
        code = main(
            [
                "simulate",
                "--n-points",
                "256",
                "--t-end",
                "0.05",
                "--runs-dir",
                str(other),
            ]
        )
        assert code == 0
        assert list(other.glob("*_simulate/manifest.json"))
        assert not runs_root.exists()


class TestDeterminism:
    """Identical config + seed must reproduce output bytes exactly."""

    def test_finite_time_record_is_bit_identical(self, runs_root):
        argv = [
            "maximize-finite",
            "--n-points",
            "128",
            "--max-iters",
            "8",
            "--e0",
            "4",
            "--horizon",
            "0.1",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        dirs = sorted(runs_root.glob("*_maximize-finite*"))
        assert len(dirs) == 2
        first = (dirs[0] / "record.csv").read_bytes()
        second = (dirs[1] / "record.csv").read_bytes()
        assert first == second

    def test_same_sweep_config_gives_same_bytes(self, runs_root):
        argv = [
            "sweep-nu",
            "--nu-min",
            "0.01",
            "--nu-max",
            "0.03",
            "--count",
            "4",
            "--t-end",
            "0.5",
            "--n-points",
            "512",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        dirs = sorted(runs_root.glob("*_sweep-nu*"))
        assert len(dirs) == 2
        first = (dirs[0] / "sweep.csv").read_bytes()
        second = (dirs[1] / "sweep.csv").read_bytes()
        assert first == second


    def test_sweep_bytes_equal_sequential_runs(self, runs_root, tmp_path):
        # the sweep marches its viscosities as one stack; its rows are
        # the bytes of one simulate run per viscosity
        argv = [
            "sweep-nu",
            "--nu-min",
            "0.01",
            "--nu-max",
            "0.03",
            "--count",
            "4",
            "--t-end",
            "0.5",
            "--n-points",
            "512",
        ]
        assert main(argv) == 0
        u0, _ = datum_family("lower-bound", GridSpec1D(512))
        rows = []
        for nu in np.logspace(np.log10(0.03), np.log10(0.01), 4):
            _, diag = simulate(u0, SolverConfig(nu=nu, t_end=0.5))
            t_star, e_star = sup_enstrophy(diag.t, diag.enstrophy)
            rows.append((nu, e_star, t_star))
        sequential = tmp_path / "sequential.csv"
        write_csv(sequential, SWEEP_COLUMNS, rows)
        batched = _single_run_dir(runs_root, "sweep-nu") / "sweep.csv"
        assert batched.read_bytes() == sequential.read_bytes()


class TestSweepNu:
    """CSV schema, summary contents, and the partial-abort path."""

    def test_csv_and_summary_schema(self, runs_root):
        code = main(
            [
                "sweep-nu",
                "--nu-min",
                "0.01",
                "--nu-max",
                "0.03",
                "--count",
                "4",
                "--t-end",
                "0.5",
                "--n-points",
                "512",
            ]
        )
        assert code == 0
        run_dir = _single_run_dir(runs_root, "sweep-nu")
        lines = (run_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param,e_star,t_star"
        assert len(lines) == 5
        params = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert params == sorted(params, reverse=True)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert set(summary) == {
            "slope",
            "intercept",
            "residual",
            "C_hat",
            "c_hat",
            "shock_ratio_min",
            "shock_ratio_max",
        }
        assert summary["c_hat"] > 0.0
        assert summary["shock_ratio_min"] <= summary["shock_ratio_max"]

    def test_sine_family_shock_ratios(self, runs_root):
        code = main(
            [
                "sweep-nu",
                "--family",
                "sine",
                "--nu-min",
                "0.01",
                "--nu-max",
                "0.03",
                "--count",
                "4",
                "--t-end",
                "0.5",
                "--n-points",
                "512",
            ]
        )
        assert code == 0
        summary = json.loads(
            (_single_run_dir(runs_root, "sweep-nu") / "summary.json").read_text()
        )
        assert 0.0 < summary["shock_ratio_min"] <= summary["shock_ratio_max"]

    def test_unresolvable_point_aborts_with_partial_rows(self, runs_root):
        code = main(
            [
                "sweep-nu",
                "--nu-min",
                "1e-5",
                "--nu-max",
                "0.03",
                "--count",
                "4",
                "--t-end",
                "0.5",
                "--n-points",
                "512",
            ]
        )
        assert code == 1
        run_dir = _single_run_dir(runs_root, "sweep-nu")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["passed"] is False
        (failed,) = [a for a in manifest["assertions"] if not a["passed"]]
        assert failed["name"] == "all_sweep_points_ran"
        assert "failed" in failed["detail"]
        lines = (run_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param,e_star,t_star"
        assert 1 <= len(lines) - 1 < 4  # completed prefix only


class TestSweepE0:
    """Finite-time sweep engine and its CLI wrapper."""

    def test_engine_rows_are_ordered_and_positive(self):
        cfg = {
            "nu": 1.0,
            "e0_min": 16.0,
            "e0_max": 64.0,
            "count": 3,
            "prefactors": "0.5",
            "n_points": 128,
            "max_iters": 5,
            "seeds": 1,
        }
        rows = run_sweep_e0(cfg, seed=11)
        assert len(rows) == 3
        e0s = [r[0] for r in rows]
        assert e0s == sorted(e0s)
        assert all(r[1] > 0.0 for r in rows)
        np.testing.assert_allclose(
            [r[2] for r in rows], [0.5 / np.sqrt(e) for e in e0s], rtol=1e-12
        )

    def test_cli_writes_sweep_and_summary(self, runs_root):
        code = main(
            [
                "sweep-e0",
                "--e0-min",
                "16",
                "--e0-max",
                "64",
                "--count",
                "3",
                "--prefactors",
                "0.5",
                "--n-points",
                "128",
                "--max-iters",
                "5",
                "--seeds",
                "1",
            ]
        )
        assert code == 0
        run_dir = _single_run_dir(runs_root, "sweep-e0")
        lines = (run_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param,e_star,t_star"
        assert len(lines) == 4
        summary = json.loads((run_dir / "summary.json").read_text())
        assert {"slope", "intercept", "residual", "nu"} <= set(summary)

    def test_seeds_beyond_five_all_run(self, runs_root, monkeypatch):
        """--seeds 6 runs six starts per (E0, prefactor), as recorded."""
        starts = []

        def fake_maximize(cfgs, grid, seeds):
            starts.extend(seed.values for seed in seeds)
            return [(seed, 1.0, None) for seed in seeds]

        monkeypatch.setattr(enstro.cli, "finite_time_maximize", fake_maximize)
        argv = ["sweep-e0", "--count", "2", "--prefactors", "0.5,1", "--seeds", "6"]
        assert main([*argv, "--n-points", "64"]) == 0
        assert len(starts) == 2 * 2 * 6
        sixth = default_seeds(GridSpec1D(64), 16.0, count=6, rng_seed=2025)[5]
        assert np.array_equal(starts[5], sixth.values)


class TestMaximizeFinite:
    """The start the ascent runs is the seed the manifest records."""

    def test_seed_index_beyond_five_is_not_wrapped(self, runs_root, monkeypatch):
        starts = []

        def fake_maximize(cfgs, grid, seeds):
            starts.extend(seed.values for seed in seeds)
            raise RuntimeError("stop after recording the start")

        monkeypatch.setattr(enstro.cli, "finite_time_maximize", fake_maximize)
        argv = ["maximize-finite", "--n-points", "64", "--seed-index", "6"]
        assert main(argv) == 1
        (start,) = starts
        expected = default_seeds(GridSpec1D(64), 1.0, count=7, rng_seed=2025)[6]
        assert np.array_equal(start, expected.values)
        wrapped = default_seeds(GridSpec1D(64), 1.0, rng_seed=2025)[6 % 5]
        assert not np.array_equal(start, wrapped.values)


class TestIndividualCommands:
    """Smoke-level runs of the remaining subcommands."""

    @pytest.mark.parametrize("init", INITS)
    def test_every_simulate_init_runs(self, runs_root, init):
        argv = ["simulate", "--init", init, "--t-end", "0.1"]
        assert main(argv) == 0
        assert (_single_run_dir(runs_root, "simulate") / "final.dat").exists()

    def test_lower_bound_outputs(self, runs_root):
        assert main(["lower-bound", "--n-points", "512"]) == 0
        run_dir = _single_run_dir(runs_root, "lower-bound")
        lines = (run_dir / "characteristics.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,t_star,t_s,admissible,skipped"
        assert len(lines) == 257  # half the grid plus header
        report = json.loads((run_dir / "report.json").read_text())
        assert report["U"] == pytest.approx(0.1941388943, abs=1e-5)
        assert report["enstrophy"] == pytest.approx(1.0, abs=1e-9)

    def test_lower_bound_on_the_smallest_grid(self, runs_root):
        # [-1/6, 0) holds one sample there, so "decreasing" holds vacuously
        assert main(["lower-bound", "--n-points", "8"]) == 0
        (check,) = _manifest(runs_root, "lower-bound")["assertions"]
        assert check["passed"] and check["detail"] == "4 sampled labels"
        argv = ["simulate", "--init", "lower-bound", "--n-points", "8", "--nu", "1"]
        assert main([*argv, "--t-end", "0.05"]) == 0

    def test_oracle_check_of_the_zero_datum(self, runs_root, capsys):
        # the exact solution is zero, so the error reported is absolute
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle-check", "--amp", "0", "--n-points", "256"]) == 0
        assert "L2 error (zero exact solution) 0.000e+00" in capsys.readouterr().out
        report = json.loads(
            (_single_run_dir(runs_root, "oracle-check") / "report.json").read_text()
        )
        assert report["rel_l2_error"] == 0.0

    def test_dissipation_report(self, runs_root):
        code = main(
            ["dissipation", "--nu", "0.01", "--eps", "0.02", "--n-points", "512"]
        )
        assert code == 0
        report = json.loads(
            (_single_run_dir(runs_root, "dissipation") / "report.json").read_text()
        )
        assert report["reference"] == pytest.approx(
            (2.0 / 3.0) * 0.1941388943**3, rel=1e-4
        )
        assert 0.0 < report["measured"] < report["reference"]

    def test_heat_estimates_bounded(self, runs_root):
        code = main(["heat-estimates", "--n-points", "256", "--t-count", "5"])
        assert code == 0
        run_dir = _single_run_dir(runs_root, "heat-estimates")
        report = json.loads((run_dir / "report.json").read_text())
        assert max(report["max_r1"], report["max_r2"]) <= 0.75
        assert report["closed_form_rel_err"] < 1e-8
        header = (run_dir / "ratios.csv").read_text().split("\n", 1)[0]
        assert header == "field,t,r1,r2"

    def test_conslaw_nd_outputs(self, runs_root):
        code = main(
            ["conslaw-nd", "--n-points", "16", "--t-end", "0.02", "--stride", "2"]
        )
        assert code == 0
        run_dir = _single_run_dir(runs_root, "conslaw-nd")
        header = (
            (run_dir / "diagnostics.csv").read_text().split("\n", 1)[0]
        )
        assert header.endswith(",dim,L")
        assert (run_dir / "final.dat").exists()

    def test_conslaw_nd_peak_is_its_work_set(self, runs_root, traced_peak):
        # a small run first, so the peak leaves out what a first run loads once
        assert main(["conslaw-nd", "--n-points", "16", "--t-end", "0.002"]) == 0
        argv = ["conslaw-nd", "--n-points", "256", "--t-end", "0.002"]
        peak, code = traced_peak(lambda: main(argv))
        assert code == 0
        # the run's work set of 6.25 fields, the datum beside it, and the
        # final copy; a full-grid temporary at any layer would pass 7.6
        assert peak <= 7.6 * 256 * 256 * 8

    def test_conslaw_nd_flux_follows_dim(self, runs_root):
        assert main(["conslaw-nd", "--dim", "1", "--n-points", "64", "--t-end", "0.01"]) == 0
        assert _manifest(runs_root, "conslaw-nd")["config"]["flux"] == "burgers1d"

    def test_conslaw_nd_1d_rejects_unknown_init(self, runs_root, capsys):
        argv = ["conslaw-nd", "--dim", "1", "--flux", "burgers1d", "--init", "diag"]
        assert main(argv) == 2
        assert "unknown init 'diag'" in capsys.readouterr().err

    def test_maximize_instant_seed_reaches_default_seeds(self, runs_root, monkeypatch):
        seen = []

        def spy(grid, e0, count=5, rng_seed=2025):
            seen.append(rng_seed)
            raise RuntimeError("stop after recording the seed")

        monkeypatch.setattr(enstro.cli, "default_seeds", spy)
        assert main(["maximize-instant", "--n-points", "64", "--seed", "7"]) == 1
        assert seen == [7]
        assert _manifest(runs_root, "maximize-instant")["seed"] == 7

    def test_maximize_instant_outputs(self, runs_root):
        code = main(
            [
                "maximize-instant",
                "--n-points",
                "128",
                "--max-iters",
                "40",
                "--e0",
                "1",
                "--nu",
                "0.5",
            ]
        )
        assert code == 0
        run_dir = _single_run_dir(runs_root, "maximize-instant")
        report = json.loads((run_dir / "report.json").read_text())
        assert {"rate", "converged", "iterations"} <= set(report)


class TestReport:
    """The aggregator scans sibling manifests and fails if any run failed."""

    def test_all_passing_runs_exit_zero(self, runs_root):
        assert main(["simulate", "--n-points", "256", "--t-end", "0.05"]) == 0
        assert main(["report"]) == 0
        report_dir = _single_run_dir(runs_root, "report")
        entries = json.loads((report_dir / "report.json").read_text())
        assert len(entries) == 1
        assert entries[0]["command"] == "simulate"
        assert entries[0]["passed"] is True

    def test_failed_run_flips_exit_code(self, runs_root):
        assert main(["simulate", "--n-points", "256", "--t-end", "0.05"]) == 0
        assert (
            main(
                [
                    "oracle-check",
                    "--n-points",
                    "512",
                    "--t",
                    "0.2",
                    "--tol",
                    "1e-18",
                ]
            )
            == 1
        )
        assert main(["report"]) == 1
        report_dir = _single_run_dir(runs_root, "report")
        entries = json.loads((report_dir / "report.json").read_text())
        failed = [e for e in entries if not e["passed"]]
        assert len(failed) == 1
        assert failed[0]["failed_assertions"] == ["matches_heat_kernel_solution"]

    def test_failed_report_is_not_a_failed_run(self, runs_root, capsys):
        assert main(["oracle-check", "--n-points", "512", "--t", "0.2", "--tol", "1e-18"]) == 1
        assert main(["report"]) == 1
        # the failed run goes; the report that listed it is no run to summarize
        shutil.rmtree(_single_run_dir(runs_root, "oracle-check"))
        capsys.readouterr()
        assert main(["report"]) == 0
        entries = json.loads((_single_run_dir(runs_root, "report") / "report.json").read_text())
        assert entries == []
        assert "FAIL" not in capsys.readouterr().out

    def test_unreadable_manifest_is_a_failed_entry(self, runs_root, capsys):
        assert main(["simulate", "--n-points", "256", "--t-end", "0.05"]) == 0
        texts = ("{not json", "[]", '{"assertions": [1]}', '{"assertions": [{}]}')
        broken = [runs_root / f"2000010{i}-000000_simulate" for i in range(len(texts))]
        for path, text in zip(broken, texts):
            path.mkdir()
            (path / "manifest.json").write_text(text)
        assert main(["report"]) == 1
        err = capsys.readouterr().err
        for path in broken:
            assert f"unreadable manifest {path / 'manifest.json'}: " in err
        entries = json.loads((_single_run_dir(runs_root, "report") / "report.json").read_text())
        assert [e["passed"] for e in entries] == [False] * len(texts) + [True]  # all scanned
        assert [e["run"] for e in entries[:-1]] == [path.name for path in broken]
        assert all(e["failed_assertions"] == ["manifest_readable"] for e in entries[:-1])


class TestReadme:
    """The documented command lines stay in step with the flags."""

    def test_usage_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("enstro ")]
        assert len(lines) >= 5
        parser = _build_parser()
        for line in lines:
            words = shlex.split(line)
            assert parser.parse_args(words[1:]).command == words[1]

    def test_record_columns_match_file_formats(self):
        # the column orders README's "File formats" documents, frozen
        frozen = {
            "t,energy,enstrophy,tv,linf,min_ux,rate_diss,rate_cubic": DIAGNOSTIC_COLUMNS,
            "param,e_star,t_star": SWEEP_COLUMNS,
            "iter,objective,step,constraint_residual,grad_norm": RECORD_COLUMNS,
            "alpha,t_star,t_s,admissible,skipped": CharacteristicsRow._fields,
        }
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        formats = readme.partition("## File formats")[2].partition("\n## ")[0]
        for header, columns in frozen.items():
            assert columns == tuple(header.split(","))
            assert f"`{header}`" in formats, header
