import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import orgswarm
from orgswarm.cli import main

TINY = {
    "master_seed": 11,
    "dim": 6,
    "agents": 4,
    "max_iterations": 30,
    "replicates": 2,
    "silo_count": 2,
    "workers": 1,
}


def write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        rc = main(["validate", "--config", write_config(tmp_path, TINY)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config OK" in out and "6 arm(s)" in out

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main(["validate", "--config",
                   write_config(tmp_path, {"master_seed": 1, "bogus": True})])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path):
        rc = main(["validate", "--config", str(tmp_path / "nope.json")])
        assert rc == 4


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        rc = main(["run", "--config", write_config(tmp_path, TINY),
                   "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "arms.csv").exists()
        assert (out_dir / "comparisons.csv").exists()
        assert "median group convergence" in capsys.readouterr().out

    def test_overrides_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b), "--seed", "999",
                     "--replicates", "3"]) == 0
        rows_a = (a / "summary.csv").read_text().strip().splitlines()
        rows_b = (b / "summary.csv").read_text().strip().splitlines()
        assert len(rows_a) == 1 + 6 * 2
        assert len(rows_b) == 1 + 6 * 3
        assert rows_a[1] != rows_b[1]

    def test_trace_override_none(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_dir = tmp_path / "quiet"
        assert main(["run", "--config", cfg, "--out", str(out_dir),
                     "--trace", "none"]) == 0
        assert not (out_dir / "curves").exists()

    def test_unwritable_out_dir_exit_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["run", "--config", write_config(tmp_path, TINY),
                   "--out", str(blocker)])
        assert rc == 4

    def test_config_error_exit_2(self, tmp_path):
        rc = main(["run", "--config",
                   write_config(tmp_path, {**TINY, "alpha": 5.0})])
        assert rc == 2

    @pytest.mark.parametrize("override,field", [
        ({"delta": "0.1"}, "delta"),
        ({"v_max": "4"}, "v_max"),
        ({"coeff_min": None}, "coeff_min"),
        ({"arms": [{"design": "siloed", "tendency": "reactive",
                    "silo_count": "5"}]}, "silo_count"),
        ({"arms": [{"design": "dynamic", "tendency": "reactive",
                    "reshuffle_interval": "3"}]}, "reshuffle_interval"),
        ({"dim": True}, "dim"),
        ({"master_seed": True}, "master_seed"),
        ({"inertia_init": [True, True]}, "inertia_init"),
        ({"stochastic_acceleration": "yes"}, "stochastic_acceleration"),
        ({"freeze_on_goal": 1}, "freeze_on_goal"),
    ])
    def test_wrong_typed_value_exit_2(self, tmp_path, capsys, override, field):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, {**TINY, **override}),
                   "--out", str(out_dir)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    def test_label_cannot_escape_out_dir(self, tmp_path, capsys):
        arms = [{"design": "siloed", "tendency": "reactive", "label": "../../escaped"}]
        out_dir = tmp_path / "x" / "deep"
        rc = main(["run", "--config", write_config(tmp_path, {**TINY, "arms": arms}),
                   "--out", str(out_dir)])
        assert rc == 2
        assert "label" in capsys.readouterr().err
        assert not (tmp_path / "x").exists() and not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_workers_flag_exit_2(self, tmp_path, capsys, workers):
        rc = main(["run", "--config", write_config(tmp_path, TINY),
                   "--out", str(tmp_path / "out"), "--workers", workers])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_worker_flag(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_dir = tmp_path / "w2"
        assert main(["run", "--config", cfg, "--out", str(out_dir),
                     "--workers", "2"]) == 0
        assert (out_dir / "summary.csv").exists()

    def test_invariant_violation_exit_3(self, tmp_path, monkeypatch):
        from orgswarm import errors
        import orgswarm.cli as cli_mod

        def boom(spec):
            raise errors.InvariantViolation("replicate 3 iteration 7: empty silo")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        rc = main(["run", "--config", write_config(tmp_path, TINY)])
        assert rc == 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched module only when forked")
    def test_dead_worker_exit_3(self, tmp_path, monkeypatch, capsys):
        import orgswarm.experiment as experiment_mod

        monkeypatch.setattr(experiment_mod, "run_replicate", _exit_process)
        rc = main(["run", "--config", write_config(tmp_path, TINY),
                   "--out", str(tmp_path / "out"), "--workers", "2"])
        assert rc == 3
        assert "worker process died" in capsys.readouterr().err


def _exit_process(*args):
    os._exit(1)


def _package_env():
    """The environment with the imported package's directory first on PYTHONPATH."""
    pkg_root = str(Path(orgswarm.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, orgswarm.cli; "
                               "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _run_help(argv, env=None):
    return subprocess.run(argv + ["--help"], capture_output=True, text=True,
                          env=env, timeout=60)


def test_console_script_installed():
    """The documented ``orgswarm`` command is declared and runs cli.main.

    Tier-1 runs from ``src/`` without an install, so the declaration in
    pyproject.toml and the module entry point are checked directly; the
    script on PATH is checked only where an installed distribution exists.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("orgswarm") == "orgswarm.cli:main"

    entry = EntryPoint(name="orgswarm", value=scripts["orgswarm"],
                       group="console_scripts")
    assert entry.load() is main

    proc = _run_help([sys.executable, "-m", "orgswarm"], env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: orgswarm")

    try:
        dist = distribution("orgswarm")
    except PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts",
                                         name="orgswarm")
    assert [ep.value for ep in installed] == ["orgswarm.cli:main"]
    script = shutil.which("orgswarm")
    assert script is not None
    assert _run_help([script]).returncode == 0
