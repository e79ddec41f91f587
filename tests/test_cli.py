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

    def test_each_arm_line_shows_its_replicates(self, tmp_path, capsys):
        arms = [{"design": "siloed", "tendency": "reactive", "label": label,
                 "replicates": n} for label, n in (("a", 3), ("b", 50))]
        rc = main(["validate", "--config", write_config(tmp_path, {**TINY, "arms": arms})])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "config OK: 2 arm(s)"
        assert lines[1].startswith("  a: replicates=3 ")
        assert lines[2].startswith("  b: replicates=50 ")

    def test_arms_listed_in_file_order(self, tmp_path, capsys):
        arms = [{"design": "siloed", "tendency": "reactive", "label": label}
                for label in ("z", "a")]
        assert main(["validate", "--config", write_config(tmp_path, {**TINY, "arms": arms})]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].strip() for line in lines[1:]] == ["z", "a"]

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main(["validate", "--config",
                   write_config(tmp_path, {"master_seed": 1, "bogus": True})])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path):
        rc = main(["validate", "--config", str(tmp_path / "nope.json")])
        assert rc == 4

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("content,message", [
        (b'{"master_seed": 1, "out_dir": "r\xff"}', "config is not valid UTF-8 JSON"),
        (b"[" * 100000, "config is not valid UTF-8 JSON"),  # past the recursion limit
        # valid JSON past the int-string digit limit: its field's check rejects it
        (b'{"master_seed": ' + b"1" * 5000 + b"}",
         "master_seed (u64 required, got namespace(integer_literal_digits=5000))"),
    ], ids=["not_utf8", "too_deep", "huge_int"])
    def test_unreadable_json_exit_2(self, tmp_path, monkeypatch, capsys, command, content,
                                    message):
        (tmp_path / "cfg.json").write_bytes(content)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", "cfg.json"]) == 2
        assert message in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("config,field", [
        ('{"master_seed": -%s}', "master_seed"),
        ('{"master_seed": 1, "inertia_init": [0.5, %s]}', "inertia_init"),
        ('{"master_seed": 1, "arms": [{"design": "siloed", "tendency": "reactive", '
         '"label": %s}]}', "label"),
    ], ids=["master_seed", "inertia_init", "label"])
    def test_too_long_integer_literal_names_its_field(self, tmp_path, capsys, config, field):
        path = tmp_path / "cfg.json"
        path.write_text(config % ("9" * 5000), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} (" in err and "integer_literal_digits=5000" in err
        assert len(err) < 400

    @pytest.mark.parametrize("text,key", [
        ('{"master_seed": 1, "master_seed": 2}', "master_seed"),
        ('{"master_seed": 1, "arms": [{"design": "siloed", "tendency": "reactive", '
         '"design": "dynamic"}]}', "design"),
    ], ids=["top_level", "in_arm"])
    def test_duplicate_key_exit_2(self, tmp_path, capsys, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"duplicate config keys: {key}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("trace,listed", [
        ("none", ""), ("group", ", curves/"), ("full", ", curves/, traces/")])
    def test_wrote_line_lists_every_output(self, tmp_path, capsys, trace, listed):
        out_dir = tmp_path / "results"
        assert main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out_dir),
                     "--trace", trace]) == 0
        wrote = capsys.readouterr().out.splitlines()[0]
        assert wrote == (f"wrote {out_dir}/summary.csv, arms.csv, comparisons.csv, goals.csv"
                         + listed)
        named = {"summary.csv", "arms.csv", "comparisons.csv", "goals.csv",
                 *[name.strip(" /") for name in listed.split(",") if name]}
        assert {path.name for path in out_dir.iterdir()} == named

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

    def test_empty_out_flag_exit_2(self, tmp_path, monkeypatch, capsys):
        # checked like "out_dir": "" in the config: an empty --out would
        # write the run's files into the current directory
        cfg = write_config(tmp_path, TINY)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", cfg, "--out", ""]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert not any(cwd.iterdir())

    def test_bad_trace_flag_exit_2(self, tmp_path, capsys):
        # checked like "trace" in the config, not by argparse
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out_dir),
                   "--trace", "bogus"])
        assert rc == 2
        assert "trace" in capsys.readouterr().err
        assert not out_dir.exists()

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

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, [TINY]),
                   "--out", str(out_dir)])
        assert rc == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out_dir.exists()

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
        # design fields are checked on every arm, used or not
        ({"arms": [{"design": "fully_networked", "tendency": "reactive",
                    "silo_count": "abc"}]}, "silo_count"),
        ({"arms": [{"design": "fully_networked", "tendency": "reactive",
                    "silo_count": 0}]}, "silo_count"),
        ({"arms": [{"design": "siloed", "tendency": "reactive",
                    "reshuffle_interval": [1, 2]}]}, "reshuffle_interval"),
        # mkdir would raise ValueError (embedded null byte)
        ({"out_dir": "out\0dir"}, "out_dir"),
        # each bound is finite, but Generator.uniform's high - low overflows
        ({"coeff_min": -1e308, "coeff_max": 1e308, "self_belief_init": [-1e308, 1e308]},
         "self_belief_init"),
        # a bad choice names its field, not the default label built from it
        ({"arms": [{"design": ["siloed", "x"], "tendency": "reactive"}]}, "design"),
        ({"arms": [{"design": 5, "tendency": "reactive"}]}, "design"),
        ({"arms": [{"design": None, "tendency": "reactive"}]}, "design"),
        ({"arms": [{"design": "Siloed", "tendency": "reactive"}]}, "design"),
        ({"arms": [{"design": "siloed", "tendency": {"a": 1}}]}, "tendency"),
        ({"coeff_min": 3, "coeff_max": 2}, "coeff_max"),
        ({"arms": [1]}, "arms"),
        ({"arms": {}}, "arms"),
        ({"arms": [{"design": "siloed"}]}, "tendency"),
    ])
    def test_wrong_typed_value_exit_2(self, tmp_path, capsys, override, field):
        out_dir = tmp_path / "out"
        config = {**TINY, "out_dir": str(out_dir), **override}
        rc = main(["run", "--config", write_config(tmp_path, config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err and "label" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("override,field", [
        # a label is a UTF-8 CSV cell and a path; a lone surrogate encodes as neither
        ({"arms": [{"design": "siloed", "tendency": "reactive", "label": "a\ud800"}]},
         "label"),
        ({"out_dir": "x\ud800"}, "out_dir"),
    ], ids=["label", "out_dir"])
    def test_unencodable_text_exit_2(self, tmp_path, monkeypatch, capsys, override, field):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main(["run", "--config", write_config(tmp_path, {**TINY, "out_dir": "out",
                                                              **override})])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not any(cwd.iterdir())
        # the file system's escape for an undecodable byte (here 0xff) is a valid out_dir
        config = {**TINY, "out_dir": "x\udcff"}
        assert main(["validate", "--config", write_config(tmp_path, config)]) == 0

    def test_fully_networked_arm_ignores_silo_count(self, tmp_path):
        # the default silo_count (5) exceeds 3 agents, but one silo is built
        arms = [{"design": "fully_networked", "tendency": "reactive"}]
        config = write_config(tmp_path, {"master_seed": 1, "agents": 3, "arms": arms})
        assert main(["validate", "--config", config]) == 0

    @pytest.mark.parametrize("label", ['"q', "x" * 252, "\u00e9" * 126, "x" * 300],
                             ids=["quote", "252_bytes", "252_utf8_bytes", "300_bytes"])
    def test_label_unfit_for_a_cell_or_file_name_exit_2(self, tmp_path, capsys, label):
        # a '"' opens a quoted CSV cell that swallows the rows after it, and
        # curves/<label>.csv must fit a 255-byte file name
        arms = [{"design": "siloed", "tendency": "reactive", "label": label}]
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, {**TINY, "arms": arms}),
                   "--out", str(out_dir)])
        assert rc == 2
        assert "label" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_longest_label_runs(self, tmp_path):
        label = "x" * 251  # curves/<label>.csv is a 255-byte file name
        arms = [{"design": "siloed", "tendency": "reactive", "label": label}]
        out_dir = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, {**TINY, "arms": arms}),
                     "--out", str(out_dir), "--trace", "full"]) == 0
        assert (out_dir / "curves" / f"{label}.csv").is_file()
        assert len(list((out_dir / "traces" / label).iterdir())) == TINY["replicates"]

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
        from orgswarm.experiment import InvariantViolation
        import orgswarm.cli as cli_mod

        def boom(spec):
            raise InvariantViolation("a worker process died")

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

    @pytest.mark.parametrize("override,field", [
        ({"dim": 10 ** 30}, "dim"),  # past numpy's largest dimension
        ({"agents": 10 ** 20}, "agents"),
        # would run every replicate first, then fail sizing the curves
        ({"max_iterations": 10 ** 22, "dim": 2, "agents": 1, "silo_count": 1},
         "max_iterations"),
        ({"agents": 2 ** 62, "dim": 4}, "agents"),  # past numpy's largest array
        ({"agents": 2 ** 30, "dim": 2 ** 30}, "dim"),  # each count fits, their product not
    ], ids=["dim", "agents", "max_iterations", "agents_x4", "agents_x_dim"])
    def test_oversize_count_exit_2(self, tmp_path, capsys, override, field):
        # refused before anything is allocated; unchecked, each reaches numpy as a ValueError
        config = {"master_seed": 1, "replicates": 1, "workers": 1, "trace": "none", **override}
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, config), "--out", str(out_dir)])
        assert rc == 2
        assert f"invalid config: {field} (" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_of_memory_exit_5(self, tmp_path, capsys):
        # a valid config whose swarm numpy refuses to allocate (8.88 PiB of
        # positions) before it allocates anything
        config = {"master_seed": 1, "replicates": 1, "agents": 1_000_000_000,
                  "dim": 10_000_000, "workers": 1}
        rc = main(["run", "--config", write_config(tmp_path, config),
                   "--out", str(tmp_path / "out")])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert "agents" in err and "dim" in err

    def test_out_of_memory_at_trace_full_leaves_out_empty(self, tmp_path, capsys):
        # the engine fails before a replicate ends, so no trace directory is made,
        # and the run takes back the --out it made
        config = {"master_seed": 1, "replicates": 1, "agents": 1_000_000_000,
                  "dim": 10_000_000, "workers": 1, "trace": "full"}
        out_dir = tmp_path / "out"
        rc = main(["run", "--config", write_config(tmp_path, config), "--out", str(out_dir)])
        assert rc == 5
        assert capsys.readouterr().err.startswith("out of memory: ")
        assert not out_dir.exists()

    def test_out_of_memory_keeps_an_out_that_was_there(self, tmp_path, capsys):
        config = {"master_seed": 1, "replicates": 1, "agents": 1_000_000_000,
                  "dim": 10_000_000, "workers": 1, "trace": "full"}
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main(["run", "--config", write_config(tmp_path, config), "--out", str(out_dir)])
        assert rc == 5
        assert capsys.readouterr().err.startswith("out of memory: ")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("trace", ["group", "full"])
    def test_out_of_memory_under_an_address_space_cap_exit_5(self, tmp_path, trace):
        # numpy's refusal of the swarm must be the first failure at every trace
        # level: nothing sized by agents (a trace header has 5 names per agent)
        # may be built before a replicate runs. The run is a child capped at 1 GiB
        # of address space, so such a build fails fast there and spares this process.
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        config = {"master_seed": 1, "replicates": 1, "agents": 1_000_000_000,
                  "dim": 10_000_000, "workers": 1, "trace": trace}
        proc = subprocess.run(
            [sys.executable, "-m", "orgswarm", "run", "--config", write_config(tmp_path, config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**_package_env(), "OPENBLAS_NUM_THREADS": "1"},  # few thread stacks to map
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("out of memory: Unable to allocate "), proc.stderr


def _exit_process(*args, **kwargs):
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


def test_run_loads_no_masked_arrays(tmp_path):
    # medians and quartiles of converged replicates are taken without numpy.ma
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from orgswarm.cli import main; "
                               "rc = main(sys.argv[1:]); print('numpy.ma' in sys.modules); "
                               "sys.exit(rc)",
         "run", "--config", write_config(tmp_path, TINY), "--out", str(tmp_path / "out"),
         "--workers", "1"],
        capture_output=True, text=True, env=_package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    *arm_lines, loaded = proc.stdout.strip().splitlines()
    assert any("success 0/" not in line for line in arm_lines[1:])  # some replicates converge
    assert loaded == "False"


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
