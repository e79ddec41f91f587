import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import orgswarm
from orgswarm import (ConfigError, DesignKind, SimConfig, Tendency, init_swarm,
                      parse_config, parse_config_dict, run_experiment)
from orgswarm.engine import replicate_rng
from orgswarm.experiment import Arm, ExperimentSpec, serialize_spec

TINY = {
    "master_seed": 20260808,
    "dim": 6,
    "agents": 4,
    "max_iterations": 40,
    "replicates": 4,
    "silo_count": 2,
    "workers": 1,
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_config_expands_default_grid(self):
        spec = parse_config_dict({"master_seed": 7})
        assert len(spec.arms) == 6
        labels = [a.label for a in spec.arms]
        assert labels == sorted(labels)
        kinds = {(a.config.design, a.config.tendency) for a in spec.arms}
        assert kinds == set(itertools.product(DesignKind, Tendency))
        c = spec.arms[0].config
        assert (c.dim, c.agents, c.max_iterations, c.replicates) == (25, 20, 1000, 200)
        assert c.v_max == 4.0 and c.delta == 0.1 and c.alpha == 0.1
        assert spec.trace == "group" and spec.out_dir == "results"

    def test_defaults_come_from_simconfig(self):
        spec = parse_config_dict({"master_seed": 7})
        for arm in spec.arms:
            assert arm.config == SimConfig(master_seed=7, design=arm.config.design,
                                           tendency=arm.config.tendency)
        # every field is written out, on every design
        for entry in serialize_spec(spec)["arms"]:
            assert set(entry) == {f.name for f in fields(SimConfig)} - {"master_seed"} | {"label"}

    @pytest.mark.parametrize("label", ["../../escaped", "a/b", "a\\b", "a,b",
                                       "a\nb", "a\rb", "a\0b", "", ".", "..", 5,
                                       None, ["x"]])
    def test_bad_label_rejected(self, label):
        arms = [{"design": "siloed", "tendency": "reactive", "label": label}]
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1, "arms": arms})
        assert err.value.fields == ["label"]

    def test_missing_master_seed_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"dim": 10})
        assert "master_seed" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1, "dimensions": 10})
        assert "dimensions" in str(err.value)

    def test_out_of_range_names_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1, "silo_count": 30, "agents": 20})
        assert "silo_count" in str(err.value)

    def test_unknown_arm_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"master_seed": 1,
                               "arms": [{"design": "siloed", "tendency": "reactive",
                                         "speed": 3}]})

    def test_bad_design_and_tendency(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"master_seed": 1,
                               "arms": [{"design": "matrix", "tendency": "reactive"}]})
        with pytest.raises(ConfigError):
            parse_config_dict({"master_seed": 1,
                               "arms": [{"design": "siloed", "tendency": "zen"}]})

    def test_duplicate_labels_rejected(self):
        arm = {"design": "siloed", "tendency": "reactive"}
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1, "arms": [arm, dict(arm)]})
        assert "duplicate" in str(err.value)

    def test_arm_overrides_apply(self):
        spec = parse_config_dict({
            "master_seed": 1, "dim": 10,
            "arms": [{"design": "dynamic", "tendency": "perceptive",
                      "dim": 12, "reshuffle_interval": 3}]})
        c = spec.arms[0].config
        assert c.dim == 12
        assert c.reshuffle_interval == 3

    def test_fully_networked_ignores_global_silo_count(self):
        spec = parse_config_dict({"master_seed": 1, "silo_count": 5,
                                  "arms": [{"design": "fully_networked",
                                            "tendency": "reactive"}]})
        c = spec.arms[0].config
        assert init_swarm(c, replicate_rng(c.master_seed, 0)).assignment.silo_count == 1

    def test_round_trip(self):
        spec = parse_config_dict(dict(TINY))
        assert parse_config_dict(serialize_spec(spec)) == spec

    def test_round_trip_with_explicit_arms(self):
        spec = parse_config_dict({
            "master_seed": 5, "trace": "none", "out_dir": "x", "workers": 2,
            "arms": [
                {"design": "dynamic", "tendency": "reactive", "silo_count": 3,
                 "reshuffle_interval": 7, "label": "fast"},
                {"design": "fully_networked", "tendency": "perceptive"},
            ]})
        assert parse_config_dict(serialize_spec(spec)) == spec

    def test_serialize_refuses_arms_with_different_master_seeds(self):
        # the mapping has one master_seed, so such a spec cannot round-trip
        arms = [Arm(label, SimConfig(master_seed=seed, design=DesignKind.FULLY_NETWORKED,
                                     tendency=Tendency.REACTIVE))
                for label, seed in (("a", 1), ("b", 2))]
        with pytest.raises(ConfigError) as err:
            serialize_spec(ExperimentSpec(arms))
        assert err.value.fields == ["master_seed"]

    def test_serialize_refuses_a_spec_without_arms(self):
        # as the parser does: "arms must be a non-empty list"
        with pytest.raises(ConfigError) as err:
            serialize_spec(ExperimentSpec([]))
        assert err.value.fields == ["arms"]

    def test_parse_config_file_and_bad_json(self, tmp_path):
        path = write_config(tmp_path, dict(TINY))
        assert len(parse_config(path).arms) == 6
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_with_overrides(self):
        data = dict(TINY)
        out = parse_config_dict(data, master_seed=99, replicates=2, workers=3,
                                trace="none", out_dir="elsewhere")
        assert all(a.config.master_seed == 99 for a in out.arms)
        assert all(a.config.replicates == 2 for a in out.arms)
        assert (out.workers, out.trace, out.out_dir) == (3, "none", "elsewhere")
        # original untouched
        assert data == TINY
        # an arm's own replicates give way too
        arms = [{"design": "siloed", "tendency": "reactive", "replicates": 7}]
        out = parse_config_dict({**TINY, "arms": arms}, replicates=2)
        assert out.arms[0].config.replicates == 2

    @pytest.mark.parametrize("override,field", [
        ({"workers": 0}, "workers"), ({"workers": -1}, "workers"),
        ({"workers": True}, "workers"), ({"trace": "loud"}, "trace"),
        ({"master_seed": -1}, "master_seed"), ({"replicates": 0}, "replicates"),
    ])
    def test_with_overrides_checked_like_config(self, override, field):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(dict(TINY), **override)
        assert err.value.fields == [field]
        key, value = next(iter(override.items()))
        if key in ("workers", "trace"):
            with pytest.raises(ConfigError) as err:
                parse_config_dict({**TINY, key: value})
            assert err.value.fields == [field]


@pytest.fixture(scope="module")
def tiny_output(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny")
    spec = parse_config_dict(dict(TINY))
    return run_experiment(spec, out_dir=out_dir), out_dir


class TestRunExperiment:
    def test_summary_cardinality(self, tiny_output):
        output, out_dir = tiny_output
        lines = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert lines[0].startswith("arm,replicate,seed,group_convergence")
        assert len(lines) == 1 + 6 * TINY["replicates"]

    def test_rows_sorted_by_arm_then_replicate(self, tiny_output):
        _, out_dir = tiny_output
        rows = [line.split(",")[:2] for line in
                (out_dir / "summary.csv").read_text().strip().splitlines()[1:]]
        keys = [(arm, int(rep)) for arm, rep in rows]
        assert keys == sorted(keys)

    def test_arms_csv_one_row_per_arm(self, tiny_output):
        _, out_dir = tiny_output
        lines = (out_dir / "arms.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == sorted(labels)

    def test_comparisons_all_pairs_sorted(self, tiny_output):
        _, out_dir = tiny_output
        lines = (out_dir / "comparisons.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 15
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_curves_written_at_group_trace(self, tiny_output):
        output, out_dir = tiny_output
        curves = sorted(p.name for p in (out_dir / "curves").iterdir())
        assert len(curves) == 6
        first = (out_dir / "curves" / curves[0]).read_text().strip().splitlines()
        assert first[0] == "iteration,mean_best_fitness,mean_mean_fitness"
        assert len(first) == 1 + TINY["max_iterations"]
        assert first[1].split(",")[0] == "1"

    def test_goals_recorded(self, tiny_output):
        _, out_dir = tiny_output
        lines = (out_dir / "goals.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * TINY["replicates"]
        goal = lines[1].split(",")[2]
        assert len(goal) == TINY["dim"] and set(goal) <= {"0", "1"}

    @pytest.mark.parametrize("case,field", [
        pytest.param("dim", "dim", id="dim"),
        pytest.param("label", "label", id="label_escape"),
        pytest.param("duplicate", "arms", id="duplicate_labels"),
        pytest.param("no_arms", "arms", id="no_arms"),
        pytest.param("empty_out_dir", "out_dir", id="empty_out_dir"),
        pytest.param("empty_out_dir_argument", "out_dir", id="empty_out_dir_argument"),
        pytest.param("mixed_seeds", "master_seed", id="mixed_seeds"),
    ])
    def test_hand_built_spec_validated_before_anything_runs(self, tmp_path, monkeypatch,
                                                            case, field):
        good = parse_config_dict(dict(TINY)).arms[0]
        bad = Arm("bad", SimConfig(master_seed=1, design=DesignKind.SILOED, silo_count=2,
                                   tendency=Tendency.REACTIVE, dim=0))
        spec = {  # fields other than workers, each past the parser's checks
            "dim": {"arms": [good, bad]},
            # at trace full it would write out/esc.csv and out/esc/replicate_*.csv
            "label": {"arms": [Arm("../esc", good.config)], "trace": "full"},
            # one summary: the first arm's results would be dropped
            "duplicate": {"arms": [Arm("a", good.config), Arm("a", good.config)]},
            # CSVs that hold only a header
            "no_arms": {"arms": []},
            # every file written into the current directory
            "empty_out_dir": {"arms": [good], "out_dir": ""},
            "empty_out_dir_argument": {"arms": [good]},
            # arms no config can express: a config has one master_seed
            "mixed_seeds": {"arms": [good, Arm("b", replace(good.config, master_seed=1))]},
        }[case]
        monkeypatch.chdir(tmp_path)
        out = {"empty_out_dir": {}, "empty_out_dir_argument": {"out_dir": ""}}.get(
            case, {"out_dir": tmp_path / "out"})
        with pytest.raises(ConfigError) as err:
            run_experiment(ExperimentSpec(workers=1, **spec), **out)
        assert err.value.fields == [field]
        assert not any(tmp_path.iterdir())

    def test_summaries_match_results(self, tiny_output):
        output, _ = tiny_output
        for summary in output.summaries:
            results = output.results[summary.label]
            assert summary.n == len(results)
            conv = [r.group_convergence for r in results
                    if r.group_convergence is not None]
            assert summary.successes == len(conv)
            if conv:
                assert summary.median_group_convergence == float(np.median(conv))


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        spec = parse_config_dict(dict(TINY))
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(spec, out_dir=a)
        run_experiment(spec, out_dir=b)
        for name in ("summary.csv", "arms.csv", "comparisons.csv", "goals.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        base = dict(TINY)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_experiment(parse_config_dict({**base, "workers": 1}), out_dir=serial)
        run_experiment(parse_config_dict({**base, "workers": 2}), out_dir=parallel)
        for name in ("summary.csv", "arms.csv", "comparisons.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_every_file_independent_of_worker_count(self, tmp_path):
        # 27 replicates make two blocks per arm; trace full writes every file kind.
        spec = {**TINY, "replicates": 27, "trace": "full"}
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_experiment(parse_config_dict({**spec, "workers": workers}), out_dir=out)
            outputs[workers] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs[1]) == 4 + 6 + 6 * 27
        assert outputs[1] == outputs[2]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every pool built; the blocks run in this
        process, so no real pool is ever started."""
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_no_larger_than_block_count(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the blocks bind, not the host
        arms = [{"design": "siloed", "tendency": t} for t in ("reactive", "perceptive")]
        run_experiment(parse_config_dict({**TINY, "arms": arms[:1], "workers": 64}),
                       out_dir=tmp_path / "one")
        assert pool_sizes == []
        outputs = {}
        for workers in (1, 64):
            out = tmp_path / f"w{workers}"
            run_experiment(parse_config_dict({**TINY, "arms": arms, "workers": workers}),
                           out_dir=out)
            outputs[workers] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
        assert pool_sizes == [2]
        assert outputs[1] == outputs[64]

    def test_pool_no_larger_than_host(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        arms = [{"design": d, "tendency": t} for d in ("siloed", "dynamic")
                for t in ("reactive", "perceptive")]  # 4 one-block arms
        for workers in (64, None):
            run_experiment(parse_config_dict({**TINY, "arms": arms, "workers": workers}),
                           out_dir=tmp_path / f"w{workers}")
        assert pool_sizes == [3, 3]

    def test_every_file_independent_of_start_method(self, tmp_path):
        # The pool takes Python's default start method, which differs across
        # platforms and Python versions; workers must write the same bytes
        # whether they are forked or started fresh.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TINY, "replicates": 27, "trace": "full"}),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(orgswarm.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]))}
        outputs = {}
        for method in ("fork", "spawn", "forkserver"):
            out = tmp_path / method
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_WITH_START_METHOD, method, str(config), str(out)],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs[method] = {p.relative_to(out): p.read_bytes()
                               for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs["fork"]) == 4 + 6 + 6 * 27
        assert outputs["spawn"] == outputs["fork"]
        assert outputs["forkserver"] == outputs["fork"]

    def test_every_file_independent_of_arm_order(self, tmp_path):
        # Parsed specs are sorted by label; a hand-built one may not be.
        spec = parse_config_dict({**TINY, "replicates": 2, "trace": "full"})
        reversed_spec = ExperimentSpec(arms=spec.arms[::-1], workers=1, trace="full")
        outputs = []
        for name, s in (("sorted", spec), ("reversed", reversed_spec)):
            out = tmp_path / name
            run_experiment(s, out_dir=out)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] == outputs[1]
        arm_column = [line.split(",")[0] for line in
                      outputs[1][Path("summary.csv")].decode().splitlines()[1:]]
        assert arm_column == sorted(arm_column)


_RUN_WITH_START_METHOD = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from orgswarm.cli import main
sys.exit(main(["run", "--config", sys.argv[2], "--out", sys.argv[3], "--workers", "2"]))
"""


class TestTraceLevels:
    def test_trace_none_emits_no_trace_files(self, tmp_path):
        spec = parse_config_dict({**TINY, "trace": "none"})
        run_experiment(spec, out_dir=tmp_path / "out")
        assert not (tmp_path / "out" / "curves").exists()
        assert not (tmp_path / "out" / "traces").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_trace_none_summaries_carry_the_unwritten_curves(self, tmp_path, tiny_output):
        # the trace level chooses the files written, not what is recorded
        spec = parse_config_dict({**TINY, "trace": "none"})
        output = run_experiment(spec, out_dir=tmp_path / "out")
        for summary, traced in zip(output.summaries, tiny_output[0].summaries):
            assert summary.curve_best.size == TINY["max_iterations"]
            assert np.array_equal(summary.curve_best, traced.curve_best)
            assert np.array_equal(summary.curve_mean, traced.curve_mean)

    def test_trace_full_emits_per_replicate_files(self, tmp_path):
        spec = parse_config_dict({**TINY, "replicates": 2, "trace": "full"})
        output = run_experiment(spec, out_dir=tmp_path / "out")
        trace_dir = tmp_path / "out" / "traces"
        files = sorted(trace_dir.rglob("replicate_*.csv"))
        assert len(files) == 12
        text = files[0].read_text().splitlines()
        assert text[0].startswith("# goal=")
        header = text[1].split(",")
        n = spec.arms[0].config.agents
        assert "fitness_of_agent_0" in header
        assert f"silo_of_agent_{n-1}" in header
        assert "W_0" in header and "C1_0" in header and "C2_0" in header
        # replicate results keep only the light fields afterwards
        for results in output.results.values():
            assert all(r.full_trace is None for r in results)
