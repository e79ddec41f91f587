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
from orgswarm import ConfigError, SimConfig, parse_config_dict, run_experiment
from orgswarm.engine import init_swarm, replicate_rng, run_replicate
from orgswarm.experiment import Arm, ExperimentSpec, _run_block, parse_config, serialize_spec

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
        assert kinds == set(itertools.product(("fully_networked", "siloed", "dynamic"),
                                              ("reactive", "perceptive")))
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

    @pytest.mark.parametrize("key", ["master_seed", "design", "tendency"])
    def test_missing_required_key_fails_as_null_does(self, key):
        errors = []
        for missing in (True, False):
            arm = {"design": "siloed", "tendency": "reactive"}
            data = {"master_seed": 1, "arms": [arm]}
            target = data if key == "master_seed" else arm
            if missing:
                del target[key]
            else:
                target[key] = None
            with pytest.raises(ConfigError) as err:
                parse_config_dict(data)
            errors.append((str(err.value), err.value.fields))
        assert errors[0] == errors[1]
        assert errors[0][1] == [key]

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
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1,
                               "arms": [{"design": "matrix", "tendency": "reactive"}]})
        assert err.value.fields == ["design"]
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"master_seed": 1,
                               "arms": [{"design": "siloed", "tendency": "zen"}]})
        assert err.value.fields == ["tendency"]

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
        assert init_swarm(c, replicate_rng(c.master_seed, 0)).assignment.starts.size == 1

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
        arms = [Arm(label, SimConfig(master_seed=seed, design="fully_networked",
                                     tendency="reactive"))
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

    def test_duplicate_key_keeps_its_fields(self, tmp_path):
        # the decoder's ConfigError passes through parse_config's ValueError handler as is
        path = tmp_path / "dup.json"
        path.write_text('{"master_seed": 1, "arms": [{"design": "siloed", '
                        '"tendency": "reactive", "design": "dynamic"}]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate config keys: design") as err:
            parse_config(path)
        assert err.value.fields == ["design"]

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
        # a seed override supplies a missing master_seed
        seedless = {k: v for k, v in TINY.items() if k != "master_seed"}
        assert parse_config_dict(seedless, master_seed=5).arms[0].config.master_seed == 5

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
        bad = Arm("bad", SimConfig(master_seed=1, design="siloed", silo_count=2,
                                   tendency="reactive", dim=0))
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

    def test_interrupted_run_takes_back_the_empty_out_it_made(self, tmp_path, monkeypatch):
        from orgswarm import experiment

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "_run_block", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(parse_config_dict(dict(TINY)), out_dir=tmp_path / "out")
        assert not any(tmp_path.iterdir())

    def test_failed_run_keeps_the_files_it_wrote(self, tmp_path, monkeypatch):
        from orgswarm import experiment

        def write_then_fail(config, start, trace_dir):
            _run_block(config, start, trace_dir)
            raise MemoryError

        monkeypatch.setattr(experiment, "_run_block", write_then_fail)
        with pytest.raises(MemoryError):
            run_experiment(parse_config_dict({**TINY, "trace": "full"}), out_dir=tmp_path / "out")
        assert list((tmp_path / "out" / "traces").rglob("replicate_*.csv"))

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

    def test_zero_medians_give_one_ratio_rule(self, tmp_path):
        # one agent on one bit: every replicate converges, most at t = 0, so every
        # median is 0 and the censored samples are the converged ones
        spec = parse_config_dict({"master_seed": 3, "dim": 1, "agents": 1, "replicates": 9,
                                  "max_iterations": 5, "silo_count": 1, "workers": 1})
        output = run_experiment(spec, out_dir=tmp_path)
        assert all(s.successes == s.n and s.median_group_convergence == 0
                   for s in output.summaries)
        rows = (tmp_path / "comparisons.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 15
        for row in rows:
            cells = row.split(",")
            assert cells[5] == cells[2] == "1", row


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

    def test_trace_level_chooses_files_not_their_bytes(self, tmp_path):
        def read(out, pattern):
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.glob(pattern)}

        outs = {}
        for level in ("none", "group", "full"):
            outs[level] = tmp_path / level
            run_experiment(parse_config_dict({**TINY, "trace": level}), out_dir=outs[level])
        tables = [read(out, "*.csv") for out in outs.values()]
        assert sorted(tables[0]) == ["arms.csv", "comparisons.csv", "goals.csv", "summary.csv"]
        assert tables[0] == tables[1] == tables[2]
        curves = read(outs["group"], "curves/*.csv")
        assert len(curves) == 6 and curves == read(outs["full"], "curves/*.csv")

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

    def test_each_arms_trace_files_have_their_own_layout(self, tmp_path):
        arms = [{"design": "siloed", "tendency": "reactive", "agents": n, "label": f"n{n}"}
                for n in (3, 5)]
        run_experiment(parse_config_dict({**TINY, "replicates": 2, "trace": "full",
                                          "arms": arms}), out_dir=tmp_path)
        goal_rows = (tmp_path / "goals.csv").read_text().splitlines()[1:]
        goals = {(arm, int(i)): goal for arm, i, goal in (row.split(",") for row in goal_rows)}
        for n in (3, 5):
            for i in range(2):
                path = tmp_path / "traces" / f"n{n}" / f"replicate_{i}.csv"
                goal, header, rows = _read_trace(path)
                assert goal == goals[f"n{n}", i]
                assert len(header) == 3 + 5 * n and header[-1] == f"C2_{n - 1}"
                assert rows and all(len(row) == 3 + 5 * n for row in rows)

    def test_a_frozen_agent_keeps_its_goal_and_coefficients(self, tmp_path):
        # read from the trace files: from the row where an agent first reads 0,
        # its fitness stays 0 and its C1 and C2 cells stay the same to the end
        run_experiment(parse_config_dict({**TINY, "trace": "full", "freeze_on_goal": True}),
                       out_dir=tmp_path)
        rows_after_hits = 0
        for path in sorted((tmp_path / "traces").rglob("replicate_*.csv")):
            _, header, rows = _read_trace(path)
            for i in range(TINY["agents"]):
                fitness, c1, c2 = (header.index(f"{name}{i}")
                                   for name in ("fitness_of_agent_", "C1_", "C2_"))
                hit = next((t for t, row in enumerate(rows) if row[fitness] == "0"), None)
                if hit is None:
                    continue
                for row in rows[hit:]:
                    assert (row[fitness], row[c1], row[c2]) == (
                        "0", rows[hit][c1], rows[hit][c2]), (path, i)
                rows_after_hits += len(rows) - hit - 1
        assert rows_after_hits > 0  # some agent hit before its replicate's last row

    @pytest.mark.parametrize("traced", [True, False], ids=["trace_dir", "no_trace_dir"])
    def test_run_block_writes_exactly_its_replicates_traces(self, tmp_path, monkeypatch,
                                                             traced):
        # the last, short block of a 30-replicate arm: replicates 25..29
        config = parse_config_dict({**TINY, "replicates": 30}).arms[0].config
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        monkeypatch.chdir(trace_dir)
        results = _run_block(config, 25, trace_dir if traced else None)
        assert [r.replicate_index for r in results] == list(range(25, 30))
        assert all(r.full_trace is None for r in results)
        for r in results:
            alone = run_replicate(config, r.replicate_index)
            assert (r.replicate_index, r.group_convergence) == (
                alone.replicate_index, alone.group_convergence)
            assert np.array_equal(r.trace_mean, alone.trace_mean)
        written = sorted(path.name for path in tmp_path.rglob("*"))
        assert written == sorted(["traces"] + [f"replicate_{i}.csv" for i in range(25, 30)
                                               if traced])


def _read_trace(path):
    """A trace file's goal bitstring, header names and rows of cells."""
    goal_line, header, *rows = path.read_text().splitlines()
    assert goal_line.startswith("# goal=")
    return goal_line[len("# goal="):], header.split(","), [row.split(",") for row in rows]
