"""Names that code outside the package looks up must keep resolving, and
the package root exports only such names.

The demos import from ``orgswarm``; the benchmark in ``perfbench/`` wraps
functions by ``(module, attribute)`` (``tracing.TRACED``). Both are read
from their files, so these tests need nothing from them but their text, and
one traced run through ``perfbench/child.py``. Demos 01, 04 and 05 must
also keep printing the same text for their seeded runs.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orgswarm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("orgswarm"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {alias.name}"


DEMO_01_STDOUT = """\
goal strategy : 0011111100100111101110010
replicate seed: 15824617304438902051
first agent hit the goal at iteration 16
group converged at iteration 101 (budget 1000)
per-agent first hits: [16, 16, 17, 19, 22, 24, 26, 29, 29, 36, 36, 37, 38, 45, 48, 61, 77, 81, 92, 101]

iteration  best  mean
        1     7  11.00
       15     2   4.50
       29     0   2.50
       43     1   2.45
       58     0   2.15
       72     0   2.85
       86     0   2.05
      101     0   2.05
"""


DEMO_04_STDOUT = """\
[1,2,3] vs [10,11,12]: U=0.0, p=0.1000 (exact)
identical samples:     U=4.5, p=1.0000 (normal)

fully networked vs siloed (reactive, 60 replicates):
  medians 82 vs 122
  median ratio 0.679, U=633.5, p=9.14e-10 (normal)
"""

DEMO_05_STDOUT = """\
outputs in demo_results/
arm                                success   median
dynamic+perceptive                 50/50      116.0
dynamic+reactive                   50/50      101.0
fully_networked+perceptive         50/50       93.5
fully_networked+reactive           50/50       88.0
siloed+perceptive                  50/50      146.0
siloed+reactive                    50/50      123.5

pairwise comparisons (ratio < 1 means arm_a is faster):
  dynamic+perceptive           vs dynamic+reactive             ratio  1.15 p=0.021
  dynamic+perceptive           vs fully_networked+perceptive   ratio  1.24 p=0.016
  dynamic+perceptive           vs fully_networked+reactive     ratio  1.32 p=0.00071
  dynamic+perceptive           vs siloed+perceptive            ratio  0.79 p=1.2e-05
  dynamic+perceptive           vs siloed+reactive              ratio  0.94 p=0.23
  dynamic+reactive             vs fully_networked+perceptive   ratio  1.08 p=0.68
  dynamic+reactive             vs fully_networked+reactive     ratio  1.15 p=0.1
  dynamic+reactive             vs siloed+perceptive            ratio  0.69 p=1.1e-09
  dynamic+reactive             vs siloed+reactive              ratio  0.82 p=0.00068
  fully_networked+perceptive   vs fully_networked+reactive     ratio  1.06 p=0.27
  fully_networked+perceptive   vs siloed+perceptive            ratio  0.64 p=3.2e-08
  fully_networked+perceptive   vs siloed+reactive              ratio  0.76 p=0.0006
  fully_networked+reactive     vs siloed+perceptive            ratio  0.60 p=2.6e-09
  fully_networked+reactive     vs siloed+reactive              ratio  0.71 p=1.7e-05
  siloed+perceptive            vs siloed+reactive              ratio  1.18 p=0.00029
"""


@pytest.mark.parametrize("demo,stdout", [
    ("01_single_replicate.py", DEMO_01_STDOUT),
    ("04_rank_test.py", DEMO_04_STDOUT),
    ("05_full_experiment.py", DEMO_05_STDOUT),
], ids=["01", "04", "05"])
def test_demo_stdout(tmp_path, demo, stdout):
    # run in tmp_path: demo 05 writes demo_results/ into its working directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = _tracing()
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


@pytest.mark.parametrize("trace", ["group", "full"])
def test_traced_run_spans_every_step_and_replicate(tmp_path, trace):
    # The benchmark's traced run checks its counts against the outputs: one
    # engine.step span per replicate-iteration and one engine.run_replicate
    # span per replicate, pool workers included (6 arms x 30 replicates); at
    # trace "full" the workers also write the per-agent traces. Every arm
    # converges, so each of the 15 arm pairs runs one U test, and the test is
    # looked up on orgswarm.stats, where the traced run wraps it.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"master_seed": 5, "dim": 8, "agents": 6,
                                  "max_iterations": 60, "replicates": 30,
                                  "silo_count": 2}), encoding="utf-8")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "--trace",
         "--", "run", "--config", str(config), "--out", str(tmp_path / "out"),
         "--workers", "2", "--trace", trace], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["rc"] == 0, proc.stderr
    metrics, replicate_s = _tracing().layer_metrics(record["spans"], workers=2)
    assert metrics["engine.step.calls"] == record["rep_iters"] > 0
    assert len(replicate_s) == 6 * 30
    assert metrics["stats.mann_whitney_u.calls"] == 15
    assert len(list((tmp_path / "out").glob("traces/*/replicate_*.csv"))) == (
        6 * 30 if trace == "full" else 0)


def test_all_names_resolve():
    for name in orgswarm.__all__:
        assert hasattr(orgswarm, name), name


def test_every_public_name_has_a_caller():
    # a name counts as used when a demo, README.md or a Python or Markdown
    # file under perfbench/ or tools/ spells it out
    callers = [*DEMOS, ROOT / "README.md",
               *[p for d in ("perfbench", "tools") for pattern in ("*.py", "*.md")
                 for p in sorted((ROOT / d).glob(pattern))]]
    text = "\n".join(p.read_text(encoding="utf-8") for p in callers)
    unused = [name for name in orgswarm.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
