"""Names that code outside the package looks up must keep resolving, and
the package root exports only such names.

The demos import from ``orgswarm``; the benchmark in ``perfbench/`` wraps
functions by ``(module, attribute)`` (``tracing.TRACED``). Both are read
from their files, so these tests need nothing from them but their text, and
one traced run through ``perfbench/child.py``. Demo 01 must also keep
printing the same text for its seeded replicate.
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


def test_demo_01_stdout():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_single_replicate.py")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_01_STDOUT


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
    # trace "full" the workers also write the per-agent traces.
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
