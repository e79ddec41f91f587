"""Names that code outside the package looks up must keep resolving, and
the package root exports only such names.

The demos import from ``orgswarm``; the benchmark in ``perfbench/`` wraps
functions by ``(module, attribute)`` (``tracing.TRACED``). Both are read
from their files, so this test needs nothing from them but their text.
"""

import ast
import importlib
import importlib.util
import re
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


def test_traced_functions_resolve():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


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
