"""The config boundary is one module: ``orgswarm.experiment``.

Inputs are validated once, there, before a replicate runs. The simulation
modules take a validated config as given, so none of them imports from
``orgswarm.experiment`` or names ``ConfigError``: a check added to the hot
loop would fail here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orgswarm"
SIMULATION = ["engine", "kinematics", "policies", "strategy", "topology", "stats"]


@pytest.mark.parametrize("module", SIMULATION)
def test_simulation_module_stays_off_the_config_boundary(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None), *(a.name for a in node.names)]]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not [m for m in imported if m and m.split(".")[-1] == "experiment"]
    assert "ConfigError" not in names | set(imported)

