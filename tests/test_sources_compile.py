"""Every Python file compiles without a warning.

Python only warns about some mistakes when it compiles a file, and a warning
scrolls past in a test run. ``x is "dynamic"`` is one: it is true for
interned literals but false for the same text parsed from a config. Here
each such warning is an error.
"""

import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos", "tools") for p in (ROOT / d).rglob("*.py"))


def test_sources_compile_without_warnings():
    assert len(SOURCES) > 20
    failed = []
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_bytes(), str(path), "exec")
            except (SyntaxError, Warning) as e:
                failed.append(f"{path.relative_to(ROOT)}: {e}")
    assert failed == []
