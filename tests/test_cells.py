"""The CSV cell rule against a per-cell oracle.

Every file ``run_experiment`` writes formats its rows with one %-format per
file, compiled from the column types. The oracle below is the documented
rule applied one cell at a time: ``f"{x:.6g}"`` for a float, ``str`` for an
int or a str, and an empty cell for a missing (None) value.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgswarm import parse_config_dict, run_experiment, run_replicate
from orgswarm.experiment import _maybe, _row_format


def oracle(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


MIN_NORMAL = 2.2250738585072014e-308
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
               MIN_NORMAL, -MIN_NORMAL, 1e-300, -1e-300, 1e300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, 1e-5, 9.99999e-5, 1e-4, 123456.5,
               999999.5, 1e6, -1e6, 1e16, 2.0 ** 53 + 2]
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # every decade from 1e-300 to 1e300, either sign
    st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299),
              st.sampled_from([1.0, -1.0])),
)
INTS = st.integers(-2 ** 70, 2 ** 70)
# A one-element tuple is a cell that may be missing: the writers pass it
# through _maybe into a str column.
CELLS = st.lists(st.one_of(INTS, FLOATS, st.text(max_size=6),
                           st.tuples(st.one_of(st.none(), INTS, FLOATS))),
                 max_size=40)


def compiled(cells) -> str:
    types, values = [], []
    for cell in cells:
        if isinstance(cell, tuple):
            (value,) = cell
            types.append(str)
            values.append(_maybe(type(value) if value is not None else int, value))
        else:
            types.append(type(cell))
            values.append(cell)
    return _row_format(types) % tuple(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(CELLS)
@example(EDGE_FLOATS)
@example([(value,) for value in EDGE_FLOATS] + [(None,), (0,), (-7,)])
@example([0, -1, 2 ** 64 - 1, -2 ** 63, "dynamic+perceptive", "", "%d"])
def test_row_format_renders_every_cell_by_the_rule(cells):
    expected = ",".join(oracle(cell[0] if isinstance(cell, tuple) else cell)
                        for cell in cells)
    assert compiled(cells) == expected


def test_trace_file_matches_per_cell_oracle(tmp_path):
    """One replicate at the default shape (20 agents x 25 bits, 5 silos,
    budget 1000), its trace file rebuilt cell by cell."""
    spec = parse_config_dict({"master_seed": 20261018, "replicates": 1, "workers": 1,
                              "trace": "full",
                              "arms": [{"design": "dynamic", "tendency": "perceptive"}]})
    arm = spec.arms[0]
    run_experiment(spec, out_dir=tmp_path)
    written = (tmp_path / "traces" / arm.label / "replicate_0.csv").read_text()

    r = run_replicate(arm.config, 0, full=True)
    ft = r.full_trace
    n = arm.config.agents
    lines = ["# goal=" + "".join(str(bit) for bit in r.goal.tolist()),
             ",".join(["iteration", "best_fitness", "mean_fitness"]
                      + [f"fitness_of_agent_{i}" for i in range(n)]
                      + [f"silo_of_agent_{i}" for i in range(n)]
                      + [f"W_{i}" for i in range(n)]
                      + [f"C1_{i}" for i in range(n)]
                      + [f"C2_{i}" for i in range(n)])]
    for t in range(r.iterations_run + 1):
        fitness = ft["fitness"][t].tolist()
        cells = [t, min(fitness), sum(fitness) / n, *fitness, *ft["silo"][t].tolist(),
                 *ft["inertia"].tolist(), *ft["coefficients"][t, 0].tolist(),
                 *ft["coefficients"][t, 1].tolist()]
        assert len(cells) == 3 + 5 * n
        lines.append(",".join(map(oracle, cells)))
    assert r.iterations_run > 1
    assert written == "\n".join(lines) + "\n"
