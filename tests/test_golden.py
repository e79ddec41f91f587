"""Golden outputs: SHA-256 of every file ``run_experiment`` writes.

The first three cases' digests were recorded from the engine before the
per-agent API, the ``binarization`` field and the hot-path checks were
removed, and ``default_shape_full``'s from the engine before its step was
rewritten around precomputed silo orders and in-place personal bests; any
change to a CSV byte, a file name or the set of files written fails this
test. The matrix is tiny but covers all three designs, both tendencies,
historical and instantaneous leaders, stochastic acceleration,
freeze-on-goal, an explicit pressure horizon, never-converged replicates and
every trace level; ``default_shape_full`` runs the paper's 20 x 25 swarm with
unequal silos (7/7/6). The cases are also run in a subprocess with every
SIMD target above numpy's baseline switched off, since ``sigmoid``'s
``np.exp`` is the one operation whose bits follow the dispatch level.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orgswarm
from orgswarm import parse_config_dict, run_experiment

TINY = {"master_seed": 20260808, "dim": 6, "agents": 4, "max_iterations": 40,
        "replicates": 3, "silo_count": 2, "reshuffle_interval": 3,
        "workers": 1}

CASES = {
    # the standard 3 designs x 2 tendencies grid
    "grid_group": {**TINY},
    # budget too small for most replicates: empty cells, censored ratios
    "grid_none_censored": {**TINY, "dim": 8, "max_iterations": 10,
                           "replicates": 4, "trace": "none"},
    "variants_full": {
        **TINY, "replicates": 2, "trace": "full", "master_seed": 7,
        "arms": [
            {"design": "dynamic", "tendency": "perceptive",
             "stochastic_acceleration": True, "pressure_horizon": 5,
             "label": "dyn-accel"},
            {"design": "siloed", "tendency": "reactive",
             "gbest_mode": "instantaneous", "freeze_on_goal": True,
             "label": "silo-inst-freeze"},
            {"design": "fully_networked", "tendency": "perceptive",
             "gbest_mode": "instantaneous", "alpha": 0.5, "delta": 0.2,
             "v_max": 2.5, "inertia_init": [0.5, 0.7], "coeff_max": 3.0},
            {"design": "dynamic", "tendency": "reactive", "silo_count": 4,
             "reshuffle_interval": 1, "freeze_on_goal": True,
             "stochastic_acceleration": True},
        ]},
    "default_shape_full": {
        "master_seed": 20261018, "dim": 25, "agents": 20, "max_iterations": 60,
        "replicates": 2, "silo_count": 3, "workers": 1, "trace": "full",
        "arms": [
            {"design": "dynamic", "tendency": "perceptive"},
            {"design": "siloed", "tendency": "reactive",
             "gbest_mode": "instantaneous", "stochastic_acceleration": True,
             "freeze_on_goal": True},
        ]},
}

GOLDEN = {
    'default_shape_full': {
        'arms.csv':
            '24dff18d51e842fa9a46e849b34ed574f26966cad7f14a49c868b43e9eb482fb',
        'comparisons.csv':
            '21d86fbd0ca6d6a9b682656a18574c04cbf7ba8b5f0b7d3496b99f8148026e77',
        'curves/dynamic+perceptive.csv':
            '3363c7812f12113aac11e974687b2c640eda80e160d1ccea6c12ed4d57efdd38',
        'curves/siloed+reactive.csv':
            'c6658636c9b9bf917414929e7b2b3919c7c1c89142d904f227ea299095874140',
        'goals.csv':
            'a34cfc70eb4adc40418d55234fed46c43de539b17e532835118deea1a6dfc549',
        'summary.csv':
            '47b393956b2573f6924e338bed29b1982de96236a42c1c2206db3e47a2fba739',
        'traces/dynamic+perceptive/replicate_0.csv':
            'de2749ed845b8940f6d97bebb72fa21cb30b8d7ee82571af1dd2f5a20d14f2ce',
        'traces/dynamic+perceptive/replicate_1.csv':
            '0cd944cf7b8f90df3c3bb33ff70ffee9487f52ee0bae3fe4bfa0211513f987f0',
        'traces/siloed+reactive/replicate_0.csv':
            '4be8d06d43842d90eb88fcbb8cefdc9f951f3a4fb001cb73d164492ee11d6de8',
        'traces/siloed+reactive/replicate_1.csv':
            '0937662055ca3e5ad8bccfea26469ea8031ab80268a9aa65f942dd158f02420c',
    },
    'grid_group': {
        'arms.csv':
            '13c376fcab42ecbe517de3b30cc5e779ed94243b504dd6d4ddc56c4daba71ea9',
        'comparisons.csv':
            '4a05b819cde1f8f514dbbe93c9b0ab140cce2a28c3f84006f80fb351b67c2cb6',
        'curves/dynamic+perceptive.csv':
            '8ea74392605596461fc19aac2c01a3464c3f984a27457f609b06d588523e87a0',
        'curves/dynamic+reactive.csv':
            '690eeded8cfb21eff093e8ed74f26a5d80485c120f322ffcb5a8b3a3b20ae56c',
        'curves/fully_networked+perceptive.csv':
            'f3a66a13db24c8efb0fc19803335bd17b1b9bb3f0f0fd6e3d86049da1629ecf2',
        'curves/fully_networked+reactive.csv':
            '42bd49dcc3c11d91da670619ead2ac13708ee709e2e38d47fc34e7b9df498234',
        'curves/siloed+perceptive.csv':
            'a33d01d42e96bbf43242557962d26dcad25e9c268029531c7bc22dd4cd008934',
        'curves/siloed+reactive.csv':
            '147d68d6899db4d6bbd6c0a322cfb60b212193026cc4741c005c64274ababa9c',
        'goals.csv':
            'b1ffd68dcbeed9d0de090a12d38d4b5a52e428f9e48ead6b6b1422d25eb2cafa',
        'summary.csv':
            'cf0cd3885261aa9b69b8296b5a4d4f0bc9ce064eaf7af3079d240e6638e99871',
    },
    'grid_none_censored': {
        'arms.csv':
            'b184356224585f4da1a29bc313ff1454e5e89199a05090405efa29c250334554',
        'comparisons.csv':
            '393ef0e0c8135d278007697c027a77b9220f0f378c12da6972f4212425f1072c',
        'goals.csv':
            '46901342b1bfa1cbc68e565b5754c6d42dd2b61fe237ee10acc1ffd411aba543',
        'summary.csv':
            'da06bc65b87da238f5799918f211decb5e8949e86fe98ab05857f86d409d1d3a',
    },
    'variants_full': {
        'arms.csv':
            'c3f39ccc57aa32c0847487a4d28942f821bd87eac0492c7183fe9ed4e401b3bb',
        'comparisons.csv':
            '0157868325171e0dead915fb16e1317b5373c8e19f7912b0d5c495c420ee18a6',
        'curves/dyn-accel.csv':
            '6ed9a9c428e47ceac35c837adc84b4f161e03e83235ac55d9e5405a1962ddb7e',
        'curves/dynamic+reactive.csv':
            '039a878e148e5fcb7433d6dd4bdba7ba31dda2cc0c9d66fe9c2bd3cad5fb4def',
        'curves/fully_networked+perceptive.csv':
            'aee1e6ea47105e822412b717b215efefa6a1a7fb88f48f8001aaf883c44ddf86',
        'curves/silo-inst-freeze.csv':
            '8320e4184f8491cf87f238218fbf3d82a957bff499f6830256052e4552cf2568',
        'goals.csv':
            'd58624df2c199461fffe7280388ed576c96872a4634b8ea2a22ff660dc8b6d9d',
        'summary.csv':
            '64faa0054744d56d9eeed6d44cc33a1f2084d00aef56a9470dd270e6e74d084a',
        'traces/dyn-accel/replicate_0.csv':
            'ac405ba998e1db1241a2cb13c85179cfd0e2653ac9acaeba62c50e0c238e9f92',
        'traces/dyn-accel/replicate_1.csv':
            'aaf7e01fa54c986d35a788a83f588f7f80235e777e86f39c6735ef83c2c785e4',
        'traces/dynamic+reactive/replicate_0.csv':
            'acb00fb17bb75829ce8295abbad35c5c6b85761b2f2c829f6152e443cfee8275',
        'traces/dynamic+reactive/replicate_1.csv':
            'a98bc4c1a5a3828a63775684937aba6c6da52023feb5cfa7d2edbad7f42c318b',
        'traces/fully_networked+perceptive/replicate_0.csv':
            '3353414ed07ba3e4987613ebdfd82972a378ec4e24a07af3f9f279860c1689df',
        'traces/fully_networked+perceptive/replicate_1.csv':
            'de13436c927c807370aa51a02de6ad2a8b7b15b5b1387692ecf69fc5c69435fe',
        'traces/silo-inst-freeze/replicate_0.csv':
            'df39cf3d4dc696038e378f43fb412ef8b2fc270dcef274824de3ea070551858d',
        'traces/silo-inst-freeze/replicate_1.csv':
            'e04e2640723330b8640554b515f236cc6c8ebb57dbe9eae2053d42566922cde2',
    },
}


def digests(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    run_experiment(parse_config_dict(CASES[name]), out_dir=tmp_path)
    assert digests(tmp_path) == GOLDEN[name]


# Runs the cases read from stdin into argv[1]/<case>, then prints which of
# the dispatch targets named in argv[2:] numpy still uses.
_RUN_CASES = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from orgswarm import parse_config_dict, run_experiment
for name, case in json.load(sys.stdin).items():
    run_experiment(parse_config_dict(case), out_dir=Path(sys.argv[1]) / name)
print(json.dumps([f for f in sys.argv[2:] if __cpu_features__[f]]))
"""


def test_golden_digests_at_baseline_simd(tmp_path):
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not targets:
        pytest.skip(f"numpy {np.__version__} dispatches to nothing above its baseline here")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(orgswarm.__file__).resolve().parents[1]),
               os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _RUN_CASES, str(tmp_path), *targets],
                          input=json.dumps(CASES), capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [], "NPY_DISABLE_CPU_FEATURES had no effect"
    assert {name: digests(tmp_path / name) for name in CASES} == GOLDEN
