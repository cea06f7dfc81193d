"""Tests of the benchmark itself: input constructions, output contract,
zero failures on the current code and exact repeatability of the counters.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from mapcones import family, superop

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, seed, trace, seconds=0.5, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The numpy constructions agree with mapcones' own
# ---------------------------------------------------------------------------

def test_ckl_choi_applies_the_defining_formula():
    rng = np.random.default_rng(0)
    a, b, c = 2.0, 1.0, 0.3
    phi = superop.from_choi(workloads.ckl_choi(a, b, c), 3, 3)
    x = workloads._complex(rng, (3, 3))
    circ = np.array([[a, b, c], [c, a, b], [b, c, a]])
    np.testing.assert_allclose(phi.apply(x), np.diag(circ @ np.diag(x)) - x, atol=1e-12)


def test_local_unitary_matches_superop():
    rng = np.random.default_rng(1)
    u, w = workloads._unitary(rng, 3), workloads._unitary(rng, 2)
    choi = workloads.kraus_choi([workloads._complex(rng, (3, 2)) for _ in range(2)])
    phi = superop.from_choi(choi, 2, 3)
    rotated = superop.ad_map(u).compose(phi).compose(superop.ad_map(w))
    np.testing.assert_allclose(workloads.local_unitary(choi, u, w), rotated.choi, atol=1e-12)


def test_family_constructions_match_family_module():
    rng = np.random.default_rng(2)
    v = workloads._complex(rng, (4, 3))
    np.testing.assert_allclose(workloads.family_choi(v, 0.3),
                               family.build(family.PhiLambdaSpec(v, 0.3)).choi, atol=1e-12)
    for k in (1, 2, 3):
        assert workloads.k_threshold(v, k) == pytest.approx(
            family.k_positivity_threshold(v, k), rel=1e-12)


def test_rounds_repeat_for_a_seed():
    first = workloads.decide_search_round(workloads.round_rng(7, 3))
    assert first == workloads.decide_search_round(workloads.round_rng(7, 3))
    assert first != workloads.decide_search_round(workloads.round_rng(7, 4))


def test_parse_importtime_attributes_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:        40 |         70 |   scipy.linalg",
        "import time:         5 |        255 | mapcones.cones",
        "import time:         7 |        262 | mapcones",
    ])
    assert run.parse_importtime(stderr) == {"numpy": 150e-6, "scipy": 70e-6, "self": 12e-6}


# ---------------------------------------------------------------------------
# Runs of the benchmark at a tiny size
# ---------------------------------------------------------------------------

def test_spec_lists_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_present_and_no_failures(workload):
    proc = _bench(workload, seed=3, trace=0)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    shown = json.loads(proc.stdout.strip().splitlines()[1])["summary"]["metrics"]
    assert shown["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert shown["unknown_ratio"]["unit"] == "ratio"
    if workload == "verify":
        assert shown["unknown_ratio"]["value"] == 0.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counters_repeat_exactly(workload):
    first, second = (_result(_bench(workload, seed=5, trace=1)) for _ in range(2))
    assert first["failed"] == 0
    assert {name: m["unit"] for name, m in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "calls/op")}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["traced.ops"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("verify", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
