"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, asserts that every metric is emitted
with its unit and every check passes, and that the checker flags wrong point
values.  It changes nothing in ppclab.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric_and_passes_its_checks(name, trace):
    wl = workloads.build(name, seed=7, smoke=True)
    tally, metrics, _ = run.run_workload(wl, 7, 0.2, trace, kernel_scale=0.01)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    doc = run.render(tally, metrics, units)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, \
        tally.problems
    assert set(doc["metrics"]) == set(units)
    for key, entry in doc["metrics"].items():
        assert entry["unit"] == units[key]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(doc["metrics"][k]["value"] > 0 for k in units)


def test_same_seed_gives_same_inputs():
    for name in workloads.NAMES:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        # walk-short draws from three literals, so two seeds may coincide
        assert len({workloads.build(name, s).jobs for s in range(6)}) > 1


def _orbit(alpha_text, n):
    from ppclab.families import orbit, parse_family
    from ppclab.hpreal import parse_alpha

    return orbit(parse_family("monomial:k=2"), parse_alpha(alpha_text, 128),
                 n, Fraction(1, 2**40))


def _nudged(points, i, by):
    from ppclab.hpreal import UnitPoint

    bad = list(points)
    bad[i] = UnitPoint((bad[i].value + by) % 1, bad[i].error)
    return bad


def test_oracle_flags_a_wrong_point_value():
    run.load_ppclab()
    alpha = "1.5012345678901234567"
    orb = _orbit(alpha, 30)
    exps = checks.degrees("monomial:k=2", 30)
    assert checks.oracle_problems(alpha, exps, orb.points) == []
    # a shift of 2^-30 is far beyond the certified 2^-40
    bad = _nudged(orb.points, 12, Fraction(1, 2**30))
    problems = checks.oracle_problems(alpha, exps, bad)
    assert len(problems) == 1 and "n=13" in problems[0]


def test_pow_frac_cross_check_flags_a_wrong_point_value():
    run.load_ppclab()
    alpha = "1.5012345678901234567"
    orb = _orbit(alpha, 150)  # d up to 22500, beyond the exact oracle
    exps = checks.degrees("monomial:k=2", 150)
    delta = orb.delta
    assert checks.pow_frac_problems(alpha, exps, orb.points, [149], delta) == []
    bad = _nudged(orb.points, 149, Fraction(1, 2**35))
    assert checks.pow_frac_problems(alpha, exps, bad, [149], delta)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "walk-k2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
