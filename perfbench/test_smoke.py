"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

They run the cheapest workload for one second in both modes, check the
result line against BENCHMARK.json, check that the benchmark refuses to run
without the program, and check that the independent certificates reject
wrong answers.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import reference
from workloads import reflection_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "7",
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run(ROOT, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 40
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run(ROOT, "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["arrangement.lattice_calls.per_analyze"]["value"] == 2
    assert metrics["arrangement.lattice_calls.per_deform"]["value"] == 10


def test_refuses_to_run_without_the_program():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = _run(bare, "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_certificates_reject_wrong_answers():
    lines = reflection_lines(2, False)  # A(2,2,3): free, mdr 2
    f = reference.product_of_lines(lines)
    one = (Fraction(1), Fraction(0))
    # Euler: x f_x + y f_y + z f_z = 6 f, so (x, y, z) is no syzygy
    euler = ({(1, 0, 0): one}, {(0, 1, 0): one}, {(0, 0, 1): one})
    assert not reference.witness_holds(f, euler, 1)
    assert reference.full_column_rank_mod_p(f, 1) is not None
    assert reference.full_column_rank_mod_p(f, 2) is None  # the degree-2 syzygy


def test_witness_text_round_trip():
    p = reference.parse_poly("-x^2*y+(1+2*w)*x*z^2-3/2*w*y^3+z^3")
    assert p[(2, 1, 0)] == (Fraction(-1), Fraction(0))
    assert p[(1, 0, 2)] == (Fraction(1), Fraction(2))
    assert p[(0, 3, 0)] == (Fraction(0), Fraction(-3, 2))
    assert p[(0, 0, 3)] == (Fraction(1), Fraction(0))
