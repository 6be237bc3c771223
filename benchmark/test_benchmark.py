"""Self-checks of the benchmark: python3 -m pytest benchmark/test_benchmark.py

Each run uses ``--seconds 0``, which still covers every case of the
workload (at least one whole pass and two ops).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent
# end-to-end figures that do not depend on timing
SCORES = ("digits_xi", "digits_a", "digits_sup", "pass_frac")
# per-op counts computed from argument sizes; they must repeat exactly
COUNTERS = (
    "spectrum.product_spectrum.macs",
    "spectrum.eval_partial_sum.matrix_mib",
    "solver.disambiguate_nth_root.candidates",
    "reconstruct.polish_sweeps",
)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


@pytest.mark.parametrize("workload", ["many-small", "extended-cli", "large-M"])
def test_one_seed_repeats_digits_and_counters(workload):
    first, second = run(workload, 11, 0), run(workload, 11, 0)
    assert first["correct"] and second["correct"]
    assert values(first, SCORES) == values(second, SCORES)
    assert first["failed"] == second["failed"]

    traced = [run(workload, 11, 1) for _ in range(2)]
    assert values(traced[0], COUNTERS) == values(traced[1], COUNTERS)


def test_second_seed_runs():
    result = run("many-small", 12, 0)
    assert result["correct"]
    assert result["attempted"] >= 248


def test_missing_program_fails_without_result(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "many-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
