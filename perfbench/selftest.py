"""Determinism self-test of the benchmark harness.

    python3 -m pytest perfbench/selftest.py

Two traced runs with one seed must report identical operation counts,
including ``fields.peak_degree``, ``fields.peak_coeff_bits`` and
``grammar.output_bytes``; and in each traced run the traced stdout of every
task must be byte-identical to the untraced stdout.  A traced run has a
fixed number of rounds whatever ``--seconds`` says, and takes about 35 s on
a 2-core x86 machine, so the six runs take about four minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
TIMED = ("s", "ms")


def traced_run(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "2", "--trace", "1"],
                          capture_output=True, text=True, cwd=str(HERE.parent), timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace1.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", ["suite", "cli_symbolic", "points"])
def test_traced_counts_repeat_and_stdout_is_unchanged(workload):
    runs = [traced_run(workload, 7) for _ in range(2)]
    counts = [{k: m["value"] for k, m in result["metrics"].items()
               if m["unit"] not in TIMED and k != "trace.overhead_frac"}
              for result, _ in runs]
    assert counts[0] == counts[1]
    assert {"fields.peak_degree", "fields.peak_coeff_bits", "grammar.output_bytes"} <= set(counts[0])
    for result, record in runs:
        assert record["notes"]["traced_output_identical"]
        assert result["correct"]
