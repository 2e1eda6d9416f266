"""Traced runs: exact counts repeat for a fixed seed, and the workloads stay isolated.

Each case runs the benchmark twice end to end, so this file takes a minute or two.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

RUN = Path(__file__).resolve().parent.parent / "run.py"


def traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def exact_counts(metrics: dict) -> dict:
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith((".calls", ".flops", ".bytes", "_bytes", "graph_nodes", "finetune_steps", "skipped"))
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_a_fixed_seed(name):
    first = traced_run(name, seed=5)
    second = traced_run(name, seed=5)
    assert exact_counts(first) == exact_counts(second)
    assert first["imageio.decode_png_bytes"] > 0

    assert (first["metrics.calls"] > 0) == (name == "ingest-eval-256")
    assert (first["jointnet.alignment_pixel_grad.calls"] > 0) == (name == "guided-32")
    if name in ("enhance-64", "ingest-eval-256"):
        assert first["autodiff.backward.calls"] == 0
    assert first["synthesis.skipped"] == 0
