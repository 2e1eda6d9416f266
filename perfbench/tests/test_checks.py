"""The enhance output checks fail on outputs a broken chain would write."""

import numpy as np
import pytest

import inputs
import workloads


def _check(tmp_path, make_output):
    workload = workloads.Enhance64(tmp_path / "work", seed=1)
    workload.generate()
    out = tmp_path / "pass"
    workloads.write_set(out / "enhanced", [make_output(c, d) for c, d in zip(workload.clean, workload.degraded)])
    return workload.check(out)


def test_a_restored_scene_passes(tmp_path):
    values, problems, _ = _check(tmp_path, lambda clean, degraded: clean)
    assert problems == []
    assert values["psnr_gain_db"] > 0


@pytest.mark.parametrize(
    "make_output",
    [
        lambda clean, degraded: degraded,
        lambda clean, degraded: np.full_like(clean, 128),
        lambda clean, degraded: np.random.default_rng(0).integers(0, 256, clean.shape, dtype=np.uint8),
    ],
    ids=["unchanged-input", "flat-grey", "noise"],
)
def test_broken_outputs_fail(tmp_path, make_output):
    _, problems, _ = _check(tmp_path, make_output)
    assert problems


def test_a_missing_output_fails(tmp_path):
    workload = workloads.Enhance64(tmp_path / "work", seed=1)
    workload.generate()
    (tmp_path / "pass" / "enhanced").mkdir(parents=True)
    inputs.write_png(tmp_path / "pass" / "enhanced" / workload.names[0], workload.clean[0])
    _, problems, _ = workload.check(tmp_path / "pass")
    assert any("missing" in p for p in problems)
