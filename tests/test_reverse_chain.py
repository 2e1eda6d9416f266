"""`pipeline.reverse_chain` is the one sampler loop: `enhance` and the analytic checks of `uwdiff verify` both
run it, and it stops a chain that goes non-finite."""

import numpy as np
import pytest

from uwdiff import pipeline, verification
from uwdiff.cli import main as cli_main
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import AnalyticGaussianWorld, GuidanceConfig, make_linear_schedule, stream_rng
from uwdiff.errors import ParameterError, SamplingDivergedError
from uwdiff.images import RgbImage

from toy_world import tiny_context

SCHED = make_linear_schedule(6, 1e-3, 2e-2)


@pytest.fixture
def chains(monkeypatch):
    """Whether each reverse_chain call was unguided (its guide is None), in call order."""
    unguided, real = [], pipeline.reverse_chain

    def spy(x, predict, guide, *args):
        unguided.append(guide is None)
        return real(x, predict, guide, *args)

    monkeypatch.setattr(pipeline, "reverse_chain", spy)
    return unguided


def test_each_analytic_chain_is_one_reverse_chain(chains):
    world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
    verification.sample_terminal(world, SCHED, 8, stream_rng(0, 0))
    verification.sample_terminal(world, SCHED, 8, stream_rng(0, 1), (2.0,), GuidanceConfig(gamma1=1.0))
    verification.sample_terminal(world, SCHED, 8, stream_rng(0, 2), (2.0, -2.0), GuidanceConfig(0.3, 0.7))
    assert chains == [True, False, False]


def test_each_enhanced_image_or_run_is_one_reverse_chain(chains, rng):
    images = [RgbImage.from_array(rng.uniform(0, 1, (8, 8, 3))) for _ in range(2)]
    model, context = ConditionalDenoiser(width=2, seed=0), tiny_context(1e3)
    rngs = [stream_rng(0, i) for i in range(2)]
    pipeline.enhance_image(images[0], model, SCHED, None, None, rngs[0])
    pipeline.enhance_image(images[0], model, SCHED, None, context, rngs[0])
    pipeline.enhance_image(images, model, SCHED, None, context, rngs)
    pipeline.enhance_image(images, model, SCHED, GuidanceConfig(), context, rngs)
    assert chains == [True, False, False, True]


def nan_row_at(t_bad, row):
    def predict(x, t):
        eps = np.zeros_like(x)
        if t == t_bad:
            eps[row] = np.nan
        return eps

    return predict


def test_a_non_finite_row_stops_the_chain_naming_its_step_and_row():
    with pytest.raises(SamplingDivergedError) as caught:
        pipeline.reverse_chain(np.zeros((5, 3)), nan_row_at(4, 2), None, SCHED, None, stream_rng(0, 0))
    assert str(caught.value) == "reverse chain diverged at step t=4 of 6: 3 non-finite values in x_3"
    assert caught.value.image == 2


class NanWorld(AnalyticGaussianWorld):
    """The exact world, except that trajectory 2's noise prediction is NaN at t = 3."""

    def exact_noise_prediction(self, x_t, t, sched):
        return super().exact_noise_prediction(x_t, t, sched) + nan_row_at(3, 2)(x_t, t)


def test_an_analytic_chain_gone_non_finite_raises():
    with pytest.raises(SamplingDivergedError, match="^reverse chain diverged at step t=3 of 6: 1 non-finite") as caught:
        verification.sample_terminal(NanWorld(), SCHED, 5, stream_rng(0, 0), (2.0,), GuidanceConfig(gamma1=1.0))
    assert caught.value.image == 2


def test_verify_exits_1_when_an_analytic_chain_goes_non_finite(monkeypatch, capsys):
    monkeypatch.setattr(verification, "AnalyticGaussianWorld", NanWorld)
    assert cli_main(["verify", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(
        "error: reverse chain diverged at step t=5 of 200 (sampling step 3 of 100): 1 non-finite values in x_4"
    )
    assert "[FAIL]" not in out


def test_guided_analytic_sampling_needs_a_guidance_config():
    world = AnalyticGaussianWorld()
    with pytest.raises(ParameterError, match="GuidanceConfig"):
        verification.sample_terminal(world, SCHED, 4, stream_rng(0, 0), (1.0,))
    with pytest.raises(ParameterError, match="one or two observations"):
        verification.sample_terminal(world, SCHED, 4, stream_rng(0, 0), (1.0, 2.0, 3.0), GuidanceConfig(1.0))
