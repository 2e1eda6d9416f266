import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdiff.config import RunConfig
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import (
    AnalyticGaussianWorld,
    GuidanceConfig,
    combine_scores_lambda,
    forward_sample,
    guided_noise_prediction,
    make_linear_schedule,
    respace,
    reverse_step,
    score_from_noise,
    stream_rng,
)
from uwdiff.errors import ParameterError, ShapeMismatchError
from uwdiff.verification import sample_terminal


class TestSchedule:
    def test_reference_endpoints(self):
        sched = make_linear_schedule(2000, 1e-6, 1e-2)
        assert sched.beta_at(1) == pytest.approx(1e-6, rel=0, abs=0)
        assert sched.beta_at(2000) == pytest.approx(1e-2, rel=0, abs=0)

    def test_single_step(self):
        sched = make_linear_schedule(1, 0.3, 0.3)
        assert sched.alpha_bar_at(1) == pytest.approx(0.7)

    def test_alpha_bar_strictly_decreasing(self):
        for sched in (RunConfig().schedule(), make_linear_schedule(50, 1e-4, 0.05)):
            assert np.all(np.diff(sched.alpha_bar) < 0)
            assert 0 < sched.alpha_bar[-1] < sched.alpha_bar[0] < 1

    def test_the_run_config_schedule_is_pinned_near_the_reference_terminal_alpha_bar(self):
        desk = RunConfig().schedule()
        assert desk.steps == 200 and desk.beta[0] == 1e-5 and desk.beta[-1] == 1e-1
        # the 2000-step reference ramp's endpoints scaled by 2000/200 keep its cumulative product close
        reference = make_linear_schedule(2000, 1e-6, 1e-2)
        assert math.log(desk.alpha_bar[-1]) == pytest.approx(
            math.log(reference.alpha_bar[-1]), rel=0.05
        )

    def test_invalid_ranges(self):
        with pytest.raises(ParameterError):
            make_linear_schedule(0, 1e-4, 1e-2)
        with pytest.raises(ParameterError):
            make_linear_schedule(10, 0.0, 1e-2)
        with pytest.raises(ParameterError):
            make_linear_schedule(10, 0.2, 0.1)
        with pytest.raises(ParameterError):
            make_linear_schedule(10, 0.5, 1.0)

    def test_step_out_of_range(self):
        sched = make_linear_schedule(10, 1e-4, 0.05)
        with pytest.raises(ParameterError):
            sched.alpha_bar_at(0)
        with pytest.raises(ParameterError):
            sched.alpha_bar_at(11)


def gap_sum(sched, steps):
    """Sum of beta - beta~ over the reverse steps between consecutive kept training steps, down to 0."""
    ab = np.concatenate(([1.0], sched.alpha_bar))
    return sum((ab[s] - ab[t]) ** 2 / (ab[s] * (1.0 - ab[t])) for s, t in zip((0, *steps), steps))


class TestRespace:
    def test_every_step_is_the_schedule_itself(self):
        sched = RunConfig().schedule()
        assert np.array_equal(sched.timestep, np.arange(1, sched.steps + 1))
        assert respace(sched, sched.steps) is sched
        assert respace(sched, sched.steps + 1) is sched

    @pytest.mark.parametrize("steps", [2, 5, 60, 101, 150, 199, 200, 202])
    def test_takes_k_steps_for_any_schedule_length(self, steps):
        sched = make_linear_schedule(steps, 1e-5, 1e-1)
        for k in sorted({1, 2, 3, steps // 3, steps // 2, 100, steps - 1} & set(range(1, steps))):
            short = respace(sched, k)
            assert short.steps == k, (k, short.steps)
            assert short.timestep[-1] == steps and np.all(np.diff(short.timestep) > 0)

    @pytest.mark.parametrize("k", [100, 50, 40, 7])
    def test_alpha_bar_is_the_schedules_own_at_each_kept_step(self, k):
        sched = RunConfig().schedule()
        short = respace(sched, k)
        for step in range(1, short.steps + 1):
            assert short.alpha_bar_at(step) == sched.alpha_bar_at(short.timestep_at(step))
        assert np.array_equal(short.beta, 1.0 - short.alpha)
        assert math.prod(short.alpha) == pytest.approx(sched.alpha_bar[-1], rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_no_other_steps_from_1_to_the_last_have_a_smaller_sum_of_variance_gaps(self, k):
        sched = make_linear_schedule(9, 1e-3, 0.5)
        best = min(gap_sum(sched, (1, *inner, 9)) for inner in itertools.combinations(range(2, 9), k - 2))
        assert gap_sum(sched, respace(sched, k).timestep) == pytest.approx(best, rel=1e-12)
        assert respace(sched, k).timestep[0] == 1

    def test_one_step_is_the_last(self):
        sched = make_linear_schedule(9, 1e-3, 0.5)
        assert respace(sched, 1).timestep.tolist() == [9]

    @pytest.mark.parametrize("k", [100, 50, 40, 25])
    def test_sum_of_variance_gaps_is_below_even_strides(self, k):
        sched = RunConfig().schedule()
        stride = sched.steps // k
        assert gap_sum(sched, respace(sched, k).timestep) < gap_sum(sched, range(stride, sched.steps + 1, stride))

    def test_a_respaced_step_feeds_the_denoiser_its_training_steps_features(self):
        sched = RunConfig().schedule()
        short = respace(sched, 100)
        model = ConditionalDenoiser(width=4, seed=3).astype(np.float32)
        gen = np.random.default_rng(0)
        x, condition = gen.standard_normal((2, 1, 3, 8, 8))
        for step in (1, 37, 80, 99, 100):
            t = short.timestep_at(step)
            assert np.array_equal(model(x, condition, step, short), model(x, condition, t, sched)), (step, t)

    @pytest.mark.parametrize("k", [0, -3])
    def test_fewer_than_one_step_is_rejected(self, k):
        with pytest.raises(ParameterError, match=f"sampler steps must be >= 1, got {k}"):
            respace(RunConfig().schedule(), k)


class TestForwardSample:
    def test_zero_noise_branch(self, rng):
        sched = make_linear_schedule(100, 2e-5, 0.2)
        x0 = rng.standard_normal((4, 4))
        x_t = forward_sample(x0, 60, np.zeros_like(x0), sched)
        assert np.allclose(x_t, math.sqrt(sched.alpha_bar_at(60)) * x0)

    def test_early_step_stays_near_x0(self, rng):
        sched = RunConfig().schedule()
        x0 = rng.standard_normal(8)
        eps = rng.standard_normal(8)
        x_1 = forward_sample(x0, 1, eps, sched)
        ab = sched.alpha_bar_at(1)
        bound = math.sqrt(1 - ab) * np.linalg.norm(eps) + (1 - math.sqrt(ab)) * np.linalg.norm(x0)
        assert np.linalg.norm(x_1 - x0) <= bound + 1e-12

    def test_marginal_matches_closed_form(self):
        sched = RunConfig().schedule()
        n = 100_000
        gen = stream_rng(7, 0)
        x0, t = 0.4, 120
        x_t = forward_sample(np.full(n, x0), t, gen.standard_normal(n), sched)
        ab = sched.alpha_bar_at(t)
        want_mean, want_var = math.sqrt(ab) * x0, 1 - ab
        assert abs(x_t.mean() - want_mean) < 3 * math.sqrt(want_var / n)
        assert abs(x_t.var() - want_var) < 3 * want_var * math.sqrt(2 / (n - 1))

    def test_shape_mismatch(self):
        sched = make_linear_schedule(10, 1e-4, 0.05)
        with pytest.raises(ShapeMismatchError):
            forward_sample(np.zeros(3), 5, np.zeros(4), sched)


class TestScoreFromNoise:
    def test_zero_and_linearity(self, rng):
        sched = make_linear_schedule(50, 4e-5, 0.4)
        assert np.allclose(score_from_noise(np.zeros(5), 10, sched), 0.0)
        eps = rng.standard_normal(5)
        assert np.allclose(
            score_from_noise(2 * eps, 10, sched), 2 * score_from_noise(eps, 10, sched)
        )

    def test_matches_analytic_score(self, rng):
        sched = RunConfig().schedule()
        world = AnalyticGaussianWorld(mu0=0.5, var0=2.0, var_y=1.0)
        for t in (1, 77, 200):
            x = rng.standard_normal(32)
            eps_hat = world.exact_noise_prediction(x, t, sched)
            assert np.allclose(
                score_from_noise(eps_hat, t, sched), world.exact_score(x, t, sched), atol=1e-9
            )


class TestGuidanceAlgebra:
    def test_lambda_endpoints(self, rng):
        base, g1, g2 = rng.standard_normal((3, 6))
        assert np.allclose(combine_scores_lambda(base, g1, g2, 1.0), base + g1)
        assert np.allclose(combine_scores_lambda(base, g1, g2, 0.0), base + g2)
        assert np.allclose(
            combine_scores_lambda(base, g1, g2, 0.5), base + 0.5 * (g1 + g2)
        )

    def test_zero_gradients_collapse(self, rng):
        sched = make_linear_schedule(60, 3e-5, 0.3)
        eps = rng.standard_normal(4)
        zero = np.zeros(4)
        for cfg in (
            GuidanceConfig(gamma1=0.3, gamma2=0.7),
            GuidanceConfig(gamma1=0.0, gamma2=0.0),
        ):
            assert np.allclose(guided_noise_prediction(eps, zero, zero, 30, sched, cfg), eps)

    def test_gamma_pair_weighting(self, rng):
        sched = make_linear_schedule(60, 3e-5, 0.3)
        eps, g1, g2 = rng.standard_normal((3, 4))
        cfg = GuidanceConfig(gamma1=0.7, gamma2=1.9)
        root = math.sqrt(1 - sched.alpha_bar_at(25))
        want = eps - 0.7 * root * g1 - 1.9 * root * g2
        assert np.allclose(guided_noise_prediction(eps, g1, g2, 25, sched, cfg), want)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_noise_space_equals_score_space(self, lam, t, seed):
        sched = RunConfig().schedule()
        gen = np.random.default_rng(seed)
        eps_theta, g1, g2 = gen.standard_normal((3, 5))
        cfg = GuidanceConfig(gamma1=lam, gamma2=1.0 - lam)
        via_noise = score_from_noise(
            guided_noise_prediction(eps_theta, g1, g2, t, sched, cfg), t, sched
        )
        direct = combine_scores_lambda(score_from_noise(eps_theta, t, sched), g1, g2, lam)
        assert np.max(np.abs(via_noise - direct)) < 1e-12

    def test_invalid_configs(self):
        with pytest.raises(ParameterError):
            GuidanceConfig(gamma1=-0.1)
        with pytest.raises(ParameterError):
            GuidanceConfig(gamma2=-0.1)


class TestReverseStep:
    def test_terminal_step_deterministic(self, rng):
        sched = make_linear_schedule(30, 6e-5, 0.6)
        x = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        outs = {reverse_step(x, eps, 1, sched, stream_rng(0, i)).tobytes() for i in range(3)}
        assert len(outs) == 1

    def test_unguided_sampler_recovers_prior(self):
        sched = RunConfig().schedule()
        world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=1.0)
        n = 4000
        samples = sample_terminal(world, sched, n, stream_rng(3, 0))
        assert abs(samples.mean()) < 3 / math.sqrt(n)
        assert abs(samples.var() - 1.0) < 3 * math.sqrt(2 / (n - 1))

    def test_guided_sampler_recovers_posterior(self):
        sched = RunConfig().schedule()
        world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
        n = 4000
        samples = sample_terminal(
            world, sched, n, stream_rng(4, 0), observations=(2.0,),
            cfg=GuidanceConfig(gamma1=1.0),
        )
        mean, var = world.posterior(2.0)
        assert abs(samples.mean() - mean) < 3 * math.sqrt(var / n)
        assert abs(samples.var() - var) < 3 * var * math.sqrt(2 / (n - 1))


class TestAnalyticWorld:
    def test_posterior_formula(self):
        world = AnalyticGaussianWorld(mu0=0.0, var0=1.0, var_y=0.5)
        mean, var = world.posterior(2.0)
        assert mean == pytest.approx(4 / 3)
        assert var == pytest.approx(1 / 3)

    def test_observation_score_is_exact_bayes(self, rng):
        # prior score + obs score must equal the posterior-marginal score
        sched = RunConfig().schedule()
        world = AnalyticGaussianWorld(mu0=0.3, var0=1.4, var_y=0.8)
        y = 1.1
        mean_post, var_post = world.posterior(y)
        posterior_world = AnalyticGaussianWorld(mu0=mean_post, var0=var_post, var_y=1.0)
        for t in (1, 50, 200):
            x = rng.standard_normal(16)
            combined = world.exact_score(x, t, sched) + world.observation_score(x, y, t, sched)
            assert np.allclose(combined, posterior_world.exact_score(x, t, sched), atol=1e-9)
