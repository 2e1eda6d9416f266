import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdiff import autodiff as ad
from uwdiff import training
from uwdiff.autodiff import Tensor
from uwdiff.config import RunConfig
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import make_linear_schedule, stream_rng
from uwdiff.errors import ParameterError, ShapeMismatchError, TrainingDivergedError
from uwdiff.training import (
    Adam,
    LossWeights,
    OptimizerConfig,
    _apply_transform,
    _draw_transform,
    applied_lr,
    composite_loss,
    fine_tune,
    grad_check,
)

from toy_world import tiny_context


def unit(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


def loss_terms(eps, eps_hat, emb_gen, emb_target, weights) -> tuple[float, float, float]:
    terms = composite_loss(eps, Tensor(eps_hat), Tensor(emb_gen), emb_target, weights)
    return tuple(term.item() for term in terms)


class TestCompositeLoss:
    def test_vanishes_on_perfect_match(self, rng):
        eps = rng.standard_normal((3, 4, 4))
        emb = unit(rng.standard_normal(8))
        total, l1, semantic = loss_terms(eps, eps, emb, emb, LossWeights())
        assert l1 == 0.0
        assert semantic == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_lambda2_zero_collapses_to_l1(self, rng):
        eps = rng.standard_normal(10)
        eps_hat = rng.standard_normal(10)
        emb_a, emb_b = unit(rng.standard_normal(4)), unit(rng.standard_normal(4))
        total, l1, _ = loss_terms(eps, eps_hat, emb_a, emb_b, LossWeights(0.7, 0.0))
        assert total == pytest.approx(0.7 * l1, abs=1e-15)
        assert l1 == pytest.approx(np.mean(np.abs(eps - eps_hat)))

    def test_reference_weights_arithmetic(self):
        # l1 = 0.5 and semantic = 0.25 under (0.6, 0.4) must total 0.4
        eps = np.zeros(4)
        eps_hat = np.full(4, 0.5)
        phi = unit([1.0, 0.0])
        angle = math.acos(0.75)
        other = np.array([math.cos(angle), math.sin(angle)])
        total, l1, semantic = loss_terms(eps, eps_hat, phi, other, LossWeights(0.6, 0.4))
        assert l1 == pytest.approx(0.5)
        assert semantic == pytest.approx(0.25)
        assert total == pytest.approx(0.4, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    def test_decomposition_property(self, seed, l1w, l2w):
        gen = np.random.default_rng(seed)
        eps = gen.standard_normal(6)
        eps_hat = gen.standard_normal(6)
        emb_a, emb_b = unit(gen.standard_normal(5)), unit(gen.standard_normal(5))
        weights = LossWeights(l1w, l2w)
        total, l1, semantic = loss_terms(eps, eps_hat, emb_a, emb_b, weights)
        assert abs(total - (l1w * l1 + l2w * semantic)) < 1e-12

    def test_semantic_distance_bounds(self, rng):
        eps = np.zeros(3)
        a = unit(rng.standard_normal(6))

        def distance(u, v) -> float:
            return loss_terms(eps, eps, u, v, LossWeights(0.0, 1.0))[2]

        assert distance(a, a) == pytest.approx(0.0, abs=1e-12)
        for _ in range(20):
            b = unit(rng.standard_normal(6))
            assert 0.0 <= distance(a, b) <= 2.0

    def test_noise_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            composite_loss(np.zeros(4), Tensor(np.zeros(5)), None, None, LossWeights(1.0, 0.0))

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ParameterError):
            LossWeights(-0.1, 0.5)


class TestLearningRateSchedule:
    def test_applied_lr_is_previous_scheduler_state(self):
        # the linear scheduler holds base * (1 - k/total) after k updates and
        # reaches 0 after the last; update k runs at the state after k - 1
        base, total = 0.4, 8
        assert applied_lr(base, 1, total) == base
        for k in range(2, total + 1):
            assert applied_lr(base, k, total) == pytest.approx(base * (1 - (k - 1) / total))
        assert applied_lr(base, total + 1, total) == 0.0


def augmented(data, rng):
    """One draw of the flip/rotation that fine_tune applies to an (H, W, 3) array."""
    return _apply_transform(data, *_draw_transform(rng))


class TestAugment:
    def test_double_hflip_is_identity(self, rng):
        data = rng.uniform(0, 1, (5, 7, 3))
        flipped = _apply_transform(data, True, 0)
        assert not np.array_equal(flipped, data)
        assert np.array_equal(_apply_transform(flipped, True, 0), data)

    def test_pixel_multiset_invariant(self, rng):
        data = rng.uniform(0, 1, (6, 6, 3))
        for seed in range(8):
            out = augmented(data, np.random.default_rng(seed))
            assert np.array_equal(np.sort(out.reshape(-1, 3), axis=0), np.sort(data.reshape(-1, 3), axis=0))

    def test_rotation_changes_layout(self, rng):
        data = rng.uniform(0, 1, (6, 6, 3))
        seen = {_apply_transform(data, False, q).tobytes() for q in range(4)}
        assert len(seen) == 4


class TestGradCheck:
    def test_linear_function_exact(self):
        coeffs = np.array([1.5, -2.0, 0.25])
        x = Tensor(np.array([0.3, 0.7, -0.2]), requires_grad=True)

        def fn():
            return ad.tsum(x * Tensor(coeffs))

        report = grad_check(fn, {"x": x}, tolerance=1e-10, samples_per_group=3)
        assert report.passed
        assert max(report.max_rel_error.values()) < 1e-10

    def test_corrupted_gradient_detected(self):
        x = Tensor(np.array([0.4, 0.9]), requires_grad=True)

        def sign_flipped_square(t: Tensor) -> Tensor:
            out = Tensor(t.data**2)
            out.requires_grad = True
            out._parents = (t,)
            out._backward = (lambda g: -g * 2.0 * t.data,)  # wrong sign on purpose
            return out

        def fn():
            return ad.tsum(sign_flipped_square(x))

        report = grad_check(fn, {"x": x}, tolerance=1e-4, samples_per_group=2)
        assert not report.passed

    def test_nonfinite_gradient_reported_with_location(self):
        # d/dx sqrt(x) at 0 is infinite while the forward value stays finite
        x = Tensor(np.array([1.0, 0.0]), requires_grad=True)

        def fn():
            return ad.tsum(x**0.5)

        with np.errstate(divide="ignore"):
            report = grad_check(fn, {"bad_group": x}, tolerance=1e-4)
        assert not report.passed
        assert any("bad_group" in failure for failure in report.failures)

    def test_frozen_tensor_is_checked_and_stays_frozen(self):
        w = Tensor(np.array([0.5, -1.5]))  # requires no gradient
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)

        def fn():
            return ad.tsum((w * x) ** 2.0)

        report = grad_check(fn, {"w": w, "x": x}, tolerance=1e-6, samples_per_group=2)
        assert report.passed and report.max_rel_error["w"] < 1e-6
        assert not w.requires_grad and w.grad is None
        assert x.requires_grad


class LinearDenoiser:
    """Scalar affine predictor eps_hat = a * x_t + b; ignores the condition."""

    def __init__(self, a: float = 0.0, b: float = 0.0):
        self.a = Tensor(np.array(a), requires_grad=True)
        self.b = Tensor(np.array(b), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.a, self.b]

    def noise_graph(self, x_t: Tensor, condition, t: int, sched) -> Tensor:
        return x_t * self.a + self.b


def scalar_pairs(count, seed, mu=0.0, sigma=1.0):
    gen = np.random.default_rng(seed)
    return [(np.array([v]), None) for v in gen.normal(mu, sigma, count)]


class TestFineTune:
    def test_zero_learning_rate_keeps_initial_parameters(self):
        sched = make_linear_schedule(40, 1e-4, 0.05)
        model = LinearDenoiser(a=0.3, b=-0.1)
        fine_tune(
            model,
            scalar_pairs(16, 0),
            sched,
            weights=LossWeights(1.0, 0.0),
            optimizer=OptimizerConfig(learning_rate=0.0, total_steps=5, seed=0),
        )
        assert float(model.a.data) == 0.3
        assert float(model.b.data) == -0.1

    def test_same_seed_identical_logs(self):
        sched = make_linear_schedule(40, 1e-4, 0.05)

        def run():
            model = LinearDenoiser()
            result = fine_tune(
                model,
                scalar_pairs(16, 1),
                sched,
                weights=LossWeights(1.0, 0.0),
                optimizer=OptimizerConfig(learning_rate=0.01, total_steps=30, seed=5),
            )
            return result.log_text(), model.a.data.copy(), model.b.data.copy()

        (log_a, a1, b1), (log_b, a2, b2) = run(), run()
        assert log_a == log_b
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_linear_model_approaches_least_squares_optimum(self):
        # single fixed timestep so the L1 and least-squares minimizers coincide
        sched = RunConfig().schedule()
        t0 = 100
        ab = sched.alpha_bar_at(t0)
        s2 = ab * 1.0 + 1 - ab
        a_star = math.sqrt(1 - ab) / s2
        min_l1 = math.sqrt(2 / math.pi) * math.sqrt(1 - (1 - ab) / s2)

        model = LinearDenoiser()
        result = fine_tune(
            model,
            scalar_pairs(256, 0),
            sched,
            weights=LossWeights(1.0, 0.0),
            optimizer=OptimizerConfig(learning_rate=0.02, total_steps=800, seed=0),
            t_range=(t0, t0),
        )
        window = 50
        values = [r.l1_term for r in result.log]
        means = [float(np.mean(values[i : i + window])) for i in range(0, len(values), window)]
        # windowed means drift down toward the closed-form minimum; the slack
        # covers single-sample noise (3 standard errors of a 50-step window)
        assert all(b <= a + 0.08 for a, b in zip(means, means[1:])), means
        assert means[-1] < means[0] * 0.7
        assert abs(means[-1] - min_l1) < 0.06
        assert float(model.a.data) == pytest.approx(a_star, abs=0.05)

    def test_nonfinite_loss_aborts_with_step(self):
        sched = make_linear_schedule(40, 1e-4, 0.05)
        model = LinearDenoiser(a=float("nan"))
        with pytest.raises(TrainingDivergedError, match="step 1"):
            fine_tune(
                model,
                scalar_pairs(4, 0),
                sched,
                weights=LossWeights(1.0, 0.0),
                optimizer=OptimizerConfig(learning_rate=0.01, total_steps=3, seed=0),
            )

    def test_semantic_weight_requires_context(self):
        sched = make_linear_schedule(10, 1e-4, 0.05)
        with pytest.raises(ParameterError):
            fine_tune(
                LinearDenoiser(),
                scalar_pairs(4, 0),
                sched,
                weights=LossWeights(0.6, 0.4),
                optimizer=OptimizerConfig(learning_rate=0.01, total_steps=2, seed=0),
            )

    def test_empty_dataset_rejected(self):
        sched = make_linear_schedule(10, 1e-4, 0.05)
        with pytest.raises(ParameterError):
            fine_tune(
                LinearDenoiser(),
                [],
                sched,
                weights=LossWeights(1.0, 0.0),
                optimizer=OptimizerConfig(learning_rate=0.01, total_steps=2, seed=0),
            )

    def test_conditional_denoiser_trains_on_images(self, rng):
        sched = make_linear_schedule(60, 1e-4, 0.2)
        pairs = [
            (rng.uniform(-1, 1, (3, 12, 12)), rng.uniform(-1, 1, (3, 12, 12))) for _ in range(4)
        ]
        model = ConditionalDenoiser(width=6, seed=0)
        result = fine_tune(
            model,
            pairs,
            sched,
            weights=LossWeights(1.0, 0.0),
            optimizer=OptimizerConfig(learning_rate=2e-3, total_steps=120, seed=0),
            t_range=(6, 60),
        )
        first = np.mean([r.total for r in result.log[:20]])
        last = np.mean([r.total for r in result.log[-20:]])
        assert last < first

    def test_image_pairs_draw_augmentation_before_each_timestep(self, rng):
        # stream (seed, 78) per step: pair index, flip draw, rotation draw,
        # quarter turns when the rotation draw is < 0.5, timestep, then noise
        sched = make_linear_schedule(40, 1e-4, 0.2)
        pairs = [(rng.uniform(-1, 1, (3, 8, 8)), rng.uniform(-1, 1, (3, 8, 8))) for _ in range(3)]
        steps, seed = 12, 9
        result = fine_tune(
            ConditionalDenoiser(width=2, seed=0),
            pairs,
            sched,
            weights=LossWeights(1.0, 0.0),
            optimizer=OptimizerConfig(learning_rate=1e-3, total_steps=steps, seed=seed),
        )
        replay = stream_rng(seed, 78)
        want = []
        for _ in range(steps):
            replay.integers(0, len(pairs))
            replay.random()
            if replay.random() < 0.5:
                replay.integers(1, 4)
            want.append(int(replay.integers(1, sched.steps + 1)))
            replay.standard_normal((3, 8, 8))
        assert [r.t for r in result.log] == want

    def test_each_reference_transform_is_embedded_once(self, rng, monkeypatch):
        # the frozen classifier's embedding of a reference depends only on
        # (pair, flip, quarters), so each is computed once per fine_tune call,
        # through the module-level name that tracing hooks
        sched = make_linear_schedule(40, 1e-4, 0.2)
        pairs = [(rng.uniform(-1, 1, (3, 8, 8)), rng.uniform(-1, 1, (3, 8, 8))) for _ in range(2)]
        context = tiny_context(0.0)
        steps, seed = 30, 9
        embed, references = training.embed_image_graph, []

        def recording(x, params):
            if not x._parents:
                references.append(x.data)
            return embed(x, params)

        monkeypatch.setattr(training, "embed_image_graph", recording)
        result = fine_tune(
            ConditionalDenoiser(width=2, seed=0),
            pairs,
            sched,
            weights=LossWeights(0.6, 0.4),
            optimizer=OptimizerConfig(learning_rate=1e-3, total_steps=steps, seed=seed),
            context=context,
        )
        replay, keys = stream_rng(seed, 78), set()
        for _ in range(steps):
            index, flip = int(replay.integers(0, len(pairs))), bool(replay.random() < 0.5)
            keys.add((index, flip, int(replay.integers(1, 4)) if replay.random() < 0.5 else 0))
            replay.integers(1, sched.steps + 1)
            replay.standard_normal((3, 8, 8))
        assert len(references) == len(keys) < steps
        assert all(r.semantic_term > 0 for r in result.log)

    def test_denoiser_records_no_graph_after_fine_tune_returns(self, rng):
        sched = make_linear_schedule(10, 1e-4, 0.2)
        x0, condition = rng.uniform(-1, 1, (2, 3, 8, 8))
        model = ConditionalDenoiser(width=2, seed=0)
        assert not model.noise_graph(Tensor(x0[None]), condition[None], 5, sched)._parents
        fine_tune(
            model,
            [(x0, condition)],
            sched,
            weights=LossWeights(1.0, 0.0),
            optimizer=OptimizerConfig(learning_rate=1e-3, total_steps=1, seed=0),
        )
        assert not model.noise_graph(Tensor(x0[None]), condition[None], 5, sched)._parents
        assert all(not p.requires_grad and p.grad is None for p in model.parameters())

    def test_parameters_are_plain_leaves_after_a_diverging_fine_tune(self):
        sched = make_linear_schedule(40, 1e-4, 0.05)
        model = LinearDenoiser(a=float("nan"))
        with pytest.raises(TrainingDivergedError):
            fine_tune(
                model,
                scalar_pairs(4, 0),
                sched,
                weights=LossWeights(1.0, 0.0),
                optimizer=OptimizerConfig(learning_rate=0.01, total_steps=3, seed=0),
            )
        assert all(not p.requires_grad and p.grad is None for p in model.parameters())


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        Adam([p]).step(0.1)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_step_direction_follows_negative_gradient(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([2.0])
        Adam([p]).step(0.1)
        assert p.data[0] < 0.0
