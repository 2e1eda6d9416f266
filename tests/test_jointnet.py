import math

import numpy as np
import pytest

from uwdiff import autodiff as ad
from uwdiff import jointnet
from uwdiff.autodiff import Tensor
from uwdiff.errors import ParameterError, TrainingDivergedError
from uwdiff.images import RgbImage
from uwdiff.jointnet import (
    JointNetConfig,
    PromptTensor,
    PromptTrainConfig,
    alignment_graph,
    alignment_pixel_grad,
    attention_graph,
    embed_image,
    embed_image_graph,
    encode_graph,
    encode_prompt,
    init_params,
    init_prompts,
    pool_graph,
    prompt_bce_graph,
    prompt_logits,
    train_prompts,
)

from oracles import conv2d_loop, logistic_accuracy
from toy_world import separable_images

SMALL = JointNetConfig(width=8, embed_dim=4, token_count=5, token_width=4, text_hidden=6)


def small_params(seed=0):
    return init_params(SMALL, seed)


def random_image(rng, size=16):
    return RgbImage.from_array(rng.uniform(0, 1, (size, size, 3)))


def batch_of(*imgs):
    """(N, 3, H, W) pixels of the images."""
    return np.stack([img.data.transpose(2, 0, 1) for img in imgs])


def features_of(img, params):
    return encode_graph(Tensor(batch_of(img)), params)


def unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


def p_natural(phi, theta_n, theta_u) -> float:
    """P_natural through the logit expression prompt training uses."""
    return ad.sigmoid(prompt_logits(Tensor(np.atleast_2d(phi)), Tensor(theta_n), Tensor(theta_u))).data[0]


class TestEncoder:
    def test_zero_weights_give_zero_features(self, rng):
        params = small_params()
        for i in (1, 2, 3):
            w = params.tensors[f"conv{i}.weight"]
            w.data = np.zeros_like(w.data)
        features = features_of(random_image(rng), params)
        assert np.allclose(features.data, 0.0)  # tanh(0) = 0 through every block

    def test_deterministic(self, rng):
        params = small_params()
        img = random_image(rng)
        a = features_of(img, params)
        b = features_of(img, params)
        assert np.array_equal(a.data, b.data)

    def test_single_layer_matches_loop_convolution(self, rng):
        # analytic configuration: run only the first conv block by hand
        params = small_params()
        x = rng.uniform(0, 1, (3, 8, 8))
        w, b = params.tensors["conv1.weight"], params.tensors["conv1.bias"]
        out = ad.conv2d(Tensor(x[None]), w, b, stride=2, padding=1)
        ref = conv2d_loop(x, w.data, b.data, 2, 1)
        assert np.allclose(out.data[0], ref, atol=1e-10)

    def test_undersized_input_rejected(self, rng):
        with pytest.raises(ParameterError):
            embed_image(RgbImage.from_array(rng.uniform(0, 1, (4, 4, 3))), small_params())


class TestAttention:
    def test_zero_params_give_half_mask(self, rng):
        params = small_params()
        params.tensors["attn.weight"].data = np.zeros_like(params.tensors["attn.weight"].data)
        params.tensors["attn.bias"].data = np.zeros_like(params.tensors["attn.bias"].data)
        mask = attention_graph(features_of(random_image(rng), params), params)
        assert np.allclose(mask.data, 0.5)

    def test_large_bias_saturates(self, rng):
        params = small_params()
        params.tensors["attn.bias"].data = np.full_like(params.tensors["attn.bias"].data, 25.0)
        mask = attention_graph(features_of(random_image(rng), params), params)
        assert np.all(mask.data > 1 - 1e-8)

    def test_mask_range_contract(self, rng):
        params = small_params(seed=3)
        for _ in range(5):
            mask = attention_graph(features_of(random_image(rng), params), params)
            assert mask.data.shape[:2] == (1, 1)
            assert mask.data.min() >= 0.0 and mask.data.max() <= 1.0

    def test_apply_attention_identity_and_zero(self, rng):
        # a saturated all-ones mask leaves the features as they are; an all-zero
        # mask removes them, so the embedding falls back to the first basis vector
        params = small_params()
        img = random_image(rng)
        x = Tensor(batch_of(img))
        params.tensors["attn.weight"].data = np.zeros_like(params.tensors["attn.weight"].data)
        params.tensors["attn.bias"].data = np.full_like(params.tensors["attn.bias"].data, 50.0)
        unmasked = pool_graph(features_of(img, params), params).data
        assert np.array_equal(embed_image_graph(x, params).data, unmasked)
        params.tensors["attn.bias"].data = np.full_like(params.tensors["attn.bias"].data, -800.0)
        with np.errstate(over="ignore"):
            assert np.array_equal(embed_image_graph(x, params).data, np.eye(4)[:1])

    def test_apply_attention_matches_scalar_loop(self, rng):
        params = small_params(seed=2)
        img = random_image(rng)
        features = features_of(img, params).data
        mask = attention_graph(Tensor(features), params).data
        attended = np.empty_like(features)
        for c in range(features.shape[1]):
            for i in range(features.shape[2]):
                for j in range(features.shape[3]):
                    attended[0, c, i, j] = features[0, c, i, j] * mask[0, 0, i, j]
        x = Tensor(batch_of(img))
        assert np.array_equal(embed_image_graph(x, params).data, pool_graph(Tensor(attended), params).data)


class TestPooling:
    def test_constant_features_pool_to_constants(self):
        # identity projection exposes the pooled vector (up to normalization)
        params = init_params(JointNetConfig(width=8, embed_dim=8, token_count=5, token_width=4, text_hidden=6), 0)
        params.tensors["proj.weight"].data = np.eye(8)
        values = np.stack([np.full((3, 3), c + 1.0) for c in range(8)])
        pooled = pool_graph(Tensor(values[None]), params).data
        assert np.allclose(pooled, unit(np.arange(1.0, 9.0)))

    def test_embedding_normalized(self, rng):
        params = small_params()
        emb = pool_graph(Tensor(rng.standard_normal((3, 8, 4, 4))), params).data
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)

    def test_spatial_permutation_invariance(self, rng):
        params = small_params()
        values = rng.standard_normal((1, 8, 4, 4))
        emb = pool_graph(Tensor(values), params).data
        flat = values.reshape(8, -1)
        perm = rng.permutation(16)
        emb_perm = pool_graph(Tensor(flat[:, perm].reshape(1, 8, 4, 4)), params).data
        assert np.allclose(emb, emb_perm, atol=1e-12)


class TestNormalize:
    def test_guarded_row_in_a_batch_leaves_the_other_rows_alone(self, rng):
        rows = rng.standard_normal((3, 4))
        rows[1] = 1e-14
        got = jointnet.normalize_graph(Tensor(rows)).data
        assert np.array_equal(got[1], np.eye(4)[0])
        for i in (0, 2):
            assert np.array_equal(got[i], jointnet.normalize_graph(Tensor(rows[i])).data)


class TestPromptEncoder:
    def test_zero_prompt_zero_bias_hits_normalization_guard(self):
        params = small_params()
        params.tensors["token.bias"].data = np.zeros_like(params.tensors["token.bias"].data)
        params.tensors["text.bias"].data = np.zeros_like(params.tensors["text.bias"].data)
        emb = encode_prompt(PromptTensor(np.zeros((5, 4))), params)
        basis = np.zeros(4)
        basis[0] = 1.0
        assert np.array_equal(emb, basis)

    def test_norm_contract(self, rng):
        params = small_params()
        emb = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6

    def test_single_token_matrix_vector_oracle(self, rng):
        config = JointNetConfig(width=8, embed_dim=4, token_count=1, token_width=4, text_hidden=6)
        params = init_params(config, 0)
        token = rng.standard_normal((1, 4))
        emb = encode_prompt(PromptTensor(token), params)
        mixed = np.tanh(params.tensors["token.weight"].data @ token[0] + params.tensors["token.bias"].data)
        projected = params.tensors["text.weight"].data @ mixed + params.tensors["text.bias"].data
        assert np.allclose(emb, projected / np.linalg.norm(projected), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(Exception):
            encode_prompt(PromptTensor(np.zeros((5, 7))), small_params())


class TestPredictProb:
    def test_equal_prompts_give_half(self):
        phi = unit([1.0, 0.0, 0.0, 0.0])
        theta = unit([0.0, 1.0, 0.0, 0.0])
        assert p_natural(phi, theta, theta) == pytest.approx(0.5)

    def test_two_point_softmax_arithmetic(self):
        phi, theta_n, theta_u = unit([1.0, 0.0]), unit([1.0, 0.0]), unit([-1.0, 0.0])
        assert p_natural(phi, theta_n, theta_u) == pytest.approx(math.e / (math.e + math.exp(-1)), abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            phi, tn, tu = (unit(rng.standard_normal(6)) for _ in range(3))
            # swapping the prompts gives the underwater-side probability
            assert p_natural(phi, tn, tu) + p_natural(phi, tu, tn) == pytest.approx(1.0, abs=1e-12)


def prompt_loss(p_natural: float, label: int) -> float:
    return prompt_bce_graph(Tensor(np.array([p_natural])), np.array([label])).item()


class TestPromptLoss:
    def test_perfect_prediction(self):
        assert prompt_loss(1.0, 1) <= 1e-6  # clamped at 1 - 1e-7
        assert prompt_loss(0.0, 0) <= 1e-6

    def test_maximal_uncertainty(self):
        assert prompt_loss(0.5, 0) == pytest.approx(math.log(2))
        assert prompt_loss(0.5, 1) == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for p, q in ((0.3, 1), (0.8, 0), (0.5, 1)):
            fd = (prompt_loss(p + h, q) - prompt_loss(p - h, q)) / (2 * h)
            analytic = -(q / p) + (1 - q) / (1 - p)
            assert fd == pytest.approx(analytic, rel=1e-6)
            p_leaf = Tensor(np.array([p]), requires_grad=True)
            prompt_bce_graph(p_leaf, np.array([q])).backward()
            assert p_leaf.grad[0] == pytest.approx(analytic, rel=1e-9)

    def test_mean_over_the_batch(self):
        p = np.array([0.3, 0.8, 0.5])
        q = np.array([1, 0, 1])
        batch = prompt_bce_graph(Tensor(p), q).item()
        assert batch == pytest.approx(np.mean([prompt_loss(pi, qi) for pi, qi in zip(p, q)]), rel=1e-12)


class TestAlignment:
    def test_equal_prompts_give_half(self, rng):
        params = small_params()
        x = Tensor(batch_of(random_image(rng), random_image(rng)))
        theta = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        assert alignment_graph(x, params, theta, theta).data == pytest.approx([0.5, 0.5])

    def test_value_in_unit_interval_and_coherent(self, rng):
        # guidance's alignment is the underwater-side probability of the
        # classifier that prompt training fits
        params = small_params()
        for _ in range(10):
            img = random_image(rng)
            tn = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
            tu = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
            (value,) = alignment_graph(Tensor(batch_of(img)), params, tn, tu).data
            assert 0.0 < value < 1.0
            assert value == pytest.approx(1.0 - p_natural(embed_image(img, params), tn, tu), abs=1e-12)

    def test_pixel_gradient_matches_finite_differences(self, rng):
        params = small_params()
        tn = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        tu = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        x = rng.uniform(0.2, 0.8, (3, 16, 16))
        (grad,) = alignment_pixel_grad(x[None], params, tn, tu)

        def value() -> float:
            return alignment_graph(Tensor(x[None]), params, tn, tu).data[0]

        h = 1e-5
        gen = np.random.default_rng(0)
        worst = 0.0
        for _ in range(40):
            c, i, j = gen.integers(3), gen.integers(16), gen.integers(16)
            orig = x[c, i, j]
            x[c, i, j] = orig + h
            f_plus = value()
            x[c, i, j] = orig - h
            f_minus = value()
            x[c, i, j] = orig
            fd = (f_plus - f_minus) / (2 * h)
            rel = abs(fd - grad[c, i, j]) / max(abs(fd), abs(grad[c, i, j]), 1e-4)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_batched_pixel_gradient_is_each_images_own_bit_for_bit(self, rng):
        params = small_params()
        tn = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        tu = encode_prompt(PromptTensor(rng.standard_normal((5, 4))), params)
        x = rng.uniform(0.0, 1.0, (4, 3, 16, 16))
        grad = alignment_pixel_grad(x, params, tn, tu)
        for i in range(4):
            assert np.array_equal(grad[i : i + 1], alignment_pixel_grad(x[i : i + 1], params, tn, tu))
        # the frozen classifier collects no gradient
        assert all(t.grad is None for t in params.tensors.values())


class TestTrainPrompts:
    def test_separable_set_reaches_high_accuracy(self):
        config = JointNetConfig(width=16, embed_dim=8, token_count=9, token_width=8, text_hidden=12)
        params = init_params(config, 0)
        dataset = separable_images()
        result = train_prompts(dataset, params, PromptTrainConfig(epochs=200, seed=0))
        assert result.holdout_accuracy >= 0.95
        assert result.trend_monotone

        phis = np.stack([embed_image(img, params) for img, _ in dataset])
        labels = np.array([lbl for _, lbl in dataset])
        assert logistic_accuracy(phis, labels) >= 0.95

    def test_zero_learning_rate_is_noop(self, monkeypatch):
        monkeypatch.setattr(jointnet, "_PROMPT_LEARNING_RATE", 0.0)
        params = small_params()
        dataset = separable_images(count=8)
        result = train_prompts(dataset, params, PromptTrainConfig(epochs=3, seed=4))
        init_n, init_u = init_prompts(SMALL, 4)
        assert np.array_equal(result.prompt_natural.tokens, init_n.tokens)
        assert np.array_equal(result.prompt_underwater.tokens, init_u.tokens)

    def test_same_seed_identical_prompts(self):
        params = small_params()
        dataset = separable_images(count=12)
        a = train_prompts(dataset, params, PromptTrainConfig(epochs=10, seed=2))
        b = train_prompts(dataset, params, PromptTrainConfig(epochs=10, seed=2))
        assert np.array_equal(a.prompt_natural.tokens, b.prompt_natural.tokens)
        assert np.array_equal(a.prompt_underwater.tokens, b.prompt_underwater.tokens)
        assert a.losses == b.losses

    def test_single_class_rejected(self, rng):
        params = small_params()
        dataset = [(random_image(rng), 1) for _ in range(6)]
        with pytest.raises(ParameterError):
            train_prompts(dataset, params, PromptTrainConfig(epochs=2, seed=0))

    def test_training_split_missing_a_class_names_it(self, rng):
        # two images: one is held out, so the training split keeps one class
        params = small_params()
        dataset = [(random_image(rng), 1), (random_image(rng), 0)]
        with pytest.raises(ParameterError, match=r"training split has no (natural|underwater) \(label [01]\)"):
            train_prompts(dataset, params, PromptTrainConfig(epochs=2, seed=0))

    def test_divergence_aborts_with_epoch(self, monkeypatch):
        # the bounded cosine logit keeps BCE below ~2.13, so a genuine 10x
        # blowup cannot occur; drive the abort path with a sub-unity threshold
        monkeypatch.setattr(jointnet, "_PROMPT_LEARNING_RATE", 50.0)
        monkeypatch.setattr(jointnet, "_DIVERGENCE_FACTOR", 0.9)
        params = small_params()
        dataset = separable_images(count=8)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_prompts(dataset, params, PromptTrainConfig(epochs=400, seed=0))
