"""Tests for the impulse-classifier network: forward math, analytic
gradients against central finite differences, the Adam optimizer against an
independently coded reference, training behaviour and model persistence."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inofdm.dnn import (
    EPS_CLAMP,
    LAYER_SIZES,
    LOSS_BLOCK_ROWS,
    MlpParams,
    TrainConfig,
    adam_step,
    classify,
    forward,
    gradients,
    init_adam,
    init_params,
    load_model,
    loss_value,
    predict_proba,
    relu,
    save_model,
    sigmoid,
    train,
    xavier_init,
)
from inofdm.features import FeatureNormalizer

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"

SHAPES = {
    "w1": (20, 3), "b1": (20,),
    "w2": (10, 20), "b2": (10,),
    "w3": (1, 10), "b3": (1,),
}


def identity_norm():
    return FeatureNormalizer(mean=np.zeros(3), std=np.ones(3))


def random_params(seed, scale=0.6):
    rng = np.random.default_rng(seed)
    blocks = {k: scale * rng.standard_normal(s) for k, s in SHAPES.items()}
    return MlpParams(normalizer=identity_norm(), **blocks)


def zero_params():
    return MlpParams(normalizer=identity_norm(),
                     **{k: np.zeros(s) for k, s in SHAPES.items()})


# ---------------------------------------------------------------------------
# activations


def test_relu_basics():
    assert relu(-3.0) == 0.0
    assert relu(2.0) == 2.0
    out = relu(np.array([-1.0, 0.0, 0.5]))
    assert np.array_equal(out, [0.0, 0.0, 0.5])


def test_sigmoid_center():
    assert float(sigmoid(0.0)) == 0.5


def test_sigmoid_stable_at_extremes():
    # Naive 1/(1+exp(-x)) overflows near -800; the split form must not.
    with np.errstate(over="raise"):
        lo = float(sigmoid(-800.0))
        hi = float(sigmoid(800.0))
    assert lo == 0.0 and hi == 1.0
    assert np.all(np.isfinite(sigmoid(np.linspace(-700, 700, 101))))


@given(st.floats(-60.0, 60.0))
def test_sigmoid_symmetry(x):
    assert float(sigmoid(-x)) == pytest.approx(1.0 - float(sigmoid(x)), abs=1e-12)


def test_sigmoid_monotone():
    grid = sigmoid(np.linspace(-20, 20, 400))
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# initialization


def test_xavier_respects_bound():
    rng = np.random.default_rng(0)
    w = xavier_init((20, 3), rng)
    bound = math.sqrt(6.0 / 23.0)
    assert w.shape == (20, 3)
    assert np.all(np.abs(w) <= bound)


def test_xavier_variance_matches_uniform_law():
    # Var(U(-b, b)) = b^2/3 = 2/(fan_in + fan_out).
    rng = np.random.default_rng(1)
    w = xavier_init((500, 200), rng)
    assert w.size == 100_000
    assert np.var(w) == pytest.approx(2.0 / 700.0, rel=0.05)


def test_xavier_deterministic_per_seed():
    a = xavier_init((10, 20), np.random.default_rng(42))
    b = xavier_init((10, 20), np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_init_params_shapes_and_zero_biases():
    params = init_params(np.random.default_rng(3), identity_norm(), train_seed=9)
    for key, shape in SHAPES.items():
        assert getattr(params, key).shape == shape
    for key in ("b1", "b2", "b3"):
        assert np.all(getattr(params, key) == 0.0)
    assert params.train_seed == 9


def test_params_reject_bad_shapes():
    blocks = {k: np.zeros(s) for k, s in SHAPES.items()}
    blocks["w2"] = np.zeros((10, 19))
    with pytest.raises(ValueError):
        MlpParams(normalizer=identity_norm(), **blocks)
    with pytest.raises(ValueError):
        MlpParams(normalizer=FeatureNormalizer(mean=np.zeros(2), std=np.ones(2)),
                  **{k: np.zeros(s) for k, s in SHAPES.items()})


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_params_is_half():
    x = np.random.default_rng(4).standard_normal((17, 3))
    assert np.all(forward(zero_params(), x) == 0.5)


def test_forward_matches_hand_computed_chain():
    # Single active unit per layer reduces the net to a scalar chain that can
    # be evaluated by hand.
    blocks = {k: np.zeros(s) for k, s in SHAPES.items()}
    blocks["w1"][0, 0] = 0.5
    blocks["b1"][0] = 0.1
    blocks["w2"][0, 0] = 2.0
    blocks["b2"][0] = -0.05
    blocks["w3"][0, 0] = 1.5
    blocks["b3"][0] = 0.2
    params = MlpParams(normalizer=identity_norm(), **blocks)

    a1 = max(0.5 * 0.8 + 0.1, 0.0)          # 0.5
    a2 = max(2.0 * a1 - 0.05, 0.0)          # 0.95
    z3 = 1.5 * a2 + 0.2                     # 1.625
    expected = 1.0 / (1.0 + math.exp(-z3))
    got = forward(params, np.array([[0.8, 0.0, 0.0]]))
    assert got[0] == pytest.approx(expected, rel=1e-14)

    # Negative input kills the first ReLU; only the biases survive.
    dead = forward(params, np.array([[-0.8, 0.0, 0.0]]))
    assert dead[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.2)), rel=1e-14)


def test_forward_outputs_strictly_inside_unit_interval():
    params = init_params(np.random.default_rng(5), identity_norm())
    x = np.random.default_rng(6).standard_normal((1000, 3))
    yhat = forward(params, x)
    assert np.all(yhat > 0.0) and np.all(yhat < 1.0)


def test_forward_rejects_bad_shapes():
    with pytest.raises(ValueError):
        forward(zero_params(), np.zeros(3))
    with pytest.raises(ValueError):
        forward(zero_params(), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# loss


def test_loss_at_chance_is_ln2():
    x = np.random.default_rng(7).standard_normal((12, 3))
    y = np.array([0, 1] * 6, dtype=float)
    assert loss_value(zero_params(), x, y, lam=0.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_loss_near_zero_for_confident_correct_predictions():
    blocks = {k: np.zeros(s) for k, s in SHAPES.items()}
    blocks["b3"][0] = 30.0
    params = MlpParams(normalizer=identity_norm(), **blocks)
    x = np.zeros((5, 3))
    assert loss_value(params, x, np.ones(5), lam=0.0) < 1e-9


def test_loss_penalty_is_explicit_weight_square_sum():
    params = random_params(8)
    x = np.random.default_rng(9).standard_normal((16, 3))
    y = np.random.default_rng(10).integers(0, 2, 16).astype(float)
    lam = 0.7
    plain = loss_value(params, x, y, 0.0)
    penalized = loss_value(params, x, y, lam)
    expected = lam / (2.0 * 16) * sum(
        float(np.sum(getattr(params, k) ** 2)) for k in ("w1", "w2", "w3"))
    assert penalized - plain == pytest.approx(expected, rel=1e-9)


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        loss_value(zero_params(), np.zeros((0, 3)), np.zeros(0), 0.1)


def whole_array_loss(params, x, y, lam):
    """The loss from one forward pass over every row at once."""
    yhat = np.clip(forward(params, x), EPS_CLAMP, 1.0 - EPS_CLAMP)
    bce = -np.mean(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat))
    penalty = sum(float(np.sum(getattr(params, k) ** 2)) for k in ("w1", "w2", "w3"))
    return float(bce + lam / (2.0 * len(y)) * penalty)


@pytest.mark.parametrize("m", [LOSS_BLOCK_ROWS - 1, LOSS_BLOCK_ROWS,
                               LOSS_BLOCK_ROWS + 1, 3 * LOSS_BLOCK_ROWS + 7])
@pytest.mark.parametrize("model", ["random", "shipped"])
def test_blocked_loss_equals_whole_array_loss_exactly(m, model):
    params = random_params(m, scale=3.0) if model == "random" else load_model(MODEL_PATH)
    rng = np.random.default_rng(m)
    x = rng.standard_normal((m, 3)) * 4.0
    y = (rng.random(m) < 0.3).astype(float)
    assert loss_value(params, x, y, 0.1) == whole_array_loss(params, x, y, 0.1)


# ---------------------------------------------------------------------------
# gradients


def finite_difference_gradients(params, x, y, lam, h=1e-6):
    """Central differences of the loss, one parameter entry at a time."""
    out = {}
    for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
        base = getattr(params, key)
        grad = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            hi = base.copy()
            hi[idx] += h
            lo = base.copy()
            lo[idx] -= h
            grad[idx] = (loss_value(replace(params, **{key: hi}), x, y, lam)
                         - loss_value(replace(params, **{key: lo}), x, y, lam)) / (2.0 * h)
        out[key] = grad
    return out


@pytest.mark.parametrize("seed_pair", [(12, 11), (40, 41), (60, 61)])
@pytest.mark.parametrize("lam", [0.0, 0.37])
def test_gradients_match_central_differences(lam, seed_pair):
    # Small batch on purpose: the difference quotient divides the loss's own
    # rounding noise by 2h, and short sums keep that noise ~1e-15 so the
    # comparison resolves 1e-5 with margin.
    pseed, xseed = seed_pair
    rng = np.random.default_rng(xseed)
    params = random_params(pseed, scale=0.7)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    analytic = gradients(params, x, y, lam)
    numeric = finite_difference_gradients(params, x, y, lam)
    for key, an in analytic.items():
        fd = numeric[key]
        # Relative to max(|g|, 1e-3) so noise on near-zero entries (dead ReLU
        # paths) is not divided by itself.
        scale = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-3)
        worst = np.max(np.abs(an - fd) / scale)
        assert worst < 1e-5, f"{key}: relative error {worst:.3g}"


def test_gradients_mean_invariant_under_batch_duplication():
    params = random_params(13)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((10, 3))
    y = rng.integers(0, 2, 10).astype(float)
    g1 = gradients(params, x, y, 0.0)
    g2 = gradients(params, np.vstack([x, x]), np.concatenate([y, y]), 0.0)
    for key in g1:
        np.testing.assert_allclose(g2[key], g1[key], rtol=1e-12, atol=1e-15)


def test_gradient_penalty_term_is_lam_over_m_times_weights():
    params = random_params(15)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    lam = 0.9
    g0 = gradients(params, x, y, 0.0)
    g1 = gradients(params, x, y, lam)
    for key in ("w1", "w2", "w3"):
        np.testing.assert_allclose(
            g1[key] - g0[key], lam / 8 * getattr(params, key), rtol=1e-9)
    for key in ("b1", "b2", "b3"):
        assert np.array_equal(g0[key], g1[key])  # biases carry no penalty


def test_gradient_pushes_output_bias_toward_positive_labels():
    # y=1 everywhere and yhat<1 means dL/db3 = mean(yhat - 1) < 0.
    params = random_params(17)
    g = gradients(params, np.zeros((8, 3)), np.ones(8), 0.0)
    assert g["b3"][0] < 0.0


# ---------------------------------------------------------------------------
# Adam


class TestAdam:
    def test_first_step_closed_form(self):
        # k=1 bias correction collapses to theta - eta*g/(|g| + eps).
        params = random_params(18)
        rng = np.random.default_rng(19)
        grads = {k: rng.standard_normal(s) for k, s in SHAPES.items()}
        state = init_adam(params, eta=0.01)
        new, state = adam_step(state, params, grads)
        assert state.step == 1
        for key in SHAPES:
            g = grads[key]
            expected = getattr(params, key) - 0.01 * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(getattr(new, key), expected,
                                       rtol=1e-12, atol=1e-15)

    def test_zero_gradient_is_a_fixed_point(self):
        params = random_params(20)
        zeros = {k: np.zeros(s) for k, s in SHAPES.items()}
        state = init_adam(params)
        current = params
        for _ in range(3):
            current, state = adam_step(state, current, zeros)
        for key in SHAPES:
            assert np.array_equal(getattr(current, key), getattr(params, key))
        assert state.step == 3

    def test_scalar_quadratic_converges(self):
        # Minimize theta^2/2 embedded in one weight entry; the rest sees zero
        # gradient and must not move.
        blocks = {k: np.zeros(s) for k, s in SHAPES.items()}
        blocks["w3"][0, 0] = 1.0
        params = MlpParams(normalizer=identity_norm(), **blocks)
        state = init_adam(params, eta=0.01)
        for _ in range(500):
            g = {k: np.zeros(s) for k, s in SHAPES.items()}
            g["w3"][0, 0] = params.w3[0, 0]
            params, state = adam_step(state, params, g)
        assert abs(params.w3[0, 0]) < 1e-3
        assert np.all(params.w1 == 0.0) and np.all(params.b3 == 0.0)

    def test_matches_independent_reference_over_100_steps(self):
        """Trace agreement with a flat-vector Adam coded from the update
        equations, max parameter difference <= 1e-12 over 100 steps."""
        eta, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        params = random_params(21)
        keys = list(SHAPES)
        sizes = {k: int(np.prod(SHAPES[k])) for k in keys}

        def flatten(d):
            return np.concatenate([np.asarray(d[k]).ravel() for k in keys])

        theta_ref = flatten(params.as_dict())
        m_ref = np.zeros_like(theta_ref)
        v_ref = np.zeros_like(theta_ref)

        state = init_adam(params, eta=eta)
        rng = np.random.default_rng(22)
        worst = 0.0
        for step in range(1, 101):
            grads = {k: rng.standard_normal(s) for k, s in SHAPES.items()}
            params, state = adam_step(state, params, grads)

            g = flatten(grads)
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            m_hat = m_ref / (1 - beta1 ** step)
            v_hat = v_ref / (1 - beta2 ** step)
            theta_ref = theta_ref - eta * m_hat / (np.sqrt(v_hat) + eps)

            worst = max(worst, np.max(np.abs(flatten(params.as_dict()) - theta_ref)))
        assert worst <= 1e-12, f"reference trace diverged by {worst:.3g}"
        assert state.step == 100


# ---------------------------------------------------------------------------
# training


def cluster_dataset(seed, n_per_class=1000, separation=4.0):
    rng = np.random.default_rng(seed)
    zeros = rng.standard_normal((n_per_class, 3))
    ones = rng.standard_normal((n_per_class, 3)) + separation
    feats = np.vstack([zeros, ones])
    labels = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    order = rng.permutation(len(labels))
    return feats[order], labels[order]


class TestTraining:
    def test_separable_clusters_reach_99_percent(self):
        feats, labels = cluster_dataset(23)
        cfg = TrainConfig(eta=0.01, lam=0.0, epochs=50, batch_size=64, seed=3)
        params, losses = train(feats, labels, cfg)
        acc = np.mean(classify(params, feats) == labels)
        assert acc >= 0.99
        assert len(losses) == 50
        assert losses[-1] < losses[0]

    def test_all_clean_dataset_predicts_clean(self):
        rng = np.random.default_rng(24)
        feats = np.abs(rng.standard_normal((3000, 3)))
        labels = np.zeros(3000)
        cfg = TrainConfig(eta=0.01, lam=0.0, epochs=20, batch_size=128, seed=5)
        params, _ = train(feats, labels, cfg)
        held_out = np.abs(np.random.default_rng(25).standard_normal((2000, 3)))
        assert np.mean(classify(params, held_out) == 0) >= 0.99

    def test_fixed_seed_is_bit_identical(self):
        feats, labels = cluster_dataset(26, n_per_class=300)
        cfg = TrainConfig(epochs=8, batch_size=64, seed=11)
        p1, l1 = train(feats, labels, cfg)
        p2, l2 = train(feats, labels, cfg)
        for key in SHAPES:
            assert np.array_equal(getattr(p1, key), getattr(p2, key))
        assert np.array_equal(p1.normalizer.mean, p2.normalizer.mean)
        assert l1 == l2
        assert p1.train_seed == 11

    def test_normalizer_is_fitted_from_the_dataset(self):
        feats, labels = cluster_dataset(27, n_per_class=200)
        params, _ = train(feats, labels, TrainConfig(epochs=2, seed=0))
        np.testing.assert_allclose(params.normalizer.mean, feats.mean(axis=0))

    def test_divergence_raises(self):
        feats, labels = cluster_dataset(28, n_per_class=200)
        cfg = TrainConfig(eta=1e200, lam=1.0, epochs=3, batch_size=64, seed=0)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            train(feats, labels, cfg)

    def test_rejects_malformed_datasets(self):
        with pytest.raises(ValueError):
            train(np.zeros((10, 4)), np.zeros(10))
        with pytest.raises(ValueError):
            train(np.zeros((10, 3)), np.zeros(9))
        with pytest.raises(ValueError):
            train(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("bad", [
        dict(epochs=0), dict(batch_size=0), dict(eta=0.0),
        dict(eta=-1.0), dict(lam=-0.1),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# inference helpers


def test_predict_proba_keeps_leading_shape():
    params = random_params(29)
    raw = np.random.default_rng(30).standard_normal((4, 5, 3))
    proba = predict_proba(params, raw)
    assert proba.shape == (4, 5)
    flat = forward(params, raw.reshape(-1, 3))  # identity normalizer
    np.testing.assert_array_equal(proba.ravel(), flat)


def test_predict_proba_applies_the_stored_normalizer():
    blocks = {k: np.zeros(s) for k, s in SHAPES.items()}
    norm = FeatureNormalizer(mean=np.array([1.0, 2.0, 3.0]),
                             std=np.array([2.0, 4.0, 8.0]))
    params = random_params(31)
    params = MlpParams(normalizer=norm, **params.as_dict())
    raw = np.random.default_rng(32).standard_normal((50, 3))
    expected = forward(params, (raw - norm.mean) / norm.std)
    np.testing.assert_array_equal(predict_proba(params, raw), expected)


def test_classify_threshold_semantics():
    params = zero_params()  # every probability is exactly 0.5
    raw = np.random.default_rng(33).standard_normal((20, 3))
    at_default = classify(params, raw)
    assert at_default.dtype == np.uint8
    assert np.all(at_default == 1)          # >= is inclusive


def test_classify_single_vector():
    assert classify(zero_params(), np.zeros(3)).shape == ()


# ---------------------------------------------------------------------------
# persistence


class TestPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        params = init_params(np.random.default_rng(34),
                             FeatureNormalizer(mean=np.array([0.1, -2.5, 3e-7]),
                                               std=np.array([1.5, 0.25, 7.0])),
                             train_seed=77)
        path = tmp_path / "model.txt"
        save_model(path, params)
        loaded = load_model(path)
        for key in SHAPES:
            assert np.array_equal(getattr(loaded, key), getattr(params, key))
        assert np.array_equal(loaded.normalizer.mean, params.normalizer.mean)
        assert np.array_equal(loaded.normalizer.std, params.normalizer.std)
        assert loaded.train_seed == 77

    def test_missing_seed_roundtrips_as_none(self, tmp_path):
        params = random_params(35)
        assert params.train_seed is None
        path = tmp_path / "model.txt"
        save_model(path, params)
        assert load_model(path).train_seed is None

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, random_params(36))
        text = path.read_text()

        (tmp_path / "bad_tag.txt").write_text(
            text.replace("inofdm-model 1", "other-model 1", 1))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad_tag.txt")

        (tmp_path / "bad_version.txt").write_text(
            text.replace("inofdm-model 1", "inofdm-model 2", 1))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad_version.txt")

        (tmp_path / "bad_block.txt").write_text(text.replace("\nw2 ", "\nq2 ", 1))
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad_block.txt")

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, random_params(37))
        mangled = path.read_text().replace("w1 20 3", "w1 3 20", 1)
        (tmp_path / "mangled.txt").write_text(mangled)
        with pytest.raises(ValueError):
            load_model(tmp_path / "mangled.txt")


def test_layer_sizes_are_the_published_architecture():
    assert LAYER_SIZES == (3, 20, 10, 1)
    assert EPS_CLAMP == 1e-12
