"""Tests for the impulse-classifier network: forward math, analytic
gradients against central finite differences, the Adam optimizer against an
independently coded reference, training behaviour and model persistence."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inofdm.dnn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EPS_CLAMP,
    LAYER_SIZES,
    N_PARAMS,
    AdamState,
    MlpParams,
    TrainConfig,
    adam_step,
    blocks,
    classify,
    forward,
    gradients,
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
from inofdm.features import (DETECTOR_BLOCK_ROWS, FeatureNormalizer,
                             apply_normalizer, fit_normalizer)

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"

SHAPES = {
    "w1": (20, 3), "b1": (20,),
    "w2": (10, 20), "b2": (10,),
    "w3": (1, 10), "b3": (1,),
}


def identity_norm():
    return FeatureNormalizer(mean=np.zeros(3), std=np.ones(3))


def params_from(theta, normalizer=None):
    """MlpParams over a flat vector, with the identity normalizer by default."""
    return MlpParams(theta, normalizer or identity_norm())


def random_params(seed, scale=0.6):
    return params_from(scale * np.random.default_rng(seed).standard_normal(N_PARAMS))


def zero_params():
    return params_from(np.zeros(N_PARAMS))


# ---------------------------------------------------------------------------
# activations


def test_relu_basics():
    assert relu(-3.0) == 0.0
    assert relu(2.0) == 2.0
    out = relu(np.array([-1.0, 0.0, 0.5]))
    assert np.array_equal(out, [0.0, 0.0, 0.5])


def reference_sigmoid(x):
    """The split-by-sign logistic the library used before (oracle)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


#: +-0, +-inf, NaN of either sign (with and without a payload), and the
#: edges where exp overflows, underflows and turns subnormal.
SIGMOID_SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.0, -745.0, 5e-324,
     -5e-324, 1e308, -1e308, 1e-308, -1e-308],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
              0xFFF80000DEADBEEF], dtype=np.uint64).view(float),
])


@pytest.mark.parametrize("values", [
    SIGMOID_SPECIALS,
    np.random.default_rng(5).standard_normal(4096) * 30.0,
    np.random.default_rng(6).uniform(-800.0, 800.0, size=(64, 7)),
], ids=["specials", "gaussian", "wide"])
def test_sigmoid_matches_split_reference_byte_for_byte(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(values)
        expected = reference_sigmoid(values)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


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


def test_flat_layout_is_the_model_file_block_order():
    assert N_PARAMS == sum(int(np.prod(s)) for s in SHAPES.values()) == 301
    theta = np.arange(N_PARAMS, dtype=float)
    views = blocks(theta)
    assert list(views) == list(SHAPES)
    assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]), theta)
    for key, shape in SHAPES.items():
        assert views[key].shape == shape and np.shares_memory(views[key], theta)
    params = params_from(theta)
    theta[0] = -1.0  # the parameters hold their own copy
    assert params.w1[0, 0] == 0.0 and params.b3[0] == 300.0
    assert np.shares_memory(params.w2, params.theta)


def test_params_reject_bad_shapes():
    with pytest.raises(ValueError):
        params_from(np.zeros(N_PARAMS - 1))
    with pytest.raises(ValueError):
        params_from(np.zeros((N_PARAMS, 1)))
    with pytest.raises(ValueError):
        params_from(np.zeros(N_PARAMS),
                    FeatureNormalizer(mean=np.zeros(2), std=np.ones(2)))


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_params_is_half():
    x = np.random.default_rng(4).standard_normal((17, 3))
    assert np.all(forward(zero_params(), x) == 0.5)


def test_forward_matches_hand_computed_chain():
    # Single active unit per layer reduces the net to a scalar chain that can
    # be evaluated by hand.
    theta = np.zeros(N_PARAMS)
    b = blocks(theta)
    b["w1"][0, 0] = 0.5
    b["b1"][0] = 0.1
    b["w2"][0, 0] = 2.0
    b["b2"][0] = -0.05
    b["w3"][0, 0] = 1.5
    b["b3"][0] = 0.2
    params = params_from(theta)

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
    theta = np.zeros(N_PARAMS)
    blocks(theta)["b3"][0] = 30.0
    params = params_from(theta)
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


# Four forward blocks; m = rows - 1, rows, rows + 1 and 3 * rows + 7 leave a
# last block of DETECTOR_BLOCK_ROWS - 1, DETECTOR_BLOCK_ROWS, 1 and 7 rows.
LOSS_ROWS = 4 * DETECTOR_BLOCK_ROWS


@pytest.mark.parametrize("m", [LOSS_ROWS - 1, LOSS_ROWS, LOSS_ROWS + 1,
                               3 * LOSS_ROWS + 7])
@pytest.mark.parametrize("model", ["random", "shipped"])
def test_blocked_loss_equals_whole_array_loss_exactly(m, model):
    params = random_params(m, scale=3.0) if model == "random" else load_model(MODEL_PATH)
    rng = np.random.default_rng(m)
    x = rng.standard_normal((m, 3)) * 4.0
    y = (rng.random(m) < 0.3).astype(float)
    want = whole_array_loss(params, x, y, 0.1)
    # uint8 labels, as read_dataset returns them, give the same float.
    for labels in (y, y.astype(np.uint8)):
        assert loss_value(params, x, labels, 0.1) == want


#: Rows of the synthetic dataset the memory bounds are measured on.
MEMORY_ROWS = 200_000


def memory_dataset():
    rng = np.random.default_rng(41)
    return (rng.standard_normal((MEMORY_ROWS, 3)),
            (rng.random(MEMORY_ROWS) < 0.1).astype(np.uint8))


def test_loss_allocates_one_float_per_row(traced_bytes_per_row):
    # The (m,) forward output holds the terms: 8 bytes a row, plus the
    # block buffers.  Converting the labels and a temporary per operation
    # of the whole-vector expression took 48.
    x, y = memory_dataset()
    params = random_params(42)
    assert traced_bytes_per_row(
        lambda: loss_value(params, x, y, 0.1), MEMORY_ROWS) <= 20


# ---------------------------------------------------------------------------
# gradients


def finite_difference_gradients(params, x, y, lam, h=1e-6):
    """Central differences of the loss, one entry of theta at a time."""
    grad = np.zeros(N_PARAMS)
    for i in range(N_PARAMS):
        hi = params.theta.copy()
        hi[i] += h
        lo = params.theta.copy()
        lo[i] -= h
        grad[i] = (loss_value(replace(params, theta=hi), x, y, lam)
                   - loss_value(replace(params, theta=lo), x, y, lam)) / (2.0 * h)
    return grad


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
    assert analytic.shape == (N_PARAMS,)
    numeric = blocks(finite_difference_gradients(params, x, y, lam))
    for key, an in blocks(analytic).items():
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
    np.testing.assert_allclose(g2, g1, rtol=1e-12, atol=1e-15)


def test_gradient_penalty_term_is_lam_over_m_times_weights():
    params = random_params(15)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    lam = 0.9
    g0 = blocks(gradients(params, x, y, 0.0))
    g1 = blocks(gradients(params, x, y, lam))
    for key in ("w1", "w2", "w3"):
        np.testing.assert_allclose(
            g1[key] - g0[key], lam / 8 * getattr(params, key), rtol=1e-9)
    for key in ("b1", "b2", "b3"):
        assert np.array_equal(g0[key], g1[key])  # biases carry no penalty


def test_gradient_pushes_output_bias_toward_positive_labels():
    # y=1 everywhere and yhat<1 means dL/db3 = mean(yhat - 1) < 0.
    params = random_params(17)
    g = gradients(params, np.zeros((8, 3)), np.ones(8), 0.0)
    assert blocks(g)["b3"][0] < 0.0


# ---------------------------------------------------------------------------
# Adam


class TestAdam:
    def test_state_starts_from_zero_flat_moments(self):
        state = AdamState(eta=0.05)
        assert state.moment1.shape == state.moment2.shape == (N_PARAMS,)
        assert not state.moment1.any() and not state.moment2.any()
        assert state.step == 0 and state.eta == 0.05
        with pytest.raises(TypeError):
            AdamState()  # the rate comes from TrainConfig, never a default

    def test_first_step_closed_form(self):
        # k=1 bias correction collapses to theta - eta*g/(|g| + eps).
        params = random_params(18)
        g = np.random.default_rng(19).standard_normal(N_PARAMS)
        state = AdamState(eta=0.01)
        new = adam_step(state, params, g)
        assert state.step == 1
        expected = params.theta - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(new.theta, expected, rtol=1e-12, atol=1e-15)

    def test_zero_gradient_is_a_fixed_point(self):
        params = random_params(20)
        state = AdamState(eta=0.01)
        current = params
        for _ in range(3):
            current = adam_step(state, current, np.zeros(N_PARAMS))
        assert np.array_equal(current.theta, params.theta)
        assert state.step == 3

    def test_scalar_quadratic_converges(self):
        # Minimize theta^2/2 embedded in one weight entry; the rest sees zero
        # gradient and must not move.
        theta = np.zeros(N_PARAMS)
        blocks(theta)["w3"][0, 0] = 1.0
        params = params_from(theta)
        state = AdamState(eta=0.01)
        for _ in range(500):
            g = np.zeros(N_PARAMS)
            blocks(g)["w3"][0, 0] = params.w3[0, 0]
            params = adam_step(state, params, g)
        assert abs(params.w3[0, 0]) < 1e-3
        assert np.all(params.w1 == 0.0) and np.all(params.b3 == 0.0)

    def test_matches_independent_reference_over_100_steps(self):
        """Trace agreement with a flat-vector Adam coded from the update
        equations, max parameter difference <= 1e-12 over 100 steps."""
        eta, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        params = random_params(21)
        theta_ref = params.theta.copy()
        m_ref = np.zeros_like(theta_ref)
        v_ref = np.zeros_like(theta_ref)

        state = AdamState(eta=eta)
        rng = np.random.default_rng(22)
        worst = 0.0
        for step in range(1, 101):
            g = rng.standard_normal(N_PARAMS)
            params = adam_step(state, params, g)

            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            m_hat = m_ref / (1 - beta1 ** step)
            v_hat = v_ref / (1 - beta2 ** step)
            theta_ref = theta_ref - eta * m_hat / (np.sqrt(v_hat) + eps)

            worst = max(worst, np.max(np.abs(params.theta - theta_ref)))
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
        assert np.array_equal(p1.theta, p2.theta)
        assert np.array_equal(p1.normalizer.mean, p2.normalizer.mean)
        assert l1 == l2
        assert p1.train_seed == 11

    def test_flat_adam_trains_byte_identical_to_per_layer_adam(self, tmp_path):
        """Two epochs of :func:`train` against the same loop updating each
        layer's view with the per-layer Adam body the flat update replaced:
        the saved models and the loss traces must match byte for byte,
        whether ``train`` gets float labels or uint8 ones, as
        ``read_dataset`` returns them."""
        feats, labels = cluster_dataset(38, n_per_class=2048)  # 4,096 rows
        cfg = TrainConfig(epochs=2, seed=7)
        trained = {dtype: train(feats, labels.astype(dtype), cfg)
                   for dtype in ("float64", "uint8")}

        rng = np.random.default_rng(cfg.seed)
        normalizer = fit_normalizer(feats)
        x = apply_normalizer(feats, normalizer)
        params = init_params(rng, normalizer, train_seed=cfg.seed)
        moment1 = {k: np.zeros(s) for k, s in SHAPES.items()}
        moment2 = {k: np.zeros(s) for k, s in SHAPES.items()}
        losses, k = [], 0
        for _ in range(cfg.epochs):
            order = rng.permutation(len(labels))
            for start in range(0, len(labels), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                grads = blocks(gradients(params, x[batch], labels[batch], cfg.lam))
                k += 1
                theta = np.empty(N_PARAMS)
                for key, out in blocks(theta).items():
                    g = grads[key]
                    moment1[key] = ADAM_BETA1 * moment1[key] + (1 - ADAM_BETA1) * g
                    moment2[key] = ADAM_BETA2 * moment2[key] + (1 - ADAM_BETA2) * g ** 2
                    m_hat = moment1[key] / (1.0 - ADAM_BETA1 ** k)
                    v_hat = moment2[key] / (1.0 - ADAM_BETA2 ** k)
                    out[...] = (getattr(params, key)
                                - cfg.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
                params = replace(params, theta=theta)
            losses.append(loss_value(params, x, labels, cfg.lam))

        save_model(tmp_path / "per_layer.txt", params)
        for dtype, (flat, flat_losses) in trained.items():
            save_model(tmp_path / f"{dtype}.txt", flat)
            assert ((tmp_path / f"{dtype}.txt").read_text()
                    == (tmp_path / "per_layer.txt").read_text()), dtype
            assert flat_losses == losses, dtype

    def test_one_epoch_allocates_under_20_bytes_per_row(self,
                                                         traced_bytes_per_row):
        # At the peak: the loss terms (8 bytes a row) or the epoch
        # permutation (8), never both, plus the forward blocks' buffers
        # (about 6 at this size): 15.  A normalized copy of the features
        # (24) and numpy's std temporary (24) took 47; holding the
        # permutation through the loss would take 23.
        feats, labels = memory_dataset()
        assert traced_bytes_per_row(
            lambda: train(feats, labels, TrainConfig(epochs=1, seed=1)),
            MEMORY_ROWS) <= 20

    def test_strided_features_train_as_their_contiguous_copy(self):
        feats, labels = cluster_dataset(30, n_per_class=300)
        wide = np.column_stack([feats, labels])   # read as one (m, 4) array
        cfg = TrainConfig(epochs=2, batch_size=64, seed=4)
        strided, strided_losses = train(wide[:, :3], wide[:, 3], cfg)
        contiguous, losses = train(feats, labels, cfg)
        assert strided.theta.tobytes() == contiguous.theta.tobytes()
        assert strided_losses == losses

    def test_leaves_its_features_and_labels_unchanged(self):
        # Minibatches are normalized in a buffer of their own, never in
        # the caller's rows: read-only inputs would raise.
        feats, labels = cluster_dataset(29, n_per_class=300)
        labels = labels.astype(np.uint8)
        want = feats.tobytes(), labels.tobytes()
        feats.flags.writeable = labels.flags.writeable = False
        train(feats, labels, TrainConfig(epochs=2, batch_size=64, seed=2))
        assert (feats.tobytes(), labels.tobytes()) == want

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
    norm = FeatureNormalizer(mean=np.array([1.0, 2.0, 3.0]),
                             std=np.array([2.0, 4.0, 8.0]))
    params = params_from(random_params(31).theta, norm)
    raw = np.random.default_rng(32).standard_normal((50, 3))
    expected = forward(params, (raw - norm.mean) / norm.std)
    np.testing.assert_array_equal(predict_proba(params, raw), expected)


@pytest.mark.parametrize("m", [DETECTOR_BLOCK_ROWS - 1, DETECTOR_BLOCK_ROWS,
                               DETECTOR_BLOCK_ROWS + 1, 3 * DETECTOR_BLOCK_ROWS + 7])
@pytest.mark.parametrize("model", ["random", "shipped"])
def test_blocked_inference_equals_one_unblocked_forward(m, model):
    if model == "random":
        norm = FeatureNormalizer(mean=np.array([0.5, 1.0, -0.3]),
                                 std=np.array([1.5, 0.7, 2.0]))
        params = params_from(random_params(m, scale=3.0).theta, norm)
    else:
        params = load_model(MODEL_PATH)
    rng = np.random.default_rng(m)
    raw = rng.standard_normal((m, 3)) * 3.0
    if model == "shipped":
        raw = np.abs(raw)
        raw[::11] *= 40.0  # impulse-like rows on the far side of the boundary
    whole = forward(params, (raw - params.normalizer.mean) / params.normalizer.std)
    proba = predict_proba(params, raw)
    assert proba.tobytes() == whole.tobytes()
    decisions = classify(params, raw)
    assert decisions.dtype == np.uint8
    assert decisions.tobytes() == (whole >= 0.5).astype(np.uint8).tobytes()
    if model == "shipped":
        assert 0 < decisions.sum() < m
    lead = predict_proba(params, raw[:m - m % 2].reshape(2, -1, 3))
    assert lead.tobytes() == whole[:m - m % 2].tobytes()


def test_predict_proba_rejects_wrong_feature_width():
    with pytest.raises(ValueError):
        predict_proba(zero_params(), np.zeros((2, 6)))
    with pytest.raises(ValueError):
        predict_proba(zero_params(), np.float64(1.0))


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
        assert np.array_equal(loaded.theta, params.theta)
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
        with pytest.raises(ValueError, match="'w1'"):
            load_model(tmp_path / "mangled.txt")
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = lines[7].rstrip("\n") + " 0.5\n"  # a w1 row one value too long
        (tmp_path / "long_row.txt").write_text("".join(lines))
        with pytest.raises(ValueError, match="'w1' has 61 values"):
            load_model(tmp_path / "long_row.txt")

    @pytest.mark.parametrize("line, value, block", [
        (5, "nan", "'norm_std'"), (7, "inf", "'w1'"), (25, "-inf", "'w1'"),
    ], ids=["nan-norm-std", "inf-w1", "minus-inf-w1"])
    def test_rejects_non_finite_values(self, tmp_path, line, value, block):
        # These loaded: a nan std makes every feature nan, which the network
        # never flags, and an inf weight does the same.
        lines = MODEL_PATH.read_text().splitlines(keepends=True)
        lines[line] = f"{value} " + lines[line].split(" ", 1)[1]
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"block {block} holds a non-finite"):
            load_model(path)

    @pytest.mark.parametrize("keep, missing", [
        (0, "inofdm-model 1"), (1, "seed"), (3, "'norm_mean'"), (4, "'norm_std'"),
        (6, "'w1'"), (17, "'w1'"), (45, "'b3'"),
    ], ids=["empty", "header-only", "cut-in-norm-mean", "no-norm-std",
            "no-weights", "cut-in-w1", "cut-in-b3"])
    def test_rejects_truncated_files(self, tmp_path, keep, missing):
        lines = MODEL_PATH.read_text().splitlines(keepends=True)
        path = tmp_path / "cut.txt"
        path.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=missing):
            load_model(path)


def test_layer_sizes_are_the_published_architecture():
    assert LAYER_SIZES == (3, 20, 10, 1)
    assert EPS_CLAMP == 1e-12
