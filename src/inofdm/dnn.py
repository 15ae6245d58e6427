"""Small fully-connected impulse classifier, trained from scratch.

Architecture 3-20-10-1: ReLU hidden layers, sigmoid output, binary
cross-entropy loss with an L2 penalty (lambda/2m) * sum ||W||^2 over the
weight matrices only, optimized with mini-batch Adam.  No frameworks - the
forward pass, the analytic gradients and the optimizer live here so the
whole decision function is inspectable.

The 301 parameters are one float64 vector, ``MlpParams.theta``, in the
model file's block order w1, b1, w2, b2, w3, b3, each row-major; the
gradient and Adam's moments share that layout, and :func:`blocks` views
any such vector layer by layer.

Inputs to :func:`forward` are *normalized* features; the fitted
:class:`~inofdm.features.FeatureNormalizer` travels inside
:class:`MlpParams` so inference applies exactly the training-time scaling
(:func:`classify` handles raw features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .features import (DETECTOR_BLOCK_ROWS, FeatureNormalizer,
                       apply_normalizer, fit_normalizer)

#: Layer widths, input to output.
LAYER_SIZES = (3, 20, 10, 1)

#: Probability clamp used inside the cross-entropy.
EPS_CLAMP = 1e-12

#: Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_SHAPES = {
    "w1": (LAYER_SIZES[1], LAYER_SIZES[0]),
    "b1": (LAYER_SIZES[1],),
    "w2": (LAYER_SIZES[2], LAYER_SIZES[1]),
    "b2": (LAYER_SIZES[2],),
    "w3": (LAYER_SIZES[3], LAYER_SIZES[2]),
    "b3": (LAYER_SIZES[3],),
}

#: Length of the flat parameter vector.
N_PARAMS = sum(math.prod(shape) for shape in _SHAPES.values())


def blocks(vec: np.ndarray) -> Dict[str, np.ndarray]:
    """Named per-layer views of a (N_PARAMS,) vector, in ``_SHAPES`` order."""
    views, start = {}, 0
    for key, shape in _SHAPES.items():
        views[key] = vec[start:start + math.prod(shape)].reshape(shape)
        start += views[key].size
    return views


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None,
            denom: Optional[np.ndarray] = None,
            positive: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function, stable for large |x|.

    ``out``, ``denom`` (float) and ``positive`` (bool), each of x's shape
    and none of them x, take the result and the temporaries when given.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    denom = np.empty_like(x) if denom is None else denom
    positive = np.empty(x.shape, dtype=bool) if positive is None else positive
    # e = exp(-|x|) never overflows.  np.minimum keeps x's own NaN, where
    # -np.abs(x) would flip its sign bit.
    np.negative(x, out=out)
    np.minimum(x, out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=denom)
    # 1 / (1 + e) for x >= 0, e / (1 + e) below: e <= 1, so the numerator
    # is max(e, x >= 0), without a masked (slow) ufunc loop.
    np.greater_equal(x, 0, out=positive)
    np.maximum(out, positive, out=out)
    np.divide(out, denom, out=out)
    return out


def xavier_init(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot initialization, bound sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Network weights (a copied ``theta``; ``w1`` ... ``b3`` are its
    :func:`blocks`) plus the feature normalizer they were trained with."""

    theta: np.ndarray
    normalizer: FeatureNormalizer
    train_seed: Optional[int] = None

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=float)
        if theta.shape != (N_PARAMS,):
            raise ValueError(f"theta must be ({N_PARAMS},), got {theta.shape}")
        if len(self.normalizer.mean) != LAYER_SIZES[0]:
            raise ValueError("normalizer width must match the input layer")
        for key, value in {"theta": theta, **blocks(theta)}.items():
            object.__setattr__(self, key, value)


def init_params(rng: np.random.Generator, normalizer: FeatureNormalizer,
                train_seed: Optional[int] = None) -> MlpParams:
    """Xavier-uniform weights (drawn w1, w2, w3), zero biases."""
    theta = np.zeros(N_PARAMS)
    for key, view in blocks(theta).items():
        if key.startswith("w"):
            view[...] = xavier_init(view.shape, rng)
    return MlpParams(theta, normalizer, train_seed)


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Output probabilities for normalized inputs of shape (m, 3)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"expected (m, {LAYER_SIZES[0]}) inputs")
    a1 = relu(x @ params.w1.T + params.b1)
    a2 = relu(a1 @ params.w2.T + params.b2)
    z3 = a2 @ params.w3.T + params.b3
    return sigmoid(z3[:, 0])


def _blocked_forward(params: MlpParams, x: np.ndarray, block_rows: int,
                     normalizer: Optional[FeatureNormalizer] = None) -> np.ndarray:
    """Probabilities for (m, 3) inputs, ``block_rows`` rows at a time.

    Every block runs the layers of :func:`forward` in the same order, but
    into buffers reused by every block, and its probabilities go straight
    into one preallocated (m,) output: no activation-sized temporary is
    allocated per block.  The block's inputs are copied (with ``normalizer``,
    standardized: x then holds raw features) into a column-major buffer,
    because OpenBLAS multiplies a tall 3-column matrix held that way about
    three times faster than a row-major one; the product is the same
    matrix product, and the tests compare the output byte for byte with
    one :func:`forward` over all m rows.  A row's probability does not
    depend on the other rows of its block.
    """
    out = np.empty(len(x))
    rows = min(block_rows, len(x))
    x_buf = np.empty((rows, LAYER_SIZES[0]), order="F")
    z1_buf, z2_buf, z3_buf = (np.empty((rows, width)) for width in LAYER_SIZES[1:])
    for start in range(0, len(x), block_rows):
        block = x[start:start + block_rows]
        k = len(block)
        x_block = x_buf[:k]
        if normalizer is None:
            x_block[...] = block
        else:
            apply_normalizer(block, normalizer, out=x_block)
        a1 = np.matmul(x_block, params.w1.T, out=z1_buf[:k])
        a1 += params.b1
        np.maximum(a1, 0.0, out=a1)  # relu
        a2 = np.matmul(a1, params.w2.T, out=z2_buf[:k])
        a2 += params.b2
        np.maximum(a2, 0.0, out=a2)
        z3 = np.matmul(a2, params.w3.T, out=z3_buf[:k])
        z3 += params.b3
        out[start:start + k] = sigmoid(z3[:, 0])
    return out


def loss_value(params: MlpParams, x: np.ndarray, y: np.ndarray, lam: float,
               normalizer: Optional[FeatureNormalizer] = None) -> float:
    """Mean clamped cross-entropy plus (lam/2m) sum of squared weights.

    x holds normalized inputs, or raw features when ``normalizer`` is
    given; each block is then standardized as it is copied in, with the
    operations of :func:`~inofdm.features.apply_normalizer`, so the loss
    is the same float as from the normalized rows.  The forward pass runs
    over DETECTOR_BLOCK_ROWS rows at a time (see :func:`_blocked_forward`)
    into one (m,) vector, the only full-size array this function
    allocates: the labels stay in their own dtype and are converted a
    block at a time, and each block's cross-entropy terms overwrite its
    probabilities.  The mean then reduces the whole vector at once (a mean
    of per-block sums would round differently), so the loss is the same
    float as from one forward pass over all m rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    m = len(y)
    if m == 0 or x.shape != (m, LAYER_SIZES[0]):
        raise ValueError("x must be (m, 3) with matching labels")
    terms = _blocked_forward(params, x, DETECTOR_BLOCK_ROWS, normalizer)
    y_buf, log_buf = np.empty((2, min(DETECTOR_BLOCK_ROWS, m)))
    for start in range(0, m, DETECTOR_BLOCK_ROWS):
        p = terms[start:start + DETECTOR_BLOCK_ROWS]
        k = len(p)
        y_k, log_p = y_buf[:k], log_buf[:k]
        y_k[...] = y[start:start + k]
        # y log(p) + (1 - y) log(1 - p), p clamped, each operation as in
        # the whole-vector expression.
        np.clip(p, EPS_CLAMP, 1.0 - EPS_CLAMP, out=p)
        np.log(p, out=log_p)
        log_p *= y_k
        np.subtract(1.0, p, out=p)
        np.log(p, out=p)
        np.subtract(1.0, y_k, out=y_k)
        p *= y_k
        np.add(log_p, p, out=p)
    bce = -np.mean(terms)
    penalty = sum(float(np.sum(w ** 2)) for w in (params.w1, params.w2, params.w3))
    return float(bce + lam / (2.0 * m) * penalty)


class Workspace:
    """Buffers of :func:`gradients` for up to ``rows`` rows: both hidden
    layers' activations, their backward terms and ReLU masks, the output
    layer's pre-activation and sigmoid temporaries, the weight-decay term
    of every parameter and the gradient, the last two with their
    :func:`blocks` views made once."""

    def __init__(self, rows: int) -> None:
        hidden = [(rows, width) for width in LAYER_SIZES[1:3]]
        self.a1, self.a2 = (np.empty(shape) for shape in hidden)
        self.d1, self.d2 = (np.empty(shape) for shape in hidden)
        self.on1, self.on2 = (np.empty(shape, dtype=bool) for shape in hidden)
        self.z3 = np.empty((rows, LAYER_SIZES[3]))
        self.dz3, self.denom = np.empty(rows), np.empty(rows)
        self.positive = np.empty(rows, dtype=bool)
        self.decay, self.grad = np.empty((2, N_PARAMS))
        self.decay_blocks, self.grad_blocks = blocks(self.decay), blocks(self.grad)


def gradients(params: MlpParams, x: np.ndarray, y: np.ndarray, lam: float,
              work: Optional[Workspace] = None) -> np.ndarray:
    """Analytic gradient of :func:`loss_value`, a (N_PARAMS,) vector.

    ReLU uses subgradient 0 at exactly 0; biases carry no L2 term.  The
    gradient and every temporary go into ``work`` (of at least len(y)
    rows) when given, so a loop that passes it allocates no array per
    call, and the returned vector is ``work.grad``, overwritten by the next
    call; the values are the same either way.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    work = Workspace(m) if work is None else work
    a1, a2, d1, d2, on1, on2, z3, dz3, denom, positive = (
        buf[:m] for buf in (work.a1, work.a2, work.d1, work.d2, work.on1,
                            work.on2, work.z3, work.dz3, work.denom,
                            work.positive))
    # Forward, as in forward(), with each layer's z > 0 kept as a mask.
    np.matmul(x, params.w1.T, out=a1)
    a1 += params.b1
    np.greater(a1, 0.0, out=on1)
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, params.w2.T, out=a2)
    a2 += params.b2
    np.greater(a2, 0.0, out=on2)
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, params.w3.T, out=z3)
    z3 += params.b3
    sigmoid(z3[:, 0], out=dz3, denom=denom, positive=positive)   # yhat
    # Backward.
    g = work.grad_blocks
    np.multiply(params.theta, lam / m, out=work.decay)
    decay = work.decay_blocks
    dz3 -= y
    dz3 /= m
    dz3 = dz3[:, None]                                   # (m, 1)
    np.matmul(dz3.T, a2, out=g["w3"])
    g["w3"] += decay["w3"]
    np.add.reduce(dz3, axis=0, out=g["b3"])
    np.matmul(dz3, params.w3, out=d2)                    # (m, 10)
    d2 *= on2
    np.matmul(d2.T, a1, out=g["w2"])
    g["w2"] += decay["w2"]
    np.add.reduce(d2, axis=0, out=g["b2"])
    np.matmul(d2, params.w2, out=d1)                     # (m, 20)
    d1 *= on1
    np.matmul(d1.T, x, out=g["w1"])
    g["w1"] += decay["w1"]
    np.add.reduce(d1, axis=0, out=g["b1"])
    return work.grad


@dataclass
class AdamState:
    """Learning rate, flat first/second moments, the shared step counter
    and two (N_PARAMS,) buffers for :func:`adam_step`."""

    eta: float
    moment1: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    moment2: np.ndarray = field(default_factory=lambda: np.zeros(N_PARAMS))
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, N_PARAMS)),
                                init=False, repr=False, compare=False)


def adam_step(state: AdamState, params: MlpParams, grad: np.ndarray,
              out: Optional[MlpParams] = None) -> MlpParams:
    """One Adam update; ``state`` advances in place, its counter first.

    The updated parameters go into ``out`` when given (``params`` itself
    updates in place) and into a new :class:`MlpParams` otherwise; the
    values are the same either way, and the moments update in place.
    """
    state.step += 1
    term, delta = state.scratch
    state.moment1 *= ADAM_BETA1
    state.moment1 += np.multiply(grad, 1 - ADAM_BETA1, out=term)
    state.moment2 *= ADAM_BETA2
    np.square(grad, out=term)
    term *= 1 - ADAM_BETA2
    state.moment2 += term
    # delta = eta * m_hat / (sqrt(v_hat) + eps)
    np.divide(state.moment2, 1.0 - ADAM_BETA2 ** state.step, out=term)
    np.sqrt(term, out=term)
    term += ADAM_EPS
    np.divide(state.moment1, 1.0 - ADAM_BETA1 ** state.step, out=delta)
    delta *= state.eta
    delta /= term
    out = replace(params) if out is None else out
    np.subtract(params.theta, delta, out=out.theta)
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings (eta/lam follow the studied setup;
    epochs and batch size are artifact-level choices)."""

    eta: float = 0.01
    lam: float = 0.1
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.eta <= 0 or self.lam < 0:
            raise ValueError("eta must be positive and lam nonnegative")


def train(features: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig = TrainConfig()) -> Tuple[MlpParams, List[float]]:
    """Fit the classifier on raw (unnormalized) features.

    The normalizer is fitted here and stored in the returned parameters.
    Batches are drawn in a fresh shuffled order every epoch from a generator
    seeded with ``cfg.seed``, so training is deterministic given (dataset
    order, seed).

    Full-size arrays: the caller's features and labels, each epoch's (m,)
    row permutation, and the (m,) vector of :func:`loss_value`, made after
    the permutation is freed.  Minibatches are gathered from the features
    themselves (first copied once into a C-contiguous float matrix when
    they are not one) into one reused buffer and normalized there, their
    labels converted to float as they are gathered, and the epoch loss
    normalizes a block at a time: no normalized copy of the features
    exists, and every normalized value equals ``apply_normalizer``'s over
    all rows.

    Returns:
        (params, per-epoch training loss trace).

    Raises:
        FloatingPointError: If the loss stops being finite (divergence).
    """
    # np.take from a strided view copies its whole source on every call.
    features = np.ascontiguousarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"features must be (rows, {LAYER_SIZES[0]})")
    if labels.shape != (features.shape[0],) or features.shape[0] == 0:
        raise ValueError("labels must match a nonempty feature matrix")
    rng = np.random.default_rng(cfg.seed)
    normalizer = fit_normalizer(features)
    params = init_params(rng, normalizer, train_seed=cfg.seed)
    state = AdamState(eta=cfg.eta)
    losses: List[float] = []
    n_rows = len(labels)
    # One minibatch and workspace for every step; Adam updates params in
    # place.
    rows = min(cfg.batch_size, n_rows)
    x_batch, y_batch = np.empty((rows, LAYER_SIZES[0])), np.empty(rows)
    y_taken = np.empty(rows, labels.dtype)
    work = Workspace(rows)
    for _ in range(cfg.epochs):
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            k = len(batch)
            x_k = x_batch[:k]
            np.take(features, batch, axis=0, out=x_k, mode="clip")
            apply_normalizer(x_k, normalizer, out=x_k)
            np.take(labels, batch, out=y_taken[:k], mode="clip")
            y_batch[:k] = y_taken[:k]
            grad = gradients(params, x_k, y_batch[:k], cfg.lam, work=work)
            adam_step(state, params, grad, out=params)
        del order, batch    # the loss's (m,) vector needs the room
        epoch_loss = loss_value(params, features, labels, cfg.lam, normalizer)
        if not np.isfinite(epoch_loss):
            raise FloatingPointError(
                f"training diverged at epoch {len(losses) + 1}")
        losses.append(epoch_loss)
    return params, losses


def predict_proba(params: MlpParams, features_raw: np.ndarray) -> np.ndarray:
    """Impulse probabilities for raw features of shape (..., 3).

    Rows are normalized and classified DETECTOR_BLOCK_ROWS at a time; the
    result equals :func:`forward` over all normalized rows at once.
    """
    features_raw = np.asarray(features_raw, dtype=float)
    if features_raw.ndim == 0 or features_raw.shape[-1] != LAYER_SIZES[0]:
        raise ValueError(f"expected (..., {LAYER_SIZES[0]}) features")
    lead = features_raw.shape[:-1]
    x = features_raw.reshape(-1, LAYER_SIZES[0])
    return _blocked_forward(params, x, DETECTOR_BLOCK_ROWS,
                            params.normalizer).reshape(lead)


def classify(params: MlpParams, features_raw: np.ndarray) -> np.ndarray:
    """Hard impulse decisions; probability >= 0.5 maps to 1."""
    return (predict_proba(params, features_raw) >= 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# Plain-text model persistence (versioned, exact float round trip)

_FORMAT_TAG = "inofdm-model"
_FORMAT_VERSION = 1


def save_model(path, params: MlpParams) -> None:
    """Serialize shapes, row-major weights, normalizer and training seed."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_FORMAT_TAG} {_FORMAT_VERSION}\n")
        seed = params.train_seed
        fh.write(f"seed {'none' if seed is None else int(seed)}\n")
        for key, arr in {"norm_mean": params.normalizer.mean,
                         "norm_std": params.normalizer.std,
                         **blocks(params.theta)}.items():
            fh.write(f"{key} {' '.join(str(d) for d in arr.shape)}\n")
            for row in np.atleast_2d(arr):
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_model(path) -> MlpParams:
    """Inverse of :func:`save_model`; a ValueError names the record or
    block that is missing, misnamed, cut short, of the wrong shape or holds
    a non-finite value."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.split() for ln in fh.read().split("\n") if ln.strip()]
    if not lines or lines[0] != [_FORMAT_TAG, str(_FORMAT_VERSION)]:
        raise ValueError(f"not a {_FORMAT_TAG} v{_FORMAT_VERSION} file: "
                         f"missing the '{_FORMAT_TAG} {_FORMAT_VERSION}' record")
    if len(lines) < 2 or len(lines[1]) != 2 or lines[1][0] != "seed":
        raise ValueError("missing seed record")
    train_seed = None if lines[1][1] == "none" else int(lines[1][1])
    pos = 2
    arrays = []
    for name in ("norm_mean", "norm_std", *_SHAPES):
        if pos == len(lines):
            raise ValueError(f"model file ends before block {name!r}")
        if lines[pos][0] != name:
            raise ValueError(f"expected block {name!r}, found {lines[pos][0]!r}")
        shape = tuple(int(d) for d in lines[pos][1:])
        if name in _SHAPES and shape != _SHAPES[name]:
            raise ValueError(f"block {name!r} is {shape}, not {_SHAPES[name]}")
        n_lines = shape[0] if len(shape) == 2 else 1
        values = [float(t) for ln in lines[pos + 1:pos + 1 + n_lines] for t in ln]
        if len(values) != math.prod(shape):
            raise ValueError(f"block {name!r} has {len(values)} values, shape {shape}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"block {name!r} holds a non-finite value")
        arrays.append(np.array(values).reshape(shape))
        pos += 1 + n_lines
    mean, std, *weights = arrays
    return MlpParams(np.concatenate([w.ravel() for w in weights]),
                     FeatureNormalizer(mean=mean, std=std), train_seed)
