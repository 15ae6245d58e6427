"""Small fully-connected impulse classifier, trained from scratch.

Architecture 3-20-10-1: ReLU hidden layers, sigmoid output, binary
cross-entropy loss with an L2 penalty (lambda/2m) * sum ||W||^2 over the
weight matrices only, optimized with mini-batch Adam.  No frameworks - the
forward pass, the analytic gradients and the optimizer live here so the
whole decision function is inspectable.

Inputs to :func:`forward` are *normalized* features; the fitted
:class:`~inofdm.features.FeatureNormalizer` travels inside
:class:`MlpParams` so inference applies exactly the training-time scaling
(:func:`classify` handles raw features).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

_WEIGHT_KEYS = ("w1", "w2", "w3")
_PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=float)
    # exp(-|x|) never overflows.  np.minimum keeps x's own NaN, where
    # -np.abs(x) would flip its sign bit.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def xavier_init(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot initialization, bound sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Network weights plus the feature normalizer they were trained with."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    normalizer: FeatureNormalizer
    train_seed: Optional[int] = None

    def __post_init__(self) -> None:
        for key, shape in _SHAPES.items():
            arr = np.asarray(getattr(self, key), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{key} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, key, arr)
        if len(self.normalizer.mean) != LAYER_SIZES[0]:
            raise ValueError("normalizer width must match the input layer")

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {key: getattr(self, key) for key in _PARAM_KEYS}


def init_params(rng: np.random.Generator, normalizer: FeatureNormalizer,
                train_seed: Optional[int] = None) -> MlpParams:
    """Xavier-uniform weights, zero biases."""
    return MlpParams(
        w1=xavier_init(_SHAPES["w1"], rng), b1=np.zeros(_SHAPES["b1"]),
        w2=xavier_init(_SHAPES["w2"], rng), b2=np.zeros(_SHAPES["b2"]),
        w3=xavier_init(_SHAPES["w3"], rng), b3=np.zeros(_SHAPES["b3"]),
        normalizer=normalizer, train_seed=train_seed)


def _forward_cached(params: MlpParams, x: np.ndarray):
    z1 = x @ params.w1.T + params.b1
    a1 = relu(z1)
    z2 = a1 @ params.w2.T + params.b2
    a2 = relu(z2)
    z3 = a2 @ params.w3.T + params.b3
    yhat = sigmoid(z3[:, 0])
    return yhat, z1, a1, z2, a2


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Output probabilities for normalized inputs of shape (m, 3)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"expected (m, {LAYER_SIZES[0]}) inputs")
    return _forward_cached(params, x)[0]


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
            np.subtract(block, normalizer.mean, out=x_block)
            x_block /= normalizer.std
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


def loss_value(params: MlpParams, x: np.ndarray, y: np.ndarray,
               lam: float) -> float:
    """Mean clamped cross-entropy plus (lam/2m) sum of squared weights.

    The forward pass runs over DETECTOR_BLOCK_ROWS rows at a time (see
    :func:`_blocked_forward`), and the mean still reduces the whole (m,)
    vector at once, so the loss is the same float as from one forward pass
    over all m rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    if m == 0 or x.shape != (m, LAYER_SIZES[0]):
        raise ValueError("x must be (m, 3) with matching labels")
    yhat = np.clip(_blocked_forward(params, x, DETECTOR_BLOCK_ROWS),
                   EPS_CLAMP, 1.0 - EPS_CLAMP)
    bce = -np.mean(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat))
    penalty = sum(float(np.sum(getattr(params, k) ** 2)) for k in _WEIGHT_KEYS)
    return float(bce + lam / (2.0 * m) * penalty)


def gradients(params: MlpParams, x: np.ndarray, y: np.ndarray,
              lam: float) -> Dict[str, np.ndarray]:
    """Analytic gradients of :func:`loss_value` w.r.t. every parameter.

    ReLU uses subgradient 0 at exactly 0; biases carry no L2 term.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    yhat, z1, a1, z2, a2 = _forward_cached(params, x)
    dz3 = ((yhat - y) / m)[:, None]                      # (m, 1)
    dw3 = dz3.T @ a2 + (lam / m) * params.w3
    db3 = dz3.sum(axis=0)
    dz2 = (dz3 @ params.w3) * (z2 > 0)                   # (m, 10)
    dw2 = dz2.T @ a1 + (lam / m) * params.w2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ params.w2) * (z1 > 0)                   # (m, 20)
    dw1 = dz1.T @ x + (lam / m) * params.w1
    db1 = dz1.sum(axis=0)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    moment1: Dict[str, np.ndarray]
    moment2: Dict[str, np.ndarray]
    step: int = 0
    eta: float = 0.01


def init_adam(params: MlpParams, eta: float = 0.01) -> AdamState:
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    return AdamState(moment1=zeros,
                     moment2={k: v.copy() for k, v in zeros.items()},
                     step=0, eta=eta)


def adam_step(state: AdamState, params: MlpParams,
              grads: Dict[str, np.ndarray]) -> Tuple[MlpParams, AdamState]:
    """One Adam update; the counter increments before bias correction."""
    k = state.step + 1
    new_values = {}
    for key, theta in params.as_dict().items():
        g = grads[key]
        state.moment1[key] = ADAM_BETA1 * state.moment1[key] + (1 - ADAM_BETA1) * g
        state.moment2[key] = ADAM_BETA2 * state.moment2[key] + (1 - ADAM_BETA2) * g ** 2
        m_hat = state.moment1[key] / (1.0 - ADAM_BETA1 ** k)
        v_hat = state.moment2[key] / (1.0 - ADAM_BETA2 ** k)
        new_values[key] = theta - state.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.step = k
    return replace(params, **new_values), state


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

    Returns:
        (params, per-epoch training loss trace).

    Raises:
        FloatingPointError: If the loss stops being finite (divergence).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"features must be (rows, {LAYER_SIZES[0]})")
    if labels.shape != (features.shape[0],) or features.shape[0] == 0:
        raise ValueError("labels must match a nonempty feature matrix")
    rng = np.random.default_rng(cfg.seed)
    normalizer = fit_normalizer(features)
    x = apply_normalizer(features, normalizer)
    params = init_params(rng, normalizer, train_seed=cfg.seed)
    state = init_adam(params, eta=cfg.eta)
    losses: List[float] = []
    n_rows = len(labels)
    for _ in range(cfg.epochs):
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads = gradients(params, x[batch], labels[batch], cfg.lam)
            params, state = adam_step(state, params, grads)
        epoch_loss = loss_value(params, x, labels, cfg.lam)
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
        for name, vec in (("norm_mean", params.normalizer.mean),
                          ("norm_std", params.normalizer.std)):
            fh.write(f"{name} {len(vec)}\n")
            fh.write(" ".join(f"{v:.17g}" for v in vec) + "\n")
        for key in _PARAM_KEYS:
            arr = getattr(params, key)
            fh.write(f"{key} {' '.join(str(d) for d in arr.shape)}\n")
            for row in np.atleast_2d(arr):
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_model(path) -> MlpParams:
    """Inverse of :func:`save_model`, validating version and shapes."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split("\n")
    lines = [ln for ln in tokens if ln.strip()]
    head = lines[0].split()
    if head[0] != _FORMAT_TAG or int(head[1]) != _FORMAT_VERSION:
        raise ValueError(f"not a {_FORMAT_TAG} v{_FORMAT_VERSION} file")
    seed_tok = lines[1].split()
    if seed_tok[0] != "seed":
        raise ValueError("missing seed record")
    train_seed = None if seed_tok[1] == "none" else int(seed_tok[1])
    pos = 2
    blocks: Dict[str, np.ndarray] = {}
    for name in ("norm_mean", "norm_std") + _PARAM_KEYS:
        header = lines[pos].split()
        if header[0] != name:
            raise ValueError(f"expected block {name!r}, found {header[0]!r}")
        shape = tuple(int(d) for d in header[1:])
        n_lines = shape[0] if len(shape) == 2 else 1
        values = []
        for ln in lines[pos + 1: pos + 1 + n_lines]:
            values.extend(float(v) for v in ln.split())
        blocks[name] = np.asarray(values).reshape(shape)
        pos += 1 + n_lines
    normalizer = FeatureNormalizer(mean=blocks["norm_mean"], std=blocks["norm_std"])
    return MlpParams(normalizer=normalizer, train_seed=train_seed,
                     **{key: blocks[key] for key in _PARAM_KEYS})
