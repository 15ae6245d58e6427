"""Impulse detection and suppression, one pass for every mitigation policy.

A policy is a name from :data:`POLICY_NAMES`: a detector that turns a block
of received time-domain samples into a 0/1 mask, and a suppressor that
rewrites the flagged samples.

* ``none`` - pass-through of the finite samples;
* ``bln``/``clp`` - the threshold detector with blanking/clipping: it flags
  |r| above the per-block Neyman-Pearson level sqrt(-sigma2 * ln p_fa),
  where sigma2 is the block's robust clean-power estimate (median of |r|^2
  over ln 2, exact for Rayleigh envelopes and insensitive to a minority of
  impulses).  The level rides that per-block estimate rather than the
  model-implied average: with per-symbol fading a fixed average-power level
  over-blanks strong symbols and floors the curve near 1e-2, and a
  practical receiver tracks its own front-end level anyway;
* ``dnn``/``dnn-clp`` - the trained classifier of :mod:`inofdm.dnn` over
  the window features of :mod:`inofdm.features`, with blanking/clipping.

Blanking zeroes the flagged samples.  Clipping clamps them to the same
per-block Neyman-Pearson level at the configured false-alarm rate, phase
preserved; flagged samples already at or below it pass through.  Every
policy, ``none`` included, first zeroes non-finite samples, so ``inf`` and
``nan`` never reach the power estimate, the features, the output or the
receiver's DFT after it.

All sample functions accept leading batch dimensions (blocks on the last
axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import dnn
from .features import DEFAULT_HALF_WIDTH, extract_features


def np_threshold(sigma2_clean: float, p_fa: float) -> float:
    """Detection level with false-alarm rate p_fa on a clean Rayleigh block.

    For impulse-free samples with total complex power sigma2_clean,
    P(|r| > T) = exp(-T^2 / sigma2_clean); solving for T gives
    sqrt(-sigma2_clean * ln p_fa).
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError(f"p_fa must be in (0, 1), got {p_fa}")
    if np.any(np.asarray(sigma2_clean) <= 0.0):
        raise ValueError("sigma2_clean must be strictly positive")
    return np.sqrt(-sigma2_clean * math.log(p_fa))


def estimate_clean_power(samples: np.ndarray) -> np.ndarray:
    """Robust per-block estimate of the impulse-free complex power.

    median(|r|^2) / ln 2 along the last axis: the median of an exponential
    with mean sigma2 is sigma2 ln 2, and the median barely moves when a
    small fraction of samples is contaminated.  Floored at the smallest
    normal float, so a block whose median sample is zero (all-zero, or a
    majority of zeros) still gets a positive power.  A saturated sample,
    |r| above about 1.3e154, squares to ``inf`` without a warning, which
    leaves the median alone unless the median sample itself saturates:
    such a block gets ``inf``, so the threshold detector flags nothing in
    it and its network features are all zero.
    """
    samples = np.asarray(samples)
    if samples.shape[-1] < 1:
        raise ValueError("need at least one sample")
    with np.errstate(over="ignore"):
        squared = np.abs(samples) ** 2
    power = np.median(squared, axis=-1) / math.log(2.0)
    return np.maximum(power, np.finfo(float).tiny)


def threshold_detect(samples: np.ndarray, threshold) -> np.ndarray:
    """Flag samples whose magnitude exceeds the threshold (broadcastable)."""
    if np.any(np.asarray(threshold) <= 0.0):
        raise ValueError("threshold must be strictly positive")
    samples = np.asarray(samples)
    return (np.abs(samples) > threshold).astype(np.uint8)


def blank(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the flagged samples, leave the rest untouched."""
    samples = np.asarray(samples)
    mask = np.asarray(mask)
    if mask.shape != samples.shape:
        raise ValueError("mask shape must match samples")
    return np.where(mask == 1, 0.0 + 0.0j, samples)


def clip(samples: np.ndarray, mask: np.ndarray, level) -> np.ndarray:
    """Clamp flagged samples to magnitude ``level``, preserving phase.

    ``level`` is a scalar or broadcasts against ``samples``, e.g. one level
    per block with shape (..., 1).  Flagged samples with |r| <= level are
    returned unchanged (clamp semantics); unflagged samples always pass
    through.
    """
    if np.any(np.asarray(level) <= 0.0):
        raise ValueError("clip level must be strictly positive")
    samples = np.asarray(samples)
    mask = np.asarray(mask)
    if mask.shape != samples.shape:
        raise ValueError("mask shape must match samples")
    level = np.broadcast_to(level, samples.shape)
    mags = np.abs(samples)
    shrink = (mask == 1) & (mags > level)
    out = samples.astype(complex, copy=True)
    out[shrink] *= level[shrink] / mags[shrink]
    return out


#: The mitigation policies, each a detector kind and a suppression.
POLICY_NAMES = ("none", "bln", "clp", "dnn", "dnn-clp")
_KIND = {"bln": "threshold", "clp": "threshold", "dnn": "dnn", "dnn-clp": "dnn"}


@dataclass(frozen=True, eq=False)
class DetectorSettings:
    """What every policy is tuned by: the false-alarm rate of the per-block
    level (threshold detection and every clip ceiling), and the network's
    parameters and feature half-width."""

    p_fa: float
    params: Optional[dnn.MlpParams] = None
    half_width: int = DEFAULT_HALF_WIDTH

    def __post_init__(self) -> None:
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError(f"p_fa must be in (0, 1), got {self.p_fa}")
        if self.half_width < 1:
            raise ValueError("half_width must be at least 1")


def _block_threshold(power: np.ndarray, p_fa: float) -> np.ndarray:
    """Per-block Neyman-Pearson level at p_fa from the per-block power,
    shape (..., 1)."""
    return np.asarray(np_threshold(power, p_fa))[..., None]


def detector_features(samples: np.ndarray, half_width: int,
                      power: np.ndarray) -> np.ndarray:
    """Per-sample features for the learned detector, gain-normalized per block.

    Raw magnitude-based features scale with the received level, which swings
    block to block with the fading realization and the noise floor.  Each
    block (last axis) is divided by its robust scale estimate ``power``
    (:func:`estimate_clean_power`, the estimator the threshold detector
    calibrates with), so the learned decision boundary transfers across
    blocks and operating points instead of being pinned to the levels seen
    during training.
    """
    samples = np.asarray(samples)
    return extract_features(samples / np.sqrt(power)[..., None], n=half_width)


def detect(samples: np.ndarray, kind: str, settings: DetectorSettings,
           power: np.ndarray) -> np.ndarray:
    """Run the ``"threshold"`` or ``"dnn"`` detector over blocks, returning
    the 0/1 impulse mask.  ``power`` is the blocks'
    :func:`estimate_clean_power`."""
    if kind == "threshold":
        return threshold_detect(samples, _block_threshold(power, settings.p_fa))
    if kind == "dnn":
        if settings.params is None:
            raise ValueError("the network detector needs trained model parameters")
        feats = detector_features(samples, settings.half_width, power)
        return dnn.classify(settings.params, feats)
    raise ValueError(f"unknown detector {kind!r}")


def mitigate(samples: np.ndarray, names: Sequence[str],
             settings: DetectorSettings) -> List[np.ndarray]:
    """Clean blocks under each named policy; the input is never modified.

    One pass serves every name: the per-block power is estimated once and
    each detector runs once, so ``bln``/``clp`` share the threshold mask and
    ``dnn``/``dnn-clp`` the features and the network.

    Returns:
        One cleaned complex array per name, in order.
    """
    samples = np.asarray(samples)
    for name in names:
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}")
    finite = np.where(np.isfinite(samples), samples, 0)
    kinds = sorted({_KIND[name] for name in names if name != "none"})
    if kinds:
        power = estimate_clean_power(finite)
        masks = {kind: detect(finite, kind, settings, power) for kind in kinds}
        level = _block_threshold(power, settings.p_fa)
    return [finite.astype(complex, copy=True) if name == "none"
            else clip(finite, masks[_KIND[name]], level) if name.endswith("clp")
            else blank(finite, masks[_KIND[name]])
            for name in names]
