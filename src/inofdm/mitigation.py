"""Impulse detection and suppression, decoupled into detector + suppressor.

A detector turns a block of received time-domain samples into a 0/1 mask;
a suppressor rewrites the flagged samples.  Any detector composes with any
suppressor through :class:`MitigationPolicy`:

* threshold detector - flags |r| above the per-block Neyman-Pearson level
  sqrt(-sigma2 * ln p_fa), where sigma2 is the block's robust clean-power
  estimate (median of |r|^2 over ln 2, exact for Rayleigh envelopes and
  insensitive to a minority of impulses);
* network detector - the trained classifier of :mod:`inofdm.dnn` over the
  window features of :mod:`inofdm.features`;
* blanking - flagged samples are zeroed;
* clipping - flagged samples are clamped to the same per-block
  Neyman-Pearson level, phase preserved; flagged samples already at or
  below it pass through.

All sample functions accept leading batch dimensions (blocks on the last
axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

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
    majority of zeros) still gets a positive power.
    """
    samples = np.asarray(samples)
    if samples.shape[-1] < 1:
        raise ValueError("need at least one sample")
    power = np.median(np.abs(samples) ** 2, axis=-1) / math.log(2.0)
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


@dataclass(frozen=True)
class ThresholdDetector:
    """Flags |r| above the per-block Neyman-Pearson level at ``p_fa``."""

    p_fa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class DnnDetector:
    """Feature-network detection; a probability of 0.5 or more flags."""

    params: dnn.MlpParams
    half_width: int = DEFAULT_HALF_WIDTH

    def __post_init__(self) -> None:
        if self.half_width < 1:
            raise ValueError("half_width must be at least 1")


Detector = Union[ThresholdDetector, DnnDetector]


@dataclass(frozen=True)
class Blank:
    """Suppress flagged samples by zeroing them."""


@dataclass(frozen=True)
class Clip:
    """Clamp flagged samples to the per-block Neyman-Pearson level at p_fa."""

    p_fa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must be in (0, 1)")


Suppressor = Union[Blank, Clip]


@dataclass(frozen=True, eq=False)
class MitigationPolicy:
    """A detector/suppressor pairing; ``detector=None`` passes samples through."""

    detector: Optional[Detector]
    suppressor: Suppressor
    name: str = ""


def _block_threshold(power: np.ndarray, p_fa: float) -> np.ndarray:
    """Per-block Neyman-Pearson level at p_fa from the per-block power,
    shape (..., 1)."""
    return np.asarray(np_threshold(power, p_fa))[..., None]


def detector_features(samples: np.ndarray, half_width: int, *,
                      power: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-sample features for the learned detector, gain-normalized per block.

    Raw magnitude-based features scale with the received level, which swings
    block to block with the fading realization and the noise floor.  Each
    block (last axis) is divided by its robust scale estimate — the same
    estimator the threshold detector calibrates with — so the learned
    decision boundary transfers across blocks and operating points instead
    of being pinned to the levels seen during training.  ``power`` is that
    estimate when the caller already holds it (see :func:`mitigate`).
    """
    samples = np.asarray(samples)
    if power is None:
        power = estimate_clean_power(samples)
    return extract_features(samples / np.sqrt(power)[..., None], n=half_width)


def detect(samples: np.ndarray, detector: Detector, *,
           power: Optional[np.ndarray] = None) -> np.ndarray:
    """Run a detector over blocks, returning the 0/1 impulse mask.

    ``power`` is the blocks' :func:`estimate_clean_power`, when the caller
    already holds it; otherwise it is estimated here.
    """
    samples = np.asarray(samples)
    if isinstance(detector, ThresholdDetector):
        if power is None:
            power = estimate_clean_power(samples)
        return threshold_detect(samples, _block_threshold(power, detector.p_fa))
    if isinstance(detector, DnnDetector):
        feats = detector_features(samples, detector.half_width, power=power)
        return dnn.classify(detector.params, feats)
    raise TypeError(f"unknown detector {type(detector).__name__}")


def mitigate(samples: np.ndarray, policy: MitigationPolicy) -> np.ndarray:
    """Detect and suppress in one pass; the input is never modified.

    The per-block power estimate (one median per block) is computed once
    and shared by the detector and the clip ceiling.
    """
    samples = np.asarray(samples)
    if policy.detector is None:
        return samples.astype(complex, copy=True)
    power = estimate_clean_power(samples)
    mask = detect(samples, policy.detector, power=power)
    if isinstance(policy.suppressor, Blank):
        return blank(samples, mask)
    if isinstance(policy.suppressor, Clip):
        level = _block_threshold(power, policy.suppressor.p_fa)
        return clip(samples, mask, level)
    raise TypeError(f"unknown suppressor {type(policy.suppressor).__name__}")
