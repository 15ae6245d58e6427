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

One level, :func:`_level` at the configured false-alarm rate, serves the
threshold detector and the clip ceiling; both suppressors live in
:func:`mitigate`.  Blanking zeroes the flagged samples; clipping clamps
those above the level onto it, phase preserved.  Every policy, ``none``
included, first zeroes non-finite samples, so ``inf`` and ``nan`` never
reach the power estimate, the features, the output or the receiver's DFT.

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


def _level(power: np.ndarray, p_fa: float) -> np.ndarray:
    """Per-block Neyman-Pearson level at false-alarm rate p_fa, shape (..., 1).

    For impulse-free samples with total complex power sigma2,
    P(|r| > T) = exp(-T^2 / sigma2); solving for T gives
    sqrt(-sigma2 ln p_fa).  ``power`` is the blocks'
    :func:`estimate_clean_power`.
    """
    return np.sqrt(-power * math.log(p_fa))[..., None]


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
        return (np.abs(samples) > _level(power, settings.p_fa)).astype(np.uint8)
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
    for name in names:
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}")
    finite = np.where(np.isfinite(samples), samples, 0)
    kinds = sorted({_KIND[name] for name in names if name != "none"})
    if kinds:
        power = estimate_clean_power(finite)
        masks = {kind: detect(finite, kind, settings, power).astype(bool)
                 for kind in kinds}
    if any(name.endswith("clp") for name in names):
        level = np.broadcast_to(_level(power, settings.p_fa), finite.shape)
        mags = np.abs(finite)
        over = mags > level
    outs = []
    for name in names:
        if name in ("bln", "dnn"):
            outs.append(np.where(masks[_KIND[name]], 0.0 + 0.0j, finite))
            continue
        out = finite.astype(complex, copy=True)
        if name != "none":
            shrink = masks[_KIND[name]] & over
            out[shrink] *= level[shrink] / mags[shrink]
        outs.append(out)
    return outs
