"""Per-sample detection features and the labeled feature-dataset format.

Three features describe each received time-domain sample r_k through a
sliding window of half-width n (window length 2n+1, reflect-padded at the
block edges):

* x1 - the magnitude |r_k|;
* x2 - the rank-ordered absolute difference (ROAD): of the 2n absolute
  differences |r_k - r_j| to the window neighbors, the sum of the n
  smallest.  Isolated impulses differ from *all* neighbors, so their
  smallest differences are still large;
* x3 - |e_k| where e_k = |r_k| - median(|r_j|, j in window), the deviation
  of the magnitude from the window median.  The median survives a minority
  of contaminated neighbors.

Features are computed blockwise and depend only on samples within the
window, so detection latency is bounded by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Tuple

import numpy as np

#: Default window half-width.
DEFAULT_HALF_WIDTH = 5

#: Standard deviations below this are clamped before normalization divides.
STD_FLOOR = 1e-12


def road(window: np.ndarray) -> float:
    """Rank-ordered absolute difference of a single window.

    Args:
        window: Complex (or real) samples of odd length 2n+1; the center
            element is the sample under test.

    Returns:
        Sum of the n smallest of the 2n absolute differences between the
        center and its neighbors.
    """
    window = np.asarray(window)
    if window.ndim != 1 or len(window) % 2 == 0 or len(window) < 3:
        raise ValueError("window must be 1-D with odd length >= 3")
    n = len(window) // 2
    diffs = np.abs(np.delete(window - window[n], n))
    return float(np.sort(diffs)[:n].sum())


def median_deviation(window: np.ndarray) -> float:
    """Signed deviation of the center magnitude from the window median.

    Returns |center| - median(|window|); the caller takes the absolute
    value when forming the third feature.
    """
    window = np.asarray(window)
    if window.ndim != 1 or len(window) % 2 == 0 or len(window) < 3:
        raise ValueError("window must be 1-D with odd length >= 3")
    mags = np.abs(window)
    return float(mags[len(window) // 2] - np.median(mags))


def extract_features(samples: np.ndarray,
                     n: int = DEFAULT_HALF_WIDTH) -> np.ndarray:
    """Compute (x1, x2, x3) for every sample of one or more blocks.

    Args:
        samples: Complex samples, shape (..., T) with T >= 1.  Windows are
            reflect-padded, so every sample gets a full-size window.
        n: Window half-width.

    Returns:
        Float features, shape (..., T, 3).
    """
    samples = np.asarray(samples)
    if n < 1:
        raise ValueError("window half-width must be at least 1")
    if samples.shape[-1] < 1:
        raise ValueError("blocks must contain at least one sample")
    mags = np.abs(samples)
    if samples.shape[-1] == 1:
        # A reflected window of a single sample is constant: no differences,
        # no deviation from the median.
        out = np.zeros(samples.shape + (3,))
        out[..., 0] = mags
        return out
    pad = [(0, 0)] * (samples.ndim - 1) + [(n, n)]
    padded = np.pad(samples, pad, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * n + 1, axis=-1)
    diffs = np.abs(windows - windows[..., n:n + 1])
    diffs = np.delete(diffs, n, axis=-1)
    smallest = np.partition(diffs, n - 1, axis=-1)[..., :n]
    mag_windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(mags, pad, mode="reflect"), 2 * n + 1, axis=-1)
    medians = np.median(mag_windows, axis=-1)
    out = np.empty(samples.shape + (3,))
    out[..., 0] = mags
    out[..., 1] = smallest.sum(axis=-1)
    out[..., 2] = np.abs(mags - medians)
    return out


@dataclass(frozen=True, eq=False)
class FeatureNormalizer:
    """Per-feature affine standardization fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D with matching shape")
        if (std < STD_FLOOR).any():
            raise ValueError(f"std entries must be >= {STD_FLOOR}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_normalizer(features: np.ndarray) -> FeatureNormalizer:
    """Fit z-score constants; degenerate (constant) features get unit-free
    treatment through the std floor rather than a division by zero."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("expected a (rows, n_features) matrix")
    mean = features.mean(axis=0)
    std = np.maximum(features.std(axis=0), STD_FLOOR)
    return FeatureNormalizer(mean=mean, std=std)


def apply_normalizer(features: np.ndarray,
                     normalizer: FeatureNormalizer) -> np.ndarray:
    """Standardize features with previously fitted constants."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != len(normalizer.mean):
        raise ValueError("feature count does not match the normalizer")
    return (features - normalizer.mean) / normalizer.std


# ---------------------------------------------------------------------------
# Labeled dataset file format
#
# Plain text: '#'-prefixed key=value metadata lines, one 'x1,x2,x3,label'
# header, then one CSV row per sample.  Floats use 17 significant digits so
# a write/read round trip is exact.
#
# The writer formats DATASET_BLOCK_ROWS rows at a time with one '%'-format
# string per block ('%.17g' gives the same text as the f-string spec
# '{:.17g}').  The reader parses the metadata and the header line by line,
# then hands the rest of the open file to numpy's C text parser
# (np.loadtxt), which rounds correctly and needs no per-row Python objects.

#: Rows formatted per write call of :func:`write_dataset`.
DATASET_BLOCK_ROWS = 4096

_DATASET_HEADER = "x1,x2,x3,label"
_DATASET_ROW = "%.17g,%.17g,%.17g,%d\n"


def write_dataset(path, features: np.ndarray, labels: np.ndarray,
                  metadata: Optional[Dict[str, str]] = None) -> None:
    """Write a labeled feature dataset.

    Args:
        path: Destination file.
        features: Shape (rows, 3).
        labels: Shape (rows,), values 0/1.
        metadata: Ordered key=value pairs (e.g. config_hash, seed) emitted
            as '#'-prefixed lines before the header.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != 3:
        raise ValueError("features must have shape (rows, 3)")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must match the feature rows")
    with open(path, "w", encoding="ascii") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(_DATASET_HEADER + "\n")
        for start in range(0, len(labels), DATASET_BLOCK_ROWS):
            stop = start + DATASET_BLOCK_ROWS
            columns = features[start:stop].T.tolist()
            values = chain.from_iterable(zip(*columns, labels[start:stop].tolist()))
            fh.write(_DATASET_ROW * len(columns[0]) % tuple(values))


def read_dataset(path) -> Tuple[np.ndarray, np.ndarray, Dict[str, str]]:
    """Read a dataset written by :func:`write_dataset`.

    Returns:
        (features, labels, metadata).

    Raises:
        ValueError: On a missing or wrong header, or a data row that does
            not hold exactly four numbers.
    """
    metadata: Dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        header_seen = False
        for line in fh:
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                key, _, value = text[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if header_seen:
                break  # the first data row
            if text != _DATASET_HEADER:
                raise ValueError(f"unexpected dataset header: {text!r}")
            header_seen = True
        else:
            if not header_seen:
                raise ValueError("dataset file has no header line")
            return np.empty((0, 3)), np.empty(0, dtype=np.uint8), metadata
        data = np.loadtxt(chain([line], fh), delimiter=",", dtype=float,
                          ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"dataset rows must hold 4 values, got {data.shape[1]}")
    return data[:, :3], data[:, 3].astype(np.uint8), metadata
