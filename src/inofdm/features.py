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

How :func:`extract_features` computes them: the rows are reflect-padded
once, then taken whole, about DETECTOR_BLOCK_ROWS samples at a time, so
every window-sized temporary stays cache-sized.  For x2, each of the 2n
neighbour offsets writes its absolute differences to the centres straight
into one contiguous (rows, T, 2n) buffer, in window order, and numpy's partition at n-1 followed by a sum of
the first n entries gives the ROAD; the buffer holds the same values in the
same layout as a window copy with its centre deleted, so the partition and
the summation order are numpy's own either way.  For x3, the median of the
2n+1 shifted magnitude views comes from Batcher's odd-even merge sorting
network pruned to its middle output (Batcher, "Sorting networks and their
applications", AFIPS 1968) and run with elementwise np.minimum/np.maximum:
it selects without arithmetic, so it is exact, and a NaN anywhere in a
window reaches the median as it does with np.median.  ROAD and the median
rank different quantities (complex differences to each centre against
magnitudes), so they share no sort.
"""

from __future__ import annotations

import os
import warnings
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from . import workers

#: Default window half-width.
DEFAULT_HALF_WIDTH = 5

#: Standard deviations below this are clamped before normalization divides.
STD_FLOOR = 1e-12

#: Feature rows (one per sample) per block of :func:`extract_features`,
#: which takes whole rows of samples at a time, and of the network's
#: forward pass in :func:`inofdm.dnn.predict_proba` and
#: :func:`inofdm.dnn.loss_value`: one block's temporaries stay
#: cache-resident.
DETECTOR_BLOCK_ROWS = 4096


def _odd_even_merge_sort(size: int):
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort of
    ``size`` inputs: the power-of-two network with every comparator that
    touches an index >= size left out (those wires would hold +inf)."""
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(min(k, size - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        yield i + j, i + j + k
            k //= 2
        p *= 2


@lru_cache(maxsize=None)
def _median_network(size: int) -> Tuple[Tuple[int, int, bool, bool], ...]:
    """The sorting network for odd ``size`` pruned to its middle output.

    Walking the comparators backwards from wire size // 2, a comparator is
    kept when an output it writes is still needed, and then both of its
    inputs are.  Each kept entry (i, j, want_min, want_max) says which of
    its two outputs a later comparator (or the median) reads.
    """
    needed = {size // 2}
    kept = []
    for lo, hi in reversed(list(_odd_even_merge_sort(size))):
        want_min, want_max = lo in needed, hi in needed
        if want_min or want_max:
            kept.append((lo, hi, want_min, want_max))
            needed.update((lo, hi))
    return tuple(reversed(kept))


def _window_median(wires: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise median of an odd number of equal-shape arrays.

    Runs :func:`_median_network` with np.minimum/np.maximum, so it selects
    one input per element and does no arithmetic; both propagate NaN, so an
    element with a NaN among its inputs comes out NaN.
    """
    wires = list(wires)
    for lo, hi, want_min, want_max in _median_network(len(wires)):
        a, b = wires[lo], wires[hi]
        if want_min:
            wires[lo] = np.minimum(a, b)
        if want_max:
            wires[hi] = np.maximum(a, b)
    return wires[len(wires) // 2]


def _features_block(padded: np.ndarray, mag_padded: np.ndarray, n: int,
                    out: np.ndarray) -> None:
    """Write (x1, x2, x3) of rows of T >= 2 samples into ``out`` (rows, T,
    3), from the rows reflect-padded by n on each side and their
    magnitudes."""
    t_len = out.shape[1]
    width = 2 * n + 1
    samples = padded[:, n:n + t_len]
    mags = mag_padded[:, n:n + t_len]
    # |r_{k+j-n} - r_k| for the 2n neighbour offsets j != n, in window order.
    diffs = np.empty(samples.shape + (2 * n,), dtype=mags.dtype)
    for column, j in enumerate(chain(range(n), range(n + 1, width))):
        np.abs(padded[:, j:j + t_len] - samples, out=diffs[..., column])
    diffs.partition(n - 1, axis=-1)
    medians = _window_median(mag_padded[:, j:j + t_len] for j in range(width))
    out[..., 0] = mags
    out[..., 1] = diffs[..., :n].sum(axis=-1)
    out[..., 2] = np.abs(mags - medians)


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
    t_len = samples.shape[-1]
    if t_len == 1:
        # A reflected window of a single sample is constant: no differences,
        # no deviation from the median.
        out = np.zeros(samples.shape + (3,))
        out[..., 0] = np.abs(samples)
        return out
    out = np.empty(samples.shape + (3,))
    out_rows = out.reshape(-1, t_len, 3)
    padded = np.pad(samples.reshape(-1, t_len), [(0, 0), (n, n)], mode="reflect")
    mag_padded = np.abs(padded)
    step = max(1, DETECTOR_BLOCK_ROWS // t_len)
    for start in range(0, len(out_rows), step):
        stop = start + step
        _features_block(padded[start:stop], mag_padded[start:stop], n,
                        out_rows[start:stop])
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
    treatment through the std floor rather than a division by zero.

    The mean is ``features.mean(axis=0)``.  The squared deviations are
    summed DETECTOR_BLOCK_ROWS rows at a time in one reused buffer, whose
    first row carries the running column sums into the next block, so the
    sum runs row by row as numpy's axis-0 reduction of a C-contiguous
    matrix does: the std equals ``features.std(axis=0)`` bit for bit, and
    no (rows, 3) temporary is allocated.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("expected a (rows, n_features) matrix")
    mean = features.mean(axis=0)
    rows = len(features)
    squares = np.zeros((min(DETECTOR_BLOCK_ROWS, rows) + 1, features.shape[1]))
    for start in range(0, rows, DETECTOR_BLOCK_ROWS):
        block = features[start:start + DETECTOR_BLOCK_ROWS]
        deviations = squares[1:len(block) + 1]
        np.subtract(block, mean, out=deviations)
        np.square(deviations, out=deviations)
        np.add.reduce(squares[:len(block) + 1], axis=0, out=squares[0])
    variance = np.divide(squares[0], rows)
    std = np.maximum(np.sqrt(variance, out=variance), STD_FLOOR)
    return FeatureNormalizer(mean=mean, std=std)


def apply_normalizer(features: np.ndarray, normalizer: FeatureNormalizer,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standardize features with previously fitted constants, (features -
    mean) / std, into ``out`` (features' shape; it may be ``features``
    itself) or else one new C-contiguous array."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != len(normalizer.mean):
        raise ValueError("feature count does not match the normalizer")
    out = np.subtract(features, normalizer.mean, out=out, order="C")
    out /= normalizer.std
    return out


# ---------------------------------------------------------------------------
# Labeled dataset file format
#
# Plain text: '#'-prefixed key=value metadata lines, one 'x1,x2,x3,label'
# header, then one CSV row per sample, its label 0 or 1.  Floats use 17
# significant digits so a write/read round trip is exact.
#
# Both directions run on forked workers, one per usable CPU (see
# inofdm.workers), and give the same file and arrays on any CPU count.  The
# writer formats DATASET_BLOCK_ROWS rows per job, from the arrays the
# workers inherit at the fork, with one '%'-format string ('%.17g' gives
# the same text as the f-string spec '{:.17g}'); at most two blocks per
# worker are in flight, and the parent writes them in file order.  The
# reader parses the metadata and the header line by line, then splits the
# data rows at line starts into one byte range per worker, each of at least
# READ_RANGE_BYTES, and counts their lines.  A worker reads its range in
# pieces of PARSE_PIECE_LINES lines, each a line at a time into numpy's C
# text parser (np.loadtxt, which rounds correctly and needs no per-row
# Python objects), and copies each piece's features and labels to their
# place in two arrays in shared mappings, which are the arrays returned:
# the one piece in flight is the reader's only row-sized temporary.  A row
# that is not four numbers, whose features are not finite or whose label is
# not 0 or 1 raises a ValueError that names its line in the file.

#: Rows formatted per job of :func:`write_dataset`.
DATASET_BLOCK_ROWS = 4096

_DATASET_HEADER = "x1,x2,x3,label"
_DATASET_ROW = "%.17g,%.17g,%.17g,%d\n"
#: The fewest bytes of data rows per worker of :func:`read_dataset`.
READ_RANGE_BYTES = 1 << 17
#: Bytes per read while :func:`read_dataset` counts lines.
_COUNT_PIECE = 1 << 20
#: Lines per np.loadtxt call of a :func:`read_dataset` worker, whose
#: (lines, 4) float result takes 32 bytes a line.
PARSE_PIECE_LINES = 1 << 15


def _format_rows(state: tuple, start: int) -> str:
    """Text of the block of rows of ``state`` (features, labels) that
    starts at row ``start``."""
    features, labels = state
    stop = start + DATASET_BLOCK_ROWS
    columns = features[start:stop].T.tolist()
    values = chain.from_iterable(zip(*columns, labels[start:stop].tolist()))
    return _DATASET_ROW * len(columns[0]) % tuple(values)


def write_dataset(path, features: np.ndarray, labels: np.ndarray,
                  metadata: Optional[Dict[str, str]] = None) -> None:
    """Write a labeled feature dataset.

    Args:
        path: Destination file.
        features: Shape (rows, 3), finite.
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
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, row {bad[0]} holds "
                         f"{labels[bad[0]]}")
    # The extremes are finite exactly when every feature is (NaN propagates).
    if features.size and not np.isfinite([features.min(), features.max()]).all():
        row = np.flatnonzero(~np.isfinite(features).all(axis=1))[0]
        raise ValueError(f"features must be finite, row {row} holds "
                         f"{features[row].tolist()}")
    with open(path, "w", encoding="ascii") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(_DATASET_HEADER + "\n")
        blocks = workers.ordered_map(
            _format_rows, [(start,) for start in
                           range(0, len(labels), DATASET_BLOCK_ROWS)],
            (features, labels))
        with closing(blocks):
            for text in blocks:
                fh.write(text)


def _count_lines(fh, start: int, stop: int) -> int:
    """Lines of the binary file ``fh`` that start in [start, stop), when
    ``stop`` is a line start or the end of the file."""
    fh.seek(start)
    piece = bytearray(min(stop - start, _COUNT_PIECE))
    view = memoryview(piece)
    codes = np.frombuffer(piece, np.uint8)
    # numpy compares and counts about three times as fast as bytes.count.
    count, left, last = 0, stop - start, ord("\n")
    while left and (size := fh.readinto(view[:left])):
        count += np.count_nonzero(codes[:size] == ord("\n"))
        left, last = left - size, codes[size - 1]
    return count + (last != ord("\n"))


def _line_start(fh, pos: int) -> int:
    """The first line start at or after byte ``pos`` > 0 of ``fh``."""
    fh.seek(pos - 1)
    fh.readline()
    return fh.tell()


def _raise_bad_line(path, lines: Iterable[str], first_line: int) -> None:
    """Raise a ValueError naming the first of ``lines`` (numbered from
    ``first_line``) that is not a dataset row."""
    for line_no, line in enumerate(lines, first_line):
        if not line.split("#", 1)[0].strip():
            continue    # blank or comment, as np.loadtxt skips them
        try:
            row = np.loadtxt([line], delimiter=",", ndmin=2)
        except ValueError as exc:
            reason = str(exc)
        else:
            if row.shape[1] != 4:
                reason = f"dataset rows must hold 4 values, got {row.shape[1]}"
            elif row[0, 3] not in (0.0, 1.0):
                reason = f"label {row[0, 3]:g} is not 0 or 1"
            elif not np.isfinite(row[0, :3]).all():
                reason = f"features must be finite, got {row[0, :3].tolist()}"
            else:
                continue
        raise ValueError(f"{path}, line {line_no}: {reason}")
    raise ValueError(f"{path}: malformed rows from line {first_line}")


def _parse_piece(lines: Iterable[str]) -> Optional[np.ndarray]:
    """The dataset rows among ``lines`` as a (rows, 4) float array, or None
    when one of them is not a valid row."""
    with warnings.catch_warnings():
        # np.loadtxt warns of a piece of blank or comment lines alone.
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            return None
    if not rows.size:
        return rows.reshape(0, 4)
    if (rows.shape[1] != 4 or not ((rows[:, 3] == 0) | (rows[:, 3] == 1)).all()
            or not np.isfinite(rows[:, :3]).all()):
        return None
    return rows


def _parse_rows(state: tuple, start: int, n_lines: int, row0: int) -> int:
    """Parse the ``n_lines`` lines from byte ``start`` of the dataset
    ``state`` (path, file line of data row 0, features, labels) into its
    rows from ``row0``, which ``row0`` lines precede, PARSE_PIECE_LINES
    lines at a time; returns the rows parsed."""
    path, data_line, features, labels = state
    row = row0
    # Text lines, split at '\n' alone as the line count was: np.loadtxt
    # parses them about twice as fast as bytes lines.
    with open(path, "r", encoding="ascii", newline="\n") as fh:
        fh.seek(start)
        for done in range(0, n_lines, PARSE_PIECE_LINES):
            rows = _parse_piece(islice(fh, min(PARSE_PIECE_LINES,
                                               n_lines - done)))
            if rows is None:
                # The earlier pieces were valid: the first bad line is here.
                fh.seek(start)
                _raise_bad_line(path, islice(fh, n_lines), data_line + row0)
            features[row:row + len(rows)] = rows[:, :3]
            labels[row:row + len(rows)] = rows[:, 3]
            row += len(rows)
    return row - row0


def read_dataset(path) -> Tuple[np.ndarray, np.ndarray, Dict[str, str]]:
    """Read a dataset written by :func:`write_dataset`.

    Returns:
        (features, labels, metadata): a C-contiguous float64 (rows, 3)
        matrix and a uint8 (rows,) column, each in a shared mapping (see
        :func:`inofdm.workers.shared_array`) that the parsing workers
        write; only when blank or comment lines sit among the rows are
        they compacted into heap copies.

    Raises:
        ValueError: On a missing or wrong header, or a data row that does
            not hold exactly four numbers, three finite features and a
            label of 0 or 1; a row's error names its line in the file.
    """
    metadata: Dict[str, str] = {}
    with open(path, "rb") as fh:
        header_seen = False
        line_no = data_line = 0
        for raw in iter(fh.readline, b""):
            line_no += 1
            text = raw.decode("ascii").strip()
            if not text:
                continue
            if text.startswith("#"):
                key, _, value = text[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if header_seen:
                data_line = line_no     # the first data row
                break
            if text != _DATASET_HEADER:
                raise ValueError(f"unexpected dataset header: {text!r}")
            header_seen = True
        if not header_seen:
            raise ValueError("dataset file has no header line")
        if not data_line:
            return np.empty((0, 3)), np.empty(0, dtype=np.uint8), metadata
        start = fh.tell() - len(raw)
        size = fh.seek(0, os.SEEK_END)
        n_ranges = min(workers._usable_cpus(),
                       -(-(size - start) // READ_RANGE_BYTES))
        bounds = [start, *(_line_start(fh, start + i * (size - start) // n_ranges)
                           for i in range(1, n_ranges)), size]
        jobs, lines = [], 0
        for lo, hi in zip(bounds, bounds[1:]):
            n_lines = _count_lines(fh, lo, hi)
            if n_lines:
                jobs.append((lo, n_lines, lines))
                lines += n_lines
    features = workers.shared_array((lines, 3), float)
    labels = workers.shared_array((lines,), np.uint8)
    counts = list(workers.ordered_map(_parse_rows, jobs,
                                      (path, data_line, features, labels)))
    if sum(counts) < lines:     # blank or comment lines among the rows
        features, labels = (
            np.concatenate([column[row0:row0 + count]
                            for (_, _, row0), count in zip(jobs, counts)])
            for column in (features, labels))
    return features, labels, metadata
