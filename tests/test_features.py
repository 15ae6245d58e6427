"""Tests for the per-sample detector features and the dataset file format."""

import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inofdm import workers
from inofdm.features import (
    DATASET_BLOCK_ROWS,
    PARSE_PIECE_LINES,
    READ_RANGE_BYTES,
    DETECTOR_BLOCK_ROWS,
    STD_FLOOR,
    FeatureNormalizer,
    _median_network,
    _odd_even_merge_sort,
    _window_median,
    apply_normalizer,
    extract_features,
    fit_normalizer,
    read_dataset,
    row_permutation,
    write_dataset,
)


def road(window):
    """Rank-ordered absolute difference of a single window (scalar oracle).

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


def median_deviation(window):
    """Signed deviation of the center magnitude from the window median
    (scalar oracle): |center| - median(|window|); the third feature is its
    absolute value.
    """
    window = np.asarray(window)
    if window.ndim != 1 or len(window) % 2 == 0 or len(window) < 3:
        raise ValueError("window must be 1-D with odd length >= 3")
    mags = np.abs(window)
    return float(mags[len(window) // 2] - np.median(mags))


def brute_road(window):
    """Literal restatement of the definition, kept deliberately naive.

    Uses the same magnitude primitive as the implementation (numpy's complex
    abs differs from CPython's in the last ulp), so agreement is exact.
    """
    center = window[len(window) // 2]
    diffs = sorted(float(np.abs(center - w))
                   for i, w in enumerate(window) if i != len(window) // 2)
    total = 0.0
    for d in diffs[:len(window) // 2]:
        total += d
    return total


def test_road_constant_window_is_zero():
    assert road(np.full(11, 2.0 + 3.0j)) == 0.0


def test_road_small_example():
    # n=2: diffs to [1,2,2,1] from center 10 are {9,8,8,9}; two smallest sum 16.
    assert road(np.array([1.0, 2.0, 10.0, 2.0, 1.0])) == pytest.approx(16.0)


def test_road_translation_invariant():
    rng = np.random.default_rng(0)
    window = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    shift = 3.7 - 2.2j
    assert road(window + shift) == pytest.approx(road(window), rel=1e-12)


def test_road_matches_brute_force_on_random_windows():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        n = rng.integers(1, 8)
        window = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        assert road(window) == brute_road(window)


def test_road_rejects_bad_windows():
    with pytest.raises(ValueError):
        road(np.zeros(4))
    with pytest.raises(ValueError):
        road(np.zeros(1))
    with pytest.raises(ValueError):
        road(np.zeros((3, 3)))


def test_median_deviation_examples():
    assert median_deviation(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 0.0
    assert median_deviation(np.array([1.0, 1.0, 9.0, 1.0, 1.0])) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        median_deviation(np.zeros(6))


def test_median_deviation_uses_magnitudes():
    window = np.array([3.0 + 4.0j, 1.0, 1.0])  # |center| = 1
    assert median_deviation(window) == pytest.approx(1.0 - np.median([5.0, 1.0, 1.0]))


@given(c=st.floats(0.01, 100.0), seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_scale_covariance(c, seed):
    rng = np.random.default_rng(seed)
    window = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    assert road(c * window) == pytest.approx(c * road(window), rel=1e-9)
    assert median_deviation(c * window) == pytest.approx(
        c * median_deviation(window), rel=1e-9, abs=1e-12)


class TestExtractFeatures:
    def test_output_shape(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((4, 100)) + 1j * rng.standard_normal((4, 100))
        feats = extract_features(samples, n=5)
        assert feats.shape == (4, 100, 3)
        assert np.isfinite(feats).all()
        assert (feats >= 0).all()

    def test_single_sample_block(self):
        feats = extract_features(np.array([3.0 + 4.0j]), n=5)
        np.testing.assert_allclose(feats, [[5.0, 0.0, 0.0]])

    def test_matches_per_window_functions_in_the_interior(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        n = 4
        feats = extract_features(samples, n=n)
        for k in range(n, 50 - n):
            window = samples[k - n:k + n + 1]
            assert feats[k, 0] == pytest.approx(abs(samples[k]))
            assert feats[k, 1] == pytest.approx(road(window))
            assert feats[k, 2] == pytest.approx(abs(median_deviation(window)))

    def test_impulse_dominates_clean_percentiles(self):
        """A 20-sigma impulse scores above the 99.9th clean percentile."""
        rng = np.random.default_rng(4)
        clean = (rng.standard_normal(10 ** 6)
                 + 1j * rng.standard_normal(10 ** 6)) / np.sqrt(2)
        feats = extract_features(clean, n=5)
        cut2, cut3 = np.percentile(feats[:, 1], 99.9), np.percentile(feats[:, 2], 99.9)
        corrupted = clean.copy()
        corrupted[5000] = 20.0 + 0.0j
        hit = extract_features(corrupted[4990:5011], n=5)[10]
        assert hit[1] > cut2
        assert hit[2] > cut3

    def test_locality(self):
        """Perturbing sample j moves features only within the window reach."""
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        n = 5
        base = extract_features(samples, n=n)
        poked = samples.copy()
        j = 100
        poked[j] += 50.0
        moved = np.flatnonzero(
            np.any(extract_features(poked, n=n) != base, axis=-1))
        assert moved.min() >= j - n
        assert moved.max() <= j + n

    def test_input_validation(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros(10), n=0)
        with pytest.raises(ValueError):
            extract_features(np.zeros((3, 0)))


def reference_extract_features(samples, n=5):
    """The previous vectorised extractor (oracle): one complex (..., T,
    2n+1) window copy with the centre deleted for ROAD, and np.median over
    a sliding window view of the magnitudes."""
    samples = np.asarray(samples)
    mags = np.abs(samples)
    if samples.shape[-1] == 1:
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


SPECIAL_SAMPLES = [0.0, -0.0, complex(-0.0, -0.0), np.inf, -np.inf,
                   complex(0.0, np.inf), np.nan, complex(np.nan, 1.0),
                   1e300, complex(-1e300, 1e300)]


def feature_input(rng, shape, kind, dtype, n_special):
    if kind == "random":
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elif kind == "ties":
        samples = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    else:
        samples = np.zeros(shape, dtype=complex)
    samples = np.array(samples.real if dtype is float else samples, dtype=dtype)
    flat = samples.reshape(-1)
    hits = rng.integers(0, flat.size, n_special)
    picks = rng.integers(0, len(SPECIAL_SAMPLES), n_special)
    for hit, pick in zip(hits, picks):
        value = SPECIAL_SAMPLES[pick]
        flat[hit] = value.real if dtype is float else value
    return samples


@st.composite
def feature_cases(draw):
    n = draw(st.integers(1, 8))
    t_len = draw(st.one_of(st.integers(1, 3 * n + 3), st.sampled_from([1024, 1088])))
    per_block = max(1, DETECTOR_BLOCK_ROWS // t_len)
    lead = draw(st.sampled_from([(), (5,), (2, 3), (per_block - 1,), (per_block,),
                                 (per_block + 1,)]))
    return n, lead + (t_len,)


@given(case=feature_cases(), kind=st.sampled_from(["random", "ties", "zeros"]),
       dtype=st.sampled_from([complex, float]), n_special=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_extract_features_matches_reference_bytes(case, kind, dtype, n_special, seed):
    n, shape = case
    samples = feature_input(np.random.default_rng(seed), shape, kind, dtype,
                            n_special)
    with np.errstate(all="ignore"):
        got = extract_features(samples, n=n)
        want = reference_extract_features(samples, n=n)
    assert got.shape == want.shape == shape + (3,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [DETECTOR_BLOCK_ROWS // 1024 - 1,
                                  DETECTOR_BLOCK_ROWS // 1024,
                                  DETECTOR_BLOCK_ROWS // 1024 + 1,
                                  3 * (DETECTOR_BLOCK_ROWS // 1024) + 7])
def test_extract_features_matches_reference_on_link_blocks(rows):
    rng = np.random.default_rng(rows)
    samples = rng.standard_normal((rows, 1024)) + 1j * rng.standard_normal((rows, 1024))
    samples[:, ::97] *= 30.0  # impulses
    got = extract_features(samples)
    assert got.tobytes() == reference_extract_features(samples).tobytes()


@pytest.mark.parametrize("size", range(3, 18, 2))
def test_median_network_selects_the_median_of_every_0_1_input(size):
    # 0-1 principle: a comparator network that puts the median of every
    # 0/1 input on its middle wire does so for every input.
    codes = np.arange(2 ** size)
    wires = [(codes >> i) & 1 for i in range(size)]
    median = (sum(wires) > size // 2).astype(codes.dtype)
    np.testing.assert_array_equal(_window_median(wires), median)


@pytest.mark.parametrize("size", range(3, 18, 2))
def test_median_network_propagates_nan_from_every_input(size):
    rng = np.random.default_rng(size)
    for j in range(size):
        wires = [np.array([v, -v, 0.0]) for v in rng.standard_normal(size)]
        wires[j] = np.full(3, np.nan)
        assert np.isnan(_window_median(wires)).all()


def test_median_network_is_pruned():
    # Batcher's network sorts 11 inputs with 38 comparators (the 16-input
    # network's 63 less those touching wires 11-15); the median needs 32.
    assert len(list(_odd_even_merge_sort(11))) == 38
    assert len(_median_network(11)) == 32
    assert all(want_min or want_max for _, _, want_min, want_max
               in _median_network(11))


def test_normalizer_roundtrip_statistics():
    rng = np.random.default_rng(6)
    feats = np.abs(rng.standard_normal((20_000, 3))) * [1.0, 7.0, 0.3]
    norm = fit_normalizer(feats)
    z = apply_normalizer(feats, norm)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)


def test_identity_normalizer():
    feats = np.arange(12.0).reshape(4, 3)
    norm = FeatureNormalizer(mean=np.zeros(3), std=np.ones(3))
    np.testing.assert_array_equal(apply_normalizer(feats, norm), feats)


def test_normalizer_duplication_invariant():
    rng = np.random.default_rng(7)
    feats = np.abs(rng.standard_normal((5000, 3)))
    norm_a = fit_normalizer(feats)
    norm_b = fit_normalizer(np.concatenate([feats, feats]))
    np.testing.assert_allclose(norm_a.mean, norm_b.mean, rtol=1e-12)
    np.testing.assert_allclose(norm_a.std, norm_b.std, rtol=1e-12)


def test_constant_feature_hits_std_floor():
    feats = np.column_stack([np.ones(100), np.arange(100.0), np.arange(100.0)])
    norm = fit_normalizer(feats)
    assert norm.std[0] == pytest.approx(1e-12)
    z = apply_normalizer(feats, norm)
    assert np.isfinite(z).all()


@pytest.mark.parametrize("rows", [1, DETECTOR_BLOCK_ROWS - 1, DETECTOR_BLOCK_ROWS,
                                  DETECTOR_BLOCK_ROWS + 1,
                                  3 * DETECTOR_BLOCK_ROWS + 7])
def test_blockwise_fit_equals_numpy_mean_and_std_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    feats = np.abs(rng.standard_normal((rows, 3))) * 10.0 ** rng.integers(-4, 5, (rows, 3))
    feats[:, 1] += 1e6      # deviations far below the mean's magnitude
    constant = feats.copy()
    constant[:, 2] = 0.3    # a constant column: std 0 or rounding noise
    for matrix in (feats, constant):
        norm = fit_normalizer(matrix)
        assert norm.mean.tobytes() == matrix.mean(axis=0).tobytes()
        assert norm.std.tobytes() == np.maximum(matrix.std(axis=0),
                                                STD_FLOOR).tobytes()


def test_fit_normalizer_allocates_under_2_bytes_per_row(traced_bytes_per_row):
    # Block buffers only; numpy's std allocated an (m, 3) temporary, 24
    # bytes a row.
    feats = np.random.default_rng(9).standard_normal((200_000, 3))
    assert traced_bytes_per_row(lambda: fit_normalizer(feats), 200_000) <= 2


@pytest.mark.parametrize("rows", [1, 2, 7, 1000, 1_024_000])
def test_row_permutation_is_rng_permutation_in_int32(rows):
    # Same order, and the generators continue with the same draws.
    ours, numpys = np.random.default_rng(rows), np.random.default_rng(rows)
    order = row_permutation(ours, rows)
    assert order.dtype == np.int32
    np.testing.assert_array_equal(order, numpys.permutation(rows))
    assert ours.random() == numpys.random()


def test_normalizer_validation():
    with pytest.raises(ValueError):
        FeatureNormalizer(mean=np.zeros(3), std=np.zeros(3))
    with pytest.raises(ValueError):
        FeatureNormalizer(mean=np.zeros((3, 1)), std=np.ones((3, 1)))
    with pytest.raises(ValueError):
        fit_normalizer(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        apply_normalizer(np.zeros((5, 4)), FeatureNormalizer(np.zeros(3), np.ones(3)))


def test_dataset_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    feats = np.abs(rng.standard_normal((200, 3)))
    labels = rng.integers(0, 2, 200).astype(np.uint8)
    path = tmp_path / "d.csv"
    write_dataset(path, feats, labels, metadata={"config_hash": "abc", "seed": "7"})
    got_f, got_l, meta = read_dataset(path)
    np.testing.assert_array_equal(got_f, feats)  # 17 digits: exact roundtrip
    np.testing.assert_array_equal(got_l, labels)
    assert meta == {"config_hash": "abc", "seed": "7"}


def test_dataset_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "x.csv", np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "x.csv", np.zeros((3, 3)), np.zeros(4))


def test_dataset_reader_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3,0\n")
    with pytest.raises(ValueError):
        read_dataset(bad)


def per_row_writer(path, features, labels, metadata):
    """The one-f-string-per-row writer the block writer must match byte for
    byte."""
    with open(path, "w", encoding="ascii") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        fh.write("x1,x2,x3,label\n")
        for row, label in zip(np.asarray(features, dtype=float), labels):
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{int(label)}\n")


@pytest.mark.parametrize("rows", [0, 1, DATASET_BLOCK_ROWS - 1, DATASET_BLOCK_ROWS,
                                  DATASET_BLOCK_ROWS + 1])
def test_block_writer_matches_per_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    feats = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    # The writer rejects non-finite features: the largest floats stand in.
    big = np.finfo(float).max
    special = np.array([-0.0, 5e-324, 1e300, big, 0.1, -big])
    feats.ravel()[:len(special)] = special[:feats.size]
    labels = rng.integers(0, 2, rows).astype(np.uint8)
    meta = {"config_hash": "abc", "seed": "7"}
    per_row_writer(tmp_path / "ref.csv", feats, labels, meta)
    write_dataset(tmp_path / "got.csv", feats, labels, metadata=meta)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    got_f, got_l, got_meta = read_dataset(tmp_path / "got.csv")
    assert got_f.shape == (rows, 3) and got_l.shape == (rows,)
    np.testing.assert_array_equal(got_f, feats)
    np.testing.assert_array_equal(np.signbit(got_f), np.signbit(feats))
    np.testing.assert_array_equal(got_l, labels)
    assert got_meta == meta


def test_header_only_dataset_reads_empty_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# seed=3\nx1,x2,x3,label\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        feats, labels, meta = read_dataset(path)
    assert feats.shape == (0, 3) and feats.dtype == float
    assert labels.shape == (0,) and labels.dtype == np.uint8
    assert meta == {"seed": "3"}


@pytest.mark.parametrize("row", ["1,2,3\n", "1,2,3,0,5\n", "1,2,x,0\n", "1,,3,0\n"])
def test_dataset_reader_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,x3,label\n0.5,1,2,1\n" + row)
    with pytest.raises(ValueError):
        read_dataset(path)


def test_dataset_reader_rejects_uniformly_wide_rows(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x1,x2,x3,label\n1,2,3,0,9\n4,5,6,1,9\n")
    with pytest.raises(ValueError, match="4 values"):
        read_dataset(path)


def test_dataset_reader_rejects_missing_header(tmp_path):
    path = tmp_path / "nohead.csv"
    path.write_text("# seed=1\n\n")
    with pytest.raises(ValueError, match="no header"):
        read_dataset(path)


def _assert_read_layout(features, labels, rows):
    """The reader's arrays: a C-contiguous float64 (rows, 3) matrix and a
    uint8 column, not views of one (rows, 4) array."""
    assert features.shape == (rows, 3) and features.dtype == np.float64
    assert features.flags.c_contiguous
    assert labels.shape == (rows,) and labels.dtype == np.uint8


def _on_cpus(monkeypatch, cpus, call, *args):
    """``call(*args)`` with ``cpus`` usable CPUs; returns its result and the
    (workers, start method) of every pool it made, and checks that no
    worker outlives the call, also when it raises."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    pools = []
    real_pool = workers.Pool

    def pool(n_workers, job, state=()):
        made = real_pool(n_workers, job, state)
        pools.append((len(made.processes), made.processes[0]._start_method))
        return made
    monkeypatch.setattr(workers, "Pool", pool)
    try:
        return call(*args), pools
    finally:
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("rows", [0, 1, DATASET_BLOCK_ROWS - 1, DATASET_BLOCK_ROWS,
                                  DATASET_BLOCK_ROWS + 1, 3 * DATASET_BLOCK_ROWS])
def test_dataset_files_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path, rows):
    rng = np.random.default_rng(rows + 1)
    feats = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    labels = rng.integers(0, 2, rows).astype(np.uint8)
    meta = {"seed": "7"}
    per_row_writer(tmp_path / "ref.csv", feats, labels, meta)
    blocks = -(-rows // DATASET_BLOCK_ROWS)
    for cpus in (1, 2, 3):
        path = tmp_path / f"cpus{cpus}.csv"
        _, pools = _on_cpus(monkeypatch, cpus, write_dataset, path, feats,
                            labels, meta)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), cpus
        # One worker per block at most, and nothing forked for one.
        forked = min(cpus, blocks)
        assert pools == ([(forked, "fork")] if forked > 1 else []), cpus
        (got_f, got_l, got_meta), pools = _on_cpus(monkeypatch, cpus,
                                                   read_dataset, path)
        np.testing.assert_array_equal(got_f, feats)
        np.testing.assert_array_equal(np.signbit(got_f), np.signbit(feats))
        np.testing.assert_array_equal(got_l, labels)
        _assert_read_layout(got_f, got_l, rows)
        assert got_meta == meta
        # One worker per READ_RANGE_BYTES of rows at most.
        row_bytes = path.stat().st_size - len("# seed=7\nx1,x2,x3,label\n")
        forked = min(cpus, -(-row_bytes // READ_RANGE_BYTES))
        assert pools == ([(forked, "fork")] if forked > 1 else []), cpus


def _rows_text(rows, labels):
    return "".join(f"{i}.5,{i},-{i},{label}\n" for i, label in zip(range(rows), labels))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_reader_takes_a_last_row_without_newline_and_blank_lines(
        monkeypatch, tmp_path, cpus):
    rows = 2 * DATASET_BLOCK_ROWS + 5
    labels = np.random.default_rng(3).integers(0, 2, rows)
    text = _rows_text(rows, labels)
    lines = text.splitlines(keepends=True)
    # Blank and comment lines inside every worker's range, and at the end.
    for at in (7, DATASET_BLOCK_ROWS + 3, 2 * DATASET_BLOCK_ROWS):
        lines.insert(at, "\n" if at % 2 else "# note\n")
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,x3,label\n" + "".join(lines).rstrip("\n") + "\n\n")
    (feats, got, _), _ = _on_cpus(monkeypatch, cpus, read_dataset, path)
    np.testing.assert_array_equal(got, labels)
    np.testing.assert_array_equal(feats[:, 1], np.arange(rows))
    _assert_read_layout(feats, got, rows)
    path.write_text("x1,x2,x3,label\n" + text.rstrip("\n"))
    (feats, got, _), _ = _on_cpus(monkeypatch, cpus, read_dataset, path)
    np.testing.assert_array_equal(got, labels)
    np.testing.assert_array_equal(feats[:, 2], -np.arange(rows))
    _assert_read_layout(feats, got, rows)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", ["1,2,x,0", "1,2,3", "1,2,3,0,9", "1,2,3,2",
                                 "1,2,3,-1", "1,2,3,0.5", "1,2,3,nan",
                                 "nan,2,3,0", "1,inf,3,1", "1,2,-inf,0"])
def test_reader_names_the_file_line_of_a_bad_last_row(monkeypatch, tmp_path,
                                                       cpus, bad):
    rows = 2 * DATASET_BLOCK_ROWS + 1
    path = tmp_path / "d.csv"
    path.write_text("# seed=1\nx1,x2,x3,label\n"
                    + _rows_text(rows - 1, np.zeros(rows - 1, int)) + bad + "\n")
    # Line 1 is metadata, line 2 the header.
    with pytest.raises(ValueError, match=f"line {rows + 2}: "):
        _on_cpus(monkeypatch, cpus, read_dataset, path)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", ["1,2,x,0", "1,inf,3,1", "1,2,3,2"])
def test_reader_names_the_line_of_a_bad_row_past_the_first_piece(
        monkeypatch, tmp_path, cpus, bad):
    lines = _rows_text(3 * PARSE_PIECE_LINES,
                       np.zeros(3 * PARSE_PIECE_LINES, int)).splitlines(keepends=True)
    lines[5:5] = ["\n", "# note\n"]      # pieces count lines, not rows
    lines[PARSE_PIECE_LINES] = bad + "\n"  # the first line of the second piece
    path = tmp_path / "d.csv"
    path.write_text("# seed=1\nx1,x2,x3,label\n" + "".join(lines))
    # Line 1 is metadata, line 2 the header.
    with pytest.raises(ValueError, match=f"line {PARSE_PIECE_LINES + 3}: "):
        _on_cpus(monkeypatch, cpus, read_dataset, path)


@pytest.mark.parametrize("cpus", [1, 2])
def test_reader_compacts_blank_lines_across_piece_boundaries(monkeypatch, tmp_path,
                                                             cpus):
    rows = 3 * PARSE_PIECE_LINES
    labels = np.random.default_rng(5).integers(0, 2, rows)
    lines = _rows_text(rows, labels).splitlines(keepends=True)
    # Two blank or comment lines on each side of the first piece boundary,
    # then a whole piece of them.
    lines[PARSE_PIECE_LINES - 2:PARSE_PIECE_LINES - 2] = ["\n", "# a\n", "\n", "# b\n"]
    at = 2 * PARSE_PIECE_LINES
    lines[at:at] = ["\n" if i % 3 else "# note\n" for i in range(PARSE_PIECE_LINES)]
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,x3,label\n" + "".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (feats, got, _), _ = _on_cpus(monkeypatch, cpus, read_dataset, path)
    np.testing.assert_array_equal(got, labels)
    np.testing.assert_array_equal(feats[:, 1], np.arange(rows))
    np.testing.assert_array_equal(feats[:, 2], -np.arange(rows))


@pytest.mark.parametrize("cpus", [1, 2])
def test_reader_takes_a_range_of_blank_lines_alone(monkeypatch, tmp_path, cpus):
    # On two CPUs the second range holds no row; its empty parse once
    # raised an IndexError.
    rows = 1000
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,x3,label\n" + _rows_text(rows, np.zeros(rows, int))
                    + "\n" * (3 * READ_RANGE_BYTES))
    (feats, got, _), _ = _on_cpus(monkeypatch, cpus, read_dataset, path)
    np.testing.assert_array_equal(feats[:, 1], np.arange(rows))
    np.testing.assert_array_equal(got, np.zeros(rows))


def test_one_cpu_read_peaks_under_6_mb(monkeypatch, tmp_path, traced_bytes_per_row):
    # One np.loadtxt piece at a time; a (rows, 4) parse of the whole range
    # took 14.5 MB.
    rows = 409_600
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,x3,label\n" + _rows_text(rows, np.zeros(rows, int)))
    peak = traced_bytes_per_row(
        lambda: _on_cpus(monkeypatch, 1, read_dataset, path), 1)
    assert peak <= 6e6


@pytest.mark.parametrize("row", [1, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_rejects_non_finite_features(tmp_path, row, value):
    feats = np.zeros((4, 3))
    feats[row, row % 3] = value
    with pytest.raises(ValueError, match=f"features must be finite, row {row}"):
        write_dataset(tmp_path / "x.csv", feats, np.zeros(4))
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("label", [-1, 0.5, 2, np.nan])
def test_writer_rejects_labels_other_than_0_and_1(tmp_path, label):
    labels = np.array([0, 1, label, 1], dtype=float)
    with pytest.raises(ValueError, match="row 2"):
        write_dataset(tmp_path / "x.csv", np.zeros((4, 3)), labels)
    assert not (tmp_path / "x.csv").exists()
