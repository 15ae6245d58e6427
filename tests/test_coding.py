"""Tests for the convolutional code, soft Viterbi decoder, and interleaver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inofdm.coding import (
    CODE_RATE,
    N_STATES,
    N_TAIL,
    STEP_CHUNK,
    InterleaverSpec,
    _tables,
    conv_encode,
    deinterleave,
    interleave,
    viterbi_decode_soft,
)
from inofdm.ofdm import qpsk_llr, qpsk_map


def reference_encode(bits, generators=(0o171, 0o133), k=7):
    """Independent bit-at-a-time shift-register encoder (oracle).

    Generator words are read MSB-first over [current input, ..., input k-1
    steps back]; the register starts at zero and six zero tail bits flush it.
    """
    taps = [[(g >> (k - 1 - j)) & 1 for j in range(k)] for g in generators]
    register = [0] * k
    out = []
    for u in list(bits) + [0] * (k - 1):
        register = [u] + register[:-1]
        for tap in taps:
            out.append(sum(t * r for t, r in zip(tap, register)) % 2)
    return np.array(out, dtype=np.uint8)


def reference_conv_encode(bits):
    """Step-at-a-time table encoder, vectorised across rows only (oracle).

    The previous library encoder: one branch-table lookup per trellis step,
    the state shifting in one input bit per step.
    """
    bits = np.asarray(bits)
    out_pair = _tables()
    lead = bits.shape[:-1]
    m = bits.shape[-1]
    flat = bits.reshape(-1, m).astype(np.intp)
    n_steps = m + N_TAIL
    coded = np.empty((flat.shape[0], 2 * n_steps), dtype=np.uint8)
    state = np.zeros(flat.shape[0], dtype=np.intp)
    mask = N_STATES - 1
    for t in range(n_steps):
        u = flat[:, t] if t < m else np.zeros_like(state)
        pair = out_pair[state, u]
        coded[:, 2 * t] = pair >> 1
        coded[:, 2 * t + 1] = pair & 1
        state = ((state << 1) | u) & mask
    return coded.reshape(lead + (2 * n_steps,))


def reference_viterbi(llrs, generators=(0o171, 0o133), k=7):
    """Per-step soft Viterbi decoder with rows-major metrics (oracle).

    Each step gathers the metrics of every state's two predecessors and
    keeps the upper one only on a strictly greater candidate, so ties and
    NaN upper candidates keep the lower predecessor.
    """
    n_states = 1 << (k - 1)
    taps = [[(g >> (k - 1 - j)) & 1 for j in range(k)] for g in generators]
    out_pair = np.zeros((n_states, 2), dtype=np.intp)
    for s in range(n_states):
        for u in (0, 1):
            register = [u] + [(s >> j) & 1 for j in range(k - 1)]
            c0, c1 = (sum(t * r for t, r in zip(tap, register)) % 2
                      for tap in taps)
            out_pair[s, u] = 2 * c0 + c1
    states = np.arange(n_states)
    pred0 = states >> 1
    pred1 = pred0 | (n_states >> 1)
    sym0 = out_pair[pred0, states & 1]
    sym1 = out_pair[pred1, states & 1]
    llrs = np.asarray(llrs, dtype=float)
    n_steps = llrs.shape[-1] // 2
    lead = llrs.shape[:-1]
    flat = llrs.reshape(-1, 2 * n_steps)
    n_rows = flat.shape[0]
    sign0 = np.array([1.0, 1.0, -1.0, -1.0])
    sign1 = np.array([1.0, -1.0, 1.0, -1.0])
    metric = np.full((n_rows, n_states), -np.inf)
    metric[:, 0] = 0.0
    choose_hi = np.empty((n_steps, n_rows, n_states), dtype=bool)
    for t in range(n_steps):
        bm = (np.outer(flat[:, 2 * t], sign0)
              + np.outer(flat[:, 2 * t + 1], sign1))
        cand_lo = metric[:, pred0] + bm[:, sym0]
        cand_hi = metric[:, pred1] + bm[:, sym1]
        take = cand_hi > cand_lo
        metric = np.where(take, cand_hi, cand_lo)
        choose_hi[t] = take
    rows = np.arange(n_rows)
    state = np.zeros(n_rows, dtype=np.intp)
    decoded = np.empty((n_rows, n_steps), dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        decoded[:, t] = state & 1
        came_hi = choose_hi[t][rows, state]
        state = (state >> 1) | np.where(came_hi, n_states >> 1, 0)
    m = n_steps - (k - 1)
    return decoded[:, :m].reshape(lead + (m,))


#: Message lengths whose trellis is one step short of, at, and one step
#: past one and two decoder step chunks, and the link's 672 steps.
CHUNK_EDGE_MESSAGES = [steps - N_TAIL for steps in (
    STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1,
    2 * STEP_CHUNK - 1, 2 * STEP_CHUNK, 2 * STEP_CHUNK + 1, 672)]


def random_llrs(rng, shape, kind):
    """LLR blocks of one kind: Gaussian, integer-valued (metric ties),
    all-zero, Gaussian with scattered +-inf and NaN entries, or Gaussian
    with NaN pair metrics at one step of the first step chunk."""
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "zero":
        return np.zeros(shape)
    llrs = 4.0 * rng.standard_normal(shape)
    if kind == "nonfinite":
        hits = rng.random(shape) < 0.02
        llrs[hits] = rng.choice([np.inf, -np.inf, np.nan], size=hits.sum())
    if kind == "early_nan":
        # +inf and -inf on one step's coded pair make its pair metrics NaN
        # a few steps before the first step chunk ends; later step chunks
        # are finite, but their metrics are not.
        step = min(STEP_CHUNK, shape[-1] // 2) - 4
        llrs[..., 2 * step] = np.inf
        llrs[..., 2 * step + 1] = -np.inf
    return llrs


def test_all_zero_message_encodes_to_zero():
    np.testing.assert_array_equal(conv_encode(np.zeros(20, dtype=np.uint8)), 0)


def test_impulse_response_matches_shift_register_oracle():
    bits = np.zeros(10, dtype=np.uint8)
    bits[0] = 1
    np.testing.assert_array_equal(conv_encode(bits), reference_encode(bits))


def test_random_messages_match_shift_register_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        bits = rng.integers(0, 2, size=rng.integers(1, 60), dtype=np.uint8)
        np.testing.assert_array_equal(conv_encode(bits), reference_encode(bits))


@given(lead=st.sampled_from([(), (3,), (2, 3)]), m=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_encoder_matches_step_at_a_time_reference(lead, m, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=lead + (m,),
                                                dtype=np.uint8)
    coded = conv_encode(bits)
    assert coded.dtype == np.uint8
    assert coded.tobytes() == reference_conv_encode(bits).tobytes()
    assert coded.shape == lead + (2 * (m + N_TAIL),)


def test_encoder_matches_reference_on_a_link_batch():
    bits = np.random.default_rng(7).integers(0, 2, size=(32, 666), dtype=np.uint8)
    assert conv_encode(bits).tobytes() == reference_conv_encode(bits).tobytes()


def test_encode_output_length_and_rate():
    coded = conv_encode(np.zeros(100, dtype=np.uint8))
    assert coded.shape == (2 * (100 + 6),)
    assert N_TAIL == 6
    assert N_STATES == 64
    assert CODE_RATE == 0.5


def test_encode_is_linear_over_gf2():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=80, dtype=np.uint8)
    b = rng.integers(0, 2, size=80, dtype=np.uint8)
    np.testing.assert_array_equal(conv_encode(a ^ b),
                                  conv_encode(a) ^ conv_encode(b))


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        conv_encode(np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        conv_encode(np.array([], dtype=np.uint8))


def llrs_for(coded, flip=()):
    """Confident LLRs for coded bits, with selected positions sign-flipped."""
    llr = np.where(coded == 0, 8.0, -8.0)
    llr[np.asarray(flip, dtype=int)] *= -1.0
    return llr


class TestViterbi:
    def test_noiseless_roundtrip_batch(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(200, 200), dtype=np.uint8)
        decoded = viterbi_decode_soft(llrs_for(conv_encode(bits)))
        np.testing.assert_array_equal(decoded, bits)

    def test_corrects_three_dispersed_flips(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=200, dtype=np.uint8)
        coded = conv_encode(bits)
        decoded = viterbi_decode_soft(llrs_for(coded, flip=[40, 200, 360]))
        np.testing.assert_array_equal(decoded, bits)

    def test_zero_llrs_decode_to_zero_message(self):
        """All-tie trellis resolves through the documented 0-branch preference."""
        decoded = viterbi_decode_soft(np.zeros(2 * (50 + 6)))
        np.testing.assert_array_equal(decoded, 0)

    def test_matches_exhaustive_ml_search(self):
        """Decoder metric equals the best metric over all 2^10 messages."""
        rng = np.random.default_rng(4)
        m = 10
        universe = ((np.arange(2 ** m)[:, None] >> np.arange(m)[::-1]) & 1
                    ).astype(np.uint8)
        codebook = conv_encode(universe)
        signs = 1.0 - 2.0 * codebook
        for _ in range(50):
            llr = rng.standard_normal(codebook.shape[1])
            best = int(np.argmax(signs @ llr))
            decoded = viterbi_decode_soft(llr)
            got_metric = float((1.0 - 2.0 * conv_encode(decoded)) @ llr)
            assert got_metric == pytest.approx(float(signs[best] @ llr),
                                               rel=1e-12)

    def test_hard_decision_agreement(self):
        """Unit-magnitude LLRs reduce to minimum-Hamming-distance decoding."""
        rng = np.random.default_rng(5)
        m = 8
        universe = ((np.arange(2 ** m)[:, None] >> np.arange(m)[::-1]) & 1
                    ).astype(np.uint8)
        codebook = conv_encode(universe)
        for _ in range(200):
            received = rng.integers(0, 2, size=codebook.shape[1])
            distances = np.sum(codebook != received, axis=1)
            llr = 1.0 - 2.0 * received
            decoded = viterbi_decode_soft(llr)
            got = np.sum(conv_encode(decoded) != received)
            assert got == distances.min()

    def test_input_length_checks(self):
        with pytest.raises(ValueError):
            viterbi_decode_soft(np.zeros(13))   # odd
        with pytest.raises(ValueError):
            viterbi_decode_soft(np.zeros(12))   # only tail, no message

    @given(lead=st.sampled_from([(), (0,), (1,), (31,), (128,), (2, 3)]),
           m=st.one_of(st.integers(1, 40),
                       st.sampled_from(CHUNK_EDGE_MESSAGES)),
           kind=st.sampled_from(["gaussian", "integer", "zero", "nonfinite"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_decoder_bit_for_bit(self, lead, m, kind, seed):
        llrs = random_llrs(np.random.default_rng(seed),
                           lead + (2 * (m + N_TAIL),), kind)
        with np.errstate(invalid="ignore"):
            decoded = viterbi_decode_soft(llrs)
            expected = reference_viterbi(llrs)
        assert decoded.shape == lead + (m,)
        assert decoded.dtype == expected.dtype
        np.testing.assert_array_equal(decoded, expected)

    @pytest.mark.parametrize("m", CHUNK_EDGE_MESSAGES)
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "zero",
                                      "nonfinite", "early_nan"])
    def test_matches_reference_across_step_chunks(self, m, kind):
        llrs = random_llrs(np.random.default_rng(m),
                           (5, 2 * (m + N_TAIL)), kind)
        with np.errstate(invalid="ignore"):
            decoded = viterbi_decode_soft(llrs)
            expected = reference_viterbi(llrs)
        np.testing.assert_array_equal(decoded, expected)

    def test_link_sized_decode_allocates_at_most_4_mb(self):
        # 128 rows of 1344 LLRs, the rows one decoder call of a sweep holds.
        # Unpacked survivors alone were 5.5 MB of an 8.7 MB peak; packed,
        # the peak is about 2.7 MB.
        llrs = random_llrs(np.random.default_rng(3), (128, 1344), "gaussian")
        tracemalloc.start()
        try:
            viterbi_decode_soft(llrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

    def test_stacked_rows_decode_as_each_row_alone(self):
        rng = np.random.default_rng(7)
        n = 2 * (60 + N_TAIL)
        llrs = np.concatenate([random_llrs(rng, (8, n), kind) for kind in
                               ("gaussian", "integer", "zero", "nonfinite")])
        with np.errstate(invalid="ignore"):
            stacked = viterbi_decode_soft(llrs)
            alone = np.stack([viterbi_decode_soft(row) for row in llrs])
        np.testing.assert_array_equal(stacked, alone)

    def test_coded_beats_uncoded_on_awgn(self):
        """Rate-1/2 coding wins at Eb/N0 = 5 dB over ~1e5 information bits."""
        rng = np.random.default_rng(6)
        ebn0 = 10.0 ** (5.0 / 10.0)
        n_blocks, m = 250, 400
        bits = rng.integers(0, 2, size=(n_blocks, m), dtype=np.uint8)
        # Coded: one QPSK symbol carries 2 coded = 1 info bit, so Es = Eb.
        coded = conv_encode(bits)
        tx = qpsk_map(coded)
        n0 = 1.0 / ebn0
        noise = np.sqrt(n0 / 2) * (rng.standard_normal(tx.shape)
                                   + 1j * rng.standard_normal(tx.shape))
        decoded = viterbi_decode_soft(qpsk_llr(tx + noise, n0))
        coded_ber = np.mean(decoded != bits)
        # Uncoded: Es = 2 Eb.
        tx_u = qpsk_map(bits)
        n0_u = 2.0 / (2.0 * ebn0)
        noise_u = np.sqrt(n0_u / 2) * (rng.standard_normal(tx_u.shape)
                                       + 1j * rng.standard_normal(tx_u.shape))
        hard = qpsk_llr(tx_u + noise_u, n0_u) < 0
        uncoded_ber = np.mean(hard.astype(np.uint8) != bits)
        assert uncoded_ber > 2e-3          # sanity: operating where errors occur
        assert coded_ber < uncoded_ber


# ---------------------------------------------------------------------------
# Interleaver


def test_single_row_is_identity():
    x = np.arange(17)
    np.testing.assert_array_equal(interleave(x, InterleaverSpec(1, 20)), x)


def test_roundtrip_full_grid():
    spec = InterleaverSpec(32, 42)
    x = np.arange(spec.capacity)
    np.testing.assert_array_equal(deinterleave(interleave(x, spec), spec), x)


def test_capacity_enforced():
    spec = InterleaverSpec(4, 5)
    with pytest.raises(ValueError):
        interleave(np.zeros(21), spec)
    with pytest.raises(ValueError):
        deinterleave(np.zeros(21), spec)
    with pytest.raises(ValueError):
        InterleaverSpec(0, 5)


def test_burst_disperses_across_deinterleave():
    """4 consecutive corrupted positions land >= rows apart after inversion."""
    spec = InterleaverSpec(32, 42)
    stream = np.arange(spec.capacity)
    natural = deinterleave(stream, spec)
    for start in (0, 100, 500, spec.capacity - 4):
        burst = set(range(start, start + 4))
        positions = sorted(i for i, v in enumerate(natural) if v in burst)
        gaps = np.diff(positions)
        assert gaps.min() >= spec.rows


def test_interleave_moves_neighbors_apart():
    spec = InterleaverSpec(8, 16)
    x = np.arange(spec.capacity)
    y = interleave(x, spec)
    # Adjacent output cells come from inputs one full row-stride apart.
    assert abs(int(y[1]) - int(y[0])) >= min(spec.rows, spec.cols)


@given(rows=st.integers(1, 12), cols=st.integers(1, 12),
       length=st.integers(1, 144), seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_roundtrip_property_any_length(rows, cols, length, seed):
    spec = InterleaverSpec(rows, cols)
    if length > spec.capacity:
        length = spec.capacity
    x = np.random.default_rng(seed).standard_normal(length)
    np.testing.assert_array_equal(deinterleave(interleave(x, spec), spec), x)


def test_interleave_is_permutation():
    spec = InterleaverSpec(7, 9)
    for length in (1, 30, 63):
        y = interleave(np.arange(length), spec)
        assert sorted(y.tolist()) == list(range(length))


def test_batched_axes_supported():
    spec = InterleaverSpec(6, 7)
    x = np.arange(84).reshape(2, 42)
    y = interleave(x, spec)
    assert y.shape == x.shape
    np.testing.assert_array_equal(deinterleave(y, spec), x)
