"""Rate-1/2 convolutional code with soft Viterbi decoding, plus interleaving.

The code is fixed by module constants: :data:`CONSTRAINT_LENGTH` K = 7, the
octal :data:`GENERATORS` (171, 133) MSB-first on the current input (171 = 1 +
D + D^2 + D^3 + D^6, 133 = 1 + D^2 + D^3 + D^5 + D^6), :data:`N_STATES` = 64
and :data:`N_TAIL` = K-1 = 6 zero tail bits, which end every message so the
trellis starts and ends in the all-zero state; the decoder exploits both.

The decoder consumes log-likelihood ratios log P(c=0)/P(c=1) (positive LLR
votes for coded bit 0, matching :func:`inofdm.ofdm.qpsk_llr`) and maximizes
the correlation metric sum_t (1-2 c_t) llr_t.  It is a radix-2 butterfly:
new states 2j and 2j+1 share the predecessors j and j + n_states/2, so path
metrics held states-major, shape (n_states, rows), give every candidate of
a step through one broadcast add with no gather of metrics, in the natural
state order.  A branch from the upper predecessor survives only if its
candidate is strictly greater, so metric ties select the lower-numbered
predecessor - the one whose shifted-out bit is 0 - and an all-zero-LLR
input decodes deterministically to the all-zero message.  A NaN upper
candidate never wins, so a NaN metric survives only from the lower
predecessor.  Rows are independent, so decoding stacked blocks in one call
equals decoding each block alone.

The decoder advances :data:`STEP_CHUNK` steps at a time: it computes the
pair metrics of those steps only, writes their survivor bits into one
reused (STEP_CHUNK, n_states, rows) bool buffer and keeps them packed
eight to a byte, and the traceback unpacks one chunk at a time.  What
grows with the block length is then n_states/8 = 8 bytes per step and row,
where unpacked survivors and a whole-block pair-metric table took 96; a
call of 256 link-sized rows (672 steps), as a sweep makes them (see
:data:`inofdm.link.DECODE_ROWS`), allocates 5.4 MB at its peak besides
its 2.8 MB input (tracemalloc).

The block interleaver writes row-wise and reads column-wise; lengths shorter
than rows*cols use the same read-out order restricted to occupied cells, so
interleave/deinterleave are exact inverses at any length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


CONSTRAINT_LENGTH = 7
GENERATORS = (0o171, 0o133)
N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
N_TAIL = CONSTRAINT_LENGTH - 1
CODE_RATE = 0.5

#: Trellis steps the decoder advances between packing survivor bits.
STEP_CHUNK = 64


@lru_cache(maxsize=1)
def _tables() -> np.ndarray:
    """Precompute the branch output table.

    States hold the most recent K-1 input bits, newest in the LSB.  Shifting
    in bit u maps state s to ((s << 1) | u) & (n_states - 1); the register
    driving the outputs is r = (s << 1) | u with bit i holding the input
    from i steps back, so the generator masks are the octal words
    bit-reversed to lag order.

    Returns:
        out_pair, shape (n_states, 2), where out_pair[s, u] is the 2-bit
        output 2*c0 + c1 of the branch leaving state s on input u.
    """
    k = CONSTRAINT_LENGTH
    masks = [_reverse_bits(g, k) for g in GENERATORS]
    parity = np.zeros(1 << k, dtype=np.uint8)
    for r in range(1 << k):
        parity[r] = bin(r).count("1") & 1
    out_pair = np.zeros((N_STATES, 2), dtype=np.intp)
    for s in range(N_STATES):
        for u in (0, 1):
            r = (s << 1) | u
            c0 = parity[r & masks[0]]
            c1 = parity[r & masks[1]]
            out_pair[s, u] = 2 * c0 + c1
    return out_pair


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode messages with zero-tail termination.

    Args:
        bits: Message bits, shape (..., m), values 0/1.

    Returns:
        Coded bits, shape (..., 2*(m + K - 1)), the two generator outputs
        interleaved per input bit.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] == 0:
        raise ValueError("message must contain at least one bit")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("message bits must be 0 or 1")
    lead = bits.shape[:-1]
    m = bits.shape[-1]
    k = CONSTRAINT_LENGTH
    tail = N_TAIL
    n_steps = m + tail
    # Output t of a generator is the XOR, over its taps at lag d, of input
    # t - d; zeros on both sides of the message supply the register's
    # initial state and the flushing tail.
    padded = np.zeros(lead + (m + 2 * tail,), dtype=np.uint8)
    padded[..., tail:tail + m] = bits
    coded = np.zeros(lead + (n_steps, 2), dtype=np.uint8)
    for column, generator in enumerate(GENERATORS):
        for lag in range(k):
            if generator >> (k - 1 - lag) & 1:
                coded[..., column] ^= padded[..., tail - lag:tail - lag + n_steps]
    return coded.reshape(lead + (2 * n_steps,))


def viterbi_decode_soft(llrs: np.ndarray) -> np.ndarray:
    """Soft-decision Viterbi decode of zero-terminated blocks.

    All blocks advance together: path metrics are held states-major, shape
    (n_states, rows), and each trellis step is one butterfly.  Viewed as
    (2, n_states/2, 1, rows), the metrics of predecessors j (lower half)
    and j + n_states/2 (upper half) broadcast against a (2, n_states/2, 2,
    rows) branch increment, so candidate [h, j, u] is the path into new
    state 2j + u from predecessor half h.  ``hi > lo`` (strict) writes the
    survivor bits straight into the step chunk's buffer: ties and NaN upper
    candidates keep the lower predecessor.  The new metric equals the
    survivor's candidate, computed without a select: NaN upper candidates
    are lowered to -inf, then the larger candidate is kept, so a NaN
    survives only from the lower one.  The lowering starts with the first
    step chunk that holds a non-finite pair metric: before it no candidate
    can be NaN.  Where the candidates tie, the value kept may differ from
    the survivor's only in the sign of a zero, which no later comparison
    can see.

    Args:
        llrs: Coded-bit LLRs, shape (..., 2*(m + K - 1)); positive means the
            coded bit is more likely 0.  Leading axes are independent blocks.

    Returns:
        Decoded message bits, shape (..., m), tail removed.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.shape[-1] % 2 != 0:
        raise ValueError("LLR count must be even (two coded bits per step)")
    n_steps = llrs.shape[-1] // 2
    if n_steps <= N_TAIL:
        raise ValueError("block too short for the termination tail")
    lead = llrs.shape[:-1]
    flat = llrs.reshape(-1, 2 * n_steps)
    n_rows = flat.shape[0]
    n_states = N_STATES
    half = n_states // 2
    branch_pair = _tables().reshape(2, half, 2)
    metric = np.full((n_states, n_rows), -np.inf)
    metric[0] = 0.0
    cand = np.empty((2, half, 2, n_rows))
    lo, hi = cand
    pair_metric = np.empty((STEP_CHUNK, 4, n_rows))
    survivors = np.empty((STEP_CHUNK, n_states, n_rows), dtype=bool)
    packed = []
    scrub = False
    for start in range(0, n_steps, STEP_CHUNK):
        span = min(STEP_CHUNK, n_steps - start)
        # Correlation metric of each output pair 2*c0 + c1, per step and
        # row: (1 - 2*c0) * llr0 + (1 - 2*c1) * llr1.
        steps = flat[:, 2 * start:2 * (start + span)]
        llr0, llr1 = steps[:, 0::2].T, steps[:, 1::2].T
        np.add(llr0, llr1, out=pair_metric[:span, 0])
        np.subtract(llr0, llr1, out=pair_metric[:span, 1])
        np.negative(pair_metric[:span, 1], out=pair_metric[:span, 2])
        np.negative(pair_metric[:span, 0], out=pair_metric[:span, 3])
        # Until some pair metric is not finite no candidate can be NaN, so
        # lowering NaN upper candidates would change nothing.
        scrub = scrub or not np.isfinite(pair_metric[:span]).all()
        for t in range(span):
            np.add(metric.reshape(2, half, 1, n_rows),
                   pair_metric[t][branch_pair], out=cand)
            np.greater(hi, lo, out=survivors[t].reshape(half, 2, n_rows))
            # np.where measured several times slower than these two passes
            # on each step's fresh survivor mask.
            if scrub:
                np.fmax(hi, -np.inf, out=hi)
            metric = np.maximum(hi, lo).reshape(n_states, n_rows)
        # Packed along the flat (state, row) axis: packing along the state
        # axis alone measured over 30 times slower.
        packed.append(np.packbits(
            survivors[:span].reshape(span, n_states * n_rows), axis=-1))
    # Trace back from state 0, one step chunk unpacked at a time; survivor
    # bit of (state, row) at flat index state * n_rows + row of its step.
    rows = np.arange(n_rows)
    state = np.zeros(n_rows, dtype=np.intp)
    decoded = np.empty((n_rows, n_steps), dtype=np.uint8)
    for start in range(STEP_CHUNK * (len(packed) - 1), -1, -STEP_CHUNK):
        choose_hi = np.unpackbits(packed.pop(), axis=-1).view(bool)
        for t in range(len(choose_hi) - 1, -1, -1):
            decoded[:, start + t] = state & 1
            came_hi = choose_hi[t].take(state * n_rows + rows)
            state = (state >> 1) | (came_hi * half)
    m = n_steps - N_TAIL
    return decoded[:, :m].reshape(lead + (m,))


# ---------------------------------------------------------------------------
# Block interleaver


@dataclass(frozen=True)
class InterleaverSpec:
    """Row/column geometry of a block interleaver."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")

    @property
    def capacity(self) -> int:
        return self.rows * self.cols


@lru_cache(maxsize=32)
def _read_order(rows: int, cols: int, length: int) -> np.ndarray:
    full = np.arange(rows * cols).reshape(rows, cols).T.ravel()
    return full[full < length]


def interleave(seq: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Permute the last axis: write row-wise into the grid, read column-wise.

    Sequences shorter than the grid permute through the occupied cells only;
    longer sequences are an error.  Consecutive input positions emerge at
    least ``rows`` apart (for a full grid), which is what disperses error
    bursts.
    """
    seq = np.asarray(seq)
    if seq.shape[-1] > spec.capacity:
        raise ValueError(
            f"sequence of {seq.shape[-1]} exceeds {spec.rows}x{spec.cols} grid")
    return seq[..., _read_order(spec.rows, spec.cols, seq.shape[-1])]


def deinterleave(seq: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Invert :func:`interleave` for the same spec and length."""
    seq = np.asarray(seq)
    if seq.shape[-1] > spec.capacity:
        raise ValueError(
            f"sequence of {seq.shape[-1]} exceeds {spec.rows}x{spec.cols} grid")
    order = _read_order(spec.rows, spec.cols, seq.shape[-1])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return seq[..., inverse]
