"""OFDM baseband blocks: carrier grid, QPSK, cyclic prefix, fading channel.

Conventions fixed here and relied on everywhere else:

* The modulator applies an inverse DFT with 1/sqrt(N) scaling,
  ``s[t] = (1/sqrt(N)) * sum_k S[k] exp(+2j pi k t / N)``, and the
  demodulator the matching forward DFT with 1/sqrt(N), so
  sample energy equals carrier energy (Parseval) and a round trip is the
  identity.
* QPSK is Gray-mapped with unit symbol energy; bit pair (b0, b1) maps to
  ``((1-2 b0) + 1j (1-2 b1)) / sqrt(2)`` (00 -> first quadrant).
* Bit LLRs are ``log P(bit=0|y) / P(bit=1|y)``, so a positive LLR votes for
  bit 0 and the sign is the hard decision.
* ``noise_var`` arguments are total complex powers, as in
  :mod:`inofdm.noise_models`.

Array-valued functions accept leading batch dimensions and operate on the
last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .noise_models import complex_gaussian

_SQRT2 = math.sqrt(2.0)

#: Fixed seed of the pilot phase pattern; part of the waveform definition.
_PILOT_PHASE_SEED = 0xC04B
_MAX_TRIES = 100        # channel draws before channel_generate gives up
_ERASE_FLOOR = 1e-9     # |H| below which equalize erases a carrier

#: Base pilot value.  The transmitted pilots are this value rotated by a
#: fixed pseudo-random QPSK phase pattern (``OfdmConfig.pilot_symbols``),
#: known to the receiver.  A constant value on an equally spaced pilot comb
#: would concentrate a quarter of the symbol energy into a few periodic
#: time-domain peaks, which any amplitude-based impulse detector would then
#: blank; the phase pattern keeps the time-domain samples statistically flat.
PILOT_VALUE = (1.0 + 1.0j) / _SQRT2


@dataclass(frozen=True, eq=False)
class OfdmConfig:
    """Carrier grid and cyclic-prefix length of one OFDM symbol.

    The grid follows from the four ``ofdm.*`` keys.  Pilots sit on every
    ``pilot_spacing``-th carrier across the whole band (equally spaced, so
    pilot-based estimation covers the band edges), and the ``n_null`` guard
    carriers are the lowest and highest non-pilot indices, split evenly;
    the rest carry data.  The default is the 1024-carrier profile with
    672 data / 256 pilot / 96 null carriers and a 64-sample prefix.

    Attributes:
        n_fft: DFT size N.
        cp_len: Cyclic prefix length in samples.
        pilot_spacing: Carrier distance between pilots, from carrier 0.
        n_null: Guard carriers, even.
    """

    n_fft: int = 1024
    cp_len: int = 64
    pilot_spacing: int = 4
    n_null: int = 96

    def __post_init__(self) -> None:
        if self.n_fft < 1 or self.cp_len < 0 or self.cp_len >= self.n_fft:
            raise ValueError("need n_fft >= 1 and 0 <= cp_len < n_fft")
        if not 1 <= self.pilot_spacing < self.n_fft:
            raise ValueError("need 1 <= pilot_spacing < n_fft: channel "
                             "estimation interpolates between two pilots")
        non_pilot = self.n_fft - len(self.pilot_carriers)
        if self.n_null % 2 != 0 or not 0 <= self.n_null <= non_pilot:
            raise ValueError("need an even n_null (split across both band "
                             "edges) from 0 to the non-pilot carrier count")

    @cached_property
    def pilot_carriers(self) -> np.ndarray:
        """Ascending indices carrying pilot symbols."""
        return np.arange(0, self.n_fft, self.pilot_spacing)

    @cached_property
    def null_carriers(self) -> np.ndarray:
        """Ascending indices left empty (guard band)."""
        # Masks, not np.setdiff1d: its np.unique imports numpy.ma, 9-12 ms
        # of every command's launch.
        non_pilot = np.ones(self.n_fft, dtype=bool)
        non_pilot[self.pilot_carriers] = False
        others = np.flatnonzero(non_pilot)
        half = self.n_null // 2
        return np.concatenate([others[:half], others[len(others) - half:]])

    @cached_property
    def data_carriers(self) -> np.ndarray:
        """Ascending indices carrying payload symbols."""
        free = np.ones(self.n_fft, dtype=bool)
        free[self.pilot_carriers] = False
        free[self.null_carriers] = False
        return np.flatnonzero(free)

    @cached_property
    def active_carriers(self) -> np.ndarray:
        """Data and pilot indices merged, ascending."""
        return np.sort(np.concatenate([self.data_carriers, self.pilot_carriers]))

    @cached_property
    def pilot_symbols(self) -> np.ndarray:
        """Transmitted pilot values, one per pilot carrier in ascending order.

        :data:`PILOT_VALUE` rotated by a deterministic pseudo-random multiple
        of 90 degrees per carrier; magnitude (hence pilot power) is
        untouched.  The pattern depends only on the pilot count, so
        transmitter and receiver always agree on it.
        """
        rng = np.random.default_rng(_PILOT_PHASE_SEED)
        quarter_turns = rng.integers(0, 4, size=len(self.pilot_carriers))
        return PILOT_VALUE * 1j ** quarter_turns

    @cached_property
    def _data_slots(self) -> np.ndarray:
        return np.searchsorted(self.active_carriers, self.data_carriers)

    @cached_property
    def _pilot_slots(self) -> np.ndarray:
        return np.searchsorted(self.active_carriers, self.pilot_carriers)

    @property
    def n_data(self) -> int:
        return len(self.data_carriers)

    @property
    def n_active(self) -> int:
        return len(self.data_carriers) + len(self.pilot_carriers)

    @property
    def symbol_len(self) -> int:
        """Transmitted length of one symbol, CP included."""
        return self.n_fft + self.cp_len


# ---------------------------------------------------------------------------
# QPSK mapping and soft demapping


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Map a bit sequence (last axis, even length) to unit-energy QPSK."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError("bit count must be even for QPSK")
    b0 = bits[..., 0::2]
    b1 = bits[..., 1::2]
    return ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) / _SQRT2


def qpsk_llr(symbols: np.ndarray, noise_var) -> np.ndarray:
    """Per-bit LLRs for Gray QPSK in circular Gaussian noise.

    Args:
        symbols: Received (equalized) symbols, shape (..., m).
        noise_var: Total complex noise power per symbol; scalar or
            broadcastable to ``symbols``.  ``inf`` yields LLR 0 (erasure).

    Returns:
        LLRs, shape (..., 2 m), bit order matching :func:`qpsk_map`.
    """
    symbols = np.asarray(symbols)
    noise_var = np.broadcast_to(np.asarray(noise_var, dtype=float), symbols.shape)
    scale = np.zeros_like(noise_var)
    np.divide(2.0 * _SQRT2, noise_var, out=scale, where=noise_var > 0)
    llr = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=float)
    llr[..., 0::2] = scale * symbols.real
    llr[..., 1::2] = scale * symbols.imag
    return llr


# ---------------------------------------------------------------------------
# Modulation / demodulation


def assemble_active(cfg: OfdmConfig, data_symbols: np.ndarray) -> np.ndarray:
    """Merge payload symbols and pilots into the active-carrier vector."""
    data_symbols = np.asarray(data_symbols)
    if data_symbols.shape[-1] != cfg.n_data:
        raise ValueError(
            f"expected {cfg.n_data} data symbols, got {data_symbols.shape[-1]}")
    active = np.empty(data_symbols.shape[:-1] + (cfg.n_active,), dtype=complex)
    active[..., cfg._data_slots] = data_symbols
    active[..., cfg._pilot_slots] = cfg.pilot_symbols
    return active

def ofdm_modulate(cfg: OfdmConfig, active_values: np.ndarray) -> np.ndarray:
    """Synthesize one time-domain symbol (CP prepended) from active carriers.

    Args:
        cfg: Carrier grid.
        active_values: One value per active carrier in ascending carrier
            order, shape (..., n_active); null carriers are implicitly zero.

    Returns:
        Time samples, shape (..., n_fft + cp_len).
    """
    active_values = np.asarray(active_values)
    if active_values.shape[-1] != cfg.n_active:
        raise ValueError(
            f"expected {cfg.n_active} active-carrier values, "
            f"got {active_values.shape[-1]}")
    grid = np.zeros(active_values.shape[:-1] + (cfg.n_fft,), dtype=complex)
    grid[..., cfg.active_carriers] = active_values
    body = np.fft.ifft(grid, axis=-1) * math.sqrt(cfg.n_fft)
    return np.concatenate([body[..., cfg.n_fft - cfg.cp_len:], body], axis=-1)


def ofdm_demodulate(cfg: OfdmConfig, samples: np.ndarray) -> np.ndarray:
    """Recover all N carrier values from the N-sample body of a received
    symbol, its cyclic prefix already discarded."""
    samples = np.asarray(samples)
    if samples.shape[-1] != cfg.n_fft:
        raise ValueError(
            f"expected {cfg.n_fft} samples, got {samples.shape[-1]}")
    return np.fft.fft(samples, axis=-1) / math.sqrt(cfg.n_fft)


# ---------------------------------------------------------------------------
# Sparse multipath channel


@dataclass(frozen=True)
class ChannelProfile:
    """Statistical description of the sparse Rayleigh multipath channel.

    Attributes:
        n_taps: Number of discrete paths.
        mean_arrival: Mean inter-arrival spacing in samples (Poisson
            arrivals; the default 6 corresponds to 1 ms at a 6 kHz rate).
        decay: e-folding constant (samples) of the average tap power.
    """

    n_taps: int = 10
    mean_arrival: float = 6.0
    decay: float = 20.0

    def __post_init__(self) -> None:
        if self.n_taps < 1 or self.mean_arrival <= 0 or self.decay <= 0:
            raise ValueError("n_taps >= 1 and positive mean_arrival/decay required")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One drawn channel: complex tap gains at strictly increasing delays."""

    gains: np.ndarray
    delays: np.ndarray

    def frequency_response(self, n_fft: int) -> np.ndarray:
        """Exact N-point response H[k] = sum_p gain_p exp(-2j pi k delay_p/N)."""
        dense = np.zeros(n_fft, dtype=complex)
        np.add.at(dense, self.delays, self.gains)
        return np.fft.fft(dense)


def channel_generate(rng: np.random.Generator,
                     profile: ChannelProfile = ChannelProfile(),
                     max_delay: int = 64) -> ChannelRealization:
    """Draw a Rayleigh-faded sparse channel realization.

    Path delays start at zero with exponential inter-arrivals quantized to
    the sample grid (collisions pushed to the next free sample, keeping the
    delays strictly increasing).  Average tap powers decay as
    exp(-delay/decay) and are normalized to sum to one, so E|gain_p|^2 sums
    to unit average channel power; realizations whose spread reaches
    ``max_delay`` (the CP length) are redrawn.

    Raises:
        ValueError: When no realization fits within ``max_delay`` after
            :data:`_MAX_TRIES` attempts.
    """
    for _ in range(_MAX_TRIES):
        gaps = rng.exponential(profile.mean_arrival, profile.n_taps - 1)
        arrivals = np.concatenate([[0.0], np.cumsum(gaps)])
        delays = np.rint(arrivals).astype(np.intp)
        for p in range(1, len(delays)):
            if delays[p] <= delays[p - 1]:
                delays[p] = delays[p - 1] + 1
        if delays[-1] < max_delay:
            break
    else:
        raise ValueError(
            f"no channel of channel.n_taps = {profile.n_taps} taps at "
            f"channel.mean_arrival = {profile.mean_arrival} fits inside "
            f"ofdm.cp_len = {max_delay} samples in {_MAX_TRIES} draws")
    powers = np.exp(-delays / profile.decay)
    powers = powers / powers.sum()
    gains = complex_gaussian(rng, profile.n_taps, powers)
    return ChannelRealization(gains=gains, delays=delays)


def channel_apply(signal: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Convolve a sample stream with the sparse channel, same-length output.

    ``out[t] = sum_p gain_p * signal[t - delay_p]`` with zeros before the
    stream starts; the tail beyond the input length is dropped (within one
    OFDM symbol the cyclic prefix absorbs it).
    """
    signal = np.asarray(signal)
    out = np.zeros_like(signal, dtype=complex)
    length = signal.shape[-1]
    for gain, delay in zip(channel.gains, channel.delays):
        if delay < length:
            out[..., delay:] += gain * signal[..., :length - delay]
    return out


# ---------------------------------------------------------------------------
# Pilot-based estimation and equalization


def estimate_channel(cfg: OfdmConfig, carriers: np.ndarray) -> np.ndarray:
    """Least-squares pilot estimates, linearly interpolated to all carriers.

    Args:
        cfg: Carrier grid (pilot positions and symbols).
        carriers: Demodulated values on all N carriers, shape (..., n_fft).

    Returns:
        Complex channel estimate on every carrier, shape (..., n_fft).
        Between pilots the estimate is linear in the carrier index; beyond
        the first/last pilot it extrapolates the edge slope.
    """
    carriers = np.asarray(carriers)
    if carriers.shape[-1] != cfg.n_fft:
        raise ValueError(f"expected {cfg.n_fft} carrier values")
    pilots = cfg.pilot_carriers.astype(float)
    ls = carriers[..., cfg.pilot_carriers] / cfg.pilot_symbols
    k = np.arange(cfg.n_fft, dtype=float)
    # Interval index for every carrier, clipped so edge carriers reuse the
    # first/last segment slope (linear extrapolation).
    seg = np.clip(np.searchsorted(pilots, k, side="right") - 1, 0, len(pilots) - 2)
    t = (k - pilots[seg]) / (pilots[seg + 1] - pilots[seg])
    return ls[..., seg] * (1.0 - t) + ls[..., seg + 1] * t


def equalize(values: np.ndarray,
             response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing equalization with per-carrier noise bookkeeping.

    Returns:
        (equalized, noise_scale): ``equalized = values / response`` and
        ``noise_scale = 1/|response|^2``, the factor by which the flat noise
        variance must be multiplied for LLR computation.  Carriers whose
        ``|response|`` falls below :data:`_ERASE_FLOOR` are erased: equalized value 0
        and infinite noise scale (downstream LLRs become exactly 0).
    """
    values = np.asarray(values)
    response = np.broadcast_to(np.asarray(response), values.shape)
    ok = np.abs(response) >= _ERASE_FLOOR
    equalized = np.zeros_like(values, dtype=complex)
    np.divide(values, response, out=equalized, where=ok)
    noise_scale = np.full(values.shape, np.inf)
    np.divide(1.0, np.abs(response) ** 2, out=noise_scale, where=ok)
    return equalized, noise_scale
