"""End-to-end coded OFDM link under impulsive noise, and its experiments.

Transmit chain per OFDM symbol: random message bits -> rate-1/2
convolutional encoder (zero tail) -> optional bit interleaver -> Gray QPSK
-> active-carrier grid with fixed pilots -> 1/sqrt(N) inverse DFT + cyclic
prefix -> fresh sparse Rayleigh channel -> additive noise at the configured
Eb/N0 (and SIR for mixture noise).  Receive chain: impulse mitigation on
the time-domain samples -> DFT -> pilot least-squares channel estimate (or
perfect CSI) -> zero-forcing equalization -> per-bit LLRs -> deinterleave
-> soft Viterbi.

Power conventions (unit-energy QPSK on every active carrier):

* The thermal noise power per sample (equal to the per-carrier noise power
  under the chosen DFT scaling) is N0 = 1 / (2 * R * Eb/N0) with R = 1/2.
  Pilot, prefix and the six tail bits are protocol overhead excluded from
  Eb.
* Mixture (BG) runs set the impulse power from the SIR: average impulse
  power = signal power / SIR with time-domain signal power |S_A|/N.
* Class A runs tie the background component to N0; the impulse power then
  follows from the background-to-impulse ratio gamma.
* Stable runs replace the whole noise with a stable stream scaled so its
  alpha=2 Gaussian-equivalent power equals N0 (per-component dispersion
  gamma * sqrt(N0)/2); at alpha=2 the run is statistically identical to the
  AWGN-only run.  Stable noise has no finite power, so no SIR applies.

A simulated batch holds the samples the detector sees.  In the plain
chain those are the N-sample symbol bodies: the receiver strips the prefix
before detection.  With a receiver-side time interleaver the noise is
inserted in interleaved sample order: the channel output is interleaved,
noise added, and the receiver mitigates on that full stream *before*
deinterleaving and prefix removal (the prefix positions are only restored
by the deinterleaver).  Detection therefore faces the raw bursts while the
decoder sees dispersed residuals.

Monte Carlo sweeps draw every trial batch from a seed derived from
(master seed, stream tag, grid point, batch index), so all policies at a
grid point see bit-identical bits, channels and noise, and extending a
budget appends batches without disturbing earlier ones.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import workers
from .coding import (CODE_RATE, N_TAIL, conv_encode, deinterleave,
                     interleave, viterbi_decode_soft)
from .config import ExperimentConfig
from .dnn import MlpParams
from .features import row_permutation
from .mitigation import (DetectorSettings, detector_features,
                         estimate_clean_power, mitigate)
from .noise_models import BGNoise, MCANoise, NoiseSpec, SASNoise, sample_noise
from .ofdm import (ChannelRealization, assemble_active, channel_apply,
                   channel_generate, equalize, estimate_channel, ofdm_demodulate,
                   ofdm_modulate, qpsk_llr, qpsk_map)

#: Symbols simulated per Monte Carlo batch.
BATCH_SYMBOLS = 32
#: Decoder rows a sweep gathers per Viterbi call when its budget allows.
#: The cost per row is lowest here: on one CPU of a 2-vCPU Xeon a call of
#: 256 rows took 36 ms (0.14 ms a row), against 25 ms for 128 rows (0.19),
#: 11-14 ms for 32 (0.33-0.44) and 85 ms for 512 (0.17).
DECODE_ROWS = 256

# Seed-stream tags so different activities never share random draws.
_TAG_SWEEP = 0
_TAG_DATASET = 1
_TAG_SHUFFLE = 3


def bits_per_symbol(cfg: ExperimentConfig) -> int:
    """Information bits carried by one OFDM symbol (tail excluded); the
    config's ``ofdm.n_null`` check keeps it at least 1."""
    return cfg.ofdm.n_data - N_TAIL


def awgn_power(ebn0_db: float) -> float:
    """Thermal complex noise power per sample for unit-energy carriers."""
    return 1.0 / (2.0 * CODE_RATE * 10.0 ** (ebn0_db / 10.0))


def signal_power(cfg: ExperimentConfig) -> float:
    """Average time-domain transmit power, |S_A| / N."""
    return cfg.ofdm.n_active / cfg.ofdm.n_fft


def noise_spec_for(cfg: ExperimentConfig, ebn0_db: float) -> NoiseSpec:
    """Noise parameters for one grid point under the power conventions."""
    n0 = awgn_power(ebn0_db)
    if cfg.noise_model == "bg":
        if cfg.epsilon == 0.0:
            return BGNoise(epsilon=0.0, sigma_w2=n0, sigma_i2=1.0,
                           burst_len=cfg.burst_len)
        share = cfg.epsilon * 10.0 ** (cfg.sir_db / 10.0)
        sigma_i2 = signal_power(cfg) / share if share > 0.0 else math.inf
        if sigma_i2 == math.inf:
            raise ValueError(
                f"impulse probability {cfg.epsilon:g} at SIR {cfg.sir_db:g} dB "
                "gives an infinite impulse power")
        return BGNoise(epsilon=cfg.epsilon, sigma_w2=n0, sigma_i2=sigma_i2,
                       burst_len=cfg.burst_len)
    if cfg.noise_model == "mca":
        sigma_n2 = n0 * (1.0 + cfg.mca_gamma) / cfg.mca_gamma
        if not math.isfinite(sigma_n2):
            raise ValueError(f"noise.gamma = {cfg.mca_gamma:g} at Eb/N0 {ebn0_db:g} dB "
                             "gives an infinite Class A noise power")
        return MCANoise(overlap_a=cfg.mca_a, gamma=cfg.mca_gamma,
                        sigma_n2=sigma_n2, j_trunc=cfg.mca_j_trunc)
    if cfg.noise_model == "sas":
        return SASNoise(alpha=cfg.sas_alpha, beta=cfg.sas_beta,
                        scale=cfg.sas_scale * math.sqrt(n0) / 2.0,
                        loc=cfg.sas_loc)
    raise ValueError(f"unknown noise model {cfg.noise_model!r}")


@dataclass(eq=False)
class SymbolBatch:
    """Everything shared by all policies when decoding one trial batch.

    ``rx`` and ``labels`` are what the detector sees: the (B, N) symbol
    bodies in the plain chain, the full (B, N+cp) interleaved stream when a
    time interleaver is active.  ``labels`` is None for stable noise.
    ``spec`` is the grid point's noise; its ``thermal_power`` scales the LLRs.
    """

    tx_bits: np.ndarray                  # (B, m) message bits
    rx: np.ndarray                       # received samples
    labels: Optional[np.ndarray]         # impulse indicators, aligned with rx
    channels: List[ChannelRealization]
    spec: NoiseSpec


def simulate_batch(cfg: ExperimentConfig, ebn0_db: float, count: int,
                   rng: np.random.Generator) -> SymbolBatch:
    """Draw ``count`` OFDM symbols through transmitter, channel and noise.

    Draw order is fixed (bits, then per-symbol channels, then noise) so a
    seeded generator reproduces the batch exactly.  Returns the samples the
    detector sees (see :class:`SymbolBatch`); noise is drawn for the prefix
    samples in both chains, so both consume the same draws.
    """
    if count < 1:
        raise ValueError("count must be positive")
    m = bits_per_symbol(cfg)
    bits = rng.integers(0, 2, size=(count, m), dtype=np.uint8)
    coded = conv_encode(bits)
    if cfg.tx_interleaver is not None:
        coded = interleave(coded, cfg.tx_interleaver)
    active = assemble_active(cfg.ofdm, qpsk_map(coded))
    tx_time = ofdm_modulate(cfg.ofdm, active)
    channels = [channel_generate(rng, cfg.channel, max_delay=cfg.ofdm.cp_len)
                for _ in range(count)]
    faded = np.stack([channel_apply(tx_time[i], channels[i])
                      for i in range(count)])
    spec = noise_spec_for(cfg, ebn0_db)
    noise, labels = sample_noise(spec, count * cfg.ofdm.symbol_len, rng)
    noise = noise.reshape(count, -1)
    labels = None if labels is None else labels.reshape(count, -1)
    if cfg.time_interleaver is not None:
        return SymbolBatch(bits, interleave(faded, cfg.time_interleaver) + noise,
                           labels, channels, spec)
    body = slice(cfg.ofdm.cp_len, None)
    return SymbolBatch(bits, faded[:, body] + noise[:, body],
                       None if labels is None else labels[:, body],
                       channels, spec)


def receive_llrs(cfg: ExperimentConfig, batch: SymbolBatch,
                 cleaned: np.ndarray) -> np.ndarray:
    """Receiver front end after mitigation, up to the decoder.

    ``cleaned`` is one policy's :func:`mitigate` output for ``batch.rx``:
    the symbol bodies, or with a time interleaver the interleaved stream,
    which is deinterleaved and stripped of its prefix here.  Then DFT,
    channel estimate, equalization, per-bit LLRs at the noise spec's
    ``thermal_power`` and the bit deinterleaver.

    Returns:
        Coded-bit LLRs in encoder order, shape (B, 2 * n_data).
    """
    if cfg.time_interleaver is not None:
        cleaned = deinterleave(cleaned, cfg.time_interleaver)[:, cfg.ofdm.cp_len:]
    carriers = ofdm_demodulate(cfg.ofdm, cleaned)
    if cfg.perfect_csi:
        response = np.stack([ch.frequency_response(cfg.ofdm.n_fft)
                             for ch in batch.channels])
    else:
        response = estimate_channel(cfg.ofdm, carriers)
    data = carriers[:, cfg.ofdm.data_carriers]
    eq, noise_scale = equalize(data, response[:, cfg.ofdm.data_carriers])
    llrs = qpsk_llr(eq, batch.spec.thermal_power * noise_scale)
    if cfg.tx_interleaver is not None:
        llrs = deinterleave(llrs, cfg.tx_interleaver)
    return llrs


def receive_batch(cfg: ExperimentConfig, batch: SymbolBatch,
                  cleaned: np.ndarray) -> np.ndarray:
    """Decode a simulated batch from one policy's cleaned stream.

    Returns:
        Decoded message bits, shape matching ``batch.tx_bits``.
    """
    return viterbi_decode_soft(receive_llrs(cfg, batch, cleaned))


# ---------------------------------------------------------------------------
# Labeled dataset generation


def _dataset_point(state: tuple, ci: int) -> None:
    """Simulate training-grid point ``ci`` of the dataset ``state`` (cfg,
    grid, first row of every point, shuffled position of every row,
    features, labels) into its rows' shuffled positions."""
    cfg, combos, starts, where, features, labels = state
    ebn0, sir, eps = combos[ci]
    point_cfg = dc_replace(cfg, noise_model="bg", sir_db=sir, epsilon=eps,
                           burst_len=1, time_interleaver=None)
    rng = np.random.default_rng(np.random.SeedSequence(
        (cfg.seed, _TAG_DATASET, ci)))
    count = (starts[ci + 1] - starts[ci]) // cfg.ofdm.n_fft
    batch = simulate_batch(point_cfg, ebn0, count, rng)
    rows = where[starts[ci]:starts[ci + 1]]
    features[rows] = detector_features(batch.rx, cfg.half_width,
                                       estimate_clean_power(batch.rx)
                                       ).reshape(-1, 3)
    labels[rows] = batch.labels.reshape(-1)


def generate_dataset(cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Features and labels for training, over the mixture-noise grid.

    ``cfg.train_symbols`` OFDM symbols are spread round-robin over the
    training grid and run through the plain chain (no time interleaver);
    features come from the receiver's time-domain bodies before any
    mitigation, prefix samples excluded.  Every grid point draws from its
    own seed, so the points run on forked workers (see
    :mod:`inofdm.workers`).  The rows are shuffled with a permutation drawn
    from a seed derived from the master seed, so the on-disk order is
    deterministic and does not depend on the CPU count: the permutation is
    drawn before the fork, and every point writes its rows straight to
    their shuffled positions, through the inverse permutation, in the two
    arrays it returns.  Those live in shared mappings (see
    :func:`inofdm.workers.shared_array`); the parent's heap holds only the
    inverse permutation, 4 bytes a row (int32, see
    :func:`~inofdm.features.row_permutation`), and while it is made the
    permutation and one index vector of that dtype as well: 12.

    Returns:
        (features, labels) with ``cfg.train_symbols * n_fft`` rows: a
        C-contiguous float64 (rows, 3) matrix and a uint8 (rows,) column.
    """
    combos = list(itertools.product(cfg.train_ebn0_db, cfg.train_sir_db,
                                    cfg.train_epsilon))
    if cfg.train_symbols < len(combos):
        raise ValueError("train.symbols must cover the grid at least once")
    base = cfg.train_symbols // len(combos)
    extra = cfg.train_symbols % len(combos)
    starts = [0]
    for ci in range(len(combos)):
        starts.append(starts[-1] + (base + (ci < extra)) * cfg.ofdm.n_fft)
    order = row_permutation(np.random.default_rng(np.random.SeedSequence(
        (cfg.seed, _TAG_SHUFFLE))), starts[-1])
    # Returned row i is simulated row order[i], so simulated row j goes to
    # row where[j].
    where = np.empty_like(order)
    where[order] = np.arange(len(order), dtype=order.dtype)
    del order
    features = workers.shared_array((starts[-1], 3), float)
    labels = workers.shared_array((starts[-1],), np.uint8)
    for _ in workers.ordered_map(_dataset_point,
                                 [(ci,) for ci in range(len(combos))],
                                 (cfg, combos, starts, where, features, labels)):
        pass
    return features, labels


# ---------------------------------------------------------------------------
# BER sweeps


@dataclass
class BerPoint:
    ebn0_db: float
    ber: float
    bits: int
    errors: int


@dataclass
class BerCurve:
    """One policy's BER-vs-Eb/N0 curve plus provenance metadata."""

    detector: str
    points: List[BerPoint]
    config_hash: str
    seed: int

    def ber_at(self, ebn0_db: float) -> float:
        for point in self.points:
            if point.ebn0_db == ebn0_db:
                return point.ber
        raise KeyError(f"no point at {ebn0_db} dB")


def _sweep_batch(cfg: ExperimentConfig, ebn0: float, point_idx: int,
                 batch_idx: int, names: Tuple[str, ...],
                 settings: DetectorSettings, llrs: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """One sweep batch up to the decoder: writes each named policy's LLR
    rows into ``llrs`` (policies, BATCH_SYMBOLS, 2 * n_data) and its
    flag counts into ``counts`` (see :func:`_sweep_chunk`), and returns
    the message bits.  A policy's cleaned stream is freed once its rows
    are written, and the batch on return."""
    rng = np.random.default_rng(np.random.SeedSequence(
        (cfg.seed, _TAG_SWEEP, point_idx, batch_idx)))
    batch = simulate_batch(cfg, ebn0, BATCH_SYMBOLS, rng)
    outs = mitigate(batch.rx, names, settings)
    _, flagged, hits = counts[:-2].reshape(3, -1)
    for p, out in enumerate(llrs):
        cleaned, mask = outs.pop(0)
        out[...] = receive_llrs(cfg, batch, cleaned)
        flagged[p] = np.count_nonzero(mask)
        if batch.labels is not None:
            hits[p] = np.count_nonzero(mask & batch.labels)
    if batch.labels is not None:
        counts[-2] = np.count_nonzero(batch.labels)
        counts[-1] = batch.labels.size - counts[-2]
    return batch.tx_bits


def _sweep_chunk(context: tuple, ebn0: float, point_idx: int, first: int,
                 count: int) -> np.ndarray:
    """Counts of the grid point's batches ``first`` to ``first + count - 1``
    of the sweep ``context`` (cfg, names, settings), from one decoder call
    for all of them: an int64 (count, 3 * policies + 2) array whose row per
    batch holds every policy's bit errors, then flagged samples, then
    flagged impulses, then the batch's impulse and clean sample counts
    (zero for stable noise, which has no labels).  The batches write their
    LLR rows into one array made up front, so no rows are held twice."""
    cfg, names, settings = context
    tx_bits = np.empty((count, BATCH_SYMBOLS, bits_per_symbol(cfg)), np.uint8)
    llrs = np.empty((count, len(names), BATCH_SYMBOLS, 2 * cfg.ofdm.n_data))
    counts = np.zeros((count, 3 * len(names) + 2), np.int64)
    for i in range(count):
        tx_bits[i] = _sweep_batch(cfg, ebn0, point_idx, first + i, names,
                                  settings, llrs[i], counts[i])
    decoded = viterbi_decode_soft(llrs.reshape(-1, llrs.shape[-1]))
    counts[:, :len(names)] = np.count_nonzero(
        decoded.reshape(llrs.shape[:3] + (-1,)) != tx_bits[:, None],
        axis=(2, 3))
    return counts


def _rate_tokens(names: Tuple[str, ...], totals: np.ndarray) -> str:
    """Log tokens of a point's summed :func:`_sweep_chunk` counts: the
    impulse and clean sample counts, then each policy's detection rate
    (flagged impulses per impulse) and false-alarm rate (flagged clean
    samples per clean sample), ``none`` left out; empty without labels."""
    impulses, clean = totals[-2:].tolist()
    if impulses + clean == 0:
        return ""
    _, flagged, hits = totals[:-2].reshape(3, -1).tolist()
    rate = lambda num, den: f"{num / den if den else math.nan:.6g}"
    return f" impulses={impulses} clean={clean}" + "".join(
        f" {name}.det={rate(hit, impulses)} {name}.fa={rate(flags - hit, clean)}"
        for name, flags, hit in zip(names, flagged, hits) if name != "none")


def ber_sweep(cfg: ExperimentConfig, params: Optional[MlpParams] = None,
              log: Optional[Callable[[str], None]] = None) -> Dict[str, BerCurve]:
    """Paired Monte Carlo BER curves for every configured policy.

    All policies at a grid point decode the *same* batches (common random
    numbers); each batch is mitigated for every policy in one pass.  Each
    point accumulates whole batches until every policy has at least
    ``cfg.min_errors`` bit errors or ``cfg.max_bits`` information bits have
    been simulated, whichever comes first.

    Batches go through the front end a chunk at a time, and the LLR rows of
    every policy and batch of a chunk go through one decoder call.  Up to
    one chunk per usable CPU (the process's affinity mask, capped at the
    batches of the budget) is in flight, and batches in flight count as
    simulated.  The next chunk, dispatched only if it is at least one
    batch, is min(ahead, target - simulated, share) batches:

    * ahead = ceil(DECODE_ROWS / (BATCH_SYMBOLS * policies)), the batches
      that fill a decoder call;
    * target, the batches the stop rule is expected to need: before the
      point's first decode, those it needs if every decoded bit were wrong
      (so an error-stopped point starts with one chunk); after it, those
      it needs at the observed rate of ``worst``, the fewest errors of any
      policy, or ``ahead`` more while ``worst`` is 0;
    * share = ceil(left / idle CPUs), with left the batches ``cfg.max_bits``
      still allows, so a fixed budget splits evenly over the CPUs.

    With one CPU every chunk runs in this process.  With more, a
    :class:`~inofdm.workers.Pool` of one worker per CPU is forked the first
    time a second chunk is wanted in flight.  The workers inherit the
    sweep's config, policies and detector settings (the model included),
    so a chunk sends only its Eb/N0, grid point and batch range.  Errors
    are counted and the stop rule checked batch by batch in index order,
    so the curves do not depend on the CPU count and equal those of one
    decode per batch; so do the detection and false-alarm rates that end
    each point's ``log`` line (:func:`_rate_tokens`).  Chunks in flight
    past the stop are discarded: a worker's discarded reply is dropped
    before its next one, and a worker still running one when the sweep
    ends is terminated.
    """
    batch_bits = BATCH_SYMBOLS * bits_per_symbol(cfg)
    curves = {name: BerCurve(detector=name, points=[],
                             config_hash=cfg.config_hash, seed=cfg.seed)
              for name in cfg.policies}
    names = tuple(curves)
    context = (cfg, names, DetectorSettings(cfg.p_fa, params, cfg.half_width))
    ahead = -(-DECODE_ROWS // (BATCH_SYMBOLS * len(names)))
    budget = -(-cfg.max_bits // batch_bits)
    cpus = min(workers._usable_cpus(), budget)   # no chunk is shorter than a batch
    pool = None
    try:
        for point_idx, ebn0 in enumerate(cfg.ebn0_db):
            totals = np.zeros(3 * len(names) + 2, dtype=np.int64)
            errors = totals[:len(names)]        # a view: follows totals
            counted = dispatched = decodes = 0
            pending = deque()       # (chunk arguments, pool ticket or None)
            stopped = False
            while not stopped:
                while len(pending) < cpus:
                    # How many batches the stop rule is expected to need.
                    worst = int(errors.min())
                    if counted == 0:
                        target = -(-cfg.min_errors // batch_bits)
                    elif worst == 0:
                        target = dispatched + ahead
                    else:
                        target = counted + -(-(cfg.min_errors - worst)
                                             * counted // worst)
                    left = budget - dispatched
                    chunk = min(ahead, target - dispatched,
                                -(-left // (cpus - len(pending))))
                    if chunk < 1:
                        break
                    if pending and pool is None:
                        pool = workers.Pool(cpus, _sweep_chunk, context)
                        pending = deque((args, pool.submit(*args))
                                        for args, _ in pending)
                    args = (ebn0, point_idx, dispatched, chunk)
                    pending.append((args, None if pool is None else
                                    pool.submit(*args)))
                    dispatched += chunk
                    decodes += 1
                args, ticket = pending.popleft()
                for batch_counts in (_sweep_chunk(context, *args)
                                     if ticket is None else pool.result(ticket)):
                    totals += batch_counts
                    counted += 1
                    stopped = (counted == budget
                               or errors.min() >= cfg.min_errors)
                    if stopped:
                        break
            bits = counted * batch_bits
            counts = errors.tolist()
            for name, count in zip(names, counts):
                curves[name].points.append(BerPoint(
                    ebn0_db=ebn0, ber=count / bits, bits=bits, errors=count))
            if log is not None:
                summary = " ".join(f"{n}={c / bits:.3g}"
                                   for n, c in zip(names, counts))
                log(f"ebn0={ebn0:g} dB bits={bits} decodes={decodes} "
                    f"discarded={dispatched - counted} {summary}"
                    + _rate_tokens(names, totals))
    finally:
        if pool is not None:
            pool.close()
    return curves


def write_curve_csv(path, curve: BerCurve) -> None:
    """Serialize a curve with '#'-prefixed provenance metadata."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# config_hash={curve.config_hash}\n")
        fh.write(f"# seed={curve.seed}\n")
        fh.write("ebn0_db,detector,ber,bits,errors\n")
        for p in curve.points:
            fh.write(f"{p.ebn0_db:.17g},{curve.detector},{p.ber:.17g},"
                     f"{p.bits},{p.errors}\n")


def read_curve_csv(path) -> BerCurve:
    """Inverse of :func:`write_curve_csv`.  A file without a header or rows,
    with a malformed row, or whose rows name more than one detector raises
    a ValueError naming it, and the line where there is one."""
    meta, points, detectors = {}, [], set()
    header_seen = False
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line and not header_seen:
                if line != "ebn0_db,detector,ber,bits,errors":
                    raise ValueError(f"{path}, line {line_no}: "
                                     f"unexpected curve header: {line!r}")
                header_seen = True
            elif line:
                try:
                    ebn0, detector, ber, nbits, nerr = line.split(",")
                    points.append(BerPoint(float(ebn0), float(ber), int(nbits),
                                           int(nerr)))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {line_no}: {exc}") from None
                detectors.add(detector)
    if not header_seen:
        raise ValueError(f"{path}: curve file has no header line")
    if not points:
        raise ValueError(f"{path}: curve file has no rows")
    if len(detectors) > 1:
        raise ValueError(f"{path}: rows name more than one detector: "
                         f"{', '.join(sorted(detectors))}")
    return BerCurve(detector=detectors.pop(), points=points,
                    config_hash=meta.get("config_hash", ""),
                    seed=int(meta.get("seed", "0")))
