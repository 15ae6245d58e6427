"""Experiment configuration: schema, file parsing, overrides, and hashing.

Configs are flat ``key = value`` text files ('#' lines are comments) whose
keys all have defaults, so an empty file is a valid experiment.  Every key
is listed in :data:`SCHEMA` with its type; unknown keys and uncastable
values fail with a diagnostic naming the key.  The effective configuration
(defaults + file + overrides) is canonicalized and hashed, and the hash is
stamped into every emitted artifact so outputs can be traced to their exact
settings.

Schema reference (types: f float, i int, b bool, s string, f* float list;
every f and f* value must be finite, nan and +-inf fail at load; every
value of a key in dB must lie in [-300, 300]):

ofdm.n_fft i, ofdm.cp_len i, ofdm.pilot_spacing i (1 <= s < n_fft),
ofdm.n_null i (even, >= 0, leaving n_tail + 1 or more data carriers)
channel.n_taps i (1 <= n_taps <= ofdm.cp_len), channel.mean_arrival f (> 0),
channel.decay f (> 0)
noise.model s (bg|mca|sas)
noise.epsilon f (in [0, 1]), noise.sir_db f (dB), noise.burst_len i (>= 1, and
    1 unless noise.model = bg)                                   (bg)
noise.a f (> 0), noise.gamma f (> 0),
noise.j_trunc i (in [1, 171], the retained terms carrying MCA_MIN_MASS of
    the Poisson mass for noise.a)                                (mca)
noise.alpha f (in (0, 2]), noise.beta f (in [-1, 1]),
noise.scale f (> 0), noise.loc f                                 (sas)
    Every noise key is checked whichever noise.model is chosen.
grid.ebn0_db f* (dB)
sweep.policies s (comma list of none|bln|clp|dnn)
sweep.p_fa f (in (0, 1): the false-alarm rate of the per-block
    Neyman-Pearson level that sets the blanking level and the clip ceiling)
sweep.min_errors i (>= 1), sweep.max_bits i (>= 1), sweep.perfect_csi b
interleaver.tx_enabled b, interleaver.tx_rows i, interleaver.tx_cols i
interleaver.time_enabled b, interleaver.time_rows i, interleaver.time_cols i
    (rows and cols >= 1; an enabled grid holds at least the 2 * n_data coded
    bits (tx) or the n_fft + cp_len samples (time) of one symbol)
detector.half_width i (n >= 1 with 2n+1 <= ofdm.n_fft)
train.ebn0_db f* (dB), train.sir_db f* (dB), train.epsilon f* (each in
    [0, 1]),
train.symbols i, train.epochs i (>= 1), train.batch_size i (>= 1),
train.eta f (> 0), train.lam f (>= 0)
model.path s
seed i
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .coding import N_TAIL, InterleaverSpec
from .dnn import TrainConfig
from .mitigation import POLICY_NAMES
from .noise_models import MCANoise
from .ofdm import ChannelProfile, OfdmConfig

_NOISE_MODELS = ("bg", "mca", "sas")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> Tuple[float, ...]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(t) for t in items)


def _parse_str(text: str) -> str:
    return text.strip()


#: key -> (caster, default-as-string)
SCHEMA: Dict[str, Tuple[object, str]] = {
    "ofdm.n_fft": (int, "1024"),
    "ofdm.cp_len": (int, "64"),
    "ofdm.pilot_spacing": (int, "4"),
    "ofdm.n_null": (int, "96"),
    "channel.n_taps": (int, "10"),
    "channel.mean_arrival": (float, "6"),
    "channel.decay": (float, "20"),
    "noise.model": (_parse_str, "bg"),
    "noise.epsilon": (float, "0.05"),
    "noise.sir_db": (float, "0"),
    "noise.burst_len": (int, "1"),
    "noise.a": (float, "0.05"),
    "noise.gamma": (float, "0.2"),
    "noise.j_trunc": (int, "10"),
    "noise.alpha": (float, "1.5"),
    "noise.beta": (float, "0"),
    "noise.scale": (float, "1"),
    "noise.loc": (float, "0"),
    "grid.ebn0_db": (_parse_floats, "0,2,4,6,8,10"),
    "sweep.policies": (_parse_str, "dnn,bln,clp"),
    "sweep.p_fa": (float, "0.01"),
    "sweep.min_errors": (int, "200"),
    "sweep.max_bits": (int, "1000000"),
    "sweep.perfect_csi": (_parse_bool, "false"),
    "interleaver.tx_enabled": (_parse_bool, "true"),
    "interleaver.tx_rows": (int, "32"),
    "interleaver.tx_cols": (int, "42"),
    "interleaver.time_enabled": (_parse_bool, "false"),
    "interleaver.time_rows": (int, "32"),
    "interleaver.time_cols": (int, "34"),
    "detector.half_width": (int, "5"),
    "train.ebn0_db": (_parse_floats, "0,2,4,6,8,10,12,14"),
    "train.sir_db": (_parse_floats, "-5,0,5"),
    "train.epsilon": (_parse_floats, "0.01,0.05,0.1"),
    "train.symbols": (int, "1000"),
    "train.epochs": (int, "100"),
    "train.batch_size": (int, "256"),
    "train.eta": (float, "0.01"),
    "train.lam": (float, "0.1"),
    "model.path": (_parse_str, ""),
    "seed": (int, "0"),
}


def parse_config_text(text: str, source: str = "<config>") -> Dict[str, str]:
    """Parse ``key = value`` lines; returns raw strings keyed by schema name.

    Raises:
        ValueError: On malformed lines and unknown or repeated keys, naming
            the offender (both lines of a repeated key).
    """
    values: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{source}:{lineno}: config key {key!r} is "
                             f"already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def resolve_config(file_values: Optional[Mapping[str, str]] = None,
                   overrides: Optional[Mapping[str, str]] = None) -> Dict[str, object]:
    """Merge defaults, file values and overrides into typed values.

    Raises:
        ValueError: When a value cannot be cast, naming the offending key.
    """
    raw = {key: default for key, (_, default) in SCHEMA.items()}
    for layer in (file_values or {}, overrides or {}):
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = value
    typed: Dict[str, object] = {}
    for key, value in raw.items():
        caster = SCHEMA[key][0]
        try:
            typed[key] = caster(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
        items = typed[key] if caster is _parse_floats else (typed[key],)
        if caster in (float, _parse_floats) and not all(map(math.isfinite, items)):
            raise ValueError(f"config key {key!r}: must be finite, got {value}")
    model = typed["noise.model"]
    if model not in _NOISE_MODELS:
        raise ValueError(f"config key 'noise.model': must be one of {_NOISE_MODELS}")
    n_fft, cp_len = typed["ofdm.n_fft"], typed["ofdm.cp_len"]
    spacing = typed["ofdm.pilot_spacing"]
    # The grid keys come first: every later rule measures against them.
    ranges = (
        ("ofdm.n_fft", lambda v: v >= 1, "at least 1"),
        ("ofdm.cp_len", lambda v: 0 <= v < n_fft,
         f"at least 0 and below ofdm.n_fft = {n_fft}"),
        ("ofdm.pilot_spacing", lambda v: 1 <= v < n_fft,
         f"at least 1 and below ofdm.n_fft = {n_fft}"),
        # The data carriers, neither pilot nor null, must outnumber the tail.
        ("ofdm.n_null", lambda v: v % 2 == 0 and 0 <= v <= (
            n_fft - len(range(0, n_fft, spacing)) - N_TAIL - 1),
         f"even, at least 0, and leaving {N_TAIL + 1} or more "
         "data carriers"),
        # Path delays rise strictly from 0 and must stay inside the prefix.
        ("channel.n_taps", lambda v: 1 <= v <= cp_len,
         f"at least 1 and at most ofdm.cp_len = {cp_len}"),
        ("channel.mean_arrival", lambda v: v > 0.0, "above 0"),
        ("channel.decay", lambda v: v > 0.0, "above 0"),
        ("sweep.p_fa", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
        ("sweep.min_errors", lambda v: v >= 1, "at least 1"),
        ("sweep.max_bits", lambda v: v >= 1, "at least 1"),
        ("noise.epsilon", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
        ("noise.burst_len", lambda v: v == 1 or (v > 1 and model == "bg"),
         "at least 1, and 1 unless noise.model = bg"),
        ("noise.a", lambda v: v > 0.0, "above 0"),
        ("noise.gamma", lambda v: v > 0.0, "above 0"),
        # Term j of the Class A series divides by j!, which no float holds
        # past j = 170.
        ("noise.j_trunc", lambda v: 1 <= v <= 171, "at least 1 and at most 171"),
        ("noise.alpha", lambda v: 0.0 < v <= 2.0, "in (0, 2]"),
        ("noise.beta", lambda v: -1.0 <= v <= 1.0, "in [-1, 1]"),
        ("noise.scale", lambda v: v > 0.0, "above 0"),
        ("train.epsilon", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
        ("train.epochs", lambda v: v >= 1, "at least 1"),
        ("train.batch_size", lambda v: v >= 1, "at least 1"),
        ("train.eta", lambda v: v > 0.0, "above 0"),
        ("train.lam", lambda v: v >= 0.0, "at least 0"),
        ("detector.half_width", lambda v: 1 <= v and 2 * v + 1 <= n_fft,
         f"at least 1, with a window 2n+1 no longer than ofdm.n_fft = {n_fft}"),
    ) + tuple((f"interleaver.{which}_{side}", lambda v: v >= 1, "at least 1")
              for which in ("tx", "time") for side in ("rows", "cols")) + tuple(
        # 10 ** (dB / 10) must neither overflow nor underflow to 0.
        (key, lambda v: -300.0 <= v <= 300.0, "in [-300, 300] dB")
        for key in ("grid.ebn0_db", "noise.sir_db", "train.ebn0_db",
                    "train.sir_db"))
    for key, in_range, rule in ranges:
        value = typed[key]
        for item in value if isinstance(value, tuple) else (value,):
            if not in_range(item):
                raise ValueError(f"config key {key!r}: must be {rule}, got {item}")
    # The retained Class A terms must carry the Poisson mass the sampler
    # requires; the power scale does not enter the mass.
    try:
        MCANoise(overlap_a=typed["noise.a"], gamma=typed["noise.gamma"],
                 sigma_n2=1.0, j_trunc=typed["noise.j_trunc"])
    except (ValueError, OverflowError) as exc:
        raise ValueError(
            f"config key 'noise.j_trunc': {typed['noise.j_trunc']} terms do "
            f"not hold the Class A mass of noise.a = {typed['noise.a']}: "
            f"{exc}") from exc
    for name in str(typed["sweep.policies"]).split(","):
        if name.strip() not in POLICY_NAMES:
            raise ValueError(
                f"config key 'sweep.policies': unknown policy {name.strip()!r}")
    return typed


def _canonical(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


def config_digest(typed: Mapping[str, object]) -> str:
    """Deterministic 12-hex-digit digest of the effective configuration."""
    canon = "\n".join(f"{key}={_canonical(typed[key])}" for key in sorted(SCHEMA))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully resolved experiment settings (see module docstring for keys)."""

    ofdm: OfdmConfig
    channel: ChannelProfile
    noise_model: str
    epsilon: float
    sir_db: float
    burst_len: int
    mca_a: float
    mca_gamma: float
    mca_j_trunc: int
    sas_alpha: float
    sas_beta: float
    sas_scale: float
    sas_loc: float
    ebn0_db: Tuple[float, ...]
    policies: Tuple[str, ...]
    p_fa: float
    min_errors: int
    max_bits: int
    perfect_csi: bool
    tx_interleaver: Optional[InterleaverSpec]
    time_interleaver: Optional[InterleaverSpec]
    half_width: int
    train_ebn0_db: Tuple[float, ...]
    train_sir_db: Tuple[float, ...]
    train_epsilon: Tuple[float, ...]
    train_symbols: int
    train_config: TrainConfig
    model_path: str
    seed: int
    config_hash: str


def build_config(typed: Mapping[str, object]) -> ExperimentConfig:
    """Construct the typed experiment config from resolved values."""
    ofdm = OfdmConfig(n_fft=typed["ofdm.n_fft"], cp_len=typed["ofdm.cp_len"],
                      pilot_spacing=typed["ofdm.pilot_spacing"],
                      n_null=typed["ofdm.n_null"])
    channel = ChannelProfile(n_taps=typed["channel.n_taps"],
                             mean_arrival=typed["channel.mean_arrival"],
                             decay=typed["channel.decay"])
    tx_il = InterleaverSpec(typed["interleaver.tx_rows"],
                            typed["interleaver.tx_cols"]) \
        if typed["interleaver.tx_enabled"] else None
    time_il = InterleaverSpec(typed["interleaver.time_rows"],
                              typed["interleaver.time_cols"]) \
        if typed["interleaver.time_enabled"] else None
    # An enabled interleaver's grid must hold what it permutes per symbol:
    # the coded bits (tx) or the transmitted samples (time).
    for which, spec, length, unit in (
            ("tx", tx_il, 2 * ofdm.n_data, "coded bits"),
            ("time", time_il, ofdm.symbol_len, "samples")):
        if spec is not None and spec.capacity < length:
            raise ValueError(
                f"config keys 'interleaver.{which}_rows' and "
                f"'interleaver.{which}_cols': a {spec.rows}x{spec.cols} grid "
                f"cannot hold the {length} {unit} of one symbol")
    train_cfg = TrainConfig(eta=typed["train.eta"], lam=typed["train.lam"],
                            epochs=typed["train.epochs"],
                            batch_size=typed["train.batch_size"],
                            seed=typed["seed"])
    policies = tuple(p.strip() for p in str(typed["sweep.policies"]).split(","))
    return ExperimentConfig(
        ofdm=ofdm, channel=channel,
        noise_model=str(typed["noise.model"]),
        epsilon=typed["noise.epsilon"], sir_db=typed["noise.sir_db"],
        burst_len=typed["noise.burst_len"],
        mca_a=typed["noise.a"], mca_gamma=typed["noise.gamma"],
        mca_j_trunc=typed["noise.j_trunc"],
        sas_alpha=typed["noise.alpha"], sas_beta=typed["noise.beta"],
        sas_scale=typed["noise.scale"], sas_loc=typed["noise.loc"],
        ebn0_db=tuple(typed["grid.ebn0_db"]), policies=policies,
        p_fa=typed["sweep.p_fa"], min_errors=typed["sweep.min_errors"],
        max_bits=typed["sweep.max_bits"],
        perfect_csi=typed["sweep.perfect_csi"],
        tx_interleaver=tx_il, time_interleaver=time_il,
        half_width=typed["detector.half_width"],
        train_ebn0_db=tuple(typed["train.ebn0_db"]),
        train_sir_db=tuple(typed["train.sir_db"]),
        train_epsilon=tuple(typed["train.epsilon"]),
        train_symbols=typed["train.symbols"], train_config=train_cfg,
        model_path=str(typed["model.path"]), seed=typed["seed"],
        config_hash=config_digest(typed))


def load_config(path: Optional[str] = None,
                overrides: Optional[Mapping[str, str]] = None) -> ExperimentConfig:
    """Load a config file (optional) and apply overrides."""
    file_values = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read(), source=str(path))
    return build_config(resolve_config(file_values, overrides))


def override_list_to_dict(pairs: Iterable[str]) -> Dict[str, str]:
    """Turn CLI ``key=value`` strings into an override mapping (a repeated
    key keeps its last value)."""
    out: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        out[key.strip()] = value.strip()
    return out
