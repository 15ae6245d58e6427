#!/usr/bin/env python3
"""Link benchmark for inofdm: time to a BER point, to a dataset and to a model.

Run from the repository root (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload bg_sir0_4pol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload repeats one fixed unit of work (an *op*) through ``cli.main``
until ``--seconds`` have passed:

* ``bg_sir0_4pol`` - ``ber-sweep`` of configs/bg_sir0.cfg at 10 dB, policies
  none,dnn,bln,clp, 4 batches of 32 symbols;
* ``burst_ti_dnn`` - ``ber-sweep`` of configs/bursty_time_interleaved.cfg at
  12 dB (burst_len 4, time interleaver, dnn only), 4 batches;
* ``model_repro`` - ``gen-dataset`` at the shipped recipe size (1000 symbols,
  1,024,000 rows) then ``train`` for 2 epochs.

``sweep.min_errors`` is set above any reachable count, so every sweep op
simulates exactly its batches.  Op ``i`` runs with program seed
``seed * 1000 + i % distinct``; its output files are hashed and compared
with the digests recorded in perfbench/golden.json (for seeds that have
none, invariants are checked and the digests printed).  A digest mismatch
or an exception is a failed op and makes the command exit 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and
traced ops alternate on the same inputs and the object holds the per-layer
metrics.  Spans are written to .perfbench_work/ when the run ends.
``--workload all`` runs each workload in a child process of its own.
"""

import os

# BLAS and OpenMP threads are pinned before anything imports numpy.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import ANNOTATE, Tracer

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

BATCH_SYMBOLS = 32
N_FFT = 1024
#: 672 data carriers minus the 6 tail bits of the K=7 code.
INFO_BITS_PER_SYMBOL = 666
DATASET_HEADER = b"x1,x2,x3,label\n"
#: Set-up launches per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 31
#: Share of ops faster than the op time the end-to-end metrics report.  The
#: reference host alternates, for seconds at a time, between two speeds
#: about 30% apart; a low quantile of op times follows the program's speed
#: on the faster one and varies far less from run to run than the median.
FAST_QUANTILE = 0.1


@dataclass(frozen=True)
class Sweep:
    config: str
    ebn0_db: str
    policies: Tuple[str, ...]
    batches: int
    distinct: int

    @property
    def max_bits(self) -> int:
        return self.batches * BATCH_SYMBOLS * INFO_BITS_PER_SYMBOL

    @property
    def symbols(self) -> int:
        return self.batches * BATCH_SYMBOLS


@dataclass(frozen=True)
class ModelRepro:
    symbols: int
    epochs: int
    distinct: int
    config: str = ""


WORKLOADS = {
    "bg_sir0_4pol": Sweep("configs/bg_sir0.cfg", "10",
                          ("none", "dnn", "bln", "clp"), batches=4, distinct=8),
    "burst_ti_dnn": Sweep("configs/bursty_time_interleaved.cfg", "12",
                          ("dnn",), batches=4, distinct=8),
    "model_repro": ModelRepro(symbols=1000, epochs=2, distinct=3),
}

#: Reduced sizes for perfbench/smoke.py.
SMOKE_WORKLOADS = {
    "bg_sir0_4pol": Sweep("configs/bg_sir0.cfg", "10",
                          ("none", "dnn", "bln", "clp"), batches=1, distinct=2),
    "burst_ti_dnn": Sweep("configs/bursty_time_interleaved.cfg", "12",
                          ("dnn",), batches=1, distinct=2),
    "model_repro": ModelRepro(symbols=72, epochs=1, distinct=2),
}

#: Functions the traced run wraps, as ``module.function``.
TRACE_TARGETS = (
    "cli.main", "config.load_config",
    "link.ber_sweep", "link.generate_dataset", "link.simulate_batch",
    "link.receive_batch", "link.write_curve_csv",
    "coding.conv_encode", "coding.interleave", "coding.deinterleave",
    "coding.viterbi_decode_soft",
    "ofdm.qpsk_map", "ofdm.assemble_active", "ofdm.ofdm_modulate",
    "ofdm.channel_generate", "ofdm.channel_apply", "ofdm.ofdm_demodulate",
    "ofdm.estimate_channel", "ofdm.equalize", "ofdm.qpsk_llr",
    "noise_models.sample_noise",
    "features.extract_features", "features.write_dataset",
    "features.read_dataset",
    "mitigation.mitigate", "mitigation.detect", "mitigation.detector_features",
    "dnn.classify", "dnn.train", "dnn.gradients", "dnn.adam_step",
    "dnn.loss_value", "dnn.save_model", "dnn.load_model",
)
#: Reported in ms per 32-symbol batch (inclusive of wrapped callees).
PER_BATCH = (
    "link.simulate_batch", "link.receive_batch", "noise_models.sample_noise",
    "coding.conv_encode", "coding.interleave", "ofdm.ofdm_modulate",
    "ofdm.channel_apply", "ofdm.ofdm_demodulate", "ofdm.estimate_channel",
    "ofdm.equalize", "ofdm.qpsk_llr", "coding.deinterleave",
    "coding.viterbi_decode_soft", "mitigation.mitigate",
    "features.extract_features", "dnn.classify",
)
PER_CALL_MS = ("dnn.gradients", "dnn.adam_step", "dnn.loss_value")
PER_CALL_S = ("features.write_dataset", "features.read_dataset",
              "config.load_config", "dnn.load_model")
LAYERS = ("link", "coding", "ofdm", "noise_models", "features", "mitigation",
          "dnn", "config", "cli")
POLICIES = ("none", "dnn", "bln", "clp")


class OpFailed(Exception):
    """An op whose exit code, outputs or digests are wrong."""


@dataclass
class OpResult:
    wall_s: float
    info_bits: int
    digests: Dict[str, str]
    gen_s: float = 0.0
    train_s: float = 0.0
    rows: int = 0
    epochs: int = 0
    dataset_bytes: int = 0
    traced: bool = False
    annotate_s: float = 0.0


# ---------------------------------------------------------------------------
# Ops


def cli_call(cli, argv: List[str]) -> float:
    """Run one ``inofdm`` subcommand in-process; return its wall time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"inofdm {argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_lines(text: str) -> List[str]:
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def check_curves(spec: Sweep, files: Dict[str, bytes]) -> None:
    """Invariants of one sweep op's curve CSVs."""
    errors = {}
    for fname, data in files.items():
        lines = _data_lines(data.decode("ascii"))
        if lines[0] != "ebn0_db,detector,ber,bits,errors" or len(lines) != 2:
            raise OpFailed(f"{fname}: expected a header and one grid point")
        ebn0, policy, ber, bits, errs = lines[1].split(",")
        if float(ebn0) != float(spec.ebn0_db):
            raise OpFailed(f"{fname}: point at {ebn0} dB, not {spec.ebn0_db}")
        if int(bits) != spec.max_bits:
            raise OpFailed(f"{fname}: {bits} bits, expected {spec.batches} "
                           f"batches x {BATCH_SYMBOLS} x {INFO_BITS_PER_SYMBOL}")
        if not 0 <= int(errs) <= int(bits) or float(ber) != int(errs) / int(bits):
            raise OpFailed(f"{fname}: inconsistent ber/bits/errors")
        errors[policy] = int(errs)
    if tuple(sorted(errors)) != tuple(sorted(spec.policies)):
        raise OpFailed(f"curves for {sorted(errors)}, expected {sorted(spec.policies)}")
    if "dnn" in errors and "none" in errors and errors["dnn"] > errors["none"]:
        raise OpFailed(f"dnn errors {errors['dnn']} exceed none {errors['none']}")


def run_sweep(spec: Sweep, cli, pseed: int, tmp: Path) -> OpResult:
    wall = cli_call(cli, [
        "ber-sweep", "--config", spec.config, "--seed", str(pseed),
        "--set", f"grid.ebn0_db={spec.ebn0_db}",
        "--set", f"sweep.max_bits={spec.max_bits}",
        "--set", f"sweep.min_errors={spec.max_bits + 1}",
        "--out", str(tmp)])
    files = {p.name: p.read_bytes() for p in sorted(tmp.glob("curve_*.csv"))}
    check_curves(spec, files)
    joined = b"".join(name.encode() + b"\0" + data for name, data in files.items())
    return OpResult(wall_s=wall,
                    info_bits=spec.max_bits * len(spec.policies),
                    digests={"curves": sha256(joined)})


def hash_dataset(path: Path) -> Tuple[str, int, int]:
    """SHA-256, data rows and size of a dataset CSV, read in fixed chunks
    so that the check adds almost nothing to the reported peak RSS."""
    digest, size, lines, header_at = hashlib.sha256(), 0, 0, -1
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if header_at < 0 and (found := chunk.find(DATASET_HEADER)) >= 0:
                header_at = lines + chunk.count(b"\n", 0, found) + 1
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines - header_at if header_at >= 0 else -1, size


def run_model_repro(spec: ModelRepro, cli, pseed: int, tmp: Path) -> OpResult:
    data, model, loss = tmp / "dataset.csv", tmp / "model.txt", tmp / "loss.csv"
    common = ["--seed", str(pseed), "--set", f"train.symbols={spec.symbols}",
              "--set", f"train.epochs={spec.epochs}"]
    gen_s = cli_call(cli, ["gen-dataset", *common, "--out", str(data)])
    train_s = cli_call(cli, ["train", *common, "--data", str(data),
                             "--out", str(model), "--loss-out", str(loss)])
    dataset_digest, rows, dataset_bytes = hash_dataset(data)
    if rows != spec.symbols * N_FFT:
        raise OpFailed(f"dataset has {rows} rows, expected {spec.symbols * N_FFT}")
    losses = _data_lines(loss.read_text(encoding="ascii"))
    values = [float(ln.split(",")[1]) for ln in losses[1:]]
    if len(values) != spec.epochs or not all(math.isfinite(v) for v in values):
        raise OpFailed(f"loss trace {values} is not {spec.epochs} finite values")
    model_bytes = model.read_bytes()
    if not model_bytes.startswith(b"inofdm-model "):
        raise OpFailed("model file lacks its format tag")
    return OpResult(wall_s=gen_s + train_s,
                    info_bits=spec.symbols * INFO_BITS_PER_SYMBOL,
                    digests={"dataset": dataset_digest, "model": sha256(model_bytes),
                             "loss": sha256(loss.read_bytes())},
                    gen_s=gen_s, train_s=train_s, rows=rows,
                    epochs=spec.epochs, dataset_bytes=dataset_bytes)


def run_op(spec, cli, pseed: int) -> OpResult:
    """One op in a temporary directory under .perfbench_work, removed after."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="op-", dir=WORK))
    try:
        if isinstance(spec, Sweep):
            return run_sweep(spec, cli, pseed, tmp)
        return run_model_repro(spec, cli, pseed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Traced-run bookkeeping


class FlagCounts:
    """Samples each policy changed, and how many of those were impulses.

    Blanking zeroes every flagged sample; the clipping policy in the
    workloads clamps at the detection level, so it changes exactly the
    samples it flags.  The changed mask is therefore the flag mask.
    """

    def __init__(self, link) -> None:
        self.link = link
        self.counts: Dict[str, List[int]] = {}   # policy -> [samples, flagged, hits]
        self._changed = None

    def after_mitigate(self, args, result) -> None:
        self._changed = result != args[0]

    def after_receive(self, args, result) -> None:
        cfg, batch, policy = args[:3]
        labels = self.link.receiver_stream_labels(cfg, batch)
        changed = self._changed
        count = self.counts.setdefault(policy.name, [0, 0, 0])
        count[0] += changed.size
        count[1] += int(changed.sum())
        if labels is not None:
            count[2] += int((changed & (labels == 1)).sum())


def layer_metrics(spans, ops: List[OpResult], symbols_per_op: int,
                  flags: FlagCounts) -> Dict[str, float]:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    agg: Dict[str, List[float]] = {}           # name -> [incl s, self s, calls, rows]
    roots_s = 0.0
    for s in spans:
        a = agg.setdefault(s.name, [0.0, 0.0, 0, 0])
        a[0] += s.duration
        a[1] += s.self_s
        a[2] += 1
        a[3] += s.rows
        if s.parent < 0:
            roots_s += s.duration
    annotate_s = agg.get(ANNOTATE, [0.0])[0]
    wall = sum(op.wall_s for op in traced) - annotate_s
    batches = len(traced) * symbols_per_op / BATCH_SYMBOLS

    def get(name: str, i: int) -> float:
        return agg.get(name, [0.0, 0.0, 0, 0])[i]

    m: Dict[str, float] = {}
    for name in PER_BATCH:
        m[f"{name}.ms"] = 1e3 * get(name, 0) / batches
    m["mitigation.mitigate.self_ms"] = 1e3 * get("mitigation.mitigate", 1) / batches
    vit = "coding.viterbi_decode_soft"
    m[f"{vit}.calls"] = get(vit, 2) / batches
    m[f"{vit}.rows"] = get(vit, 3) / get(vit, 2) if get(vit, 2) else 0.0
    for name in PER_CALL_MS:
        m[f"{name}.ms"] = 1e3 * get(name, 0) / get(name, 2) if get(name, 2) else 0.0
    for name in PER_CALL_S:
        m[f"{name}.s"] = get(name, 0) / get(name, 2) if get(name, 2) else 0.0
    dataset_mb = sum(op.dataset_bytes for op in traced) / 1e6
    for name in ("features.write_dataset", "features.read_dataset"):
        m[f"{name}.mb_per_s"] = dataset_mb / get(name, 0) if get(name, 0) else 0.0
    m.update(phase_rates(plain, "cli.gen_dataset.rows_per_s", "cli.train.rows_per_s"))
    for policy in POLICIES:
        samples, flagged, hits = flags.counts.get(policy, [0, 0, 0])
        m[f"mitigation.{policy}.flag_frac"] = flagged / samples if samples else 0.0
        m[f"mitigation.{policy}.hit_frac"] = hits / flagged if flagged else 0.0
    for layer in LAYERS:
        self_s = sum(a[1] for name, a in agg.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = self_s / wall
    m["trace.unattributed_share"] = (wall - (roots_s - annotate_s)) / wall
    m["trace.overhead_s"] = (
        statistics.median([op.wall_s - op.annotate_s for op in traced])
        - statistics.median([op.wall_s for op in plain]))
    return m


def fast_time(times: List[float]) -> float:
    """The :data:`FAST_QUANTILE` of ``times`` (nearest rank, rounding down)."""
    ordered = sorted(times)
    return ordered[int(FAST_QUANTILE * (len(ordered) - 1))]


def phase_rates(plain: List[OpResult], gen_name: str, train_name: str) -> Dict[str, float]:
    """Dataset rows per second of gen-dataset, rows x epochs per second of
    train, at the fast op time; 0 for the sweeps, which have neither."""
    repro = [op for op in plain if op.gen_s]
    if not repro:
        return {gen_name: 0.0, train_name: 0.0}
    return {gen_name: repro[0].rows / fast_time([op.gen_s for op in repro]),
            train_name: repro[0].rows * repro[0].epochs
            / fast_time([op.train_s for op in repro])}


# ---------------------------------------------------------------------------
# Set-up time, environment, golden digests

SETUP_CODE = """\
import sys
from inofdm import cli, config, dnn
cfg = config.load_config(sys.argv[1] or None)
if cfg.model_path:
    dnn.load_model(cfg.model_path)
"""


def launch_setup(config_path: str) -> float:
    """Wall time of a fresh interpreter that imports the package and loads
    the workload's config and, if the config names one, its model."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    # No timeout: with one, wait() polls in 50 ms steps, which would
    # quantize a 0.2 s set-up time.
    subprocess.run([sys.executable, "-c", SETUP_CODE, config_path],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_version, "nproc": nproc, "cpu": cpu,
            "threads": {k: os.environ[k] for k in THREAD_ENV},
            "load1_start": load, "loaded": load > nproc}


def load_golden() -> dict:
    if GOLDEN.exists():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {}


def golden_key(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def program_seed(seed: int, op_index: int, distinct: int) -> int:
    return seed * 1000 + op_index % distinct


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Run:
    ops: List[OpResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)


def measure(name: str, spec, seed: int, seconds: int, traced: bool,
            golden: Dict[str, dict], cli, link) -> Tuple[Run, Optional[Tracer], FlagCounts]:
    """Repeat the workload's op until ``seconds`` have passed.

    In a traced run every op is run twice on the same inputs, first
    untraced and then traced, so the two can be compared.  An untraced run
    spreads :data:`SETUP_REPEATS` set-up launches over its duration, between
    ops, so that they sample the host's fast and slow phases alike.
    """
    flags = FlagCounts(link)
    tracer = Tracer(TRACE_TARGETS, after={
        "mitigation.mitigate": flags.after_mitigate,
        "link.receive_batch": flags.after_receive}) if traced else None
    run = Run()
    printed = set()
    start = time.perf_counter()
    deadline = start + seconds

    def setup_due() -> bool:
        return not traced and len(run.setup_s) < SETUP_REPEATS and \
            time.perf_counter() - start >= len(run.setup_s) * seconds / SETUP_REPEATS

    i = 0
    while i == 0 or time.perf_counter() < deadline:
        while setup_due():
            run.setup_s.append(launch_setup(spec.config))
        pseed = program_seed(seed, i, spec.distinct)
        for with_trace in ((False, True) if traced else (False,)):
            run.attempted += 1
            try:
                if with_trace:
                    tracer.run = f"op{i}"
                    first_span = len(tracer.spans)
                    with tracer:
                        op = run_op(spec, cli, pseed)
                    op.traced = True
                    op.annotate_s = sum(s.duration for s in tracer.spans[first_span:]
                                        if s.name == ANNOTATE)
                else:
                    op = run_op(spec, cli, pseed)
                expected = golden.get(str(pseed))
                status = ("unrecorded" if expected is None
                          else "match" if expected == op.digests else "MISMATCH")
                if status == "MISMATCH" or pseed not in printed:
                    printed.add(pseed)
                    digests = " ".join(f"{k}={v}" for k, v in sorted(op.digests.items()))
                    print(f"digest {name} seed={seed} pseed={pseed} {digests} "
                          f"status={status}")
                if status == "MISMATCH":
                    raise OpFailed(f"pseed {pseed}: digests differ from {GOLDEN.name}")
                run.ops.append(op)
            except Exception:  # any failure of the program is a failed op
                run.failed += 1
                traceback.print_exc()
        i += 1
    while not traced and len(run.setup_s) < SETUP_REPEATS:
        run.setup_s.append(launch_setup(spec.config))
    return run, tracer, flags


def end_to_end(spec, run: Run) -> Dict[str, float]:
    plain = [op for op in run.ops if not op.traced]
    wall = fast_time([op.wall_s for op in plain])
    return {
        "info_bits_per_s": plain[0].info_bits / wall,
        "wall_s": wall,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF,
                                       resource.RUSAGE_CHILDREN)) / 1024.0,
    }


def extras(run: Run) -> Dict[str, Tuple[float, str]]:
    """Figures printed for people but not part of the JSON result."""
    plain = [op for op in run.ops if not op.traced]
    walls = [op.wall_s for op in plain]
    out = {"ops": (float(run.attempted), "count"),
           "ops_failed": (float(run.failed), "count"),
           "samples": (float(len(plain)), "ops"),
           "wall_s_median": (statistics.median(walls), "s")}
    if any(op.gen_s for op in plain):
        rates = phase_rates(plain, "dataset_rows_per_s", "train_rows_per_s")
        out.update({name: (value, "rows/s") for name, value in rates.items()})
    return out


def benchmark_units(traced: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_workload(name: str, args, golden: dict, cli, link) -> Tuple[Run, Dict[str, float]]:
    spec = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[name]
    run, tracer, flags = measure(name, spec, args.seed, args.seconds,
                                 bool(args.trace), golden.get(name, {}), cli, link)
    if {op.traced for op in run.ops} != ({False, True} if args.trace else {False}):
        return run, {}
    if args.trace:
        values = layer_metrics(tracer.spans, run.ops, spec.symbols, flags)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace_{name}_seed{args.seed}.jsonl",
                     {"workload": name, "seed": args.seed, "env": args.env})
    else:
        values = end_to_end(spec, run)
    for key, (value, unit) in extras(run).items():
        print(f"metric {name} {key} {value!r} {unit}")
    return run, values


def run_all(args) -> int:
    """Run every workload in a child process of its own, so that each
    one's ``peak_rss_mb`` covers that workload alone, and merge the results
    under ``<workload>.<metric>``."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced op sizes, for perfbench/smoke.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "inofdm" / "__init__.py").is_file():
        print(f"error: no src/inofdm under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from inofdm import cli, link

    name = args.workload
    args.env = environment()
    print("env " + json.dumps(args.env, sort_keys=True))
    if args.env["loaded"]:
        print(f"warning: load average {args.env['load1_start']:.2f} exceeds "
              f"nproc {args.env['nproc']} at start", file=sys.stderr)
    units = benchmark_units(bool(args.trace))
    golden = load_golden().get(golden_key(args.smoke), {})
    run, values = run_workload(name, args, golden, cli, link)
    if not values:
        print(f"error: {name}: no op succeeded", file=sys.stderr)
        return 1
    if set(values) != set(units):
        missing = sorted(set(units) ^ set(values))
        print(f"error: {name}: metrics differ from BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 1
    for key, value in values.items():
        print(f"metric {name} {key} {value!r} {units[key]}")
    print("env_end " + json.dumps({"load1_end": os.getloadavg()[0]}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {key: {"value": value, "unit": units[key]}
                                  for key, value in values.items()}}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
