"""Command-line front end.

Subcommands::

    gen-dataset   simulate the link and write a labeled feature dataset
    train         fit the classifier on a dataset, write model + loss trace
    ber-sweep     run the paired Monte Carlo BER experiment, one CSV per
                  policy; its per-point stderr line also gives each
                  policy's detection and false-alarm rates
    plot-data     merge per-policy curve CSVs into one plot-ready wide CSV

Every subcommand accepts ``--config FILE`` (flat key=value text, see
:mod:`inofdm.config`), repeatable ``--set key=value`` overrides, and
``--seed N`` as a shortcut for ``--set seed=N``.  All outputs are
deterministic given the effective configuration: identical seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import config as config_mod
from . import dnn, link
from .features import read_dataset, write_dataset


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="configuration file (key = value lines)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override a single config key (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")


def _load(args: argparse.Namespace,
          extra: Optional[Dict[str, str]] = None) -> config_mod.ExperimentConfig:
    overrides = config_mod.override_list_to_dict(args.overrides)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if extra:
        overrides.update(extra)
    return config_mod.load_config(args.config, overrides)


def _check_out_files(*paths, inputs=()) -> None:
    """Fail before any work when an output file's directory is missing,
    when it is an existing directory, or when it is the same file as
    another output or as one of ``inputs``."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise ValueError(f"output directory {str(Path(path).parent)!r} "
                             f"of {str(path)!r} does not exist")
        if Path(path).is_dir():
            raise ValueError(f"output file {str(path)!r} is a directory")
    for i, path in enumerate(paths):
        for kind, others in (("output", paths[:i]), ("input", inputs)):
            for other in others:
                if _same_file(path, other):
                    raise ValueError(f"output file {str(path)!r} is the same "
                                     f"file as the {kind} {str(other)!r}")


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file, through links too."""
    a, b = Path(a), Path(b)
    if a.exists() and b.exists():
        return a.samefile(b)
    return a.resolve() == b.resolve()


def _check_out_tree(path) -> None:
    """Fail before any work when the directory ``path`` cannot be made:
    it, or its nearest existing ancestor, must be a directory."""
    existing = Path(path)
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ValueError(f"output directory {str(path)!r} cannot be made: "
                         f"{str(existing)!r} is not a directory")


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    cfg = _load(args)
    _check_out_files(args.out)
    features, labels = link.generate_dataset(cfg)
    write_dataset(args.out, features, labels,
                  metadata={"config_hash": cfg.config_hash,
                            "seed": str(cfg.seed)})
    print(f"wrote {len(labels)} rows "
          f"({int(labels.sum())} impulse-labeled) to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load(args)
    loss_path = args.loss_out or (str(args.out) + ".loss.csv")
    _check_out_files(args.out, loss_path, inputs=(args.data,))
    features, labels, meta = read_dataset(args.data)
    params, losses = dnn.train(features, labels, cfg.train_config)
    dnn.save_model(args.out, params)
    with open(loss_path, "w", encoding="ascii") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write(f"# seed={cfg.seed}\n")
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(losses, start=1):
            fh.write(f"{epoch},{loss:.17g}\n")
    print(f"trained on {len(labels)} rows "
          f"(dataset hash {meta.get('config_hash', 'unknown')}); "
          f"final loss {losses[-1]:.6g}; model -> {args.out}")
    return 0


def _cmd_ber_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args, {"sweep.perfect_csi": "true"} if args.perfect_csi else None)
    _check_out_tree(args.out)
    params = None
    model_path = args.model or (cfg.model_path or None)
    if "dnn" in cfg.policies:
        if model_path is None:
            raise ValueError("a model file is required for network policies "
                             "(--model or config key model.path)")
        params = dnn.load_model(model_path)
    curves = link.ber_sweep(cfg, params,
                            log=lambda msg: print(msg, file=sys.stderr))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, curve in curves.items():
        link.write_curve_csv(out_dir / f"curve_{name}.csv", curve)
    print(f"wrote {len(curves)} curve files to {out_dir}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    curve_paths = sorted(Path(args.curves).glob("curve_*.csv"))
    _check_out_files(args.out, inputs=curve_paths)
    if not curve_paths:
        raise ValueError(f"no curve_*.csv files under {args.curves}")
    curves = [link.read_curve_csv(p) for p in curve_paths]
    hashes = {c.config_hash for c in curves}
    if len(hashes) > 1:
        raise ValueError(f"curves come from different configs: {sorted(hashes)}")
    path_of = {}
    for path, curve in zip(curve_paths, curves):
        first = path_of.setdefault(curve.detector, path)
        if first != path:
            raise ValueError(f"{str(first)!r} and {str(path)!r} both hold "
                             f"the curve of {curve.detector!r}")
    names = sorted(path_of)
    by_name = {c.detector: c for c in curves}
    grid = sorted({p.ebn0_db for c in curves for p in c.points})
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(f"# config_hash={curves[0].config_hash}\n")
        fh.write(f"# seed={curves[0].seed}\n")
        fh.write("ebn0_db," + ",".join(names) + "\n")
        for ebn0 in grid:
            cells = []
            for name in names:
                try:
                    cells.append(f"{by_name[name].ber_at(ebn0):.17g}")
                except KeyError:
                    cells.append("")
            fh.write(f"{ebn0:.17g}," + ",".join(cells) + "\n")
    print(f"wrote merged table ({len(grid)} rows x {len(names)} policies) "
          f"to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inofdm",
        description="Impulsive-noise detection and blanking experiments "
                    "on a coded OFDM link")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset",
                       help="write a labeled feature dataset (x1,x2,x3,label)")
    _add_common(p)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("train", help="train the classifier on a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset from gen-dataset")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--loss-out", default=None,
                   help="loss-trace CSV (default: <out>.loss.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ber-sweep",
                       help="paired Monte Carlo BER curves, one CSV per policy")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", default=None,
                   help="model file (overrides config key model.path)")
    p.add_argument("--perfect-csi", action="store_true",
                   help="use the true channel response instead of estimation")
    p.set_defaults(func=_cmd_ber_sweep)

    p = sub.add_parser("plot-data",
                       help="merge curve CSVs into one plot-ready table")
    p.add_argument("--curves", required=True,
                   help="directory containing curve_*.csv")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
