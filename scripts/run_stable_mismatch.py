#!/usr/bin/env python3
"""Model-mismatch robustness: mixture-Gaussian-trained detector under
symmetric alpha-stable noise.

The detector never sees heavy-tailed stable noise during training; this
runs configs/sas_mismatch.cfg to check whether its advantage over threshold
blanking and clipping survives at alpha in {1.5, 1.8}.  Only alpha, the grid
and the seed are set here; the rest is the config's.
"""

import argparse
import pathlib
import sys

from inofdm import config as cfgmod
from inofdm import dnn, link

CONFIG = (pathlib.Path(__file__).resolve().parent.parent / "configs"
          / "sas_mismatch.cfg")


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="models/detector.txt")
    ap.add_argument("--out", default="results/stable")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--alpha", type=float, nargs="+", default=[1.5, 1.8])
    ap.add_argument("--grid", default="8,10,12,14,16")
    args = ap.parse_args(argv)

    params = dnn.load_model(args.model)
    for alpha in args.alpha:
        cfg = cfgmod.load_config(CONFIG, {
            "noise.alpha": repr(alpha),
            "grid.ebn0_db": args.grid,
            "seed": str(args.seed),
        })
        curves = link.ber_sweep(cfg, params)
        out_dir = pathlib.Path(args.out) / f"alpha{alpha:g}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in curves.items():
            link.write_curve_csv(out_dir / f"curve_{name}.csv", curve)
        print(f"alpha={alpha:g}")
        for ebn0 in cfg.ebn0_db:
            row = "  ".join(f"{name}={curves[name].ber_at(ebn0):.3e}"
                            for name in curves)
            print(f"  {ebn0:5.1f} dB  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
