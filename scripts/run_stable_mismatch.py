#!/usr/bin/env python3
"""Model-mismatch robustness: mixture-Gaussian-trained detector under
symmetric alpha-stable noise.

The detector never sees heavy-tailed stable noise during training; this
runs configs/sas_mismatch.cfg to check whether its advantage over threshold
blanking and clipping survives at alpha in {1.5, 1.8}, one ``inofdm
ber-sweep`` per alpha into ``<out>/alpha<alpha>/``.  Only alpha, the grid
and the seed are set here; the rest is the config's.
"""

import argparse
import pathlib
import sys

from inofdm.cli import main as cli

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

    for alpha in args.alpha:
        rc = cli(["ber-sweep", "--config", str(CONFIG), "--seed", str(args.seed),
                  "--model", args.model, "--set", f"noise.alpha={alpha!r}",
                  "--set", f"grid.ebn0_db={args.grid}",
                  "--out", str(pathlib.Path(args.out) / f"alpha{alpha:g}")])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
