#!/usr/bin/env python3
"""BER comparison across impulse probabilities under mixture-Gaussian noise.

Runs configs/bg_sir0.cfg (the learned detector against no mitigation,
threshold blanking and clipping at SIR = 0 dB) as one ``inofdm ber-sweep``
per epsilon in {0.01, 0.05, 0.1} into ``<out>/eps<epsilon>/``, setting only
the impulse probability, the grid and the seed.
"""

import argparse
import pathlib
import sys

from inofdm.cli import main as cli

CONFIG = (pathlib.Path(__file__).resolve().parent.parent / "configs"
          / "bg_sir0.cfg")


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="models/detector.txt")
    ap.add_argument("--out", default="results/impulsivity")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1])
    ap.add_argument("--grid", default="8,10,12,14")
    args = ap.parse_args(argv)

    for eps in args.epsilon:
        rc = cli(["ber-sweep", "--config", str(CONFIG), "--seed", str(args.seed),
                  "--model", args.model, "--set", f"noise.epsilon={eps!r}",
                  "--set", f"grid.ebn0_db={args.grid}",
                  "--out", str(pathlib.Path(args.out) / f"eps{eps:g}")])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
