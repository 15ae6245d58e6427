#!/usr/bin/env python3
"""Burst-length study: mitigation quality versus impulse run length.

One ``inofdm ber-sweep`` of configs/bursty_time_interleaved.cfg (epsilon =
0.06 fixed, SIR = 0 dB, receiver-side time interleaving) into
``<out>/num<n>/`` per run length n of the corrupted samples (1, 2, 4),
setting only n, the grid and the seed.  Longer runs contaminate the sliding
feature windows and survive mitigation more often, so BER should degrade
with the run length.
"""

import argparse
import pathlib
import sys

from inofdm.cli import main as cli

CONFIG = (pathlib.Path(__file__).resolve().parent.parent / "configs"
          / "bursty_time_interleaved.cfg")


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="models/detector.txt")
    ap.add_argument("--out", default="results/bursts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lengths", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--grid", default="8,10,12,14")
    args = ap.parse_args(argv)

    for num in args.lengths:
        rc = cli(["ber-sweep", "--config", str(CONFIG), "--seed", str(args.seed),
                  "--model", args.model, "--set", f"noise.burst_len={num!r}",
                  "--set", f"grid.ebn0_db={args.grid}",
                  "--out", str(pathlib.Path(args.out) / f"num{num:g}")])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
