#!/usr/bin/env python3
"""Burst-length study: mitigation quality versus impulse run length.

Holds the total impulse fraction fixed (epsilon = 0.06, SIR = 0 dB) while
the corrupted samples arrive in runs of 1, 2 or 4, with receiver-side
time interleaving enabled: configs/bursty_time_interleaved.cfg with only
the run length, the grid and the seed set here.  Longer runs contaminate
the sliding feature windows and survive mitigation more often, so BER
should degrade with the run length.
"""

import argparse
import pathlib
import sys

from inofdm import config as cfgmod
from inofdm import dnn, link

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

    params = dnn.load_model(args.model)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    collected = {}
    for num in args.lengths:
        cfg = cfgmod.load_config(CONFIG, {
            "noise.burst_len": str(num),
            "grid.ebn0_db": args.grid,
            "seed": str(args.seed),
        })
        curve = link.ber_sweep(cfg, params)["dnn"]
        link.write_curve_csv(out_dir / f"curve_dnn_num{num}.csv", curve)
        collected[num] = curve

    grid = [p.ebn0_db for p in next(iter(collected.values())).points]
    print("ebn0_db  " + "  ".join(f"num={n}" for n in collected))
    for ebn0 in grid:
        row = "  ".join(f"{collected[n].ber_at(ebn0):.3e}" for n in collected)
        print(f"{ebn0:7.1f}  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
