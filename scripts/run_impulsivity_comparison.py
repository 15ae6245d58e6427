#!/usr/bin/env python3
"""BER comparison across impulse probabilities under mixture-Gaussian noise.

Runs configs/bg_sir0.cfg (the learned detector against no mitigation,
threshold blanking and clipping at SIR = 0 dB) for epsilon in
{0.01, 0.05, 0.1}, one curve directory per epsilon.  Only the impulse
probability, the grid and the seed are set here; the rest is the config's.
"""

import argparse
import pathlib
import sys
import time

from inofdm import config as cfgmod
from inofdm import dnn, link

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

    params = dnn.load_model(args.model)
    for eps in args.epsilon:
        cfg = cfgmod.load_config(CONFIG, {
            "noise.epsilon": repr(eps),
            "grid.ebn0_db": args.grid,
            "seed": str(args.seed),
        })
        t0 = time.time()
        curves = link.ber_sweep(cfg, params)
        out_dir = pathlib.Path(args.out) / f"eps{eps:g}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in curves.items():
            link.write_curve_csv(out_dir / f"curve_{name}.csv", curve)
        print(f"epsilon={eps:g}  ({time.time() - t0:.0f} s)")
        for ebn0 in cfg.ebn0_db:
            row = "  ".join(f"{name}={curves[name].ber_at(ebn0):.3e}"
                            for name in curves)
            print(f"  {ebn0:5.1f} dB  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
