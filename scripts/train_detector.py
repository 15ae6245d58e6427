#!/usr/bin/env python3
"""Reproduce the shipped detector model from scratch.

Runs the same two CLI steps that produced ``models/detector.txt``:
a labeled dataset from the default mixture-Gaussian training grid,
then 100 epochs of Adam.  Byte-identical output on the same platform.
Takes about a minute and a half on two CPUs; the dataset lands next to
the model.
"""

import argparse
import pathlib
import sys

from inofdm.cli import main as cli


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="models/detector.txt",
                    help="model destination (default: models/detector.txt)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset = out.with_suffix(".dataset.csv")

    rc = cli(["gen-dataset", "--seed", str(args.seed), "--out", str(dataset)])
    if rc:
        return rc
    return cli(["train", "--seed", str(args.seed), "--data", str(dataset),
                "--out", str(out),
                "--loss-out", str(out.with_suffix(".loss.csv"))])


if __name__ == "__main__":
    sys.exit(run())
