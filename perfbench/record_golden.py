#!/usr/bin/env python3
"""Record the reference output digests that perfbench/run.py checks.

Run from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/record_golden.py --seeds 0-20
    python3 perfbench/record_golden.py --smoke --seeds 0

For each workload and benchmark seed it runs every distinct op once,
untimed, checks the same invariants as a timed run, and stores the output
digests in perfbench/golden.json under the op's program seed.  Existing
entries are kept unless they are recomputed; an entry that changes is
reported, because a changed digest means the program's outputs changed.
"""

import argparse
import json
import sys

import run


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,3,5")
    parser.add_argument("--smoke", action="store_true",
                        help="record the reduced sizes perfbench/smoke.py uses")
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    from inofdm import cli

    golden = run.load_golden()
    section = golden.setdefault(run.golden_key(args.smoke), {})
    specs = run.SMOKE_WORKLOADS if args.smoke else run.WORKLOADS
    changed = 0
    for name, spec in specs.items():
        entries = section.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            for i in range(spec.distinct):
                pseed = run.program_seed(seed, i, spec.distinct)
                digests = run.run_op(spec, cli, pseed).digests
                old = entries.get(str(pseed))
                if old is not None and old != digests:
                    changed += 1
                    print(f"CHANGED {name} pseed={pseed}: {old} -> {digests}")
                entries[str(pseed)] = digests
            print(f"recorded {name} seed={seed}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
