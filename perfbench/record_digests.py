#!/usr/bin/env python3
"""Record the reference CSV digests of the benchmark workloads at a trusted commit.

For each workload and seed this makes one traced run: the CLI estimate, the
pipeline called layer by layer, the scipy distance check and the dense-rule
check of sampled trials. It keeps the CLI's CSV digests only when every
check passed, and merges them into reference_digests.json.

    python3 perfbench/record_digests.py --seeds 0-10 --workload karate-compare
"""
import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-10")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                        help="repeatable; default: every workload but tiny")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    names = args.workload or [name for name in run.WORKLOADS if name != "tiny"]
    sys.path.insert(0, str(run.SRC))

    table = run.load_recorded()
    for name in names:
        for seed in seeds:
            result = run.traced_run(run.WORKLOADS[name], seed, {})
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['samples']['errors']}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = result["facts"]["csv_sha256"]
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
