"""Record the report digest of every workload for a range of seeds.

usage: python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Runs one untraced call per (workload, seed) and writes ``digests.json``,
keyed by the exact CLI arguments.  Run it only on a commit whose outputs
are known to be right: every later benchmark run compares against it.
"""

import json
import os
import sys
import tempfile

import run


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.HERE, prefix="tmp-") as tmp:
        for workload in run.WORKLOADS.values():
            seeds = range(first, last + 1) if workload.seeded else [first]
            for seed in seeds:
                call = run.one_call(workload, seed, False, tmp)
                if "error" in call:
                    raise SystemExit(f"{workload.name} seed {seed}: {call['error']}")
                digests[run.argv_key(workload.argv(seed))] = call["digest"]
                print(workload.name, seed, call["digest"][:16], flush=True)
    doc = {"commit": run.git_commit(), "digests": digests}
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
