"""Peak resident memory after each operation of a benchmark workload.

    python scripts/peak_by_op.py walkers [--seed 1]

Imports polymerlab from this checkout's src/ and the workload from
bench/workloads.py, which it only reads.  It runs three rounds of the
workload's operations in one process, in the order bench/run.py does:
round 0 checks each output, and every round digests it.  It prints a
tab-separated line per operation: round, operation, seconds of the call,
and ru_maxrss in MB after the operation.  A first line `-  setup` gives
the reading after the inputs are made.  ru_maxrss never falls, so the
operation where it jumps is the one that set the peak.  Exits 1, listing
them, when a check fails or a later round's digest differs from round 0's.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 3


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import numpy as np

    import polymerlab
    import polymerlab.cli  # noqa: F401  (bench/run.py imports it in set-up too)
    import checks
    import workloads

    ck = checks.Checker()
    rng = np.random.default_rng([args.seed, 0xC4EC])
    with tempfile.TemporaryDirectory() as out_dir:
        ops = workloads.make(polymerlab, args.workload, args.seed, out_dir)
        print(f"round\top\tseconds\tpeak_mb\n-\tsetup\t-\t{peak_mb():.1f}", flush=True)
        digests = {}
        for r in range(ROUNDS):
            for op in ops:
                t0 = time.perf_counter()
                result = op.call()
                seconds = time.perf_counter() - t0
                if r == 0:
                    op.check(result, ck, [], rng)
                    digests[op.name] = op.digest(result)
                else:
                    ck.require(op.digest(result) == digests[op.name], f"{op.name}: round {r} output differs from round 0")
                del result
                print(f"{r}\t{op.name}\t{seconds:.4f}\t{peak_mb():.1f}", flush=True)
    for e in ck.errors:
        print(f"peak_by_op: check failed: {e}", file=sys.stderr)
    return 1 if ck.errors else 0


if __name__ == "__main__":
    sys.exit(main())
