"""Wall time and peak resident memory of each experiment in a manifest.

    python scripts/manifest_costs.py configs/manifest.txt

Runs each config of the manifest (one path per line, relative to the
manifest, `#` comments) as a fresh `python -m polymerlab run` child of this
checkout's src/, one at a time.  It prints a tab-separated line per config:
config, exit code, wall seconds, and the child's peak RSS in MB (ru_maxrss
from os.wait4).  A last line `total` gives the summed wall time and the
largest peak.  The children write their artifacts to a temporary
directory.  Exits 1 when any child exits nonzero, with each failed child's
output on stderr.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def manifest_paths(manifest: str) -> list[str]:
    base = os.path.dirname(os.path.abspath(manifest))
    with open(manifest, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    return [os.path.join(base, p) for p in lines if p and not p.startswith("#")]


def run_child(config: str, out: str, log: str) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one `run` child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "polymerlab", "run", config, "--out", out],
            stdout=fh,
            stderr=subprocess.STDOUT,
            env=env,
        )
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return child.returncode, seconds, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("manifest")
    args = parser.parse_args(argv)

    failed = 0
    total = peak = 0.0
    print("config\texit\tseconds\tpeak_mb", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(manifest_paths(args.manifest)):
            name = os.path.basename(config)
            out = os.path.join(tmp, f"{i:02d}")
            code, seconds, mb = run_child(config, out, out + ".log")
            total += seconds
            peak = max(peak, mb)
            print(f"{name}\t{code}\t{seconds:.2f}\t{mb:.1f}", flush=True)
            if code:
                failed += 1
                with open(out + ".log", encoding="utf-8") as fh:
                    print(f"manifest_costs: {name} exited {code}:\n{fh.read()}", file=sys.stderr)
    print(f"total\t{1 if failed else 0}\t{total:.2f}\t{peak:.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
