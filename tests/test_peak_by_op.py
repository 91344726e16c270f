"""scripts/peak_by_op.py on the smallest benchmark workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_peak_by_op_prints_a_nondecreasing_peak_per_operation():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_by_op.py"), "identities", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split("\t") for line in done.stdout.splitlines()]
    assert lines[0] == ["round", "op", "seconds", "peak_mb"]
    assert lines[1][:3] == ["-", "setup", "-"]
    body = lines[2:]
    ops = [op for r, op, _, _ in body if r == "0"]
    # three rounds of the same operations, in the same order
    assert len(ops) > 1 and [(r, op) for r, op, _, _ in body] == [(str(r), op) for r in range(3) for op in ops]
    assert all(float(s) > 0 for _, _, s, _ in body)
    peaks = [float(line[3]) for line in lines[1:]]
    assert peaks[0] > 0 and peaks == sorted(peaks)
