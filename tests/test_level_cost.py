"""scripts/level_cost.py at tiny sizes."""

import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOPS = ["corner_from", "corner_to", "p2l_sweep", "band", "cif", "ldp"]


def test_level_cost_prints_a_fixed_and_a_bench_row_per_loop():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "level_cost.py"), "--scale", "0.02", "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split("\t") for line in done.stdout.splitlines()]
    assert lines[0] == ["loop", "row", "sites_per_level", "levels", "us_per_level"]
    rows = lines[1:]
    assert [(r[0], r[1]) for r in rows] == [(loop, "fixed") for loop in LOOPS] + [(loop, "bench") for loop in LOOPS]
    for loop, row, sites, levels, us in rows:
        assert float(sites) > 0 and int(levels) > 0 and math.isfinite(float(us))
        if row == "bench":  # a whole call per level; a fixed row may be a noisy difference
            assert float(us) > 0
    # the corner loop's fixed rows keep three sites a level
    assert all(float(r[2]) <= 3 for r in rows[:2])


def test_level_cost_refuses_a_bad_scale():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "level_cost.py"), "--scale", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "--scale" in done.stderr
