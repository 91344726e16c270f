"""scripts/manifest_costs.py on two small manifests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _costs(manifest):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "manifest_costs.py"), str(manifest)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_manifest_costs_prints_each_child_and_the_total(tmp_path):
    (tmp_path / "dlr.cfg").write_text("kind = dlr\nfixture = hand2x2\nwindows = 3\nlevels = 6\n")
    (tmp_path / "junctions.cfg").write_text("kind = junctions\nboxes = 4 8\nreplicas = 2\n")
    (tmp_path / "m.txt").write_text("# two configs\ndlr.cfg\n\njunctions.cfg\n")
    done = _costs(tmp_path / "m.txt")
    assert done.returncode == 0, done.stderr
    lines = [line.split("\t") for line in done.stdout.splitlines()]
    assert lines[0] == ["config", "exit", "seconds", "peak_mb"]
    assert [row[:2] for row in lines[1:]] == [["dlr.cfg", "0"], ["junctions.cfg", "0"], ["total", "0"]]
    seconds = [float(row[2]) for row in lines[1:]]
    peaks = [float(row[3]) for row in lines[1:]]
    # the printed times are rounded to 0.01 s
    assert all(s > 0 for s in seconds) and abs(seconds[-1] - sum(seconds[:-1])) <= 0.011
    assert all(p > 0 for p in peaks) and peaks[-1] == max(peaks[:-1])


def test_manifest_costs_exits_1_naming_a_failed_child(tmp_path):
    (tmp_path / "dlr.cfg").write_text("kind = dlr\nfixture = hand2x2\nwindows = 3\nlevels = 6\n")
    (tmp_path / "bad.cfg").write_text("kind = coalescence\ngap = 0\n")
    (tmp_path / "m.txt").write_text("bad.cfg\ndlr.cfg\n")
    done = _costs(tmp_path / "m.txt")
    assert done.returncode == 1
    rows = [line.split("\t")[:2] for line in done.stdout.splitlines()[1:]]
    # a refused config exits 2, and the later configs still run
    assert rows == [["bad.cfg", "2"], ["dlr.cfg", "0"], ["total", "1"]]
    assert "bad.cfg exited 2" in done.stderr and "field 'gap'" in done.stderr
