"""scripts/compare_outputs.py on small hand-made suite output trees."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, seconds: float, csvs: dict[str, str]) -> Path:
    sub = root / "00_scan"
    sub.mkdir(parents=True)
    for name, text in csvs.items():
        (sub / name).write_text(text)
    report = {"kind": "scan", "passed": True, "checks": [], "seconds": seconds}
    report["artifacts"] = [str(sub / name) for name in csvs]
    (sub / "report.json").write_text(json.dumps(report))
    return root


SCAN = "t,b1,jump\n0.25,1.5,0\n0.5,2.5,1\n"


def test_identical_trees_differ_only_in_seconds_and_directory(tmp_path, capsys):
    a = _tree(tmp_path / "a", 1.0, {"scan.csv": SCAN, "shape.csv": "t,lambda_hat\n0.5,3.25\n"})
    b = _tree(tmp_path / "b", 2.5, {"scan.csv": SCAN, "shape.csv": "t,lambda_hat\n0.5,3.25\n"})
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == f"identical: 2 CSVs under {a}"


def test_moved_columns_are_reported_under_their_rule(tmp_path, capsys):
    a = _tree(tmp_path / "a", 1.0, {"scan.csv": SCAN, "shape.csv": "t,lambda_hat\n0.5,3.25\n0.75,4\n"})
    moved = {
        "scan.csv": "t,b1,jump\n0.25,1.5,0\n0.5,2.5000000001,1\n",
        "shape.csv": "t,lambda_hat\n0.5,3.25\n0.75,4.000000000000004\n",
    }
    b = _tree(tmp_path / "b", 1.0, moved)
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "00_scan/scan.csv: moved" in out
    assert "  t: identical" in out
    assert any(line.startswith("  b1: max abs 1e-10, max rel 4e-11 [abs]") for line in out)
    assert "  lambda_hat: max abs 4.44e-15, max rel 1.11e-15 [rel 1e-12] ok" in out


def test_missing_files_and_report_fields_are_reported(tmp_path, capsys):
    a = _tree(tmp_path / "a", 1.0, {"scan.csv": SCAN, "dlr.csv": "case,max_discrepancy\n0,1e-17\n"})
    b = _tree(tmp_path / "b", 1.0, {"scan.csv": SCAN})
    report = json.loads((b / "00_scan" / "report.json").read_text())
    report["passed"] = False
    (b / "00_scan" / "report.json").write_text(json.dumps(report))
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"only in {a}: 00_scan/dlr.csv" in out
    assert "00_scan/report.json: field 'artifacts' differs" in out
    assert "00_scan/report.json: field 'passed' differs" in out
