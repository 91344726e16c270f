"""The shipped outputs, pinned: `configs/manifest.sha256` holds the sha256
of every CSV and every check of every report.json that
`polymerlab suite configs/manifest.txt` writes.  Here the configs that
run in at most about 0.3 s are rerun and checked line by line against it;
`scripts/compare_outputs.py --digests` checks a whole suite tree."""

import importlib.util
from pathlib import Path

import pytest

from polymerlab.cli import load_config, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

FAST = (
    "shape_entropy.cfg",
    "busemann.cfg",
    "monotonicity.cfg",
    "dlr.cfg",
    "decay.cfg",
    "coalescence_half.cfg",
    "junctions.cfg",
    "interface.cfg",
    "scan.cfg",
)


def _manifest() -> list[str]:
    lines = (CONFIGS / "manifest.txt").read_text().splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


@pytest.fixture(scope="module")
def fast_tree(tmp_path_factory):
    """The FAST configs run into the directories the suite gives them."""
    root = tmp_path_factory.mktemp("suite")
    for i, name in enumerate(_manifest()):
        if name in FAST:
            cfg = load_config(CONFIGS / name)
            run(cfg, out_dir=str(root / f"{i:02d}_{cfg.kind}"))
    return root


def _pinned(tree: Path) -> list[str]:
    ran = {p.name for p in tree.iterdir()}
    pinned = compare_outputs.read_digests(CONFIGS / "manifest.sha256")
    return [line for line in pinned if line.split("/")[0] in ran]


def test_the_digest_file_pins_every_manifest_output():
    pinned = compare_outputs.read_digests(CONFIGS / "manifest.sha256")
    csvs = [line for line in pinned if line.split()[1] == "sha256"]
    assert len(csvs) == 16
    dirs = {line.split("/")[0] for line in pinned}
    assert len(dirs) == len(_manifest()) and all(n in _manifest() for n in FAST)


def test_fast_manifest_outputs_match_their_digests(fast_tree):
    found = compare_outputs.digest_lines(str(fast_tree))
    assert sum(line.split()[1] == "sha256" for line in found) == 10
    assert compare_outputs.compare_digests(_pinned(fast_tree), found) == []


def test_one_changed_byte_in_a_pinned_csv_fails(fast_tree, tmp_path):
    csv = next(fast_tree.glob("*_busemann/busemann.csv"))
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 1
    copy = tmp_path / csv.parent.name / csv.name
    copy.parent.mkdir()
    copy.write_bytes(bytes(data))
    (copy.parent / "report.json").write_bytes((csv.parent / "report.json").read_bytes())
    found = compare_outputs.digest_lines(str(tmp_path))
    diff = compare_outputs.compare_digests(_pinned(tmp_path), found)
    assert len(diff) == 2
    assert diff[0].startswith("pinned only: ") and diff[1].startswith("tree only: ")
    assert all(f"{csv.parent.name}/busemann.csv sha256 " in line for line in diff)


def test_the_digest_command_checks_a_tree(fast_tree, capsys):
    digests = str(CONFIGS / "manifest.sha256")
    # a partial tree lacks the slow configs' lines
    assert compare_outputs.main(["--digests", digests, str(fast_tree)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("differ:")
    ran = {p.name for p in fast_tree.iterdir()}
    assert out[:-1] and all(line.startswith("pinned only: ") for line in out[:-1])
    assert not any(line.split()[2].split("/")[0] in ran for line in out[:-1])
