import json
import math
import os

import pytest

from polymerlab.cli import (
    Check,
    ExperimentConfig,
    _leq,
    load_config,
    main,
    parse_config,
    run,
    suite,
)
from polymerlab.errors import ConfigError

DLR_CFG = """
# bundled dlr check
kind = dlr
fixture = hand2x2
weights = gaussian
windows = 3
levels = 6
seed_weights = 11
"""

SCAN_CFG = """
kind = scan
weights = gaussian
t_points = 15
radius = 60
seed_weights = 4
"""


def test_non_finite_check_values_fail():
    assert _leq("residual", 0.5, 1.0).passed
    for bad in (math.nan, math.inf, -math.inf):
        assert not _leq("residual", bad, 1.0).passed
    assert not Check("cdf_upper_tail", math.inf, 0.9, True).passed


def test_parse_round_trip_and_defaults():
    cfg = parse_config(DLR_CFG)
    assert cfg.kind == "dlr"
    assert cfg.windows == 3 and cfg.levels == 6
    assert cfg.beta == 1.0  # default
    assert cfg.weight_spec().distribution == "gaussian"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("weights = gaussian", "'kind'"),
        ("kind = frobnicate", "'kind'"),
        ("kind = dlr\nbogus_field = 3", "'bogus_field'"),
        ("kind = dlr\nlevels = not_a_number", "'levels'"),
        ("kind = dlr\nlevels = 3\nlevels = 4", "'levels'"),
        ("kind = dlr\nbeta = -2", "'beta'"),
        ("kind = scan\nbeta = nan", "'beta'"),
        ("kind = dlr\nbeta = inf", "'beta'"),
        ("kind = ldp\nbeta = inf", "'beta'"),
        ("kind = interface\nbeta = inf", "'beta'"),
        ("kind = cdf\nbeta = inf", "'beta'"),
        ("kind = decay\nrule = busemann\nbeta = inf", "'beta'"),
        ("kind = coalescence\nrule = busemann\nbeta = inf", "'beta'"),
        ("kind = interface\nreplicas = 0", "'replicas'"),
        ("kind = interface\nsteps = 0", "'steps'"),
        ("kind = cdf\nreplicas = 0", "'replicas'"),
        ("kind = cdf\nsteps = 0", "'steps'"),
        ("kind = junctions\nboxes = 0", "'boxes'"),
        ("kind = junctions\nboxes = 16 0 32", "'boxes'"),
        ("kind = junctions\nreplicas = 0", "'replicas'"),
        ("kind = coalescence\nseeds = 0", "'seeds'"),
        ("kind = coalescence\nhorizon = 0", "'horizon'"),
        ("kind = scan\nradius = 0", "'radius'"),
        ("kind = scan\nradius = 1", "'radius'"),
        ("kind = scan\nradius = -3", "'radius'"),
        ("kind = scan\nt_points = 0", "'t_points'"),
        ("kind = cdf\ngrid_points = 1", "'grid_points'"),
        ("kind = cdf\nbusemann_horizon = 1", "'busemann_horizon'"),
        ("kind = cdf\nbusemann_horizon = -5", "'busemann_horizon'"),
        ("kind = cdf\nsteps = 1", "'steps'"),
        ("just some words", "key = value"),
    ],
)
def test_malformed_configs_name_the_field(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_run_dlr_fixture_passes(tmp_path):
    cfg = parse_config(DLR_CFG)
    report = run(cfg, out_dir=str(tmp_path / "out"))
    assert report.passed
    names = {c.name for c in report.checks}
    assert "dlr_fixture" in names and "dlr_max_discrepancy" in names
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["passed"] is True


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "dlr.cfg"
    cfg_path.write_text(DLR_CFG)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = dlr\nwhat = 1\n")
    assert main(["run", str(bad)]) == 2


def test_beta_inf_flag(tmp_path):
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text(SCAN_CFG)
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--beta", "inf"])
    assert code == 0
    data = json.loads((tmp_path / "o" / "report.json").read_text())
    assert data["config"]["beta"] == "inf"


def test_beta_flag_is_checked_like_the_field(tmp_path, capsys):
    scan = tmp_path / "scan.cfg"
    scan.write_text(SCAN_CFG)
    ldp = tmp_path / "ldp.cfg"
    ldp.write_text("kind = ldp\n")
    manifest = tmp_path / "m.txt"
    manifest.write_text("scan.cfg\nldp.cfg\n")
    for command, target, beta in [
        ("run", scan, "abc"),
        ("run", scan, "-1"),
        ("suite", manifest, "abc"),
        ("suite", manifest, "-1"),
        ("run", ldp, "inf"),  # refused before any work
        ("suite", manifest, "inf"),
    ]:
        out = tmp_path / f"o_{command}_{beta}"
        assert main([command, str(target), "--out", str(out), "--beta", beta]) == 2
        assert "'beta'" in capsys.readouterr().err
        assert not out.exists()
    # kinds that do not depend on beta still take --beta inf
    for text in ("kind = junctions", "kind = decay\nrule = half", "kind = coalescence"):
        assert parse_config(text + "\nbeta = inf").beta == math.inf


def test_reproducibility_byte_identical(tmp_path):
    cfg = parse_config(SCAN_CFG)
    run(cfg, out_dir=str(tmp_path / "a"))
    run(cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "scan.csv").read_bytes()
    b = (tmp_path / "b" / "scan.csv").read_bytes()
    assert a == b


def test_coupling_seed_does_not_touch_weight_quantities(tmp_path):
    cdf_cfg = (
        "kind = cdf\nweights = gaussian\ngrid_points = 5\ngrid_lo = 0.2\ngrid_hi = 0.8\n"
        "replicas = 150\nsteps = 80\nbusemann_horizon = 80\nseed_weights = 3\nseed_coupling = 4\n"
    )
    base = parse_config(cdf_cfg)
    moved = ExperimentConfig(base.kind, {**base.values, "seed_coupling": 999})
    run(base, out_dir=str(tmp_path / "a"))
    run(moved, out_dir=str(tmp_path / "b"))

    def columns(p):
        rows = [line.split(",") for line in p.read_text().strip().splitlines()[1:]]
        emp = tuple(r[1] for r in rows)
        bus = tuple(r[2] for r in rows)
        return emp, bus

    emp_a, bus_a = columns(tmp_path / "a" / "cdf_comparison.csv")
    emp_b, bus_b = columns(tmp_path / "b" / "cdf_comparison.csv")
    assert bus_a == bus_b  # partition-table side: weights only
    assert emp_a != emp_b  # sampled side actually moved


def test_suite_empty_manifest_trivially_passes(tmp_path):
    ok, reports = suite([], out_dir=str(tmp_path))
    assert ok and reports == []


def test_suite_aggregates_and_fails_on_one_bad_item(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(SCAN_CFG)
    failing = tmp_path / "failing.cfg"
    failing.write_text(
        # impossible tolerance forces a clean FAIL without erroring
        "kind = shape\nweights = constant\nvalue = 0\n"
        "t_grid = 0.5\nn = 64\nreplicas = 1\nentropy_tol = 1e-9\n"
    )
    ok, reports = suite([str(good), str(failing)], out_dir=str(tmp_path / "out"))
    assert not ok
    assert reports[0].passed and not reports[1].passed
    manifest = tmp_path / "m.txt"
    manifest.write_text("good.cfg\nfailing.cfg\n")
    assert main(["suite", str(manifest), "--out", str(tmp_path / "out2")]) == 1

