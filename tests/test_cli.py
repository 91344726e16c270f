import copy
import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polymerlab import cocycle, env, gibbs
from polymerlab.cli import (
    _COMMON,
    _ENV,
    _SCHEMAS,
    _WEIGHT_FIELDS,
    KINDS,
    Check,
    ExperimentConfig,
    _leq,
    load_config,
    main,
    parse_config,
    run,
    suite,
)
from polymerlab.cocycle import busemann_from_p2l, check_monotonicity
from polymerlab.csvio import format_value, write_csv
from polymerlab.env import FieldBatch, Site, Window, generate_field
from polymerlab.errors import ConfigError
from polymerlab.partition import comparison_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"

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
        # list fields are strictly increasing: each check reads them in order
        ("kind = junctions\nboxes = 32 16", "'boxes'"),
        ("kind = junctions\nboxes = 16 16 32", "'boxes'"),
        ("kind = decay\nlevels = 8 8 16", "'levels'"),
        ("kind = decay\nlevels = 16 8", "'levels'"),
        ("kind = shape\nt_grid = 0.5 0.3 0.7 0.4 0.6", "'t_grid'"),
        ("kind = shape\nt_grid = 0.3 nan 0.7", "'t_grid'"),
        ("kind = shape\nn_list = 250 125 500", "'n_list'"),
        ("kind = shape\nn_list = 125 125", "'n_list'"),
        ("kind = junctions\nreplicas = 0", "'replicas'"),
        ("kind = coalescence\nseeds = 0", "'seeds'"),
        ("kind = coalescence\nhorizon = 0", "'horizon'"),
        ("kind = scan\nradius = 0", "'radius'"),
        ("kind = scan\nradius = 1", "'radius'"),
        ("kind = scan\nradius = -3", "'radius'"),
        ("kind = scan\nradius = 3", "'radius'"),
        ("kind = scan\nradius = 4", "'radius'"),
        ("kind = scan\nt_points = 0", "'t_points'"),
        ("kind = monotonicity\npairs = 0", "'pairs'"),
        ("kind = monotonicity\npairs = -1", "'pairs'"),
        ("kind = monotonicity\ntriples = 0", "'triples'"),
        ("kind = monotonicity\ntriple_size = 2", "'triple_size'"),
        ("kind = monotonicity\ntilt_scale = -1", "'tilt_scale'"),
        ("kind = monotonicity\ntilt_scale = 0", "'tilt_scale'"),
        ("kind = monotonicity\ntilt_scale = nan", "'tilt_scale'"),
        ("kind = monotonicity\nwidth = 0", "'width'"),
        ("kind = monotonicity\nwidth = 5\nheight = 6\nhorizon = 9", "'horizon'"),
        ("kind = monotonicity\nhorizon = 10", "'horizon'"),
        ("kind = busemann\nstaircases = 0", "'staircases'"),
        ("kind = busemann\nwidth = 1", "'width'"),
        ("kind = busemann\nheight = 1", "'height'"),
        ("kind = busemann\nhorizon = 10", "'horizon'"),
        ("kind = busemann\nwidth = 30\nheight = 30\nhorizon = 58", "'horizon'"),
        ("kind = busemann\nconstruction = p2p\nhorizon = -1", "'horizon'"),
        ("kind = busemann\nconstruction = p2p\ntarget_u = 39\ntarget_v = 80", "'target_u'"),
        ("kind = cdf\ngrid_points = 1", "'grid_points'"),
        ("kind = cdf\nbusemann_horizon = 1", "'busemann_horizon'"),
        ("kind = cdf\nbusemann_horizon = -5", "'busemann_horizon'"),
        ("kind = cdf\nsteps = 1", "'steps'"),
        ("kind = decay\nlevels =", "'levels'"),
        ("kind = decay\nlevels = 8 -1 16", "'levels'"),
        ("kind = decay\nseeds = 0", "'seeds'"),
        ("kind = decay\nrule = busemann\nseeds = 0", "'seeds'"),
        ("kind = dlr\nwindows = 0", "'windows'"),
        ("kind = dlr\nlevels = 0", "'levels'"),
        ("kind = dlr\nlevels = 21", "'levels'"),
        ("kind = cesaro\nsamples = 0", "'samples'"),
        ("kind = cesaro\nn = 10", "'n'"),
        ("kind = cesaro\nn = 14", "'n'"),
        ("kind = cesaro\nshape_n = 0", "'shape_n'"),
        ("kind = cesaro\nshape_replicas = 0", "'shape_replicas'"),
        ("kind = ldp\nreplicas = 0", "'replicas'"),
        ("kind = ldp\nn = 0", "'n'"),
        ("kind = ldp\nshape_n = 0", "'shape_n'"),
        ("kind = ldp\nshape_replicas = 0", "'shape_replicas'"),
        ("kind = shape\nreplicas = 0", "'replicas'"),
        # n_list is the one size field of shape
        ("kind = shape\nn = 0", "'n'"),
        ("kind = shape\nn_list = 0", "'n_list'"),
        ("kind = shape\nt_grid = 1.5", "'t_grid'"),
        ("kind = shape\nt_grid = nan", "'t_grid'"),
        ("kind = shape\nt_grid = -0.2 0.5", "'t_grid'"),
        ("kind = shape\nweights = gausian", "'weights'"),
        ("kind = busemann\nconstruction = p2q", "'construction'"),
        ("kind = dlr\nfixture = hand3x3", "'fixture'"),
        ("kind = decay\nrule = halff", "'rule'"),
        ("kind = coalescence\nrule = busemman", "'rule'"),
        ("kind = shape\nsd = 0", "'sd'"),
        ("kind = scan\nsd = nan", "'sd'"),
        ("kind = scan\nweights = uniform\na = 1\nb = 1", "'b'"),
        ("kind = scan\nweights = uniform\na = 2\nb = 1", "'b'"),
        ("kind = shape\nweights = inverse_log_gamma\nshape_param = 0", "'shape_param'"),
        ("kind = cesaro\nfpl_replicas = 2", "'fpl_replicas'"),
        ("kind = scan\nsd = inf", "'sd'"),
        ("kind = shape\nmean = inf", "'mean'"),
        ("kind = shape\nweights = constant\nvalue = -inf", "'value'"),
        ("kind = ldp\nt = 1.5", "'t'"),
        ("kind = ldp\nt = 0", "'t'"),
        ("kind = cesaro\nt = 1.5", "'t'"),
        ("kind = cesaro\nt = nan", "'t'"),
        ("kind = ldp\nshape_step = 0.3", "'shape_step'"),
        ("kind = ldp\nt = 0.9\nshape_step = 0.05", "'shape_step'"),
        ("kind = cesaro\nshape_step = 0", "'shape_step'"),
        ("kind = junctions\np = 1.5", "'p'"),
        ("kind = junctions\np = -0.1", "'p'"),
        ("kind = cdf\ngrid_lo = 0.9\ngrid_hi = 0.1", "'grid_hi'"),
        ("kind = cdf\ngrid_lo = 0.5\ngrid_hi = 0.5", "'grid_hi'"),
        ("kind = cdf\ngrid_lo = -0.1", "'grid_lo'"),
        ("kind = cdf\ngrid_hi = 1.5", "'grid_hi'"),
        ("kind = ldp\nt = 0.1", "'t'"),
        ("kind = ldp\nt = 0.9", "'t'"),
        ("kind = cesaro\nt = 0.1", "'t'"),
        ("kind = cesaro\nt = 0.9", "'t'"),
        # a standard error needs two samples
        ("kind = cesaro\nsamples = 1", "'samples'"),
        ("kind = cesaro\nshape_replicas = 1", "'shape_replicas'"),
        ("kind = ldp\nreplicas = 1", "'replicas'"),
        ("kind = ldp\nshape_replicas = 1", "'shape_replicas'"),
        ("kind = shape\nn_list = 40\nreplicas = 1", "'replicas'"),
        ("kind = shape\nweights = uniform\nreplicas = 1", "'replicas'"),
        # inputs that pass the coalescence check by construction, and tilts
        # that read NaN
        ("kind = coalescence\nrule = busemann\nh1 = nan", "'h1'"),
        ("kind = coalescence\nrule = busemann\nh2 = inf", "'h2'"),
        ("kind = coalescence\nh1 = -inf", "'h1'"),
        ("kind = coalescence\ngap = 0", "'gap'"),
        ("kind = coalescence\ngap = -2", "'gap'"),
        ("kind = coalescence\nthreshold = -1", "'threshold'"),
        ("kind = coalescence\nthreshold = 0", "'threshold'"),
        ("kind = coalescence\nthreshold = 1.5", "'threshold'"),
        ("kind = coalescence\nthreshold = nan", "'threshold'"),
        ("kind = decay\nrule = busemann\nh1 = nan", "'h1'"),
        ("kind = decay\nh2 = -inf", "'h2'"),
        ("kind = busemann\nh1 = inf", "'h1'"),
        ("kind = busemann\nh2 = nan", "'h2'"),
        # refused by the runs after they made their output directory
        ("kind = coalescence\nhalf_width = 1", "'half_width'"),
        ("kind = coalescence\nrule = busemann\nhalf_width = 1", "'half_width'"),
        ("kind = shape\nn_list = 0 5", "'n_list'"),
        # one replica past the ldp memory budget
        (f"kind = ldp\nn = {gibbs._LDP_MAX_N + 1}", "'n'"),
        ("just some words", "key = value"),
    ],
)
def test_malformed_configs_name_the_field(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["kind = coalescence\nhalf_width = 1", "kind = shape\nn_list = 0 5", f"kind = ldp\nn = {gibbs._LDP_MAX_N + 1}"],
)
def test_refused_configs_make_no_output_directory(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_ldp_n_stops_at_the_last_replica_within_the_budget():
    # the largest n whose one replica fits beside a hash block parses
    n = gibbs._LDP_MAX_N
    spare = gibbs._LDP_BLOCK_BYTES - env._HASH_BLOCK_BYTES
    assert gibbs._ldp_replica_bytes(n) <= spare < gibbs._ldp_replica_bytes(n + 1)
    assert parse_config(f"kind = ldp\nn = {n}").n == n


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_parses_with_its_defaults(kind):
    # every default lies in its own field's accepted set
    assert parse_config(f"kind = {kind}").kind == kind


@pytest.mark.parametrize(
    "text",
    [
        f"kind = {kind}\nt = {t!r}"
        for kind in ("cesaro", "ldp")
        for t in (math.nextafter(0.1, 1.0), math.nextafter(0.9, 0.0))
    ]
    + ["kind = cdf\nsteps = 2", "kind = shape\nweights = constant\nreplicas = 1"],
)
def test_edges_of_the_accepted_sets_parse(text):
    # the first floats inside (0.1, 0.9), the shortest cdf horizon, and one
    # replica where the constant model needs no standard error
    parse_config(text)


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


def test_the_cli_and_a_gaussian_parse_load_no_scipy():
    # scipy.special is imported on the first quantile that needs it
    code = (
        "import sys\n"
        "import polymerlab.cli as cli\n"
        "cli.parse_config('kind = ldp\\nweights = gaussian\\nsd = 2.0\\n')\n"
        "cli.parse_config('kind = ldp\\nweights = inverse_log_gamma\\nshape_param = 1.0\\n')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env_vars = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env_vars, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m polymerlab` is the installed `polymerlab` command
    env_vars = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def polymerlab(*args):
        return subprocess.run(
            [sys.executable, "-m", "polymerlab", *args], env=env_vars, capture_output=True, text=True, timeout=120
        )

    shown = polymerlab("--help")
    assert shown.returncode == 0 and "run" in shown.stdout and "suite" in shown.stdout
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = scan\nweights = gausian\n")
    refused = polymerlab("run", str(bad), "--out", str(tmp_path / "o"))
    assert refused.returncode == 2 and "'weights'" in refused.stderr
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "typo,field",
    [
        ("kind = scan\nweights = gausian", "'weights'"),
        ("kind = decay\nrule = halff", "'rule'"),
        ("kind = ldp\nt = 1.5", "'t'"),
        ("kind = cesaro\nt = 1.5", "'t'"),
        ("kind = ldp\nshape_step = 0.3", "'shape_step'"),
        ("kind = junctions\np = 1.5", "'p'"),
        ("kind = cdf\ngrid_lo = 0.9\ngrid_hi = 0.1", "'grid_hi'"),
        ("kind = scan\nsd = inf", "'sd'"),
        # each of these passed every coalescence check by construction
        ("kind = coalescence\nrule = busemann\nh1 = nan", "'h1'"),
        ("kind = coalescence\ngap = 0", "'gap'"),
        ("kind = coalescence\nthreshold = -1", "'threshold'"),
        ("kind = decay\nrule = busemann\nh2 = inf", "'h2'"),
        # deleted fields: the p2p target is (width + horizon, height + horizon),
        # and the cdf Busemann side probes at `steps`
        ("kind = busemann\nconstruction = p2p\ntarget_u = 80", "'target_u': not recognized"),
        ("kind = busemann\nconstruction = p2p\ntarget_v = 80", "'target_v': not recognized"),
        ("kind = cdf\nbusemann_horizon = 80", "'busemann_horizon': not recognized"),
        # a kind takes only the fields its run reads, and a weight law only
        # its own parameters
        ("kind = shape\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'shape'"),
        ("kind = shape\nn = 500", "'n': not recognized for kind 'shape'"),
        ("kind = busemann\nseed_coupling = 4", "'seed_coupling': not recognized for kind 'busemann'"),
        ("kind = monotonicity\nseed_coupling = 4", "'seed_coupling': not recognized for kind 'monotonicity'"),
        ("kind = cesaro\nseed_coupling = 4", "'seed_coupling': not recognized for kind 'cesaro'"),
        ("kind = dlr\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'dlr'"),
        ("kind = ldp\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'ldp'"),
        ("kind = decay\nseed_coupling = 4", "'seed_coupling': not recognized for kind 'decay'"),
        ("kind = coalescence\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'coalescence'"),
        ("kind = junctions\nweights = gaussian", "'weights': not recognized for kind 'junctions'"),
        ("kind = junctions\nseed_weights = 4", "'seed_weights': not recognized for kind 'junctions'"),
        ("kind = interface\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'interface'"),
        ("kind = cdf\nseed_sampler = 4", "'seed_sampler': not recognized for kind 'cdf'"),
        ("kind = scan\nseed_coupling = 4", "'seed_coupling': not recognized for kind 'scan'"),
        ("kind = scan\nweights = uniform\nmean = 5", "'mean': not recognized for kind 'scan' with weights = uniform"),
        ("kind = cesaro\nweights = constant\nsd = 2", "'sd': not recognized for kind 'cesaro' with weights = constant"),
    ],
)
def test_typos_are_refused_before_any_work(tmp_path, capsys, typo, field):
    scan = tmp_path / "scan.cfg"
    scan.write_text(SCAN_CFG)
    bad = tmp_path / "bad.cfg"
    bad.write_text(typo + "\n")
    manifest = tmp_path / "m.txt"
    manifest.write_text("scan.cfg\nbad.cfg\n")  # the good config comes first
    for command, target in [("run", bad), ("suite", manifest)]:
        out = tmp_path / f"o_{command}"
        assert main([command, str(target), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "kind,field,tol",
    [
        ("busemann", "recovery_tol", 1e-9),
        ("busemann", "closure_tol", 1e-9),
        ("busemann", "path_tol", 1e-8),
        ("dlr", "tol", 1e-10),
        ("ldp", "identity_tol", 1e-10),
        ("shape", "entropy_tol", 0.01),
        ("monotonicity", "tilt_scale", 0.5),
        ("monotonicity", "triple_size", 30),
        ("cesaro", "shape_step", 0.05),
        ("ldp", "shape_step", 0.05),
        ("interface", "interior_eps", 0.001),
        ("interface", "interior_min", 0.97),
        ("cdf", "tail_eps", 0.02),
    ],
)
def test_exact_identity_tolerances_are_not_config_fields(tmp_path, capsys, kind, field, tol):
    """A config cannot loosen a check until it passes: setting one of its
    fixed tolerances or sizes is refused with exit 2 naming the field, and
    the run reads the fixed value."""
    loose = tmp_path / "loose.cfg"
    loose.write_text(f"kind = {kind}\n{field} = 1\n")
    out = tmp_path / "o"
    assert main(["run", str(loose), "--out", str(out)]) == 2
    assert f"'{field}': fixed at {tol!r}" in capsys.readouterr().err
    assert not out.exists()
    cfg = parse_config(f"kind = {kind}")
    assert getattr(cfg, field) == tol and field not in cfg.values



def test_a_log_gamma_shape_with_infinite_weights_exits_2(tmp_path, capsys):
    cfg = tmp_path / "tiny_shape.cfg"
    cfg.write_text("kind = busemann\nweights = inverse_log_gamma\nshape_param = 0.01\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "'shape_param'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
def test_configs_copy_and_pickle(clone):
    cfg = parse_config("kind = busemann\nweights = inverse_log_gamma\nshape_param = 2.5\n")
    got = clone(cfg)
    assert got is not cfg and got.kind == cfg.kind and got.values == cfg.values
    assert got.weight_spec() == cfg.weight_spec() == env.WeightSpec.inverse_log_gamma(2.5)
    for field in ("recovery_tol", "closure_tol", "path_tol"):
        assert getattr(got, field) == getattr(cfg, field)
    with pytest.raises(AttributeError):
        got.not_a_field


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
        "replicas = 150\nsteps = 80\nseed_weights = 3\nseed_coupling = 4\n"
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
        # at n = 64 constant weights miss the entropy by 0.036, beyond the
        # fixed 0.01: a clean FAIL without erroring
        "kind = shape\nweights = constant\nvalue = 0\n"
        "t_grid = 0.5\nn_list = 64\nreplicas = 1\n"
    )
    ok, reports = suite([str(good), str(failing)], out_dir=str(tmp_path / "out"))
    assert not ok
    assert reports[0].passed and not reports[1].passed
    manifest = tmp_path / "m.txt"
    manifest.write_text("good.cfg\nfailing.cfg\n")
    assert main(["suite", str(manifest), "--out", str(tmp_path / "out2")]) == 1



def _table_rows(text, header):
    # the cells of each row of the markdown table under `header`
    lines = text[text.index(header) :].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell):
    # backticked names, leaving out the values in parentheses after a field
    return re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell))


# the environment's fields: its law, every law's parameters and its seed
ENV_FIELDS = set(_ENV).union(*_WEIGHT_FIELDS.values())

# (kind, field, value) -> the fields that the kind does not read when the
# field has that value; refusing them would need a rule between fields
MODE_FIELDS = {
    ("busemann", "construction", "p2p"): {"h1", "h2"},
    ("decay", "rule", "half"): {"h1", "h2"} | ENV_FIELDS,
    ("coalescence", "rule", "half"): {"h1", "h2", "half_width"} | ENV_FIELDS,
    ("cesaro", "weights", "constant"): {"t", "shape_n", "shape_replicas"},
}


def test_readme_config_tables_name_only_accepted_fields():
    text = README.read_text(encoding="utf-8")
    common = [name for row in _table_rows(text, "| field | meaning | default |") for name in _names(row[0])]
    assert set(common) == set(_COMMON)
    environment = [name for row in _table_rows(text, "| environment field | meaning | default |") for name in _names(row[0])]
    assert set(environment) == ENV_FIELDS
    kinds = _table_rows(text, "| kind | what it checks | key fields | seeds | read in one mode only |")
    assert sorted(_names(row[0])[0] for row in kinds) == sorted(KINDS)
    for row in kinds:
        kind = _names(row[0])[0]
        fields, seeds, modal = map(_names, row[2:5])
        assert fields and set(fields) <= set(_SCHEMAS[kind]) - ENV_FIELDS, kind
        assert set(seeds) == {f for f in _SCHEMAS[kind] if f.startswith("seed_")}, kind
        stated = set().union(*(v for (k, _, _), v in MODE_FIELDS.items() if k == kind))
        assert set(modal) == stated - ENV_FIELDS, kind


# small configs of the modes that no shipped config runs
MODE_CONFIGS = [
    "kind = busemann\nconstruction = p2p\nwidth = 6\nheight = 5\nhorizon = 10\nstaircases = 5",
    "kind = decay\nrule = half\nlevels = 4 8",
    "kind = cesaro\nweights = constant\nn = 20\nsamples = 10",
]


def test_every_accepted_field_is_read(tmp_path, monkeypatch):
    """A kind accepts only what its run reads: over every shipped config and
    the modes no shipped config runs, a field the run did not read is
    stated in MODE_FIELDS for that mode, `kind` and `out` (read by `run`
    from the config itself), or `beta` of a run that hashes no
    environment."""
    reads = set()
    plain_getattr, plain_spec = ExperimentConfig.__getattr__, ExperimentConfig.weight_spec

    def getattr_(cfg, name):
        reads.add(name)
        return plain_getattr(cfg, name)

    def weight_spec(cfg):
        reads.update(["weights", *_WEIGHT_FIELDS[cfg.values["weights"]]])
        return plain_spec(cfg)

    monkeypatch.setattr(ExperimentConfig, "__getattr__", getattr_)
    monkeypatch.setattr(ExperimentConfig, "weight_spec", weight_spec)
    configs = [load_config(p) for p in sorted(CONFIGS.glob("*.cfg"))] + list(map(parse_config, MODE_CONFIGS))
    for i, cfg in enumerate(configs):
        reads.clear()
        run(cfg, out_dir=str(tmp_path / str(i)))
        stated = {"kind", "out"} | ({"beta"} if "seed_weights" not in reads else set())
        for (kind, field, value), fields in MODE_FIELDS.items():
            if kind == cfg.kind and cfg.values[field] == value:
                stated |= fields
        assert set(cfg.values) - reads <= stated, (cfg.kind, set(cfg.values) - reads - stated)


def test_manifest_lists_every_shipped_config_and_each_loads():
    lines = [line.strip() for line in (CONFIGS / "manifest.txt").read_text().splitlines()]
    listed = [line for line in lines if line and not line.startswith("#")]
    assert sorted(listed) == sorted(p.name for p in CONFIGS.glob("*.cfg"))
    for name in listed:
        load_config(CONFIGS / name)


def test_shipped_junctions_csv_is_pinned(tmp_path):
    # the shipped junctions run byte for byte, as the union-find forest
    # wrote it
    assert run(load_config(CONFIGS / "junctions.cfg"), out_dir=str(tmp_path)).passed
    assert (tmp_path / "junctions.csv").read_bytes() == (
        b"L,density\n16,0.040625000000000001\n32,0.022607421874999999\n64,0.01220703125\n"
    )


def test_small_ldp_csv_and_checks_are_pinned(tmp_path):
    # a small ldp run byte for byte, as the (n+1)^2-square sweep wrote it
    cfg = parse_config("kind = ldp\nn = 40\nreplicas = 3\nshape_n = 80\nshape_replicas = 4\n")
    assert run(cfg, out_dir=str(tmp_path)).passed
    data = (tmp_path / "ldp_rate.csv").read_bytes()
    assert data.startswith(b"zeta1,rate,rate_se,gap,gap_se,reference,reference_se\n0,1.0570546311510662,")
    assert hashlib.sha256(data).hexdigest() == "750325e7051724dfadab786da64130e79613b3964ae46c4aada8e91f4cd2d2a2"
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [(c["name"], c["value"], c["tolerance"], c["note"], c["passed"]) for c in checks] == [
        ("rate_flow_identity", "5.5511151231257827e-16", "1e-10", "", True),
        ("rate_nonnegative_2se", "0", "0", "min(rate+2se)=0.0981", True),
        ("rate_zero_at_dual", "0.0034878936670342808", "0.18868807485916422", "zeta=0.500", True),
    ]


def _per_pair_monotonicity_csvs(cfg):
    # the monotonicity runner before tilts were batched: two single-tilt
    # fields per pair, then the comparison triples, formatted cell by cell
    field = generate_field(cfg.weight_spec(), cfg.seed_weights, Window(Site(0, 0), 1, 1))
    window = Window(Site(0, 0), cfg.width, cfg.height)
    rng = np.random.default_rng(cfg.seed_sampler)
    rows = []
    for k in range(cfg.pairs):
        d1 = float(rng.uniform(0, cfg.tilt_scale))
        d2 = float(rng.uniform(0, cfg.tilt_scale))
        h = (float(rng.normal(0, cfg.tilt_scale)), float(rng.normal(0, cfg.tilt_scale)))
        hp = (h[0] + d1, h[1] - d2)
        fa = busemann_from_p2l(field, cfg.beta, h, cfg.horizon, window)
        fb = busemann_from_p2l(field, cfg.beta, hp, cfg.horizon, window)
        rep = check_monotonicity(fa, fb)
        rows.append((k, h[0], h[1], hp[0], hp[1], rep.violations, rep.worst_margin))
    margin_rows = []
    for k in range(cfg.triples):
        L = cfg.triple_size
        x = Site(int(rng.integers(0, L // 3)), int(rng.integers(0, L // 3)))
        u = Site(int(rng.integers(x.u + 1, L)), int(rng.integers(x.v + 1, L)))
        v = Site(int(rng.integers(x.u + 1, u.u + 1)), int(rng.integers(u.v, L)))
        rep = comparison_check(field, x, u, v, cfg.beta)
        margin_rows.append((k, rep.margin_e1, rep.margin_e2))

    def text(header, rows):
        return "".join(",".join(format_value(x) for x in row) + "\n" for row in [header, *rows])

    return {
        "monotonicity.csv": text(("pair", "h1", "h2", "hp1", "hp2", "violations", "worst_margin"), rows),
        "comparison.csv": text(("triple", "margin_e1", "margin_e2"), margin_rows),
    }


@pytest.mark.parametrize("beta", ["1.5", "inf"])
def test_batched_monotonicity_run_equals_the_per_pair_loop(tmp_path, monkeypatch, beta):
    # the smallest accepted horizon, and three tilts per group, so some
    # pairs straddle two groups
    cfg = parse_config(
        f"kind = monotonicity\nbeta = {beta}\nwidth = 6\nheight = 5\nhorizon = 10\npairs = 7\n"
        "triples = 12\nseed_weights = 21\nseed_sampler = 4\n"
    )
    per_tilt = 8 * ((cfg.horizon + 1) * (cfg.width + 8) + 3 * cfg.width * cfg.height)
    shared = cocycle._p2l_shared(cfg.horizon, Window(Site(0, 0), cfg.width, cfg.height))
    monkeypatch.setattr(cocycle, "_TILT_BLOCK_BYTES", shared + 3 * per_tilt)
    report = run(cfg, out_dir=str(tmp_path))
    assert report.passed
    for name, want in _per_pair_monotonicity_csvs(cfg).items():
        assert (tmp_path / name).read_text() == want


def test_write_csv_matches_format_value(tmp_path):
    # columns change type from row to row, so rows of one type tuple reuse a
    # template and rows of another build their own
    rows = [
        (0, 0.1, True, "e1", -0.0),
        (1, 0.2, False, "e2", 5e-324),
        (np.int64(-3), np.float64(math.nan), 10**40, np.float32(0.1), math.inf),
        (2**70, -math.inf, np.float64(-0.0), None, np.bool_(True)),
        (-(10**30), np.float32(math.nan), np.int32(7), "a%b,c", 1e300),
        (),
        (np.float64(2 / 3), type("Tilt", (float,), {})(0.3)),
    ]
    path = write_csv(tmp_path / "sub" / "mixed.csv", ("a", "b", "c", "d", "e"), (r for r in rows))
    want = "a,b,c,d,e\n" + "".join(",".join(format_value(x) for x in row) + "\n" for row in rows)
    assert Path(path).read_text() == want


@pytest.mark.parametrize(
    "text,csv",
    [
        ("kind = interface\nsteps = 30\nreplicas = 20", "interface_directions.csv"),
        (
            "kind = cdf\ngrid_points = 5\nreplicas = 20\nsteps = 30",
            "cdf_comparison.csv",
        ),
        ("kind = coalescence\nrule = half\nhorizon = 40\nseeds = 12", "coalescence.csv"),
    ],
)
def test_negative_coupling_seeds_wrap_like_weight_seeds(tmp_path, text, csv):
    # seeds wrap modulo 2^64, so -5 names the same coupling field as 2^64 - 5;
    # the replica seeds -5, -4, ... cross zero
    for seed, sub in ((-5, "neg"), (2**64 - 5, "wrapped")):
        run(parse_config(f"{text}\nseed_coupling = {seed}"), out_dir=str(tmp_path / sub))
    assert (tmp_path / "neg" / csv).read_bytes() == (tmp_path / "wrapped" / csv).read_bytes()


@pytest.mark.parametrize(
    "text,seed_field",
    [
        ("kind = shape\nn_list = 40\nreplicas = 4\nt_grid = 0.3 0.5 0.7", "seed_weights"),
        ("kind = ldp\nn = 20\nreplicas = 3\nshape_n = 40\nshape_replicas = 4", "seed_weights"),
        ("kind = busemann\nwidth = 6\nheight = 5\nhorizon = 20\nstaircases = 5", "seed_sampler"),
        (
            "kind = monotonicity\nwidth = 5\nheight = 5\nhorizon = 12\npairs = 3\ntriples = 4",
            "seed_sampler",
        ),
        (
            "kind = cesaro\nn = 20\nsamples = 10\nshape_n = 40\nshape_replicas = 4",
            "seed_sampler",
        ),
    ],
)
def test_negative_replica_and_sampler_seeds_wrap(tmp_path, text, seed_field):
    # -200 stays negative after the runners' offsets (ldp adds 7 and 101) and
    # wraps modulo 2^64 like a weight seed, so it runs exactly as 2^64 - 200
    for seed, sub in ((-200, "neg"), (2**64 - 200, "wrapped")):
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(f"{text}\n{seed_field} = {seed}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / sub)]) == 0
    csvs = sorted(p.name for p in (tmp_path / "neg").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "wrapped" / name).read_bytes()


def _failed(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return math.isnan(check.value) and not check.passed


def test_a_nan_staircase_gap_fails_the_busemann_run(tmp_path, monkeypatch):
    # the second staircase's sum is NaN, among finite ones
    real = cocycle.BusemannField.staircase_sums

    def second_is_nan(self, sites, lengths):
        sums = real(self, sites, lengths)
        sums[1] = math.nan
        return sums

    monkeypatch.setattr(cocycle.BusemannField, "staircase_sums", second_is_nan)
    cfg = parse_config("kind = busemann\nwidth = 6\nheight = 5\nhorizon = 20\nstaircases = 4\n")
    assert _failed(run(cfg, out_dir=str(tmp_path)), "staircase_independence")


def test_a_nan_dlr_discrepancy_fails_the_dlr_run(tmp_path, monkeypatch):
    # the second random window reports NaN, after a finite first one
    real = gibbs.dlr_window_reports

    def second_is_nan(*args):
        reps = real(*args)
        reps[1] = dataclasses.replace(reps[1], max_discrepancy=math.nan)
        return reps

    monkeypatch.setattr(gibbs, "dlr_window_reports", second_is_nan)
    cfg = parse_config("kind = dlr\nwindows = 3\nlevels = 4\nseed_weights = 5\n")
    assert _failed(run(cfg, out_dir=str(tmp_path)), "dlr_max_discrepancy")


def test_another_environments_field_fails_the_dlr_level_mass(tmp_path, monkeypatch):
    # each window's Busemann field is built on the next seed's environment,
    # seed 7001's field against seed 7000's paths: every path-set identity
    # still holds, and only the level mass sees the wrong field
    real = gibbs._p2l_increments

    def next_seed(batch, *args):
        return real(FieldBatch([generate_field(f.spec, f.seed + 1, f.window) for f in batch.fields]), *args)

    monkeypatch.setattr(gibbs, "_p2l_increments", next_seed)
    cfg = parse_config("kind = dlr\nwindows = 3\nlevels = 10\nseed_weights = 7000\n")
    checks = {c.name: c for c in run(cfg, out_dir=str(tmp_path)).checks}
    assert checks["dlr_max_discrepancy"].passed
    assert not checks["dlr_level_mass"].passed
    assert checks["dlr_level_mass"].value > 0.5


def test_a_nan_hit_mass_fails_the_binomial_match(tmp_path, monkeypatch):
    real = gibbs.rooted_mass_decay

    def second_is_nan(*args):
        prof = real(*args)
        return dataclasses.replace(prof, max_hit=(prof.max_hit[0], math.nan, *prof.max_hit[2:]))

    monkeypatch.setattr(gibbs, "rooted_mass_decay", second_is_nan)
    cfg = parse_config("kind = decay\nrule = half\nlevels = 4 8 16\n")
    assert _failed(run(cfg, out_dir=str(tmp_path)), "binomial_match")
