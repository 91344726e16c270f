"""Artifact bytes, pinned literally and cell by cell.

The cell rule is pinned by literal strings.  Every result type's `to_csv`
is pinned against text built from the object's own fields, one row at a
time, with each cell converted the way a row-built writer converts it
(`int(seed)`, `1 if met >= 0 else 0`, `(t, n)` in C order, ...)."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from polymerlab.cif import CdfComparison, cif_direction_stats
from polymerlab.cocycle import (
    BusemannField,
    Provenance,
    ShapeEstimate,
    busemann_from_p2l,
    direction_scan,
    estimate_shape,
)
from polymerlab.coupling import CoalescenceStats, coalescence_experiment, constant_rule
from polymerlab.csvio import format_value, write_csv
from polymerlab.env import Site, Window, WeightSpec, field_from_values, generate_field
from polymerlab.gibbs import LdpProfile, MassDecayProfile, ldp_rate_profile, path_from_steps
from polymerlab.partition import p2p_table

GAUSS = WeightSpec.gaussian(0.0, 1.0)


class Tilt(float):
    pass


LITERAL_CELLS = [
    (-0.0, "-0"),
    (0.0, "0"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (True, "1"),
    (False, "0"),
    (np.bool_(True), "True"),
    (np.bool_(False), "False"),
    (10**40, "1" + "0" * 40),
    (-(2**70), "-1180591620717411303424"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
    (0.1, "0.10000000000000001"),
    (np.float64(-0.0), "-0"),
    (np.float64(math.nan), "nan"),
    (np.float32(0.1), "0.1"),
    (np.float32(math.nan), "nan"),
    (np.int64(-3), "-3"),
    (np.int32(7), "7"),
    (np.uint64(2**64 - 1), "18446744073709551615"),
    (Tilt(0.3), "0.29999999999999999"),
    ((1, 2.5), "(1, 2.5)"),
    ([0.5], "[0.5]"),
    (None, "None"),
    ("a%b", "a%b"),
]


@pytest.mark.parametrize("value,text", LITERAL_CELLS, ids=[repr(v) for v, _ in LITERAL_CELLS])
def test_cell_rule_literal_bytes(tmp_path, value, text):
    assert format_value(value) == text
    path = write_csv(tmp_path / "cell.csv", ("x", "y"), [(value, 1), (value, 1)])
    assert Path(path).read_text() == f"x,y\n{text},1\n{text},1\n"


def _lines(header, rows) -> str:
    return "".join(",".join(format_value(x) for x in row) + "\n" for row in [header, *rows])


def _grid_rows(window, *arrays):
    return [
        (window.origin.u + i, window.origin.v + j, *(a[i, j].item() for a in arrays))
        for i in range(window.width)
        for j in range(window.height)
    ]


def _partition_table():
    window = Window(Site(-1, 2), 4, 3)
    field = generate_field(GAUSS, 5, window)
    table = p2p_table(field, Site(1, 3), window, 0.7, mode="from_anchor")
    logz = table.logz.copy()
    logz[3, 2] = -0.0
    assert np.isneginf(logz).any()
    table = type(table)(table.field, table.anchor, table.beta, table.mode, window, logz)
    return table, ("u", "v", "logF"), _grid_rows(window, logz)


def _weight_field():
    field = generate_field(GAUSS, 4, Window(Site(-2, 3), 3, 2))
    return field, ("u", "v", "omega"), _grid_rows(field.window, field.values)


def _explicit_field():
    window = Window(Site(0, 0), 2, 2)
    field = field_from_values([[-0.0, 1.5], [-math.inf, 2e-300]], window)
    return field, ("u", "v", "omega"), _grid_rows(window, field.values)


def _busemann_field():
    window = Window(Site(0, 1), 3, 4)
    field = generate_field(GAUSS, 6, Window(Site(0, 0), 1, 1))
    bf = busemann_from_p2l(field, 1.3, (0.2, -0.1), 12, window)
    return bf, ("u", "v", "b1", "b2"), _grid_rows(window, bf.b1, bf.b2)


def _shape_estimate():
    est = estimate_shape(GAUSS, 1.0, (0.25, 0.5), (3, 5), 3, 9)
    rows = [
        (t, n, float(est.lambda_hat[i, j]), float(est.se[i, j]))
        for i, t in enumerate(est.t_grid)
        for j, n in enumerate(est.n_list)
    ]
    return est, ("t", "n", "lambda_hat", "se"), rows


def _shape_estimate_edges():
    lam = np.array([[-0.0, math.inf], [math.nan, 1e-310]])
    est = ShapeEstimate(GAUSS, 1.0, 0, (0.1, 0.9), (2, 2**40), lam[None], lam, -lam)
    rows = [
        (t, n, float(lam[i, j]), float(-lam[i, j]))
        for i, t in enumerate(est.t_grid)
        for j, n in enumerate(est.n_list)
    ]
    return est, ("t", "n", "lambda_hat", "se"), rows


def _scan_profile():
    field = generate_field(GAUSS, 8, Window(Site(0, 0), 1, 1))
    prof = direction_scan(field, 1.0, (0.3, 0.5, 0.7), 10)
    b1 = prof.b1.tolist()
    rows = [(t, b1[i], abs(b1[i] - b1[max(i - 1, 0)])) for i, t in enumerate(prof.t_grid)]
    return prof, ("t", "b1", "jump"), rows


def _coalescence(stats):
    rows = [
        (int(stats.seeds[i]), 0, 1 if stats.met_level[i] >= 0 else 0, int(stats.met_level[i]))
        for i in range(stats.pairs)
    ]
    return stats, ("seed", "pair_id", "coalesced", "level"), rows


def _coalescence_run():
    seeds = [0, 3, 2**63, 2**63 + 7, 2**64 - 1]
    return _coalescence(coalescence_experiment(constant_rule(0.5), Site(0, 0), Site(0, 4), 3, seeds))


def _coalescence_censored():
    seeds = np.array([2**63 + 1, 5, 2**64 - 1], dtype=np.uint64)
    return _coalescence(CoalescenceStats(seeds, np.array([4, -1, 0]), 0))


def _directions():
    field = generate_field(GAUSS, 2, Window(Site(0, 0), 1, 1))
    stats = cif_direction_stats(field, 1.0, 6, 7, 11)
    rows = [(i, float(d)) for i, d in enumerate(stats.directions)]
    return stats, ("replica", "direction"), rows


def _cdf_comparison():
    t = np.array([0.2, 0.5, 0.8])
    cols = (t, np.array([0.0, 0.5, 1.0]), np.array([0.1, -0.0, math.nan]), t - 0.05, t + 0.05)
    cmp_ = CdfComparison(*cols, 0.1, 0.2, 0.0, 10)
    rows = [tuple(c[i].item() for c in cols) for i in range(t.size)]
    return cmp_, ("xi", "empirical_cdf", "busemann_cdf", "ci_lo", "ci_hi"), rows


LDP_HEADER = ("zeta1", "rate", "rate_se", "gap", "gap_se", "reference", "reference_se")


def _ldp_profile(prof):
    nan = [math.nan] * prof.rate.size
    cols = [
        prof.zeta1.tolist(),
        prof.rate.tolist(),
        prof.rate_se.tolist(),
        prof.gap.tolist(),
        prof.gap_se.tolist(),
        prof.reference.tolist() if prof.reference is not None else nan,
        prof.reference_se.tolist() if prof.reference_se is not None else nan,
    ]
    return prof, LDP_HEADER, list(zip(*cols))


def _ldp_unshaped():
    prof = ldp_rate_profile(GAUSS, 1.0, (0.1, -0.2), 6, 3, 13, shape=None)
    assert prof.reference is None and prof.reference_se is None
    return _ldp_profile(prof)


def _ldp_referenced():
    z = np.array([0.0, 0.5, 1.0])
    return _ldp_profile(LdpProfile(z, z + 1, z, -z, z, 0.0, np.array([math.nan, 0.1, -0.0]), z))


def _mass_decay():
    prof = MassDecayProfile((1, 3, 8), (0.5, 1e-300, 0.0))
    return prof, ("n", "max_hit"), list(zip(prof.levels, prof.max_hit))


def _polymer_path():
    path = path_from_steps(Site(-1, 2), [1, 0, 0, 1, 1])
    rows = [(k, int(path.sites[k, 0]), int(path.sites[k, 1])) for k in range(path.sites.shape[0])]
    return path, ("k", "u", "v"), rows


BUILDERS = [
    _partition_table,
    _weight_field,
    _explicit_field,
    _busemann_field,
    _shape_estimate,
    _shape_estimate_edges,
    _scan_profile,
    _coalescence_run,
    _coalescence_censored,
    _directions,
    _cdf_comparison,
    _ldp_unshaped,
    _ldp_referenced,
    _mass_decay,
    _polymer_path,
]


@pytest.mark.parametrize("build", BUILDERS, ids=[b.__name__.strip("_") for b in BUILDERS])
def test_to_csv_golden_bytes(tmp_path, build):
    obj, header, rows = build()
    path = tmp_path / "out" / "a.csv"
    obj.to_csv(path)
    assert path.read_text() == _lines(header, rows)


@pytest.mark.parametrize("build", BUILDERS, ids=[b.__name__.strip("_") for b in BUILDERS])
def test_to_csv_returns_the_written_path(tmp_path, build):
    obj, _, _ = build()
    path = tmp_path / "a.csv"
    assert obj.to_csv(path) == os.fspath(path)


def test_golden_rows_hold_the_edge_cells():
    # the builders above reach the cells the formats must keep
    table = _lines(*_partition_table()[1:])
    assert ",-0\n" in table and ",-inf\n" in table
    ldp = _lines(*_ldp_unshaped()[1:]).splitlines()
    assert all(line.endswith(",nan,nan") for line in ldp[1:])
    censored = _lines(*_coalescence_censored()[1:]).splitlines()
    assert censored[1:] == ["9223372036854775809,0,1,4", "5,0,0,-1", "18446744073709551615,0,1,0"]
    seeds = [line.split(",")[0] for line in _lines(*_coalescence_run()[1:]).splitlines()[1:]]
    assert seeds == ["0", "3", "9223372036854775808", "9223372036854775815", "18446744073709551615"]
