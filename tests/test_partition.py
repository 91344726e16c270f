import ast
import collections
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import polymerlab
from polymerlab import env, partition
from polymerlab.cif import cif_cdf_check, cif_direction_stats
from polymerlab.cocycle import direction_scan, estimate_shape
from polymerlab.coupling import band_transition_rule
from polymerlab.env import E1, FieldBatch, Site, WeightSpec, Window, field_from_values, generate_field, shift_view
from polymerlab.errors import OrderingError, ParameterError, SizeError
from polymerlab.fixtures import hand_grid_field
from polymerlab.gibbs import TransitionField, ldp_rate_profile, rooted_mass_decay
from polymerlab.partition import (
    _diagonals,
    _lae,
    _level,
    _levels,
    _sweep,
    _temperature,
    beta_limit_check,
    comparison_check,
    enumerate_oracle,
    p2l_rows,
    p2l_table,
    p2p_pair_values,
    p2p_table,
    p2p_values,
)

GAUSS = WeightSpec.gaussian(0, 1)


def grid_field(seed, side=12):
    return generate_field(GAUSS, seed, Window(Site(0, 0), side, side))


def test_zero_weights_count_paths():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 4, 4))
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 4, 4), 1.0, "from_anchor")
    assert t.logz_at(Site(2, 1)) == pytest.approx(math.log(3), abs=1e-12)


def test_hand_grid_values():
    f = hand_grid_field()
    win = Window(Site(0, 0), 2, 2)
    g = p2p_table(f, Site(0, 0), win, math.inf, "from_anchor")
    assert g.logz_at(Site(1, 1)) == 6.0
    t = p2p_table(f, Site(0, 0), win, 1.0, "from_anchor")
    expect = math.log(math.exp(6) + math.exp(3))
    assert t.logz_at(Site(1, 1)) == pytest.approx(expect, abs=1e-12)
    assert enumerate_oracle(f, Site(0, 0), 1.0, y=Site(1, 1)) == pytest.approx(expect)


def test_anchor_value_and_unordered_sites():
    f = grid_field(5)
    win = Window(Site(0, 0), 6, 6)
    t = p2p_table(f, Site(3, 3), win, 1.0, "to_anchor")
    assert t.logz_at(Site(3, 3)) == 0.0
    assert t.logz_at(Site(4, 1)) == -math.inf  # not ordered with the anchor
    assert t.free_energy_at(Site(0, 0)) == t.logz_at(Site(0, 0))


def test_the_temperature_rule():
    assert _temperature(2) == (2.0, 2.0, np.logaddexp)
    assert _temperature(math.inf) == (math.inf, 1.0, np.maximum)


_O = Site(0, 0)
# every public entry point that takes beta, called with valid other arguments
_BETA_ENTRIES = {
    "p2p_table": lambda f, b: p2p_table(f, _O, Window(_O, 4, 4), b),
    "p2p_values": lambda f, b: p2p_values(f, _O, b, [2], [3]),
    "p2l_rows": lambda f, b: p2l_rows(f, b, (0.1, 0.2), 4, _O, keep_rows=2),
    "comparison_check": lambda f, b: comparison_check(f, _O, Site(3, 1), Site(1, 3), b),
    "enumerate_oracle": lambda f, b: enumerate_oracle(f, _O, b, y=Site(2, 2)),
    "estimate_shape": lambda f, b: estimate_shape(GAUSS, b, (0.5,), (4,), 2, 1),
    "direction_scan": lambda f, b: direction_scan(f, b, (0.3, 0.7), 10),
    "band_transition_rule": lambda f, b: band_transition_rule(f, b, (-0.7, -0.7), 20, 3),
    "cif_direction_stats": lambda f, b: cif_direction_stats(f, b, 3, 5, 1),
    "ldp_rate_profile": lambda f, b: ldp_rate_profile(GAUSS, b, (-0.7, -0.7), 4, 2, 1),
}


@pytest.mark.parametrize(
    "entry,beta",
    [(e, b) for e in _BETA_ENTRIES for b in (0.0, -1.0, math.nan)] + [("cif_direction_stats", math.inf)],
)
def test_entry_points_refuse_unsupported_beta(entry, beta):
    """beta must be positive or inf (`partition._temperature`); the
    interface walker has no tie rule at beta = inf yet."""
    f = grid_field(3)
    _BETA_ENTRIES[entry](f, 1.0)  # the other arguments are valid
    with pytest.raises(ParameterError, match="beta"):
        _BETA_ENTRIES[entry](f, beta)


def assert_matches_oracle(got, want):
    """Same -inf pattern, and every finite entry within 1e-10 relative."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-10 * np.maximum(1.0, np.abs(want[fin])))


# (window origin, width, height, anchor): anchors on a corner and strictly
# inside, negative coordinates, square, wide (W > H), tall, 1 x H, W x 1, 1 x 1
P2P_CASES = [
    (Site(0, 0), 7, 7, Site(0, 0)),
    (Site(0, 0), 7, 7, Site(6, 6)),
    (Site(-2, 1), 8, 5, Site(1, 3)),
    (Site(1, -1), 4, 7, Site(3, 2)),
    (Site(0, 2), 1, 7, Site(0, 5)),
    (Site(3, 0), 7, 1, Site(6, 0)),
    (Site(2, 2), 1, 1, Site(2, 2)),
]


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
@pytest.mark.parametrize("mode", ["from_anchor", "to_anchor"])
def test_p2p_matches_enumeration(beta, mode):
    f = grid_field(17)
    for origin, W, H, anchor in P2P_CASES:
        table = p2p_table(f, anchor, Window(origin, W, H), beta, mode)
        want = np.empty((W, H))
        for du in range(W):
            for dv in range(H):
                site = origin + Site(du, dv)
                x, y = (anchor, site) if mode == "from_anchor" else (site, anchor)
                want[du, dv] = enumerate_oracle(f, x, beta, y=y)
        assert_matches_oracle(table.logz, want)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
def test_p2p_values_equal_the_table(beta):
    # the probe sweeps only the down-set of its targets, yet every value is
    # the from_anchor table entry on the enclosing square, bit for bit
    f = generate_field(GAUSS, 29, Window(Site(0, 0), 1, 1))
    anchor = Site(-3, 2)
    K = 40
    a = np.arange(K + 1)
    cases = [
        (a, K - a),  # a full level line
        (np.array([17]), np.array([9])),  # one interior target
        (np.array([K, 0, 5]), np.array([0, K, 0])),  # targets on both axes
        (np.array([0]), np.array([0])),  # the anchor itself
    ]
    table = p2p_table(f, anchor, Window(anchor, K + 1, K + 1), beta, "from_anchor")
    for du, dv in cases:
        assert np.array_equal(p2p_values(f, anchor, beta, du, dv), table.logz[du, dv])
    assert p2p_values(f, anchor, beta, [0], [0])[0] == 0.0
    for du, dv in (([3, -1], [2, 4]), ([2], [-1])):
        with pytest.raises(OrderingError):
            p2p_values(f, anchor, beta, du, dv)


# seeds of a replica batch: small, negative and >= 2^63
BATCH_SEEDS = (29, 2**63 + 11, -4, 2**64 - 1)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
def test_a_batch_sweeps_each_environment_as_its_own_field(beta):
    spec = WeightSpec.inverse_log_gamma(1.0)
    fields = [generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in BATCH_SEEDS]
    batch = FieldBatch(fields)
    anchor, base, h, n = Site(-3, 2), Site(2, -1), (-1.4, -0.6), 26
    a = np.arange(21)
    du, dv = np.stack([a, np.full(21, 4)]), np.stack([20 - a, np.arange(21)])
    got = p2p_values(batch, anchor, beta, du, dv)
    rows = p2l_rows(batch, beta, h, n, base, keep_rows=5)
    assert got.shape == (4, 2, 21) and rows.shape == (4, 5, n - base.level() + 1)
    for r, f in enumerate(fields):
        assert np.array_equal(got[r], p2p_values(f, anchor, beta, du, dv))
        assert np.array_equal(rows[r], p2l_rows(f, beta, h, n, base, keep_rows=5))
    # ragged horizons: each sweep equals the single sweep of its own horizon,
    # -inf above it, including horizons within the kept rows, at the base
    # level and below it
    horizons = np.array([[n, 1, 3, -2], [5, n - 1, 2, 1]])
    ragged = p2l_rows(batch, beta, h, n, base, 5, horizons)
    assert ragged.shape == (2, 4, 5, n - base.level() + 1)
    for (i, r), N in np.ndenumerate(horizons):
        want = np.full(ragged.shape[2:], -np.inf)
        if N >= base.level():
            part = p2l_rows(fields[r], beta, h, int(N), base, keep_rows=5)
            want[: part.shape[0], : part.shape[1]] = part
        assert np.array_equal(ragged[i, r], want)
    with pytest.raises(ParameterError):
        p2l_rows(batch, beta, h, n, base, 5, [n + 1])


def _two_probe_b1(field, beta, x, t, N):
    # b1 as log Z_{x,y} - log Z_{x+e1,y} from one p2p_values call per anchor
    aa = np.array([min(max(int(round(N * float(s))), 1), N - 1) for s in t])
    return p2p_values(field, x, beta, aa, N - aa) - p2p_values(field, x + E1, beta, aa - 1, N - aa)


def _two_probe_busemann_cdf(field, beta, t, N):
    w0 = float(field.values_at(np.asarray([0]), np.asarray([0]))[0])
    b1 = _two_probe_b1(field, beta, Site(0, 0), t, N) / beta
    return np.exp(beta * (w0 - b1))


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
def test_pair_probe_equals_two_probes(beta):
    # one pass from x and x + e1 gives the values of one probe per anchor,
    # bit for bit; targets on x's own axis (du = 0) are -inf from x + e1
    fields = [generate_field(GAUSS, s, Window(Site(0, 0), 1, 1)) for s in (31, 2**63 + 5)]
    f = fields[0]
    x, N = Site(-4, -7), 12
    a = np.array([0, 1, 1, 2, 5, 11, 12])
    b = np.array([0, 1, 3, 12, 17, 23, 24])
    du, dv = np.stack([a, b]), np.stack([N - a, 2 * N - b])  # the N and 2N sets
    pair = p2p_pair_values(f, x, beta, du, dv)
    assert pair.shape == (2,) + du.shape
    assert np.array_equal(pair[0], p2p_values(f, x, beta, du, dv))
    ordered = du >= 1
    assert np.array_equal(pair[1][ordered], p2p_values(f, x + E1, beta, du[ordered] - 1, dv[ordered]))
    assert np.all(pair[1][~ordered] == -np.inf)
    batch = p2p_pair_values(FieldBatch(fields), x, beta, du, dv)
    assert batch.shape == (2, 2) + du.shape
    for r, g in enumerate(fields):
        assert np.array_equal(batch[:, r], p2p_pair_values(g, x, beta, du, dv))
    # the scan and the cdf Busemann side against their two-probe formulas
    t = np.linspace(0.0, 1.0, 13)
    scale = 1.0 if math.isinf(beta) else 1.0 / beta
    want = _two_probe_b1(f, beta, x, t, N) * scale
    assert np.array_equal(direction_scan(f, beta, t, N, x).b1, want)
    if math.isinf(beta):
        return  # the interface has no zero-temperature version
    cmp_ = cif_cdf_check(f, beta, t[1:-1], 30, 8, 5, busemann_horizon=N)
    t_eval = np.clip(t[1:-1] + 1.0 / N, 0.0, 1.0)
    bus, bus2 = (_two_probe_busemann_cdf(f, beta, t_eval, n) for n in (N, 2 * N))
    assert np.array_equal(cmp_.busemann, bus)
    assert cmp_.horizon_drift == float(np.max(np.abs(bus - bus2)))


@pytest.mark.parametrize("block", [1, 2, 40, 100])
def test_p2l_rows_hash_blocks_of_rows_once(monkeypatch, block):
    # with a block of one site each level is its own hash call; blocks of
    # any size give the same rows bit for bit, and each site of the
    # triangle is hashed once
    spec = WeightSpec.inverse_log_gamma(1.5)
    batch = FieldBatch([generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in (3, 4)])
    base, n = Site(-3, 5), 40
    K = n - base.level()
    tilts = np.array([[[0.2, -0.1]], [[-0.5, 0.4]]])  # (2, 1, 2): tilts x replicas
    horizons = np.array([n, n - 7])
    for beta in (1.5, math.inf):
        want = p2l_rows(batch, beta, tilts, n, base, 6, horizons)
        calls, hashed = [], collections.Counter()
        site_uniforms = env.site_uniforms

        def counted(seed, stream, uu, vv):
            keys = np.broadcast_arrays(np.asarray(seed, dtype=np.uint64), np.asarray(uu), np.asarray(vv))
            calls.append(keys[0].size)
            hashed.update(zip(*(k.ravel().tolist() for k in keys)))
            return site_uniforms(seed, stream, uu, vv)

        with monkeypatch.context() as m:
            m.setattr(env, "_HASH_BLOCK_SITES", block)
            m.setattr(env, "site_uniforms", counted)
            got = p2l_rows(batch, beta, tilts, n, base, 6, horizons)
        assert np.array_equal(got, want)
        assert hashed == collections.Counter(
            (s, base.u + u, base.v + v) for s in batch.seeds.tolist() for u in range(K) for v in range(K - u)
        )
        if block == 1:
            assert len(calls) == K  # one row per call
        assert max(calls) <= max(block, len(batch.fields) * K)  # a longer row is its own block


def test_explicit_fields_stay_on_the_single_path():
    f = generate_field(GAUSS, 8, Window(Site(0, 0), 12, 12))
    g = field_from_values(f.values, f.window)
    a = np.arange(11)
    for probe in (
        lambda x: p2p_values(x, Site(0, 0), 1.0, a, 10 - a),
        lambda x: p2l_rows(x, 2.0, (0.3, -0.1), 11, Site(0, 0), 3),
    ):
        assert np.array_equal(probe(g), probe(f))
    for bad in ([g], [f, generate_field(WeightSpec.constant(0.0), 1, f.window)], []):
        with pytest.raises(ParameterError):
            FieldBatch(bad)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
def test_p2l_matches_enumeration(beta):
    rng = np.random.default_rng(3)
    for trial in range(6):
        K = int(rng.integers(0, 8))
        h = (float(rng.normal()), float(rng.normal()))
        base = Site(0, 0) if trial < 2 else Site(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        n = base.level() + K
        f = generate_field(GAUSS, 50 + trial, Window(Site(0, 0), 8, 8))
        table = p2l_table(f, beta, h, n, base=base)
        want = np.empty((K + 1, K + 1))
        for du in range(K + 1):
            for dv in range(K + 1):
                want[du, dv] = enumerate_oracle(f, base + Site(du, dv), beta, level=n, h=h)
        assert_matches_oracle(table.logz, want)


def test_p2l_conventions_and_flat_tilt():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 7, 7))
    t = p2l_table(f, 1.0, (0.0, 0.0), 6)
    for k in range(7):
        assert t.logz_at(Site(0, 6 - k)) == pytest.approx(k * math.log(2), abs=1e-12)
    assert t.logz_at(Site(6, 0)) == 0.0  # level n boundary


def test_a_horizon_below_the_base_is_refused():
    # one refusal, in the sweep, for the table and the kept rows alike
    f = generate_field(GAUSS, 8, Window(Site(2, 3), 4, 4))
    for n in (4, -1):
        with pytest.raises(ParameterError):
            p2l_table(f, 1.0, (0.1, 0.2), n)
        with pytest.raises(ParameterError):
            p2l_rows(f, 1.0, (0.1, 0.2), n, Site(2, 3), keep_rows=2)
    assert p2l_table(f, 1.0, (0.1, 0.2), 5).logz.shape == (1, 1)


def test_p2l_tilt_lipschitz():
    # per-level Lipschitz bound: |F^h - F^h'| <= (n - level) |h - h'|_1
    f = generate_field(GAUSS, 8, Window(Site(0, 0), 9, 9))
    rng = np.random.default_rng(2)
    n = 8
    for _ in range(6):
        h = (float(rng.normal()), float(rng.normal()))
        hp = (float(rng.normal()), float(rng.normal()))
        a = p2l_table(f, 1.0, h, n).free_energy_at(Site(0, 0))
        b = p2l_table(f, 1.0, hp, n).free_energy_at(Site(0, 0))
        lip = abs(h[0] - hp[0]) + abs(h[1] - hp[1])
        assert abs(a - b) <= n * lip + 1e-12


def test_p2l_tilt_shift_identity():
    # adding -t(e1+e2) to the tilt lowers every value by t * levels-to-go
    f = grid_field(23)
    h = (0.3, -0.2)
    t = 0.7
    n = 9
    a = p2l_table(f, 1.0, h, n)
    b = p2l_table(f, 1.0, (h[0] - t, h[1] - t), n)
    for site in (Site(0, 0), Site(2, 1), Site(4, 4)):
        want = a.free_energy_at(site) - t * (n - site.level())
        assert b.free_energy_at(site) == pytest.approx(want, abs=1e-9)


def test_recursion_residuals():
    f = grid_field(31)
    win = Window(Site(0, 0), 12, 12)
    for beta in (0.5, 1.0, math.inf):
        assert p2p_table(f, Site(0, 0), win, beta, "from_anchor").recursion_residual() < 1e-9
        assert p2p_table(f, Site(11, 11), win, beta, "to_anchor").recursion_residual() < 1e-9
        assert p2l_table(f, beta, (0.1, 0.2), 14).recursion_residual() < 1e-9


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_superadditivity(beta):
    f = grid_field(41)
    win = Window(Site(0, 0), 12, 12)
    t = p2p_table(f, Site(0, 0), win, beta, "from_anchor")
    rng = np.random.default_rng(6)
    scale = 1.0 if math.isinf(beta) else 1.0 / beta
    for _ in range(20):
        y = Site(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        z = Site(y.u + int(rng.integers(1, 6)), y.v + int(rng.integers(1, 6)))
        mid_win = Window(y, z.u - y.u + 1, z.v - y.v + 1)
        f_xy = t.logz_at(y) * scale
        f_yz = p2p_table(f, y, mid_win, beta, "from_anchor").logz_at(z) * scale
        f_xz = t.logz_at(z) * scale
        assert f_xy + f_yz <= f_xz + 1e-10


def test_oracle_trivial_cases_and_guards():
    f = grid_field(2)
    assert enumerate_oracle(f, Site(1, 1), 1.0, y=Site(1, 1)) == 0.0
    assert enumerate_oracle(f, Site(1, 1), 1.0, y=Site(2, 1)) == pytest.approx(
        f.value(Site(1, 1)), abs=1e-12
    )
    assert enumerate_oracle(f, Site(2, 2), 1.0, y=Site(1, 2)) == -math.inf
    with pytest.raises(SizeError):
        enumerate_oracle(f, Site(0, 0), 1.0, y=Site(20, 10))
    with pytest.raises(ParameterError):
        enumerate_oracle(f, Site(0, 0), 0.0, y=Site(1, 1))
    with pytest.raises(ParameterError):
        p2p_table(f, Site(0, 0), f.window, -1.0, "from_anchor")


def test_oracle_through_restriction():
    # Z restricted to paths through v equals Z_{x,v} e^{beta w_v} Z_{v,y}
    f = grid_field(13)
    x, v, y = Site(0, 0), Site(2, 1), Site(4, 3)
    beta = 1.3
    got = enumerate_oracle(f, x, beta, y=y, through=v)
    za = enumerate_oracle(f, x, beta, y=v)
    zb = enumerate_oracle(f, v, beta, y=y)
    assert got == pytest.approx(za + zb, abs=1e-10)


def test_beta_limit_sandwich():
    f = hand_grid_field()
    rep = beta_limit_check(f, Site(0, 0), Site(1, 1), [10.0])
    assert rep.sandwich_ok
    assert rep.gaps[0] <= math.log(2) / 10.0 + 1e-12
    f0 = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 6, 6))
    rep0 = beta_limit_check(f0, Site(0, 0), Site(3, 2), [1.0, 2.0, 4.0])
    n_paths = math.comb(5, 3)
    for beta, gap in zip(rep0.betas, rep0.gaps):
        assert gap == pytest.approx(math.log(n_paths) / beta, abs=1e-12)
    fg = grid_field(77)
    repg = beta_limit_check(fg, Site(0, 0), Site(6, 5), [1.0, 2.0, 4.0, 8.0, 16.0])
    assert repg.sandwich_ok and repg.monotone_ok


def test_comparison_degenerate_and_binomial():
    f = grid_field(3)
    rep = comparison_check(f, Site(0, 0), Site(4, 4), Site(4, 4), 1.0)
    assert rep.margin_e1 == 0.0 and rep.margin_e2 == 0.0
    # constant weights: margins are explicit binomial ratios
    f0 = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 8, 8))
    u, v = Site(5, 2), Site(3, 4)
    rep0 = comparison_check(f0, Site(0, 0), u, v, 1.0)

    def log_ratio(t: Site, step_u: int) -> float:
        total = math.comb(t.u + t.v, t.u)
        if step_u:
            part = math.comb(t.u - 1 + t.v, t.u - 1)
        else:
            part = math.comb(t.u + t.v - 1, t.u)
        return math.log(part) - math.log(total)

    want_e1 = log_ratio(u, 1) - log_ratio(v, 1)
    want_e2 = log_ratio(v, 0) - log_ratio(u, 0)
    assert rep0.margin_e1 == pytest.approx(want_e1, abs=1e-10)
    assert rep0.margin_e2 == pytest.approx(want_e2, abs=1e-10)
    assert rep0.ok


def test_comparison_random_triples_no_violations():
    f = generate_field(GAUSS, 55, Window(Site(0, 0), 30, 30))
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = Site(int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        u = Site(int(rng.integers(x.u + 1, 28)), int(rng.integers(x.v + 1, 28)))
        v = Site(int(rng.integers(x.u + 1, u.u + 1)), int(rng.integers(u.v, 28)))
        assert comparison_check(f, x, u, v, 1.0).ok
    with pytest.raises(OrderingError):
        comparison_check(f, Site(0, 0), Site(2, 5), Site(5, 2), 1.0)


def test_table_csv(tmp_path):
    f = grid_field(4, side=3)
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 3, 3), 1.0, "from_anchor")
    path = t.to_csv(tmp_path / "t.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "u,v,logF"
    assert len(lines) == 10


def _antidiagonal_residual(t):
    # TiltedLineTable.recursion_residual as one loop per antidiagonal, the
    # form the masked expression replaced
    K = t.depth
    if K == 0:
        return 0.0
    uu, vv = np.meshgrid(np.arange(K + 1), np.arange(K + 1), indexing="ij")
    w = t.field.values_at(t.base.u + uu, t.base.v + vv)
    wb = w if t.zero_temp else t.beta * w
    bh1 = t.h[0] if t.zero_temp else t.beta * t.h[0]
    bh2 = t.h[1] if t.zero_temp else t.beta * t.h[1]
    comb = np.maximum if t.zero_temp else np.logaddexp
    res = 0.0
    L = t.logz
    for k in range(K - 1, -1, -1):
        dus = np.arange(k + 1)
        dvs = k - dus
        pred = wb[dus, dvs] + comb(L[dus + 1, dvs] + bh1, L[dus, dvs + 1] + bh2)
        res = max(res, float(np.max(np.abs(pred - L[dus, dvs]))))
    return res


def test_p2l_recursion_residual_equals_the_antidiagonal_loop():
    f = generate_field(WeightSpec.gaussian(0.3, 2.0), 17, Window(Site(-2, 1), 1, 1))
    cases = [((0.1, 0.2), 14, None), ((-0.7, 0.4), 40, Site(3, -1)), ((0.0, 0.0), 0, None)]
    for beta in (0.5, 1.0, 3.0, math.inf):
        for h, n, base in cases:
            for n in (n, n + 1):  # n = 0 gives depths 1 and 2
                t = p2l_table(f, beta, h, n, base)
                assert t.recursion_residual() == _antidiagonal_residual(t)


def _array_residual(t):
    # PartitionTable.recursion_residual over the whole window at once, the
    # form the streamed blocks replaced
    w = t.field.subfield(t.window).values
    L = t.logz
    wb = w if t.zero_temp else t.beta * w
    comb = np.maximum if t.zero_temp else np.logaddexp
    pad = np.full_like(L, -np.inf)
    if t.mode == "to_anchor":
        right = np.concatenate([L[1:, :], pad[:1, :]], axis=0)
        up = np.concatenate([L[:, 1:], pad[:, :1]], axis=1)
        pred = wb + comb(right, up)
    else:
        left = np.concatenate([pad[:1, :], L[:-1, :] + wb[:-1, :]], axis=0)
        down = np.concatenate([pad[:, :1], L[:, :-1] + wb[:, :-1]], axis=1)
        pred = comb(left, down)
    ok = np.isfinite(L) & np.isfinite(pred)
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(L[ok] - pred[ok])))


@pytest.mark.parametrize("block", [1, 40, 8192])
def test_p2p_recursion_residual_equals_the_whole_window_expression(monkeypatch, block):
    # blocks of one row, of a few rows and the whole window; the tables are
    # also perturbed, so that the residuals compared are far from zero
    monkeypatch.setattr(env, "_HASH_BLOCK_SITES", block)
    f = generate_field(WeightSpec.inverse_log_gamma(1.3), 2**63 + 11, Window(Site(0, 0), 1, 1))
    explicit = field_from_values(np.random.default_rng(2).normal(size=(30, 40)), Window(Site(2, -5), 30, 40))
    cases = [
        (f, Window(Site(-3, 2), 37, 23), Site(10, 9)),
        (shift_view(f, Site(3, -2)), Window(Site(0, 0), 50, 3), Site(20, 1)),
        (f, Window(Site(0, 0), 3, 60), Site(1, 30)),
        (explicit, Window(Site(4, -3), 20, 31), Site(12, 10)),
        (f, Window(Site(5, 5), 1, 1), Site(5, 5)),
    ]
    noise = np.random.default_rng(5)
    for field, window, anchor in cases:
        for beta in (0.7, 2.5, math.inf):
            for mode in ("to_anchor", "from_anchor"):
                for at in (anchor, window.origin, window.corner):
                    t = p2p_table(field, at, window, beta, mode)
                    assert t.recursion_residual() == _array_residual(t)
                    t.logz[...] += noise.normal(scale=1e-3, size=t.logz.shape)
                    assert t.recursion_residual() == _array_residual(t)


@pytest.mark.parametrize("mode", ["to_anchor", "from_anchor"])
@pytest.mark.parametrize("beta", [1.5, math.inf])
def test_p2p_recursion_residual_streams_its_weights(mode, beta):
    # the weights stream in blocks of whole rows, each reduced before the
    # next: no hashed window, padded copies or prediction table
    f = generate_field(GAUSS, 2**63 + 3, Window(Site(0, 0), 1, 1))
    for window in (Window(Site(-7, 5), 3, 3), Window(Site(-7, 5), 600, 400)):  # the first warms up
        anchor = window.corner if mode == "to_anchor" else window.origin
        table = p2p_table(f, anchor, window, beta, mode)
        table.recursion_residual()
    tracemalloc.start()
    try:
        residual = table.recursion_residual()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 <= residual < 1e-9
    assert peak <= 2 * table.logz.nbytes


@pytest.mark.parametrize("mode", ["to_anchor", "from_anchor"])
@pytest.mark.parametrize("size", [(600, 400), (400, 600)])
def test_p2p_table_holds_only_its_table(mode, size):
    # the weights stream in blocks of whole levels into the table's view: no
    # hashed window, scaled copy or second table on top of logz
    f = generate_field(GAUSS, 2**63 + 3, Window(Site(0, 0), 1, 1))
    for window in (Window(Site(-7, 5), 3, 3), Window(Site(-7, 5), *size)):  # the first warms up
        anchor = window.corner if mode == "to_anchor" else window.origin
        p2p_table(f, anchor, window, 1.5, mode)
    tracemalloc.start()
    try:
        table = p2p_table(f, anchor, window, 1.5, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(table.logz).all()
    assert peak <= 1.5 * table.logz.nbytes


def test_lae_literal_cases():
    inf, nan = math.inf, math.nan
    a = np.array([-inf, -inf, 3.5, -2.0, nan, 1.0, nan, inf, inf, 0.0, 900.0, -1e3])
    b = np.array([-inf, 3.5, -inf, -2.0, 1.0, nan, nan, inf, -inf, 801.0, 0.0, 1e3])
    want = [-inf, 3.5, 3.5, -2.0 + math.log(2), nan, nan, nan, inf, inf, 801.0, 900.0, 1e3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # same-sign infinities warn nowhere
        got = _lae(a, b)
        out = np.empty(len(a))
        assert _lae(a, b, out=out) is out
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(out, want, equal_nan=True)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(np.logaddexp(a, b), want, equal_nan=True)


def test_lae_is_logaddexp_within_four_ulp():
    # a million pairs whose magnitudes and gaps span 1e-3 .. 1e5
    rng = np.random.default_rng(2024)
    n = 10**6
    a = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 5, n)
    b = a + rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 5, n)
    b[::7] = rng.choice([-1.0, 1.0], len(b[::7])) * 10 ** rng.uniform(-3, 5, len(b[::7]))
    ulp = np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0))
    assert np.all(np.abs(_lae(a, b) - np.logaddexp(a, b)) <= 4 * ulp)


@pytest.mark.parametrize("lo,hi", [(True, True), (True, False), (False, True), (False, False)])
def test_the_zero_temperature_level_is_the_max(lo, hi):
    rng = np.random.default_rng(5)
    prev = rng.normal(size=(3, 9))
    s1, s2 = rng.normal(size=(3, 8 + hi)), rng.normal(size=(3, 8 + lo))
    a, b = prev[:, : 8 + hi] + s1, prev[:, 1 - lo :] + s2
    want = np.concatenate([b[:, :lo], np.maximum(a[:, :8], b[:, lo:]), a[:, 8:]], axis=1)
    assert np.array_equal(_level(prev, s1, s2, np.maximum, lo, hi), want)
    w = rng.normal(size=9)  # one term per site, carried by both edges
    t = prev + w
    want = np.concatenate([t[:, :lo], np.maximum(t[:, :-1], t[:, 1:]), t[:, 9 - hi :]], axis=1)
    assert np.array_equal(_level(prev, w, None, np.maximum, lo, hi), want)


@pytest.mark.parametrize("comb", [np.maximum, np.logaddexp])
@pytest.mark.parametrize("W,H", [(7, 4), (4, 7), (6, 6), (1, 5), (5, 1)])
def test_levels_are_the_table_level_by_level(comb, W, H):
    rng = np.random.default_rng(10 * W + H)
    s1 = rng.normal(size=(2, 3, W - 1, H))
    s2 = rng.normal(size=(3, W, H - 1))  # leading axes broadcast
    L = _sweep(s1, s2, comb)
    assert L.shape == (2, 3, W, H)
    levels = [level for _, _, level in _levels(W, H, _diagonals(s1, s2), comb, np.zeros((2, 3, 1)))]
    assert len(levels) == W + H - 1
    for k, level in enumerate(levels):
        i = np.arange(max(0, k - H + 1), min(k, W - 1) + 1)
        assert np.array_equal(level, L[..., i, k - i])
    # a sweep to level `last` yields the same levels and stops there
    for last in (0, 1, W + H - 3, W + H - 2):
        cut = [level for _, _, level in _levels(W, H, _diagonals(s1, s2), comb, np.zeros((2, 3, 1)), last)]
        assert len(cut) == last + 1
        assert all(np.array_equal(a, b) for a, b in zip(cut, levels))
    if comb is np.maximum:  # the recursion cell by cell
        want = np.full((2, 3, W, H), -np.inf)
        want[..., 0, 0] = 0.0
        for i in range(W):
            for j in range(H):
                if i:
                    want[..., i, j] = want[..., i - 1, j] + s1[..., i - 1, j]
                if j:
                    want[..., i, j] = np.maximum(want[..., i, j], want[..., i, j - 1] + s2[..., i, j - 1])
        assert np.array_equal(L, want)


@pytest.mark.parametrize("beta", [1.5, math.inf])
def test_the_corner_loop_steps_each_level_it_reads_once(monkeypatch, beta):
    # hand counts: a table steps the W + H - 2 levels of its corner of the
    # window in either mode, a probe the level of its farthest target, the
    # array sweep W + H - 2 and the mass decay its largest distance
    steps = []
    level = partition._level
    monkeypatch.setattr(partition, "_level", lambda *args: steps.append(1) or level(*args))

    def count(fn):
        steps.clear()
        fn()
        return len(steps)

    f = grid_field(3)
    win = Window(Site(0, 0), 9, 7)
    assert count(lambda: p2p_table(f, Site(5, 4), win, beta, "to_anchor")) == 6 + 5 - 2
    assert count(lambda: p2p_table(f, Site(2, 1), win, beta, "from_anchor")) == 7 + 6 - 2
    assert count(lambda: p2p_table(f, Site(0, 0), win, beta, "to_anchor")) == 0
    assert count(lambda: p2p_values(f, Site(1, 1), beta, [3, 0, 5], [2, 7, 0])) == 7
    assert count(lambda: p2p_values(f, Site(1, 1), beta, [0, 1], [0, 0])) == 1
    assert count(lambda: p2p_values(f, Site(1, 1), beta, [], [])) == 0
    assert count(lambda: p2p_pair_values(f, Site(1, 1), beta, [4, 1], [6, 2])) == 10
    rng = np.random.default_rng(4)
    assert count(lambda: _sweep(rng.normal(size=(6, 4)), rng.normal(size=(7, 3)), np.maximum)) == 7 + 4 - 2
    trans = TransitionField(Window(Site(0, 0), 65, 65), np.full((65, 65), 0.5), "busemann", 1, 1.0)
    assert count(lambda: rooted_mass_decay(trans, Site(64, 64), [8, 16, 32, 64])) == 64


def test_every_level_step_is_the_corner_loop_or_a_named_exception():
    # every call of `partition._level` under src/, by module and enclosing
    # function: a new level loop fails here until it is listed, with its
    # reason in the README's numerical conventions
    allowed = {
        ("partition.py", "_levels"),  # the corner loop
        ("partition.py", "_p2l_sweep"),  # starts from its boundary line
        ("coupling.py", "sweep"),  # the band rule: starts from a line, steps a band
        ("gibbs.py", "ldp_rate_profile"),  # the pass up steps stored terms
        ("cif.py", "cif_direction_stats"),  # reads each level's weights with its walkers
    }
    found = set()

    def walk(path, node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                if callee == "_level":
                    found.add((path.name, fn))
            walk(path, child, child.name if isinstance(child, ast.FunctionDef) else fn)

    for path in sorted(Path(polymerlab.__file__).parent.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), None)
    assert found == allowed


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17, reason="needs an extended long double")
@pytest.mark.parametrize(
    "spec,beta",
    [
        (GAUSS, 1.0),
        (WeightSpec.gaussian(5, 1), 4.0),
        (WeightSpec.gaussian(5, 1), 16.0),
        (WeightSpec.inverse_log_gamma(1.0), 1.0),
    ],
)
def test_level_line_precision_against_long_double(spec, beta):
    # the precision budget of the level step: the probe of a whole level
    # line at level 600, and the tilted point-to-line value from level 600,
    # against the same sweeps in 80-bit arithmetic
    n, h = 600, (0.2, -0.3)
    f = generate_field(spec, 91, Window(Site(0, 0), 1, 1))
    a = np.arange(n + 1)
    got = p2p_values(f, Site(0, 0), beta, a, n - a)
    row = np.zeros(1, dtype=np.longdouble)
    for k in range(n):
        i = np.arange(k + 1)
        t = row + np.longdouble(beta) * f.values_at(i, k - i).astype(np.longdouble)
        row = np.concatenate([t[:1], np.logaddexp(t[:-1], t[1:]), t[-1:]])
    want = row.astype(np.float64)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    bh1, bh2 = (np.longdouble(beta) * np.longdouble(x) for x in h)
    level = np.zeros(n + 1, dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        i = np.arange(k + 1)
        w = np.longdouble(beta) * f.values_at(i, k - i).astype(np.longdouble)
        level = w + np.logaddexp(level[1:] + bh1, level[:-1] + bh2)
    want = float(level[0])
    got = p2l_rows(f, beta, h, n, Site(0, 0), keep_rows=1)[0, 0]
    assert abs(got - want) / abs(want) <= 1e-14
