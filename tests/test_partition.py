import math

import numpy as np
import pytest

from polymerlab.env import Site, WeightSpec, Window, generate_field
from polymerlab.errors import OrderingError, ParameterError, SizeError
from polymerlab.fixtures import hand_grid_field
from polymerlab.partition import (
    beta_limit_check,
    comparison_check,
    enumerate_oracle,
    p2l_table,
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
