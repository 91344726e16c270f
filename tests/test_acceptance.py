"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one `[acceptance]` pass/fail line (visible with -s / -rA)
and then asserts.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from polymerlab.cif import cif_cdf_check, cif_direction_stats
from polymerlab.cli import parse_config, run as cli_run
from polymerlab.cocycle import (
    boundary_profile,
    busemann_from_p2l,
    cesaro_busemann,
    check_monotonicity,
    cocycle_shape_check,
    dual_tilt,
    estimate_shape,
)
from polymerlab.coupling import (
    band_transition_rule,
    coalescence_experiment,
    constant_rule,
)
from polymerlab.env import Site, WeightSpec, Window, generate_field
from polymerlab.gibbs import (
    busemann_transitions,
    dlr_consistency_check,
    ldp_rate_profile,
    level_mass_profile,
    rooted_mass_decay,
)
from polymerlab.coupling import ordering_check
from polymerlab.partition import comparison_check, enumerate_oracle, p2l_table, p2p_table

GAUSS = WeightSpec.gaussian(0, 1)
BETAS = (0.5, 1.0, 4.0, math.inf)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] C{num:02d} {name}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def recovery_fields():
    """One 200x200 Busemann field per beta, point-to-line provenance."""
    f = generate_field(GAUSS, 2024, Window(Site(0, 0), 1, 1))
    win = Window(Site(0, 0), 200, 200)
    return f, {beta: busemann_from_p2l(f, beta, (0.2, -0.3), 420, win) for beta in BETAS}


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        beta = float(rng.choice([0.5, 1.0, 2.0, np.inf]))
        f = generate_field(GAUSS, 3000 + trial, Window(Site(0, 0), 1, 1))
        if trial % 2 == 0:
            du = int(rng.integers(1, 14))
            dv = int(rng.integers(1, 21 - du))
            y = Site(du, dv)
            win = Window(Site(0, 0), du + 1, dv + 1)
            mode = "from_anchor" if trial % 4 == 0 else "to_anchor"
            anchor = Site(0, 0) if mode == "from_anchor" else y
            got = p2p_table(f, anchor, win, beta, mode).logz_at(
                y if mode == "from_anchor" else Site(0, 0)
            )
            want = enumerate_oracle(f, Site(0, 0), beta, y=y)
        else:
            n = int(rng.integers(1, 13))
            h = (float(rng.normal()), float(rng.normal()))
            got = p2l_table(f, beta, h, n).logz_at(Site(0, 0))
            want = enumerate_oracle(f, Site(0, 0), beta, level=n, h=h)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-10
    _report(1, "oracle equivalence (50 instances <= 20 steps)", ok, f"max rel err {worst:.2e}")
    assert ok


def test_c02_recovery_identity(recovery_fields):
    _, fields = recovery_fields
    worst = max(bf.recovery_residual() for bf in fields.values())
    ok = worst <= 1e-9
    _report(2, "recovery identity, 200x200, beta=0.5/1/4/inf", ok, f"max residual {worst:.2e}")
    assert ok


def test_c03_cocycle_closure(recovery_fields):
    _, fields = recovery_fields
    worst = max(bf.closure_residual() for bf in fields.values())
    ok1 = worst <= 1e-9
    bf = fields[1.0]
    B = bf.integrated()
    rng = np.random.default_rng(55)
    worst_path = 0.0
    for _ in range(100):
        tu = int(rng.integers(1, 200))
        tv = int(rng.integers(1, 200))
        sums = []
        for _ in range(2):
            steps = np.concatenate(
                [np.ones(tu, dtype=np.int64), np.zeros(tv, dtype=np.int64)]
            )
            rng.shuffle(steps)
            sites = [Site(0, 0)]
            for s in steps:
                sites.append(sites[-1] + (Site(1, 0) if s else Site(0, 1)))
            sums.append(bf.staircase_sum(sites))
        worst_path = max(worst_path, abs(sums[0] - sums[1]), abs(sums[0] - B[tu, tv]))
    ok2 = worst_path <= 1e-8
    _report(
        3,
        "plaquette closure + staircase independence",
        ok1 and ok2,
        f"closure {worst:.2e}, path {worst_path:.2e}",
    )
    assert ok1 and ok2


def test_c04_monotonicity_and_comparison():
    f = generate_field(GAUSS, 88, Window(Site(0, 0), 30, 30))
    win = Window(Site(0, 0), 30, 30)
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        h = (float(rng.normal(0, 0.5)), float(rng.normal(0, 0.5)))
        hp = (h[0] + float(rng.uniform(0, 1)), h[1] - float(rng.uniform(0, 1)))
        fa = busemann_from_p2l(f, 1.0, h, 80, win)
        fb = busemann_from_p2l(f, 1.0, hp, 80, win)
        violations += check_monotonicity(fa, fb).violations
    comp_bad = 0
    for _ in range(500):
        x = Site(int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        u = Site(int(rng.integers(x.u + 1, 28)), int(rng.integers(x.v + 1, 28)))
        v = Site(int(rng.integers(x.u + 1, u.u + 1)), int(rng.integers(u.v, 28)))
        comp_bad += not comparison_check(f, x, u, v, 1.0).ok
    ok = violations == 0 and comp_bad == 0
    _report(
        4,
        "tilt monotonicity (100 pairs) + comparison (500 triples)",
        ok,
        f"violations {violations}, {comp_bad}",
    )
    assert ok


def test_c05_dlr_consistency():
    worst = 0.0
    for seed in range(20):
        f = generate_field(GAUSS, 7000 + seed, Window(Site(0, 0), 12, 12))
        bf = busemann_from_p2l(f, 1.0, (0.1, 0.3), 40, Window(Site(0, 0), 11, 11))
        worst = max(worst, dlr_consistency_check(bf, f, Site(0, 0), 10).max_discrepancy)
    ok = worst <= 1e-10
    _report(5, "DLR factorization on 20 ten-level windows", ok, f"max discrepancy {worst:.2e}")
    assert ok


def test_c06_level_mass_normalization():
    f = generate_field(GAUSS, 31, Window(Site(0, 0), 52, 52))
    bf = busemann_from_p2l(f, 1.0, (0.0, 0.0), 160, Window(Site(0, 0), 52, 52))
    masses = level_mass_profile(bf, f, Site(0, 0), range(1, 51))
    worst = max(d for _, d in masses)
    ok = worst <= 1e-8
    _report(6, "level-mass normalization, levels 1..50", ok, f"max defect {worst:.2e}")
    assert ok


def test_c07_shape_entropy_reference():
    est = estimate_shape(WeightSpec.constant(0.0), 1.0, (0.25, 0.5, 0.75), [2000], 1, 1)
    devs = []
    for t in (0.25, 0.5, 0.75):
        lam, _ = est.at(t)
        ent = -t * math.log(t) - (1 - t) * math.log(1 - t)
        devs.append(abs(lam - ent))
    ok = max(devs) <= 0.01
    _report(7, "shape entropy reference at n=2000", ok, f"max |dev| {max(devs):.4f}")
    assert ok


def test_c08_shape_symmetry_and_concavity():
    grid = tuple(np.round(np.linspace(0.25, 0.75, 11), 3))
    est = estimate_shape(GAUSS, 1.0, grid, [250, 500, 1000], 50, 10)
    sym_ok = True
    sym_detail = []
    for t in grid:
        t2 = round(1.0 - t, 3)
        if t2 <= t or t2 not in grid:
            continue
        d, se = est.paired_difference(t, t2)
        sym_detail.append(abs(d) / se if se else 0.0)
        sym_ok &= abs(d) <= 2 * se
    lam = est.lambda_hat[:, -1]
    se = est.se[:, -1]
    conc_ok = True
    for i in range(1, len(grid) - 1):
        second = lam[i - 1] - 2 * lam[i] + lam[i + 1]
        comb = math.sqrt(se[i - 1] ** 2 + 4 * se[i] ** 2 + se[i + 1] ** 2)
        conc_ok &= second <= 2 * comb
    ok = sym_ok and conc_ok
    _report(
        8,
        "shape symmetry + concavity, n=1000, 50 replicas",
        ok,
        f"max sym dev {max(sym_detail):.2f} se",
    )
    assert ok


def test_c09_martin_boundary_trend():
    s = 0.0025
    n = int(100 / s)  # n scaled as 1/s
    out = boundary_profile(GAUSS, 1.0, [s], [n], 4, 5)
    _, ratio, se = out[0]
    ok = 0.8 <= ratio <= 1.2
    _report(9, "martin boundary ratio at s=0.0025", ok, f"ratio {ratio:.4f} (se {se:.4f})")
    assert ok


def test_c10_cesaro_mean_identity():
    grid = (0.40, 0.45, 0.5, 0.55, 0.60)
    est = estimate_shape(GAUSS, 1.0, grid, [800], 12, 501)
    dt = dual_tilt(est, 0.5, fpl_replicas=8, fpl_n=800)
    f = generate_field(GAUSS, 42, Window(Site(0, 0), 6, 6))
    _, rep = cesaro_busemann(f, 1.0, dt.h, 400, 200, seed=77)
    d1 = abs(rep.mean_b1 - rep.target[0])
    d2 = abs(rep.mean_b2 - rep.target[1])
    ok = d1 <= 3 * rep.se_b1 and d2 <= 3 * rep.se_b2
    _report(
        10,
        "cesaro mean identity, n=400, 200 replicas",
        ok,
        f"dev/se = {d1 / rep.se_b1:.2f}, {d2 / rep.se_b2:.2f}; |fpl| {abs(rep.fpl_mean):.4f}",
    )
    assert ok


def test_c11_cocycle_shape_check():
    h = (-1.07, -1.07)  # approximately dual to the diagonal
    m_hat = (-h[0], -h[1])
    n_list = (50, 100, 200)
    decreasing = 0
    true_prof = np.zeros(3)
    wrong_prof = np.zeros(3)
    for k in range(20):
        f = generate_field(GAUSS, 4000 + k, Window(Site(0, 0), 1, 1))
        bf = busemann_from_p2l(f, 1.0, h, 500, Window(Site(0, 0), 201, 201))
        pt = cocycle_shape_check(bf, m_hat, n_list)
        pw = cocycle_shape_check(bf, (m_hat[0] + 0.1, m_hat[1]), n_list)
        decreasing += pt.decreasing
        true_prof += np.asarray(pt.deviations) / 20
        wrong_prof += np.asarray(pw.deviations) / 20
    control_ok = bool(np.all(wrong_prof > true_prof)) and wrong_prof[-1] >= 0.05
    ok = decreasing >= 18 and control_ok
    _report(
        11,
        "cocycle shape check, n in {50,100,200}",
        ok,
        f"decreasing {decreasing}/20; control profile {np.round(wrong_prof, 3)} > {np.round(true_prof, 3)}",
    )
    assert ok


def test_c12_coalescence():
    half = coalescence_experiment(
        constant_rule(0.5), Site(0, 0), Site(0, 2), 10**4, range(1000)
    )
    ok_half = half.fraction >= 0.99 and half.post_merge_violations == 0
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 1, 1))
    rule = band_transition_rule(f, 1.0, (-0.7, -0.7), 10**4 + 6, 1200)
    bus = coalescence_experiment(rule, Site(0, 0), Site(0, 2), 10**4, range(200))
    ok_bus = bus.fraction >= 0.95 and bus.post_merge_violations == 0
    ok = ok_half and ok_bus
    _report(
        12,
        "coalescence within 1e4 steps",
        ok,
        f"p=1/2: {half.fraction:.3f} ({half.censored} censored); "
        f"busemann: {bus.fraction:.3f} ({bus.censored} censored)",
    )
    assert ok


def test_c13_path_ordering():
    side = 501
    f = generate_field(GAUSS, 9, Window(Site(0, 0), 1, 1))
    win = Window(Site(0, 0), side, side)
    lo = busemann_from_p2l(f, 1.0, (0.0, 0.0), 1100, win)
    hi = busemann_from_p2l(f, 1.0, (0.5, -0.5), 1100, win)
    t_lo = busemann_transitions(lo, f)
    t_hi = busemann_transitions(hi, f)
    v = ordering_check(
        t_lo.as_step_rule(),
        t_hi.as_step_rule(),
        Site(0, 0),
        500,
        range(100),
        p_low=t_lo.p1,
        p_high=t_hi.p1,
    )
    ok = v == 0
    _report(13, "path ordering, 100 seeds x 500 steps", ok, f"violations {v}")
    assert ok


def test_c14_rooted_mass_decay():
    from polymerlab.gibbs import TransitionField

    levels = (8, 16, 32, 64)
    win = Window(Site(0, 0), 65, 65)
    half = TransitionField(win, np.full((65, 65), 0.5), "busemann", 1, 1.0)
    prof = rooted_mass_decay(half, Site(64, 64), levels)
    binom_dev = max(
        abs(mh - math.comb(n, n // 2) / 2.0**n) for n, mh in zip(levels, prof.max_hit)
    )
    ok_half = prof.strictly_decreasing and binom_dev <= 1e-12
    ok_gauss = True
    for seed in range(10):
        fg = generate_field(GAUSS, 600 + seed, Window(Site(0, 0), 1, 1))
        bf = busemann_from_p2l(fg, 1.0, (-1.0, -1.0), 200, win)
        trans = busemann_transitions(bf, fg)
        ok_gauss &= rooted_mass_decay(trans, Site(64, 64), levels).strictly_decreasing
    ok = ok_half and ok_gauss
    _report(
        14,
        "rooted-mass decay, n in {8,16,32,64}",
        ok,
        f"binomial dev {binom_dev:.1e}; gaussian decreasing on 10 seeds: {ok_gauss}",
    )
    assert ok


def test_c15_ldp_rate():
    grid = (0.40, 0.45, 0.5, 0.55, 0.60)
    est = estimate_shape(GAUSS, 1.0, grid, [2000], 12, 1)
    dt = dual_tilt(est, 0.5)
    prof = ldp_rate_profile(GAUSS, 1.0, dt.h, 500, 10, 51, shape=est)
    ok_id = prof.identity_residual <= 1e-10
    ok_lower = bool(np.all(prof.rate + 2 * prof.rate_se >= -1e-12))
    i = int(np.argmin(np.abs(prof.zeta1 - 0.5)))
    tilt_se = dt.h_se[0] * 0.5 + dt.h_se[1] * 0.5
    gap = abs(float(prof.gap[i]))
    tol = 2 * (float(prof.gap_se[i]) + tilt_se)
    ok_dual = gap <= tol
    ok = ok_id and ok_lower and ok_dual
    _report(
        15,
        "LDP rate, n=500",
        ok,
        f"identity {prof.identity_residual:.1e}; dual gap {gap:.4f} vs tol {tol:.4f}",
    )
    assert ok


def test_c16_competition_interface():
    f0 = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 1, 1))
    stats = cif_direction_stats(f0, 1.0, 1000, 1000, theta_seed=3)
    half = float(stats.empirical_cdf([0.5])[0])
    med_tol = 3.0 / (2.0 * math.sqrt(1000))
    ok_const = abs(half - 0.5) <= med_tol
    fg = generate_field(GAUSS, 1234, Window(Site(0, 0), 1, 1))
    cmp_ = cif_cdf_check(
        fg, 1.0, np.linspace(0.05, 0.95, 21), 1000, 2000, theta_seed=7, busemann_horizon=2000
    )
    ok_cdf = cmp_.within_band and cmp_.monotone
    ok = ok_const and ok_cdf
    _report(
        16,
        "competition interface: median + quenched CDF bands",
        ok,
        f"|median cdf-1/2| {abs(half - 0.5):.4f} <= {med_tol:.4f}; "
        f"sup {cmp_.sup_discrepancy:.4f} <= dkw {cmp_.dkw_band:.4f}; drift {cmp_.horizon_drift:.4f}",
    )
    assert ok


def test_c17_reproducibility(tmp_path):
    scan_cfg = "kind = scan\nweights = gaussian\nt_points = 31\nradius = 120\nseed_weights = 6\n"
    cdf_cfg = (
        "kind = cdf\nweights = gaussian\ngrid_points = 9\ngrid_lo = 0.1\ngrid_hi = 0.9\n"
        "replicas = 200\nsteps = 150\nseed_weights = 3\nseed_coupling = 4\n"
    )
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        for name, text in (("scan", scan_cfg), ("cdf", cdf_cfg)):
            cli_run(parse_config(text), out_dir=str(base / name))
        outputs.append(
            {
                p.relative_to(base).as_posix(): p.read_bytes()
                for p in sorted(base.rglob("*.csv"))
            }
        )
    ok = outputs[0] == outputs[1] and len(outputs[0]) >= 2
    _report(17, "byte-identical CSV artifacts on rerun", ok, f"{len(outputs[0])} artifacts")
    assert ok
