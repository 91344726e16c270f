import collections
import math

import numpy as np
import pytest
import scipy.stats as st

from polymerlab.cocycle import busemann_from_p2l, busemann_from_p2p
from polymerlab.env import Site, WeightSpec, Window, generate_field
from polymerlab.errors import DomainError, ParameterError, SizeError
from polymerlab.fixtures import hand_grid_field
from polymerlab.gibbs import (
    PolymerPath,
    TransitionField,
    backward_transitions,
    busemann_transitions,
    dlr_consistency_check,
    exact_path_probability,
    forward_chain_batch,
    forward_chain_sample,
    ldp_rate_profile,
    level_mass_profile,
    path_from_steps,
    rooted_mass_decay,
    sample_p2p,
    sample_p2p_batch,
)
from polymerlab.partition import p2p_table

GAUSS = WeightSpec.gaussian(0, 1)
LOG2 = math.log(2.0)


def test_polymer_path_validation():
    p = path_from_steps(Site(2, 1), [1, 0, 1])
    assert p.start == Site(2, 1) and p.end == Site(4, 2) and len(p) == 3
    assert p.start_level == 3
    with pytest.raises(ParameterError):
        PolymerPath(np.array([[0, 0], [2, 0]]))


def test_backward_transitions_hand_value():
    f = hand_grid_field()
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 2, 2), 1.0, "from_anchor")
    bt = backward_transitions(t)
    want = math.exp(3) / (math.exp(6) + math.exp(3))
    assert bt.p_at(Site(1, 1)) == pytest.approx(want, abs=1e-12)
    assert bt.norm_residual < 1e-12


def test_backward_transitions_sum_to_one_50x50():
    f = generate_field(GAUSS, 11, Window(Site(0, 0), 50, 50))
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 50, 50), 1.0, "from_anchor")
    bt = backward_transitions(t)
    assert bt.norm_residual <= 1e-12


def test_backward_transitions_constant_are_binomial():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 8, 8))
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 8, 8), 1.0, "from_anchor")
    bt = backward_transitions(t)
    for a, b in [(3, 2), (5, 1), (2, 6)]:
        assert bt.p_at(Site(a, b)) == pytest.approx(a / (a + b), abs=1e-12)


def test_sample_p2p_single_step_deterministic():
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 3, 3))
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 3, 3), 1.0, "from_anchor")
    bt = backward_transitions(t)
    p = sample_p2p(bt, Site(1, 0), rng=1)
    assert len(p) == 1 and p.start == Site(0, 0) and p.end == Site(1, 0)
    with pytest.raises(DomainError):
        sample_p2p(bt, Site(0, 0) - Site(1, 0), rng=1)


def test_sample_p2p_batch_refuses_unreachable_starts():
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 6, 6))
    t = p2p_table(f, Site(2, 2), Window(Site(0, 0), 6, 6), 1.0, "from_anchor")
    bt = backward_transitions(t)
    with pytest.raises(DomainError):
        sample_p2p_batch(bt, Site(5, 1), 3, rng=1)  # outside the cone of (2,2)
    with pytest.raises(DomainError):
        sample_p2p(bt, Site(5, 1), rng=1)
    # a site on the way without a step law
    p1 = np.ones((4, 1))
    p1[2, 0] = np.nan
    holed = TransitionField(Window(Site(0, 0), 4, 1), p1, "backward", -1, 1.0, Site(0, 0))
    with pytest.raises(DomainError, match=r"\(2,0\)"):
        sample_p2p_batch(holed, Site(3, 0), 2, rng=1)


def test_sample_p2p_hand_grid_frequency():
    f = hand_grid_field()
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 2, 2), 1.0, "from_anchor")
    bt = backward_transitions(t)
    n = 20000
    steps = sample_p2p_batch(bt, Site(1, 1), n, rng=2)
    # upper path (e2 first) has probability e^3/(e^6+e^3)
    upper = float(np.mean(steps[:, 0] == 0))
    p = math.exp(3) / (math.exp(6) + math.exp(3))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(upper - p) <= 3 * se


def test_sample_p2p_uniform_chi_square():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 6, 6))
    t = p2p_table(f, Site(0, 0), Window(Site(0, 0), 6, 6), 1.0, "from_anchor")
    bt = backward_transitions(t)
    n = 50000
    steps = sample_p2p_batch(bt, Site(5, 5), n, rng=3)
    ids = steps.astype(np.int64) @ (1 << np.arange(10, dtype=np.int64))
    counts = collections.Counter(ids.tolist())
    assert len(counts) == 252
    freq = np.array(list(counts.values()), dtype=float)
    chi2 = float(((freq - n / 252) ** 2 / (n / 252)).sum())
    assert st.chi2.sf(chi2, 251) > 0.01


def busemann_window_field(seed=7, side=30, beta=1.0, h=(0.2, -0.1), horizon=140):
    f = generate_field(GAUSS, seed, Window(Site(0, 0), side, side))
    bf = busemann_from_p2l(f, beta, h, horizon, Window(Site(0, 0), side, side))
    return f, bf


def test_forward_transitions_normalize_by_recovery():
    f, bf = busemann_window_field()
    trans = busemann_transitions(bf, f)
    assert trans.norm_residual <= 1e-9
    assert np.all((trans.p1 >= 0) & (trans.p1 <= 1))


def test_exact_path_probability_empty_and_sum():
    f, bf = busemann_window_field()
    assert exact_path_probability(bf, f, Site(2, 2), path_from_steps(Site(2, 2), [])) == 1.0
    masses = level_mass_profile(bf, f, Site(0, 0), [1, 5, 10, 20])
    for _, defect in masses:
        assert defect <= 1e-8


def test_level_mass_zero_temperature():
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 30, 30))
    bf = busemann_from_p2l(f, math.inf, (0.2, -0.1), 140, Window(Site(0, 0), 30, 30))
    for _, defect in level_mass_profile(bf, f, Site(0, 0), [1, 5, 15]):
        assert defect <= 1e-8


def test_exact_path_probability_matches_sampling():
    f, bf = busemann_window_field()
    trans = busemann_transitions(bf, f)
    path = path_from_steps(Site(0, 0), [1, 0, 0, 1, 1])
    p = exact_path_probability(bf, f, Site(0, 0), path)
    n = 40000
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(n):
        s = forward_chain_sample(trans, Site(0, 0), 5, rng)
        hits += np.array_equal(s.sites, path.sites)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_dlr_trivial_and_fixture():
    f, bf = busemann_window_field()
    assert dlr_consistency_check(bf, f, Site(0, 0), 0).max_discrepancy == 0.0
    one = dlr_consistency_check(bf, f, Site(0, 0), 1)
    assert one.max_discrepancy <= 1e-14
    fh = hand_grid_field(pad_to=6)
    bfh = busemann_from_p2p(fh, 1.0, Site(3, 3), Window(Site(0, 0), 2, 2))
    rep = dlr_consistency_check(bfh, fh, Site(0, 0), 2)
    assert rep.max_discrepancy <= 1e-12
    with pytest.raises(SizeError):
        dlr_consistency_check(bf, f, Site(0, 0), 25)


def test_dlr_random_windows():
    for seed in range(5):
        f = generate_field(GAUSS, 100 + seed, Window(Site(0, 0), 12, 12))
        bf = busemann_from_p2l(f, 1.0, (0.1, 0.3), 40, Window(Site(0, 0), 11, 11))
        rep = dlr_consistency_check(bf, f, Site(0, 0), 10)
        assert rep.paths_checked == 1024
        assert rep.max_discrepancy <= 1e-10


def test_forward_chain_degenerate_ray():
    win = Window(Site(0, 0), 12, 12)
    trans = TransitionField(win, np.ones((12, 12)), "busemann", 1, 1.0)
    p = forward_chain_sample(trans, Site(0, 0), 8, rng=1)
    assert not p.truncated
    assert np.all(p.sites[:, 1] == 0) and p.end == Site(8, 0)


def test_forward_chain_truncation_flag():
    win = Window(Site(0, 0), 3, 3)
    trans = TransitionField(win, np.ones((3, 3)), "busemann", 1, 1.0)
    p = forward_chain_sample(trans, Site(0, 0), 10, rng=1)
    assert p.truncated and p.end == Site(2, 0)


def test_forward_chain_batch_truncates_starts_outside_the_window():
    win = Window(Site(0, 0), 5, 5)
    trans = TransitionField(win, np.full((5, 5), 0.5), "busemann", 1, 1.0)
    for start in (Site(-1, 0), Site(0, -1), Site(5, 2)):
        assert forward_chain_sample(trans, start, 4, rng=1).truncated
        batch = forward_chain_batch(trans, start, 4, 10, rng=1)
        assert batch.truncated == 10 and batch.endpoints.shape == (0, 2)
        assert batch.first_e1 == 0


def test_forward_chain_first_step_frequency():
    f, bf = busemann_window_field()
    trans = busemann_transitions(bf, f)
    p1 = trans.p_at(Site(0, 0))
    batch = forward_chain_batch(trans, Site(0, 0), 1, 100000, rng=5)
    se = math.sqrt(p1 * (1 - p1) / 100000)
    assert abs(batch.first_e1 / 100000 - p1) <= 3 * se


def test_forward_chain_direction_concentrates():
    # SLLN proxy: chain driven by the p2p cocycle toward a diagonal target
    side = 120
    f = generate_field(GAUSS, 23, Window(Site(0, 0), side, side))
    bf = busemann_from_p2p(f, 1.0, Site(400, 400), Window(Site(0, 0), side, side))
    trans = busemann_transitions(bf, f)
    batch = forward_chain_batch(trans, Site(0, 0), 100, 400, rng=6)
    assert batch.truncated == 0
    dirs = batch.endpoints[:, 0] / 100.0
    assert abs(float(np.mean(dirs)) - 0.5) < 0.1


def test_ldp_constant_weights_entropy_rate():
    spec = WeightSpec.constant(0.0)
    n = 60
    prof = ldp_rate_profile(spec, 1.0, (-LOG2, -LOG2), n, 1, 1)
    # exact entropy arithmetic at finite n: rate = log2 - log C(n, a)/n,
    # converging to log2 - H(zeta) with the Stirling correction
    exact = np.array([LOG2 - math.log(math.comb(n, a)) / n for a in range(n + 1)])
    assert np.max(np.abs(prof.rate - exact)) < 1e-11
    zeta = prof.zeta1[1:-1]
    limit = LOG2 + zeta * np.log(zeta) + (1 - zeta) * np.log(1 - zeta)
    stirling = 0.5 * np.log(2 * math.pi * n * zeta * (1 - zeta)) / n
    assert np.max(np.abs(prof.rate[1:-1] - limit - stirling)) < 0.01
    assert prof.identity_residual <= 1e-10
    assert np.max(np.abs(prof.gap)) < 1e-11  # F/n pairing absorbs the correction


def test_ldp_identity_on_gaussian():
    prof = ldp_rate_profile(GAUSS, 1.0, (-1.07, -1.07), 80, 2, 3)
    assert prof.identity_residual <= 1e-10
    assert np.all(prof.rate >= -1e-12)  # rate is algebraically nonnegative


def test_ldp_identity_on_log_gamma():
    # the flow DP's edge terms are the cocycle's own log step probabilities,
    # so the identity holds to rounding for inverse-log-gamma weights too
    prof = ldp_rate_profile(WeightSpec.inverse_log_gamma(1.0), 1.0, (-1.9, -1.9), 200, 4, 20241)
    assert prof.identity_residual <= 1e-10


def test_rooted_mass_decay_binomial_and_trivial():
    win = Window(Site(0, 0), 33, 33)
    trans = TransitionField(win, np.full((33, 33), 0.5), "busemann", 1, 1.0)
    prof = rooted_mass_decay(trans, Site(32, 32), [0, 8, 16, 32])
    assert prof.max_hit[0] == 1.0
    for n, mh in zip(prof.levels[1:], prof.max_hit[1:]):
        assert mh == pytest.approx(math.comb(n, n // 2) / 2.0**n, abs=1e-12)
    assert prof.strictly_decreasing


def test_rooted_mass_decay_gaussian_decreasing():
    side = 34
    f = generate_field(GAUSS, 31, Window(Site(0, 0), side, side))
    bf = busemann_from_p2l(f, 1.0, (-1.0, -1.0), 110, Window(Site(0, 0), side, side))
    trans = busemann_transitions(bf, f)
    prof = rooted_mass_decay(trans, Site(32, 32), [4, 8, 16, 32])
    assert prof.strictly_decreasing


def test_path_csv(tmp_path):
    p = path_from_steps(Site(0, 0), [1, 0, 1])
    path = p.to_csv(tmp_path / "p.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "k,u,v" and len(lines) == 5
