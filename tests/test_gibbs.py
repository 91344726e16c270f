import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import expit

from polymerlab import cocycle, env, gibbs, partition
from polymerlab.cif import interface_direct_sample
from polymerlab.cocycle import _mean_se, _replica_batch, busemann_from_p2l, busemann_from_p2p
from polymerlab.env import Site, WeightSpec, Window, generate_field
from polymerlab.errors import DomainError, ParameterError, SizeError, WindowError
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
from polymerlab.partition import _sweep, p2p_table, p2p_values

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
    hole = np.ones((4, 1))
    hole[2, 0] = np.nan
    holed = TransitionField(Window(Site(0, 0), 4, 1), hole, "backward", -1, 1.0, Site(0, 0))
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
    # n forward chains in one batch; five steps from the origin stay in the window
    e1, _, _ = gibbs._walk(trans, Site(0, 0), 5, n, np.random.default_rng(4))
    hits = int((e1 == path.steps_e1()).all(axis=1).sum())
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


def _windows(spec, seeds, levels):
    side = levels + 1
    fields = [generate_field(spec, seed, Window(Site(0, 0), 1, 1)) for seed in seeds]
    return fields, (1.0, (0.3, -0.2), 3 * levels + 4, Window(Site(0, 0), side, side))


@pytest.mark.parametrize("spec", [GAUSS, WeightSpec.inverse_log_gamma(1.5)], ids=["gaussian", "ilg"])
@pytest.mark.parametrize("x,levels", [(Site(0, 0), 7), (Site(2, 1), 9)])
def test_batched_dlr_windows_equal_each_window(monkeypatch, spec, x, levels):
    # one group, then groups of two (the last holds one): each report is
    # its own window's single-window check
    fields, (beta, h, horizon, win) = _windows(spec, range(40, 45), levels)
    want = [
        dlr_consistency_check(busemann_from_p2l(f, beta, h, horizon, win), f, x, levels) for f in fields
    ]
    assert gibbs.dlr_window_reports(fields, beta, h, horizon, win, x, levels) == want
    steps = levels - x.level()
    per_window = cocycle._p2l_bytes(horizon, win) + 8 * math.comb(steps, steps // 2) * (steps + 5)
    shared = env._HASH_BLOCK_BYTES + 10 * math.comb(steps, steps // 2) * steps
    monkeypatch.setattr(gibbs, "_DLR_BLOCK_BYTES", shared + 2 * per_window)
    assert gibbs.dlr_window_reports(fields, beta, h, horizon, win, x, levels) == want
    assert all(r.max_discrepancy <= 1e-10 for r in want)


def test_a_perturbed_window_moves_only_its_own_discrepancy(monkeypatch):
    # the DP route of window 2 reads its weight at x raised by 1e-6, which
    # raises each of its log Z_{x, end} by beta * 1e-6; the enumeration
    # reads the true weights.  Its discrepancy leaves the identity's ulps,
    # and the other windows keep their bits
    fields, (beta, h, horizon, win) = _windows(GAUSS, range(60, 65), 6)
    clean = gibbs.dlr_window_reports(fields, beta, h, horizon, win, Site(0, 0), 6)
    probe = gibbs.p2p_values

    def window_2_perturbed(*args):
        logz = probe(*args)
        logz[2] += beta * 1e-6
        return logz

    monkeypatch.setattr(gibbs, "p2p_values", window_2_perturbed)
    moved = gibbs.dlr_window_reports(fields, beta, h, horizon, win, Site(0, 0), 6)
    assert moved[:2] + moved[3:] == clean[:2] + clean[3:]
    assert clean[2].max_discrepancy <= 1e-10 < moved[2].max_discrepancy


@pytest.mark.parametrize("levels,windows", [(20, 1), (18, 12)])
def test_a_dlr_window_group_stays_within_its_budget(levels, windows):
    # at levels = 20 a group holds one window, at 18 a full group ten
    fields, (beta, h, horizon, win) = _windows(GAUSS, range(windows), levels)
    P = math.comb(levels, levels // 2)
    per_window = cocycle._p2l_bytes(horizon, win) + 8 * P * (levels + 5)
    group = (gibbs._DLR_BLOCK_BYTES - env._HASH_BLOCK_BYTES - 10 * P * levels) // per_window
    assert group == {20: 1, 18: 10}[levels]
    gibbs.dlr_window_reports(fields[:1], beta, h, horizon, Window(Site(0, 0), 3, 3), Site(0, 0), 2)  # warms up
    tracemalloc.start()
    try:
        reports = gibbs.dlr_window_reports(fields, beta, h, horizon, win, Site(0, 0), levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.paths_checked for r in reports] == [2**levels] * windows
    assert max(r.max_discrepancy for r in reports) <= 1e-10
    assert peak <= gibbs._DLR_BLOCK_BYTES


def test_a_nan_discrepancy_fails_the_dlr_check():
    # b1 NaN at (1, 0) reaches B at every endpoint with two or more e1
    # steps; the endpoints with fewer come first and are finite
    f, bf = busemann_window_field(side=8, horizon=40)
    b1 = bf.b1.copy()
    b1[1, 0] = math.nan
    rep = dlr_consistency_check(dataclasses.replace(bf, b1=b1), f, Site(0, 0), 5)
    assert math.isnan(rep.max_discrepancy)


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


def _ref_ldp_samples(spec, beta, h, n, replicas, seed, margin=50):
    """The per-replica loop of ldp_rate_profile before replicas were swept in
    groups: each replica builds its cocycle with busemann_from_p2l, hashes
    the flow square again with subfield and its free-energy curve again with
    p2p_values.  Samples are filled row by row into C-ordered arrays."""
    rates = np.empty((replicas, n + 1))
    gaps = np.empty((replicas, n + 1))
    a = np.arange(n + 1)
    zeta1 = a / n
    drift = -(h[0] * zeta1 + h[1] * (1 - zeta1))
    ident = 0.0
    for k, fld in enumerate(_replica_batch(spec, seed, replicas, 0x1D9).fields):
        bf = busemann_from_p2l(fld, beta, h, 2 * n + margin, Window(Site(0, 0), n + 2, n + 2))
        w = fld.subfield(Window(Site(0, 0), n + 1, n + 1)).values
        logflow = _sweep(
            (beta * (w - bf.b1[: n + 1, : n + 1]))[:-1],
            (beta * (w - bf.b2[: n + 1, : n + 1]))[:, :-1],
            np.logaddexp,
        )
        rates[k] = -logflow[a, n - a] / n
        logz = p2p_values(fld, Site(0, 0), beta, a, n - a)
        B = bf.integrated()
        rate_alg = -(logz - beta * (B[a, n - a] - B[0, 0])) / n
        gaps[k] = rates[k] - (drift - logz / (beta * n))
        ident = max(ident, float(np.max(np.abs(rates[k] - rate_alg))))
    return rates, gaps, ident


@pytest.mark.parametrize(
    "spec,beta,h,n,replicas,group",
    [
        (GAUSS, 1.0, (-1.07, -1.07), 12, 10, None),  # one group; R > 8 pins the mean's order
        (GAUSS, 2.5, (-0.9, -1.3), 9, 10, 4),  # groups of 4, 4 and 2
        (WeightSpec.inverse_log_gamma(1.0), 1.0, (-1.9, -1.9), 15, 9, 2),
        (WeightSpec.constant(0.0), 1.0, (-LOG2, -LOG2), 8, 3, 1),
        (GAUSS, 1.0, (-1.07, -1.07), 40, 3, 2),  # long enough sums to pin their order
    ],
)
def test_ldp_replica_groups_equal_the_per_replica_loop(monkeypatch, spec, beta, h, n, replicas, group):
    if group is not None:
        per_replica = 8 * (3 * n * (n + 1) // 2 + 10 * (2 * n + 51))
        monkeypatch.setattr(gibbs, "_LDP_BLOCK_BYTES", env._HASH_BLOCK_BYTES + group * per_replica)
    rates, gaps, ident = _ref_ldp_samples(spec, beta, h, n, replicas, 31)
    seeds = [f.seed for f in _replica_batch(spec, 31, replicas, 0x1D9).fields]
    hashed = collections.Counter()
    site_uniforms = env.site_uniforms

    def counted(seed, stream, uu, vv):
        keys = np.broadcast_arrays(np.asarray(seed, dtype=np.uint64), np.asarray(uu), np.asarray(vv))
        hashed.update(zip(*(k.ravel().tolist() for k in keys)))
        return site_uniforms(seed, stream, uu, vv)

    monkeypatch.setattr(env, "site_uniforms", counted)
    prof = ldp_rate_profile(spec, beta, h, n, replicas, 31)
    for got, want in (((prof.rate, prof.rate_se), rates), ((prof.gap, prof.gap_se), gaps)):
        assert all(map(np.array_equal, got, _mean_se(want)))
    assert prof.identity_residual == ident
    # one point-to-line triangle per environment, each site hashed once; the
    # origin is hashed once more when the environment is made
    K = 2 * n + 50
    want = collections.Counter(
        (s, u, v) for s in seeds for u in range(K) for v in range(K - u)
    )
    want.update((s, 0, 0) for s in seeds)
    if spec.distribution == "constant":  # constant weights are never hashed
        want.clear()
    assert hashed == want


@pytest.mark.parametrize("n", [30, 200, 500])
def test_an_ldp_group_stays_within_its_budget(n):
    # a full group: three values at each site below level n and ten levels
    # of 2n + 51 values per replica, beside one hash block, under the default
    # budget; n = 500 is the shipped size of configs/ldp.cfg
    per_replica = 8 * (3 * n * (n + 1) // 2 + 10 * (2 * n + 51))
    group = max(1, (gibbs._LDP_BLOCK_BYTES - env._HASH_BLOCK_BYTES) // per_replica)
    spec = WeightSpec.inverse_log_gamma(1.0)
    ldp_rate_profile(spec, 1.0, (-1.9, -1.9), 4, 1, 5)  # warms up
    tracemalloc.start()
    try:
        prof = ldp_rate_profile(spec, 1.0, (-1.9, -1.9), n, group, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof.identity_residual <= 1e-10
    assert peak <= gibbs._LDP_BLOCK_BYTES


def test_sweeps_stop_at_the_last_level_they_read(monkeypatch):
    # the level steps, by the leading axes of the level they step from
    calls = collections.Counter()
    level = partition._level

    def counted(prev, *args):
        calls[prev.shape[:-1]] += 1
        return level(prev, *args)

    monkeypatch.setattr(partition, "_level", counted)
    # ldp at n = 200: 4 replicas in one group, the point-to-line pass down
    # from level 2n + 50, then the flow and the free energy up to level n
    ldp_rate_profile(WeightSpec.inverse_log_gamma(1.0), 1.0, (-1.9, -1.9), 200, 4, 20241)
    assert calls == {(4,): 450, (2, 4): 200}
    # two groups of 3 and 2 replicas at n = 20
    calls.clear()
    monkeypatch.setattr(gibbs, "_LDP_BLOCK_BYTES", env._HASH_BLOCK_BYTES + 3 * 8 * (3 * 20 * 21 // 2 + 10 * 91))
    ldp_rate_profile(GAUSS, 1.0, (-1.07, -1.07), 20, 5, 3)
    assert calls == {(3,): 90, (2, 3): 20, (2,): 90, (2, 2): 20}
    # the mass decay steps up to its largest distance, not across its square
    trans = TransitionField(Window(Site(0, 0), 41, 41), np.full((41, 41), 0.3), "busemann", 1, 1.0)
    for levels in ([0], [3, 1], [8, 16, 32], [40, 2, 40]):
        calls.clear()
        rooted_mass_decay(trans, Site(40, 40), levels)
        assert calls == ({(): max(levels)} if max(levels) else {})


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


def _antidiagonal_hits(trans, target, levels):
    # the linear-probability loop that rooted_mass_decay ran before it moved
    # onto the sweep kernel: one antidiagonal of h at a time, from the target
    n_max = max(levels)
    b0u, b0v = trans.window.index(target - Site(n_max, n_max))
    p1 = trans.p1[b0u : b0u + n_max + 1, b0v : b0v + n_max + 1]
    hit = np.zeros((n_max + 1, n_max + 1))
    hit[n_max, n_max] = 1.0
    for k in range(2 * n_max - 1, -1, -1):
        a = np.arange(max(0, k - n_max), min(n_max, k) + 1)
        b = k - a
        up1 = np.where(a + 1 <= n_max, hit[np.minimum(a + 1, n_max), b], 0.0)
        up2 = np.where(b + 1 <= n_max, hit[a, np.minimum(b + 1, n_max)], 0.0)
        hit[a, b] = p1[a, b] * up1 + (1.0 - p1[a, b]) * up2
    return [float(np.max(hit[n_max - np.arange(n + 1), n_max - n + np.arange(n + 1)])) for n in levels]


def test_rooted_mass_decay_equals_the_antidiagonal_loop():
    levels = tuple(range(0, 41))
    window = Window(Site(3, -2), 45, 43)
    target = Site(44, 39)
    for seed in (600, 601, 602):
        for h in ((-1.0, -1.0), (-0.7, -0.7), (-0.4, -1.1)):
            f = generate_field(GAUSS, seed, Window(Site(0, 0), 1, 1))
            trans = busemann_transitions(busemann_from_p2l(f, 1.0, h, 200, window), f)
            prof = rooted_mass_decay(trans, target, levels)
            want = _antidiagonal_hits(trans, target, levels)
            assert prof.max_hit[0] == 1.0
            np.testing.assert_allclose(prof.max_hit, want, rtol=0, atol=1e-13)
            assert prof.strictly_decreasing == all(b < a for a, b in zip(want, want[1:]))
    # exact 0 and 1 step probabilities: forced steps, and whole rows of them
    rng = np.random.default_rng(8)
    for forced in (0.1, 0.5, 0.9, 1.0):
        p1 = rng.uniform(size=(31, 31))
        mark = rng.uniform(size=p1.shape)
        p1[mark < forced / 2] = 0.0
        p1[(mark >= forced / 2) & (mark < forced)] = 1.0
        p1[7] = 1.0
        p1[:, 11] = 0.0
        trans = TransitionField(Window(Site(0, 0), 31, 31), p1, "busemann", 1, 1.0)
        with np.errstate(invalid="raise"):
            prof = rooted_mass_decay(trans, Site(30, 30), range(31))
        assert prof.max_hit[0] == 1.0
        want = _antidiagonal_hits(trans, Site(30, 30), range(31))
        np.testing.assert_allclose(prof.max_hit, want, rtol=0, atol=1e-13)


def test_path_csv(tmp_path):
    p = path_from_steps(Site(0, 0), [1, 0, 1])
    path = p.to_csv(tmp_path / "p.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "k,u,v" and len(lines) == 5


# The four chain loops as they were before they shared `gibbs._walk`, kept
# as references: the wrappers must reproduce them draw for draw.


def _ref_forward_chain_sample(transitions, x, steps, rng):
    sites = [(x.u, x.v)]
    cur = x
    truncated = False
    for _ in range(steps):
        if not transitions.window.contains(cur):
            truncated = True
            break
        p = transitions.p_at(cur)
        nxt = cur + Site(1, 0) if rng.random() < p else cur + Site(0, 1)
        if not transitions.window.contains(nxt):
            truncated = True
            break
        sites.append((nxt.u, nxt.v))
        cur = nxt
    return np.asarray(sites, dtype=np.int64), truncated


def _ref_forward_chain_batch(transitions, x, steps, count, rng):
    win = transitions.window
    du = np.full(count, x.u - win.origin.u, dtype=np.int64)
    dv = np.full(count, x.v - win.origin.v, dtype=np.int64)
    alive = np.full(count, win.contains(x))
    first_e1 = 0
    for j in range(steps):
        p = transitions.p1[du[alive], dv[alive]]
        take = rng.random(int(alive.sum())) < p
        if j == 0:
            first_e1 = int(take.sum())
        ndu = du[alive] + take
        ndv = dv[alive] + (~take)
        stay = (ndu < win.width) & (ndv < win.height)
        idx = np.flatnonzero(alive)
        du[idx[stay]] = ndu[stay]
        dv[idx[stay]] = ndv[stay]
        alive[idx[~stay]] = False
    endpoints = np.stack([du[alive] + win.origin.u, dv[alive] + win.origin.v], axis=1)
    return endpoints, first_e1, int(count - alive.sum())


def _ref_sample_p2p_batch(transitions, start, count, rng):
    anchor = transitions.anchor
    if not anchor <= start:
        raise DomainError("start must dominate the anchor")
    k = (start - anchor).level()
    du0, dv0 = transitions.window.index(start)
    du = np.full(count, du0, dtype=np.int64)
    dv = np.full(count, dv0, dtype=np.int64)
    steps = np.empty((count, k), dtype=np.int8)
    for j in range(k - 1, -1, -1):
        p = transitions.p1[du, dv]
        lost = np.isnan(p)
        if lost.any():
            i = int(np.argmax(lost))
            site = transitions.window.origin + Site(int(du[i]), int(dv[i]))
            raise DomainError(f"site ({site.u},{site.v}) not reachable from anchor")
        take_e1 = rng.random(count) < p
        steps[:, j] = take_e1
        du = du - take_e1
        dv = dv - (~take_e1)
    return steps


def _ref_interface_direct_sample(table, field, steps, rng):
    A = table.beta * field.subfield(table.window).values + table.logz
    win = table.window
    phi = table.anchor
    sites = [(phi.u, phi.v)]
    for _ in range(steps):
        z = phi + Site(1, 1)
        if not win.contains(z):
            raise WindowError("table window too shallow for the requested steps")
        zu, zv = win.index(z)
        p_e1 = expit(A[zu - 1, zv] - A[zu, zv - 1])
        phi = phi + Site(1, 0) if rng.random() < p_e1 else phi + Site(0, 1)
        sites.append((phi.u, phi.v))
    return np.asarray(sites, dtype=np.int64)


def _same_outcome(seed, ref, new):
    """Run both samplers on generators seeded alike; return their results
    (or error types) and one further uniform from each generator, so a
    difference in the number of draws shows."""
    out = []
    for fn in (ref, new):
        rng = np.random.default_rng(seed)
        try:
            res = fn(rng)
        except (DomainError, WindowError) as exc:
            res = type(exc)
        out.append((res, rng.random()))
    return out


def test_chain_wrappers_equal_the_parent_loops():
    win = Window(Site(1, 2), 7, 5)
    p1 = np.random.default_rng(0).random((7, 5))
    fields = [TransitionField(win, p1, "busemann", 1, 1.0)]
    f, bf = busemann_window_field(side=12)
    fields.append(busemann_transitions(bf, f))
    starts = [Site(1, 2), Site(3, 4), Site(7, 5), Site(0, 3), Site(8, 2)]  # last two outside
    g = generate_field(GAUSS, 3, Window(Site(0, 0), 7, 6))
    table = p2p_table(g, Site(2, 2), Window(Site(0, 0), 7, 6), 1.0, "from_anchor")
    bt = backward_transitions(table)
    # the anchor, interior and corner starts, two that do not dominate the
    # anchor and one outside the window; then a walk through a site with no
    # step law
    hole = np.ones((4, 1))
    hole[2, 0] = np.nan
    holed = TransitionField(Window(Site(0, 0), 4, 1), hole, "backward", -1, 1.0, Site(0, 0))
    p2p_starts = (Site(2, 2), Site(3, 2), Site(4, 5), Site(6, 5), Site(5, 1), Site(1, 4), Site(7, 5))
    p2p_cases = [(bt, s) for s in p2p_starts]
    p2p_cases += [(holed, Site(1, 0)), (holed, Site(3, 0))]
    shallow = p2p_table(g, Site(0, 0), Window(Site(0, 0), 4, 3), 0.7, "from_anchor")
    for seed in range(20):
        for trans in fields:
            for x in starts:
                for steps in (0, 1, 5, 30):
                    (ref, r1), (new, r2) = _same_outcome(
                        seed,
                        lambda rng: _ref_forward_chain_sample(trans, x, steps, rng),
                        lambda rng: forward_chain_sample(trans, x, steps, rng),
                    )
                    assert np.array_equal(ref[0], new.sites) and ref[1] == new.truncated and r1 == r2
                    for count in (1, 7):
                        (ref, r1), (new, r2) = _same_outcome(
                            seed,
                            lambda rng: _ref_forward_chain_batch(trans, x, steps, count, rng),
                            lambda rng: forward_chain_batch(trans, x, steps, count, rng),
                        )
                        assert np.array_equal(ref[0], new.endpoints) and r1 == r2
                        assert (ref[1], ref[2]) == (new.first_e1, new.truncated)
        for back, start in p2p_cases:
            for count in (1, 7):
                (ref, r1), (new, r2) = _same_outcome(
                    seed,
                    lambda rng: _ref_sample_p2p_batch(back, start, count, rng),
                    lambda rng: sample_p2p_batch(back, start, count, rng),
                )
                assert r1 == r2
                if isinstance(ref, type):
                    assert ref is new
                else:
                    assert np.array_equal(ref, new) and new.dtype == np.int8
        for tab in (table, shallow):
            for steps in range(0, 9):
                (ref, r1), (new, r2) = _same_outcome(
                    seed,
                    lambda rng: _ref_interface_direct_sample(tab, g, steps, rng),
                    lambda rng: interface_direct_sample(tab, g, steps, rng),
                )
                assert r1 == r2
                if isinstance(ref, type):
                    assert ref is new is WindowError
                else:
                    assert np.array_equal(ref, new.path.sites)


def test_forward_chains_refuse_sites_without_a_step_law():
    p1 = np.full((4, 3), 0.5)
    p1[1, 0] = np.nan
    trans = TransitionField(Window(Site(0, 0), 4, 3), p1, "busemann", 1, 1.0)
    with pytest.raises(DomainError, match=r"\(1,0\)"):
        forward_chain_batch(trans, Site(1, 0), 2, 3, rng=1)
    with pytest.raises(DomainError, match=r"\(1,0\)"):
        forward_chain_sample(trans, Site(1, 0), 2, rng=1)
