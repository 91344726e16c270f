import math
import tracemalloc

import numpy as np
import pytest

from polymerlab.cocycle import busemann_from_p2l
from polymerlab.coupling import (
    CoupledStepRule,
    CouplingField,
    JunctionReport,
    band_transition_rule,
    coalescence_experiment,
    constant_rule,
    coupled_walk,
    junction_statistics,
    ordering_check,
)
from polymerlab.env import _HASH_BLOCK_BYTES, COUPLING_STREAM, Site, WeightSpec, Window, generate_field, site_uniforms
from polymerlab.errors import OrderingError, ParameterError, WindowError
from polymerlab.gibbs import busemann_transitions

GAUSS = WeightSpec.gaussian(0, 1)


def test_degenerate_rule_gives_ray():
    p = coupled_walk(constant_rule(1.0), CouplingField(3), Site(0, 0), 12)
    assert np.all(p.sites[:, 1] == 0)


def test_walk_is_function_of_state():
    rule = constant_rule(0.5)
    th = CouplingField(99)
    a = coupled_walk(rule, th, Site(2, 3), 50)
    b = coupled_walk(rule, th, Site(2, 3), 50)
    assert np.array_equal(a.sites, b.sites)


def test_marginal_step_law():
    # frequencies over theta-seeds match p at a fixed site: seed s steps e1
    # out of (0, 0) where its uniform there is below p, as the first walks
    # show
    rule = constant_rule(0.3)
    n = 20000
    e1 = site_uniforms(np.arange(n), COUPLING_STREAM, 0, 0) < 0.3
    for s in range(8):
        assert coupled_walk(rule, CouplingField(s), Site(0, 0), 1).sites[1, 0] == e1[s]
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(e1.sum() / n - 0.3) <= 3 * se


def test_identical_starts_meet_immediately():
    stats = coalescence_experiment(constant_rule(0.5), Site(1, 1), Site(1, 1), 10, range(50))
    assert stats.fraction == 1.0
    assert np.all(stats.met_level == 2)


def test_half_rule_coalescence_and_permanence():
    stats = coalescence_experiment(
        constant_rule(0.5), Site(0, 0), Site(0, 2), 3000, range(300)
    )
    assert stats.fraction >= 0.95
    assert stats.post_merge_violations == 0


def test_the_loop_ends_once_every_pair_has_met():
    calls = []

    def p_fn(uu, vv):
        calls.append(np.shape(uu))
        return np.full(np.shape(uu), 0.5)

    stats = coalescence_experiment(CoupledStepRule(p_fn), Site(1, 1), Site(1, 1), 10**9, range(50))
    assert np.all(stats.met_level == 2) and stats.post_merge_violations == 0
    assert calls == [(2, 50)]  # the one step out of the meeting site


def _by_row(uu, vv):
    """A step law that reads the walker's row, not only its site: p = 0 on
    row a and 1 on row b of a (2, n) block, 1/2 elsewhere.  Merged pairs
    split on their next step."""
    if np.ndim(uu) == 2:
        return np.stack([np.zeros(uu.shape[1]), np.ones(uu.shape[1])])
    return np.full(np.shape(uu), 0.5)


def test_a_split_on_the_step_out_of_the_meeting_site_is_counted():
    S = 64
    stats = coalescence_experiment(CoupledStepRule(_by_row), Site(3, 2), Site(3, 2), 40, range(S))
    assert np.all(stats.met_level == 5)
    assert stats.post_merge_violations == S
    # walker a climbs e2 and b steps e1 from 2, 3 or 4 sites behind it: each
    # pair meets at its own level and splits once
    stats = coalescence_experiment(CoupledStepRule(_by_row), Site(0, 0), Site(-2, 4), 40, range(S))
    assert set(stats.met_level.tolist()) == {4, 5, 6}
    assert stats.post_merge_violations == S


def _half_rule_met_cdf(gaps, horizon):
    """Exact P(met_level <= b's level + t), t = 0..horizon, under the half
    rule: the e1-gap is a lazy walk (+-1 with probability 1/4 each) absorbed
    at 0, started from the law `gaps` on 0, 1, 2, ..."""
    q = np.zeros(len(gaps) + horizon + 1)
    q[: len(gaps)] = gaps
    cdf = np.empty(horizon + 1)
    for t in range(horizon + 1):
        cdf[t] = q[0]
        new = 0.5 * q
        new[0] = q[0] + 0.25 * q[1]
        new[1:-1] += 0.25 * q[2:]
        new[2:] += 0.25 * q[1:-1]
        q = new
    return cdf


def test_half_rule_met_levels_follow_the_exact_gap_walk():
    # walker a climbs two levels to b's: the gap starts from Bin(2, 1/2).  The
    # empirical CDF of met_level (censored pairs at +inf) lies in the DKW
    # band at alpha = 1e-3 around the exact law; with b two sites further
    # back (gap + 2) it leaves the band
    S, horizon, alpha = 4000, 500, 1e-3
    seeds = range(7_000_000, 7_000_000 + S)
    cdf = _half_rule_met_cdf([0.25, 0.5, 0.25], horizon)
    band = math.sqrt(math.log(2 / alpha) / (2 * S))

    def sup_distance(start_b):
        met = coalescence_experiment(constant_rule(0.5), Site(0, 0), start_b, horizon, seeds).met_level
        t = met[met >= 0] - start_b.level()
        return np.max(np.abs(np.cumsum(np.bincount(t, minlength=horizon + 1)) / S - cdf))

    assert sup_distance(Site(0, 2)) <= band
    assert sup_distance(Site(-2, 4)) > band


def test_coalescence_csv(tmp_path):
    stats = coalescence_experiment(constant_rule(0.5), Site(0, 0), Site(0, 2), 100, range(20))
    path = stats.to_csv(tmp_path / "c.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "seed,pair_id,coalesced,level"
    assert len(lines) == 21


def test_ordering_identical_and_ordered_rules():
    assert ordering_check(constant_rule(0.4), constant_rule(0.4), Site(0, 0), 200, range(50)) == 0
    assert ordering_check(constant_rule(0.3), constant_rule(0.7), Site(0, 0), 300, range(50)) == 0


def test_ordering_busemann_tilt_pair():
    side = 120
    f = generate_field(GAUSS, 7, Window(Site(0, 0), side, side))
    win = Window(Site(0, 0), side, side)
    lo = busemann_from_p2l(f, 1.0, (0.0, 0.0), 300, win)
    hi = busemann_from_p2l(f, 1.0, (1.0, -1.0), 300, win)
    t_lo = busemann_transitions(lo, f)
    t_hi = busemann_transitions(hi, f)
    v = ordering_check(
        t_lo.as_step_rule(),
        t_hi.as_step_rule(),
        Site(0, 0),
        100,
        range(40),
        p_low=t_lo.p1,
        p_high=t_hi.p1,
    )
    assert v == 0


def test_ordering_rejects_unordered_fields():
    a = np.full((4, 4), 0.6)
    b = np.full((4, 4), 0.4)
    with pytest.raises(OrderingError):
        ordering_check(
            constant_rule(0.6), constant_rule(0.4), Site(0, 0), 5, range(3), p_low=a, p_high=b
        )


def test_junction_forest_identity_and_trend():
    densities = []
    for L in (12, 24):
        reps = [
            junction_statistics(constant_rule(0.5), L, CouplingField(100 + r))
            for r in range(10)
        ]
        assert all(r.forest_identity_ok for r in reps)
        densities.append(float(np.mean([r.density for r in reps])))
    assert densities[1] < densities[0]


def test_band_rule_matches_unrestricted_interior():
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 1, 1))
    rule = band_transition_rule(f, 1.0, (-0.7, -0.7), 60, 40)
    bf = busemann_from_p2l(f, 1.0, (-0.7, -0.7), 62, Window(Site(0, 0), 30, 30))
    tf = busemann_transitions(bf, f)
    uu = np.array([3, 5, 10, 12])
    vv = np.array([4, 6, 9, 13])
    pb = rule.p_at(uu, vv)
    pe = np.array([tf.p1[u, v] for u, v in zip(uu, vv)])
    assert np.max(np.abs(pb - pe)) < 1e-6


def test_band_rule_keeps_walks_inside():
    f = generate_field(GAUSS, 6, Window(Site(0, 0), 1, 1))
    rule = band_transition_rule(f, 1.0, (-1.0, -1.0), 400, 12)
    for s in range(5):
        p = coupled_walk(rule, CouplingField(s), Site(0, 0), 400)
        k = np.arange(401)
        off = p.sites[:, 0] - k // 2
        assert np.max(np.abs(off)) <= 12
    with pytest.raises(ParameterError):
        band_transition_rule(f, math.inf, (0.0, 0.0), 10, 5)
    # a negative horizon has no level to read and no block to cut
    for horizon in (-1, -2):
        with pytest.raises(ParameterError):
            band_transition_rule(f, 1.0, (0.0, 0.0), horizon, 5)


@pytest.mark.parametrize("h", [(math.nan, -0.7), (-0.7, math.nan), (math.inf, -0.7), (-0.7, -math.inf)])
def test_band_rule_refuses_a_non_finite_tilt(h):
    # a NaN p steps every walker along e2, so any pair "meets" at once
    f = generate_field(GAUSS, 6, Window(Site(0, 0), 1, 1))
    with pytest.raises(ParameterError, match="finite tilt"):
        band_transition_rule(f, 1.0, h, 10, 5)


def test_walker_runs_refuse_degenerate_sizes():
    with pytest.raises(ParameterError):
        junction_statistics(constant_rule(0.5), 0, CouplingField(3))
    with pytest.raises(ParameterError):
        coalescence_experiment(constant_rule(0.5), Site(0, 0), Site(0, 2), 10, [])


def _site_step(rule, seeds, u, v):
    """Reference step: each walker's uniform hashed from its seed through
    the public `site_uniforms`."""
    s = site_uniforms(seeds, COUPLING_STREAM, u, v) < rule.p_at(u, v)
    return u + s, v + ~s


def _pairwise_coalescence(rule, start_a, start_b, horizon, theta_seeds):
    """Reference: walkers a and b stepped by separate calls at every level."""
    seeds = np.asarray(list(theta_seeds), dtype=np.uint64)
    S = seeds.size
    if start_a.level() > start_b.level():
        start_a, start_b = start_b, start_a
    ua = np.full(S, start_a.u, dtype=np.int64)
    va = np.full(S, start_a.v, dtype=np.int64)
    for k in range(start_b.level() - start_a.level()):
        ua, va = _site_step(rule, seeds, ua, va)
    ub = np.full(S, start_b.u, dtype=np.int64)
    vb = np.full(S, start_b.v, dtype=np.int64)
    met_level = np.full(S, -1, dtype=np.int64)
    violations = 0
    level = start_b.level()
    for k in range(horizon):
        merged_now = (met_level >= 0) | ((ua == ub) & (va == vb))
        just_met = (met_level < 0) & (ua == ub) & (va == vb)
        met_level[just_met] = level
        ua, va = _site_step(rule, seeds, ua, va)
        ub, vb = _site_step(rule, seeds, ub, vb)
        level += 1
        violations += int((merged_now & ((ua != ub) | (va != vb))).sum())
    just_met = (met_level < 0) & (ua == ub) & (va == vb)
    met_level[just_met] = level
    return met_level, violations


def test_coalescence_block_equals_pairwise_steps():
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 1, 1))
    band = band_transition_rule(f, 1.0, (-0.7, -0.7), 260, 6)
    side = 60
    fw = generate_field(GAUSS, 7, Window(Site(0, 0), side, side))
    bf = busemann_from_p2l(fw, 1.0, (0.0, 0.0), 150, Window(Site(0, 0), side, side))
    transitions = busemann_transitions(bf, fw).as_step_rule()
    starts = [
        (Site(0, 0), Site(0, 2)),
        (Site(0, 0), Site(3, 1)),  # lag 4
        (Site(3, 1), Site(0, 0)),  # swapped starts
        (Site(2, 2), Site(2, 2)),  # identical starts
    ]
    long_band = band_transition_rule(f, 1.0, (-0.7, -0.7), 410, 6)
    seeds = range(40, 120)
    # short horizons make some pairs meet exactly at the last level.  4200
    # seeds put 8400 walkers in the first block, which is then one level;
    # 40 seeds step in blocks of about 30 levels that pairs leave midway
    runs = [(constant_rule(0.5), h, seeds) for h in (1, 2, 3, 400)] + [
        (band, 250, seeds),
        (transitions, 50, seeds),
        (constant_rule(0.5), 3, range(4200)),
        (constant_rule(0.5), 400, range(900, 940)),
        (long_band, 400, range(900, 940)),
    ]
    for rule, horizon, theta_seeds in runs:
        for a, b in starts:
            stats = coalescence_experiment(rule, a, b, horizon, theta_seeds)
            met_level, violations = _pairwise_coalescence(rule, a, b, horizon, theta_seeds)
            assert np.array_equal(stats.met_level, met_level)
            assert stats.post_merge_violations == violations


def _on_rays(*starts):
    """p = 1 on the e1 rays from `starts`, and a refusal at any other site:
    walks from the starts only step e1 and never leave their rays."""

    def p_fn(uu, vv):
        on = np.zeros(np.shape(uu), dtype=bool)
        for s in starts:
            on |= (vv == s.v) & (uu >= s.u)
        if not on.all():
            raise WindowError("site off the rays")
        return np.ones(np.shape(uu))

    return CoupledStepRule(p_fn)


def test_walks_read_the_step_law_only_at_the_sites_they_visit():
    # the blocks hash every site a walker could reach; the rule sees only
    # the ones it does reach
    a, b = Site(0, 0), Site(0, 2)
    rule = _on_rays(a, b)
    stats = coalescence_experiment(rule, a, b, 500, range(40))
    assert np.all(stats.met_level == -1) and stats.post_merge_violations == 0
    assert ordering_check(rule, rule, a, 500, range(40)) == 0
    path = coupled_walk(rule, CouplingField(3), a, 500)
    assert np.array_equal(path.sites[:, 0], np.arange(501)) and np.all(path.sites[:, 1] == 0)


def _per_level_band(field, beta, h, horizon, half_width):
    """Reference: the band recursion one level at a time, every level's
    weights hashed by their own call."""
    n = horizon + 2
    width = 2 * half_width + 1
    bh1, bh2 = beta * h[0], beta * h[1]
    neg_inf = float("-inf")
    p_rows = np.empty((horizon + 1, width), dtype=np.float32)
    offs = np.arange(width, dtype=np.int64)
    F_next = np.zeros(width)
    uu_next = n // 2 - half_width + offs
    F_next[(uu_next < 0) | (uu_next > n)] = neg_inf
    for k in range(n - 1, -1, -1):
        uu = k // 2 - half_width + offs
        valid = (uu >= 0) & (uu <= k)
        w = field.values_at(uu, k - uu)
        shift = (k + 1) // 2 - k // 2
        c1 = np.full(width, neg_inf)
        c2 = np.full(width, neg_inf)
        src1 = offs + 1 - shift
        ok1 = (src1 >= 0) & (src1 < width)
        c1[ok1] = F_next[src1[ok1]]
        src2 = offs - shift
        ok2 = (src2 >= 0) & (src2 < width)
        c2[ok2] = F_next[src2[ok2]]
        F_cur = beta * w + np.logaddexp(c1 + bh1, c2 + bh2)
        F_cur[~valid] = neg_inf
        if k <= horizon:
            with np.errstate(invalid="ignore"):
                p_rows[k] = np.exp(beta * w + bh1 + c1 - F_cur)
            p_rows[k][~valid] = np.nan
        F_next = F_cur
    return p_rows


@pytest.mark.parametrize(
    "horizon,half_width",
    [
        (500, 40),  # 502 levels in blocks of 101
        (60, 40),  # shorter than one block
        (4000, 2),  # the narrowest band
        (30, 1200),  # a wide band, blocks of 3 levels
    ],
)
def test_band_rule_equals_per_level_recursion(horizon, half_width):
    f = generate_field(GAUSS, 11, Window(Site(0, 0), 1, 1))
    for beta, h in [(1.0, (-0.7, -0.7)), (2.5, (0.4, -1.1))]:
        rule = band_transition_rule(f, beta, h, horizon, half_width)
        expected = _per_level_band(f, beta, h, horizon, half_width)
        width = 2 * half_width + 1
        # every band offset of every level, including the NaN off-lattice ones
        kk = np.repeat(np.arange(horizon + 1), width)
        uu = kk // 2 - half_width + np.tile(np.arange(width), horizon + 1)
        got = rule.p_at(uu, kk - uu).reshape(horizon + 1, width)
        assert np.array_equal(got, expected.astype(np.float64), equal_nan=True)


def test_band_rule_lookups_gather_its_rows_and_refuse_sites_off_the_band():
    f = generate_field(GAUSS, 8, Window(Site(0, 0), 1, 1))
    horizon, half_width = 49, 4
    width = 2 * half_width + 1
    rule = band_transition_rule(f, 1.3, (-0.6, -0.8), horizon, half_width)
    p_rows = _per_level_band(f, 1.3, (-0.6, -0.8), horizon, half_width)
    # every band offset of every level, shuffled into a (2, n / 2) block
    kk = np.repeat(np.arange(horizon + 1), width)
    idx = np.tile(np.arange(width), horizon + 1)
    order = np.random.default_rng(4).permutation(kk.size).reshape(2, -1)
    kk, idx = kk[order], idx[order]
    uu = kk // 2 - half_width + idx
    got = rule.p_at(uu, kk - uu)
    assert got.dtype == np.float64 and got.shape == order.shape
    assert np.array_equal(got, p_rows[kk, idx].astype(np.float64), equal_nan=True)
    assert rule.p_at(np.int64(7), np.int64(6)) == p_rows[13, 7 - (6 - half_width)]
    empty = rule.p_at(np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    # level 30 holds u in [11, 19]; one bad site among good ones is refused
    for u, v in [(-1, 0), (0, -1), (25, 25), (26, 25), (horizon + 1, 0), (10, 20), (20, 10), (-3, 33)]:
        with pytest.raises(WindowError):
            rule.p_at(np.array([15, u]), np.array([15, v]))
    assert np.isfinite(rule.p_at(np.array([11, 19, 24]), np.array([19, 11, 24]))).all()


@pytest.mark.parametrize(
    "n",
    [
        2,  # n < 4: blocks of B = 1 level
        3,
        99,  # B^2 - 1: 11 blocks of B = 9
        100,  # B^2: 10 blocks of B = 10
        101,  # B^2 + 1: a last block of one level, above the horizon
        502,  # 23 blocks of B = 22, the last of 18 levels
    ],
)
def test_band_rule_refills_give_its_rows_in_any_order(n):
    # the rule holds one block of rows: walker order climbs through every
    # block, the reverse order refills each one from its checkpoint, and a
    # shuffled call spans every block at once
    f = generate_field(GAUSS, 12, Window(Site(0, 0), 1, 1))
    horizon, half_width = n - 2, 3
    width = 2 * half_width + 1
    expected = _per_level_band(f, 1.3, (-0.6, -0.8), horizon, half_width).astype(np.float64)
    kk, idx = np.divmod(np.arange((horizon + 1) * width), width)
    uu = kk // 2 - half_width + idx
    rule = band_transition_rule(f, 1.3, (-0.6, -0.8), horizon, half_width)
    for k in [*range(horizon + 1), *range(horizon, -1, -1)]:
        at = kk == k
        assert np.array_equal(rule.p_at(uu[at], k - uu[at]), expected[k], equal_nan=True)
    order = np.random.default_rng(n).permutation(kk.size)
    got = rule.p_at(uu[order], (kk - uu)[order])
    assert np.array_equal(got, expected.ravel()[order], equal_nan=True)


def test_band_rule_holds_its_checkpoints_and_one_block():
    # horizon 4000, half-width 300: n = 4002 levels in blocks of B = 63.
    # The rule keeps a padded float64 level per block and the float32 rows
    # of one block, in place of 9.6 MB of rows, beside one hash block;
    # lookups that refill blocks add nothing that lasts
    f = generate_field(GAUSS, 5, Window(Site(0, 0), 1, 1))
    horizon, half_width = 4000, 300
    band_transition_rule(f, 1.0, (-0.7, -0.7), 10, 3)  # warms up
    tracemalloc.start()
    try:
        rule = band_transition_rule(f, 1.0, (-0.7, -0.7), horizon, half_width)
        for k in (0, 1500, horizon, 200):
            uu = k // 2 + np.arange(-half_width, half_width + 1)
            uu = uu[(uu >= 0) & (uu <= k)]
            assert np.isfinite(rule.p_at(uu, k - uu)).all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = horizon + 2
    B = math.isqrt(n)
    assert peak <= (n / B + B) * (2 * half_width + 3) * 8 + _HASH_BLOCK_BYTES


def test_junction_rule_is_read_once_per_level_at_the_classes():
    # one p_at call per level, at the distinct sites that the reference's
    # walkers occupy there, sorted by u
    def recording(calls):
        def p_fn(uu, vv):
            calls.append(np.stack([uu, vv]))
            return np.full(uu.shape, 0.5)

        return CoupledStepRule(p_fn)

    for box in (3, 12):
        got, want = [], []
        junction_statistics(recording(got), box, CouplingField(4))
        _per_level_junctions(recording(want), box, 4)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, np.unique(w, axis=1))


def _per_level_junctions(rule, box, seed):
    """Reference: the walker of every start on the south-west boundary of
    [0, box]^2 stepped alone by `_site_step`, level by level from 0 to
    2 box, until it leaves [., box]^2.  Walkers that come to one site from
    two or more sites of the level before, or start there, join there: one
    event, a junction inside [1, box]^2."""
    L = box
    starts = [(k, 0) for k in range(L + 1)] + [(0, k) for k in range(1, L + 1)]
    comp = list(range(len(starts)))  # the start each walker has joined
    walkers = {}  # walker -> (site, where it came from)
    events = junctions = 0
    for level in range(2 * L + 1):
        for i, (u, v) in enumerate(starts):
            if u + v == level:
                walkers[i] = ((u, v), ("start", i))
        at = {}
        for i, (xy, came) in walkers.items():
            at.setdefault(xy, []).append((came, i))
        for xy, here in at.items():
            if len({came for came, _ in here}) > 1:
                events += 1
                junctions += 1 <= xy[0] <= L and 1 <= xy[1] <= L
                old = {comp[i] for _, i in here}
                comp = [here[0][1] if c in old else c for c in comp]
        if not walkers:
            continue
        ids = list(walkers)
        uu = np.array([walkers[i][0][0] for i in ids])
        vv = np.array([walkers[i][0][1] for i in ids])
        uu2, vv2 = _site_step(rule, seed, uu, vv)
        walkers = {
            i: ((int(u), int(v)), ("site", walkers[i][0]))
            for i, u, v in zip(ids, uu2, vv2)
            if u <= L and v <= L
        }
    sizes = np.bincount(comp, minlength=len(starts))
    sizes = sizes[sizes >= 2]
    return JunctionReport(L, junctions, junctions / L**2, int(sizes.sum()), events, sizes.size)


@pytest.mark.parametrize("box", [1, 2, 3, 16, 64])
def test_junction_box_equals_per_site_hashing(box):
    # the sorted classes against every walker stepped alone, the rays of
    # p = 0 and p = 1 among the laws
    for p in (0.0, 0.3, 0.5, 1.0):
        rule = constant_rule(p)
        for seed in range(3, 8):
            assert junction_statistics(rule, box, CouplingField(seed)) == _per_level_junctions(rule, box, seed)
