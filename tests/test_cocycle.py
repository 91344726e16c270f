import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from polymerlab import cocycle, env
from polymerlab.cocycle import (
    _increments,
    _replica_batch,
    boundary_profile,
    busemann_fields_from_p2l,
    busemann_from_p2l,
    busemann_from_p2p,
    cesaro_busemann,
    check_monotonicity,
    cocycle_shape_check,
    direction_scan,
    dual_tilt,
    estimate_shape,
    point_to_line_value,
)
from polymerlab.env import (
    E1,
    E2,
    FieldBatch,
    Site,
    WeightSpec,
    Window,
    field_from_values,
    generate_field,
)
from polymerlab.errors import HorizonError, ParameterError, ProvenanceError, WindowError
from polymerlab.fixtures import hand_grid_field
from polymerlab.gibbs import ldp_rate_profile
from polymerlab.partition import enumerate_oracle, p2l_rows

GAUSS = WeightSpec.gaussian(0, 1)
LOG2 = math.log(2.0)


def test_constant_field_increments_forced_by_recovery():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 8, 8))
    for beta in (1.0, 2.0):
        bf = busemann_from_p2l(f, beta, (0.0, 0.0), 60)
        # exp(-beta b1) + exp(-beta b2) = 1 with b1 = b2 forces b = log(2)/beta
        assert np.allclose(bf.b1, LOG2 / beta, atol=1e-12)
        assert np.allclose(bf.b2, LOG2 / beta, atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 4.0, math.inf])
def test_recovery_and_closure_exact(beta):
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 40, 40))
    bf = busemann_from_p2l(f, beta, (0.1, -0.2), 120)
    assert bf.recovery_residual() <= 1e-10
    assert bf.closure_residual() <= 1e-10
    target = Site(60, 60)
    bp = busemann_from_p2p(f, beta, target, Window(Site(0, 0), 20, 20))
    assert bp.recovery_residual() <= 1e-10
    assert bp.closure_residual() <= 1e-10


def test_p2l_increments_match_oracle_differences():
    f = generate_field(GAUSS, 3, Window(Site(0, 0), 6, 6))
    h = (0.3, -0.2)
    n = 9
    bf = busemann_from_p2l(f, 1.0, h, n, Window(Site(0, 0), 4, 4))
    for u, v in [(0, 0), (2, 1), (3, 3)]:
        want1 = (
            enumerate_oracle(f, Site(u, v), 1.0, level=n, h=h)
            - enumerate_oracle(f, Site(u + 1, v), 1.0, level=n, h=h)
            - h[0]
        )
        want2 = (
            enumerate_oracle(f, Site(u, v), 1.0, level=n, h=h)
            - enumerate_oracle(f, Site(u, v + 1), 1.0, level=n, h=h)
            - h[1]
        )
        assert bf.b1[u, v] == pytest.approx(want1, abs=1e-10)
        assert bf.b2[u, v] == pytest.approx(want2, abs=1e-10)


def test_horizon_guard():
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 10, 10))
    with pytest.raises(HorizonError):
        busemann_from_p2l(f, 1.0, (0.0, 0.0), 10)


def test_p2p_hand_grid_zero_temperature():
    f = hand_grid_field()
    bf = busemann_from_p2p(f, math.inf, Site(1, 1), Window(Site(0, 0), 1, 1))
    assert bf.b1[0, 0] == 1.0  # G(0,0)-G(e1) = 6 - 5
    assert bf.b2[0, 0] == 4.0
    assert min(bf.b1[0, 0], bf.b2[0, 0]) == f.value(Site(0, 0))


def test_p2p_constant_weights_binomial():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 12, 12))
    target = Site(9, 7)
    bf = busemann_from_p2p(f, 1.0, target, Window(Site(0, 0), 4, 4))
    for u, v in [(0, 0), (2, 3), (3, 1)]:
        a, b = target.u - u, target.v - v
        want = math.log(math.comb(a + b, a)) - math.log(math.comb(a - 1 + b, a - 1))
        assert bf.b1[u, v] == pytest.approx(want, abs=1e-10)


def test_p2p_target_guard():
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 10, 10))
    with pytest.raises(WindowError):
        busemann_from_p2p(f, 1.0, Site(5, 20), Window(Site(0, 0), 6, 6))


def test_p2p_horizon_doubling_diagnostic():
    # stabilization of b1(0) as the target radius doubles: report only
    f = generate_field(GAUSS, 19, Window(Site(0, 0), 1, 1))
    win = Window(Site(0, 0), 1, 1)
    diffs = []
    for N in (20, 40, 80):
        a = busemann_from_p2p(f, 1.0, Site(N, N), win).b1[0, 0]
        b = busemann_from_p2p(f, 1.0, Site(2 * N, 2 * N), win).b1[0, 0]
        diffs.append(abs(a - b))
    assert all(np.isfinite(diffs))


def test_monotonicity_equal_and_ordered():
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 30, 30))
    fa = busemann_from_p2l(f, 1.0, (0.0, 0.0), 80)
    same = check_monotonicity(fa, fa)
    assert same.violations == 0 and same.worst_margin == 0.0
    fb = busemann_from_p2l(f, 1.0, (0.5, -0.5), 80)
    rep = check_monotonicity(fa, fb)
    assert rep.violations == 0
    # argument order must not matter
    assert check_monotonicity(fb, fa).violations == 0


def test_monotonicity_random_sweep():
    f = generate_field(GAUSS, 11, Window(Site(0, 0), 20, 20))
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(20):
        h = (float(rng.normal()), float(rng.normal()))
        hp = (h[0] + float(rng.uniform(0, 1)), h[1] - float(rng.uniform(0, 1)))
        fa = busemann_from_p2l(f, 1.0, h, 60)
        fb = busemann_from_p2l(f, 1.0, hp, 60)
        total += check_monotonicity(fa, fb).violations
    assert total == 0


def test_monotonicity_incomparable_tilts_rejected():
    f = generate_field(GAUSS, 7, Window(Site(0, 0), 10, 10))
    fa = busemann_from_p2l(f, 1.0, (0.0, 0.0), 40)
    fb = busemann_from_p2l(f, 1.0, (0.5, 0.5), 40)
    with pytest.raises(ParameterError):
        check_monotonicity(fa, fb)


def test_cesaro_constant_weights_deterministic():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 4, 4))
    h = (-LOG2, -LOG2)  # the zero-free-energy tilt of the constant model
    bf, rep = cesaro_busemann(f, 1.0, h, 50, 20, seed=5)
    assert rep.mean_b1 == pytest.approx(LOG2, abs=1e-12)
    assert rep.mean_b2 == pytest.approx(LOG2, abs=1e-12)
    assert rep.se_b1 == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.fpl_mean) < 1e-12
    assert bf.provenance.kind == "cesaro"
    with pytest.raises(ProvenanceError):
        bf.recovery_residual()  # averaged fields carry no single environment


def test_cesaro_single_sample_degenerates():
    f = generate_field(GAUSS, 9, Window(Site(0, 0), 4, 4))
    bf, rep = cesaro_busemann(f, 1.0, (-1.0, -1.0), 30, 1, seed=3)
    assert bf.provenance.samples == 1
    assert math.isnan(rep.se_b1)


@pytest.mark.parametrize("beta,group", [(1.0, None), (math.inf, None), (1.0, 8)], ids=["1.0", "inf", "1.0-groups"])
def test_cesaro_equals_its_per_sample_sweeps(beta, group, monkeypatch):
    # reference: one environment, one horizon-N and one horizon-n sweep per
    # sample, as before the samples were batched; with `group`, the samples
    # run in groups of 8, 8, 8 and 6 under a patched budget
    f = generate_field(GAUSS, 4, Window(Site(2, 1), 3, 4))
    h, n, samples, seed = (-1.2, -0.8), 12, 30, 8
    if group is not None:
        per_sample = 2 * cocycle._p2l_bytes(n, f.window)
        monkeypatch.setattr(cocycle, "_TILT_BLOCK_BYTES", cocycle._p2l_shared(n, f.window) + group * per_sample)
        calls = []
        sweep = cocycle.p2l_rows
        monkeypatch.setattr(cocycle, "p2l_rows", lambda field, *a: calls.append(len(field.fields)) or sweep(field, *a))
    bf, rep = cesaro_busemann(f, beta, h, n, samples, seed)
    if group is not None:
        assert calls == [8, 8, 8, 6]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4E5)))
    horizons = rng.integers(1, n + 1, size=samples)
    base, W, H = f.window.origin, 3, 4
    level = sum(f.window.coord_grids())
    b1_acc, b2_acc, fpl = np.zeros((W, H)), np.zeros((W, H)), []
    for N, env in zip(horizons, _replica_batch(GAUSS, seed, samples, 0xE17).fields):
        rows = np.full((W + 1, H + 1), -np.inf)
        part = p2l_rows(env, beta, h, max(N, base.level()), base, keep_rows=W + 1)[:, : H + 1]
        rows[: part.shape[0], : part.shape[1]] = part
        with np.errstate(invalid="ignore"):
            b1, b2 = _increments(rows, W, H, beta, h)
        b1_acc += np.where(level >= N, 0.0, b1)
        b2_acc += np.where(level >= N, 0.0, b2)
        F = p2l_rows(env, beta, h, n, base, keep_rows=1)[0, 0]
        fpl.append((F if math.isinf(beta) else F / beta) / (n - base.level()))
    assert min(horizons) <= base.level()  # some samples lie wholly above N
    assert np.array_equal(bf.b1, b1_acc / samples)
    assert np.array_equal(bf.b2, b2_acc / samples)
    assert rep.fpl_mean == np.mean(fpl)


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_shape_does_not_depend_on_the_batch_size(beta):
    grid = (0.3, 0.5, 0.7)
    five = estimate_shape(GAUSS, beta, grid, [40, 25], 5, 3)
    eight = estimate_shape(GAUSS, beta, grid, [40, 25], 8, 3)
    assert np.array_equal(five.samples, eight.samples[:5])


def test_replica_runs_refuse_degenerate_sizes():
    calls = [
        lambda: estimate_shape(GAUSS, 1.0, (0.5,), [10], 0, 1),
        lambda: estimate_shape(GAUSS, 1.0, (0.5,), [0], 2, 1),
        lambda: point_to_line_value(GAUSS, 1.0, (-1.0, -1.0), 10, 0, 1),
        lambda: point_to_line_value(GAUSS, 1.0, (-1.0, -1.0), 0, 2, 1),
        lambda: boundary_profile(GAUSS, 1.0, [0.1], [50], 0, 1),
        lambda: boundary_profile(GAUSS, 1.0, [0.1, 0.1], [50, 0], 2, 1),
        lambda: ldp_rate_profile(GAUSS, 1.0, (-1.0, -1.0), 10, 0, 1),
        lambda: ldp_rate_profile(GAUSS, 1.0, (-1.0, -1.0), 0, 2, 1),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_shape_entropy_reference_small():
    est = estimate_shape(WeightSpec.constant(0.0), 1.0, (0.25, 0.5, 0.75), [600], 1, 1)
    for t in (0.25, 0.5, 0.75):
        lam, _ = est.at(t)
        ent = -t * math.log(t) - (1 - t) * math.log(1 - t)
        assert abs(lam - ent) < 0.02


def test_shape_symmetry_and_concavity_small():
    grid = (0.3, 0.4, 0.5, 0.6, 0.7)
    est = estimate_shape(GAUSS, 1.0, grid, [300], 24, 1)
    d, se = est.paired_difference(0.3, 0.7)
    assert abs(d) <= 2 * se
    lam = est.lambda_hat[:, -1]
    for i in (1, 2, 3):
        second = lam[i - 1] - 2 * lam[i] + lam[i + 1]
        comb = math.sqrt(
            est.se[i - 1, -1] ** 2 + 4 * est.se[i, -1] ** 2 + est.se[i + 1, -1] ** 2
        )
        assert second <= 2 * comb


def test_dual_tilt_constant_entropy():
    grid = (0.3, 0.4, 0.5, 0.6, 0.7)
    est = estimate_shape(WeightSpec.constant(0.0), 1.0, grid, [800], 1, 1)
    for t in (0.4, 0.5, 0.6):
        dt = dual_tilt(est, t)
        # exact entropy duals: h = (log t, log(1-t))
        assert dt.h[0] == pytest.approx(math.log(t), abs=0.02)
        assert dt.h[1] == pytest.approx(math.log(1 - t), abs=0.02)
        assert dt.euler_residual < 1e-12
    with pytest.raises(ParameterError):
        dual_tilt(est, 0.3)  # grid boundary


def test_dual_tilt_shift_traces_free_energy_line():
    # f_pl(h + c(e1+e2)) = f_pl(h) + c, exactly at the pre-limit level
    spec = WeightSpec.constant(0.0)
    h = (-LOG2, -LOG2)
    base, _ = point_to_line_value(spec, 1.0, h, 60, 1, 3)
    for c in (-0.3, 0.2):
        val, _ = point_to_line_value(spec, 1.0, (h[0] + c, h[1] + c), 60, 1, 3)
        assert val - base == pytest.approx(c, abs=1e-12)


def test_boundary_profile_gaussian():
    out = boundary_profile(GAUSS, 1.0, [0.04, 0.01], [2500, 10000], 3, 5)
    ratios = [r for _, r, _ in out]
    assert all(0.6 < r < 1.4 for r in ratios)
    with pytest.raises(ParameterError):
        boundary_profile(WeightSpec.constant(0.0), 1.0, [0.01], [1000], 2, 1)


def test_cocycle_shape_trivial_and_control():
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 41, 41))
    bf = busemann_from_p2l(f, 1.0, (-LOG2, -LOG2), 200, Window(Site(0, 0), 41, 41))
    prof = cocycle_shape_check(bf, (LOG2, LOG2), [10, 20, 40])
    assert max(prof.deviations) <= 1e-12
    wrong = cocycle_shape_check(bf, (LOG2 + 0.1, LOG2), [10, 20, 40])
    assert all(d == pytest.approx(0.1, abs=1e-9) for d in wrong.deviations)
    with pytest.raises(WindowError):
        cocycle_shape_check(bf, (LOG2, LOG2), [50])


def test_direction_scan_monotone_and_binomial():
    f = generate_field(GAUSS, 3, Window(Site(0, 0), 6, 6))
    prof = direction_scan(f, 1.0, np.linspace(0.1, 0.9, 17), 30)
    assert prof.violations == 0
    f0 = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 4, 4))
    N = 24
    grid = [0.25, 0.5, 0.75]
    prof0 = direction_scan(f0, 1.0, grid, N)
    for t, got in zip(grid, prof0.b1):
        a = round(N * t)
        want = math.log(math.comb(N, a)) - math.log(math.comb(N - 1, a - 1))
        assert got == pytest.approx(want, abs=1e-10)


def test_direction_scan_counts_nan_differences_as_violations():
    # an infinite weight makes every b1 an inf - inf; NaN differences must
    # not read as a monotone profile
    values = np.zeros((25, 25))
    values[3, 4] = math.inf
    f = field_from_values(values, Window(Site(0, 0), 25, 25))
    with np.errstate(invalid="ignore"):
        prof = direction_scan(f, 1.0, np.linspace(0.2, 0.8, 5), 20)
    assert np.all(np.isnan(prof.b1))
    assert prof.violations == 4


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, math.inf])
def test_tilt_batch_equals_single_tilt_sweeps(beta, monkeypatch):
    # tilts on a leading axis, crossed with a replica batch and with ragged
    # horizons: every sweep equals its own single-tilt sweep bit for bit
    fields = [generate_field(GAUSS, s, Window(Site(0, 0), 1, 1)) for s in (17, 2**63 + 3, -9)]
    batch = FieldBatch(fields)
    tilts = np.array([[0.0, 0.0], [0.4, -0.7], [-1.3, 0.2], [2.0, 2.0], [-0.0, 1e-3]])
    base, n = Site(-2, 3), 19
    crossed = p2l_rows(batch, beta, tilts[:, None], n, base, keep_rows=6)
    assert crossed.shape == (5, 3, 6, n - base.level() + 1)
    horizons = np.array([n, 15, 1])
    ragged = p2l_rows(batch, beta, tilts[:, None], n, base, 6, horizons)
    for t, h in enumerate(tilts.tolist()):
        by_horizon = p2l_rows(batch, beta, h, n, base, 6, horizons)
        for r, f in enumerate(fields):
            assert np.array_equal(crossed[t, r], p2l_rows(f, beta, h, n, base, keep_rows=6))
            assert np.array_equal(ragged[t, r], by_horizon[r])
    # the field builder sweeps two tilts per group here, so three groups
    win = Window(Site(1, -2), 4, 3)
    K = n - win.origin.level()
    per_tilt = 8 * ((K + 1) * (win.width + 8) + 3 * win.width * win.height)
    monkeypatch.setattr(cocycle, "_TILT_BLOCK_BYTES", cocycle._p2l_shared(n, win) + 2 * per_tilt)
    calls = []

    def counted(field, beta, hs, *args, **kw):
        calls.append(hs)
        return p2l_rows(field, beta, hs, *args, **kw)

    monkeypatch.setattr(cocycle, "p2l_rows", counted)
    built = list(busemann_fields_from_p2l(fields[1], beta, tilts, n, win))
    assert [len(h) for h in calls] == [2, 2, 1]
    scale = 1.0 if math.isinf(beta) else 1.0 / beta
    for h, bf in zip(tilts.tolist(), built):
        # the single-tilt build before tilts were batched
        rows = p2l_rows(fields[1], beta, h, n, win.origin, keep_rows=5)
        assert np.array_equal(bf.b1, (rows[:4, :3] - rows[1:5, :3]) * scale - h[0])
        assert np.array_equal(bf.b2, (rows[:4, :3] - rows[:4, 1:4]) * scale - h[1])
        assert bf.provenance.h == tuple(h) and bf.provenance.horizon == n
    with pytest.raises(ParameterError):
        next(busemann_fields_from_p2l(fields[1], beta, np.empty((0, 2)), n, win))
    with pytest.raises(ParameterError):
        p2l_rows(fields[1], beta, (0.1, 0.2, 0.3), n, base, 6)


@pytest.mark.parametrize("K,W,H", [(300, 6, 5), (2000, 3, 3), (39, 20, 20), (10, 6, 5)])
def test_a_tilt_group_stays_within_its_budget(K, W, H):
    # a full group: W + 8 rows of K + 1 values and three W x H arrays per
    # tilt, beside the sweep's hashing of one block or one longer level and
    # five rows of K + 1 values, under the default budget
    f = generate_field(WeightSpec.gaussian(0, 1), 3, Window(Site(0, 0), 1, 1))
    per_tilt = 8 * ((K + 1) * (W + 8) + 3 * W * H)
    shared = max(env._HASH_BLOCK_BYTES, 80 * (K + 1)) + 40 * (K + 1)
    group = (cocycle._TILT_BLOCK_BYTES - shared) // per_tilt
    tilts = np.random.default_rng(K).uniform(-1.0, 0.0, size=(group + 1, 2))
    fields = busemann_fields_from_p2l(f, 1.0, tilts, K, Window(Site(0, 0), W, H))
    tracemalloc.start()
    try:
        first = next(fields)  # sweeps the first group, all but one tilt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.b1.base.shape[0] == group
    assert peak <= cocycle._TILT_BLOCK_BYTES


def test_a_cesaro_group_stays_within_its_budget():
    # configs/cesaro.cfg: 200 samples at n = 400 on the 8 x 8 window, two
    # point-to-line sweeps per sample, in groups of 72, 72 and 56; each
    # group's rows are freed before the next group's sweep
    f = generate_field(GAUSS, 501, Window(Site(0, 0), 8, 8))
    per_sample = 2 * cocycle._p2l_bytes(400, f.window)
    assert (cocycle._TILT_BLOCK_BYTES - cocycle._p2l_shared(400, f.window)) // per_sample == 72
    cesaro_busemann(f, 1.0, (-1.0, -1.0), 20, 3, 77, Window(Site(0, 0), 2, 2))  # warms up
    tracemalloc.start()
    try:
        bf, rep = cesaro_busemann(f, 1.0, (-1.0, -1.0), 400, 200, 77)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.samples == 200 and np.all(np.isfinite(bf.b1))
    assert peak <= cocycle._TILT_BLOCK_BYTES


def _running_total(bf, sites):
    # BusemannField.staircase_sum as a running total, one b_at per step
    total = 0.0
    for a, b in zip(sites[:-1], sites[1:]):
        total += bf.b_at(a, 1 if b - a == E1 else 2)
    return total


def test_staircase_sum_of_coordinates_equals_the_running_total():
    win = Window(Site(-3, 2), 20, 15)
    f = generate_field(GAUSS, 12, Window(Site(0, 0), 1, 1))
    bf = busemann_from_p2l(f, 1.3, (0.2, -0.4), 80, win)
    rng = np.random.default_rng(3)
    for _ in range(40):
        start = Site(int(rng.integers(-3, 10)), int(rng.integers(2, 9)))
        tu, tv = int(rng.integers(0, 16 - start.u)), int(rng.integers(0, 16 - start.v))
        steps = rng.permutation(np.r_[np.ones(tu, dtype=np.int64), np.zeros(tv, dtype=np.int64)])
        coords = np.zeros((tu + tv + 1, 2), dtype=np.int64)
        coords[1:] = np.cumsum(np.stack([steps, 1 - steps], axis=1), axis=0)
        coords += (start.u, start.v)
        sites = [Site(u, v) for u, v in coords.tolist()]
        want = np.float64(_running_total(bf, sites)).tobytes()
        assert np.float64(bf.staircase_sum(coords)).tobytes() == want
        assert np.float64(bf.staircase_sum(sites)).tobytes() == want
    # -0.0 increments: the running total from 0.0 gives +0.0
    zero = dataclasses.replace(bf, b1=np.full_like(bf.b1, -0.0), b2=np.full_like(bf.b2, -0.0))
    stair = [Site(0, 3), Site(1, 3), Site(1, 4)]
    assert np.float64(zero.staircase_sum(np.array([(0, 3), (1, 3), (1, 4)]))).tobytes() == np.float64(
        _running_total(zero, stair)
    ).tobytes()


def test_staircase_sum_refuses_what_the_loop_refused():
    win = Window(Site(-3, 2), 6, 5)
    f = generate_field(GAUSS, 12, Window(Site(0, 0), 1, 1))
    bf = busemann_from_p2l(f, 1.0, (0.0, 0.0), 30, win)
    for one in ([Site(1, 4)], np.array([[1, 4]]), np.array([[40, -40]])):
        assert bf.staircase_sum(one) == 0.0
    for diagonal in ([Site(0, 3), Site(1, 4)], np.array([[0, 3], [1, 3], [2, 4]]), np.array([[0, 3], [0, 2]])):
        with pytest.raises(ParameterError):
            bf.staircase_sum(diagonal)
    # the window's sites have v in 2..6: the step out of (0, 7) reads outside
    for outside in ([Site(-4, 3), Site(-3, 3)], np.array([[0, v] for v in range(3, 9)])):
        with pytest.raises(WindowError):
            bf.staircase_sum(outside)


@pytest.mark.parametrize("seed", range(20))
def test_batched_staircase_sums_equal_each_staircase_sum(seed):
    # every length from 1 to W + H - 2, from random starts, padded with
    # junk past each staircase's end
    W, H = 9, 7
    win = Window(Site(-2, 3), W, H)
    f = generate_field(GAUSS, 500 + seed, Window(Site(0, 0), 1, 1))
    bf = busemann_from_p2l(f, 1.0, (0.3, -0.2), 40, win)
    rng = np.random.default_rng(seed)
    lengths = np.arange(1, W + H - 1)
    sites = rng.integers(-99, 99, (len(lengths), W + H - 1, 2))
    for s, n in enumerate(lengths.tolist()):
        tu = int(rng.integers(max(0, n - H + 1), min(n, W - 1) + 1))
        start = (int(rng.integers(0, W - tu)) - 2, int(rng.integers(0, H - (n - tu))) + 3)
        steps = rng.permutation(np.r_[np.ones(tu, dtype=np.int64), np.zeros(n - tu, dtype=np.int64)])
        sites[s, 0] = start
        sites[s, 1 : n + 1] = start + np.cumsum(np.stack([steps, 1 - steps], axis=1), axis=0)
    sums = bf.staircase_sums(sites, lengths)
    one = [bf.staircase_sum(sites[s, : n + 1]) for s, n in enumerate(lengths.tolist())]
    loop = [_running_total(bf, [Site(u, v) for u, v in sites[s, : n + 1].tolist()]) for s, n in enumerate(lengths.tolist())]
    assert np.array_equal(sums, one) and np.array_equal(sums, loop)


def test_staircase_sums_refuse_within_each_staircase_only():
    win = Window(Site(0, 0), 5, 5)
    f = generate_field(GAUSS, 12, Window(Site(0, 0), 1, 1))
    bf = busemann_from_p2l(f, 1.0, (0.0, 0.0), 30, win)
    sites = np.array([[[0, 0], [1, 0], [2, 2]], [[0, 0], [0, 1], [0, 2]]])
    assert np.array_equal(bf.staircase_sums(sites, [1, 2]), [bf.b1[0, 0], bf.b2[0, 0] + bf.b2[0, 1]])
    with pytest.raises(ParameterError):
        bf.staircase_sums(sites, [2, 2])
    with pytest.raises(WindowError):
        bf.staircase_sums(np.array([[[4, 4], [5, 4], [6, 4]]]), [2])
    for bad in ([-1, 0], [3, 0]):
        with pytest.raises(ParameterError):
            bf.staircase_sums(sites, bad)


def test_a_nan_increment_is_a_monotonicity_violation():
    f = generate_field(GAUSS, 3, Window(Site(0, 0), 1, 1))
    win = Window(Site(0, 0), 6, 5)
    fa = busemann_from_p2l(f, 1.0, (0.0, 0.0), 20, win)
    fb = busemann_from_p2l(f, 1.0, (0.5, -0.5), 20, win)
    assert check_monotonicity(fa, fb).violations == 0
    for name in ("b1", "b2"):
        values = getattr(fb, name).copy()
        values[2, 3] = math.nan
        rep = check_monotonicity(fa, dataclasses.replace(fb, **{name: values}))
        assert rep.violations == 1 and math.isnan(rep.worst_margin)
