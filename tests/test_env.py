import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import polymerlab
from polymerlab import env
from polymerlab.cif import cif_direction_stats
from polymerlab.coupling import band_transition_rule
from polymerlab.env import (
    COUPLING_STREAM,
    WEIGHT_STREAM,
    FieldBatch,
    Site,
    WeightSpec,
    Window,
    field_from_values,
    generate_field,
    shift_view,
    site_uniforms,
)
from polymerlab.errors import ParameterError, WindowError
from polymerlab.partition import p2l_table, p2p_pair_values, p2p_table, p2p_values


def test_site_arithmetic_and_order():
    x = Site(2, 3)
    assert x.level() == 5
    assert (x + Site(1, 0)).level() == x.level() + 1
    assert Site(1, 1) <= Site(2, 1)
    assert not Site(2, 0) <= Site(1, 5)
    assert Site(3, 4) >= Site(3, 4)
    assert Site(1, 1) < Site(1, 2)


def test_window_membership():
    w = Window(Site(-2, 3), 4, 2)
    assert w.contains(Site(-2, 3)) and w.contains(Site(1, 4))
    assert not w.contains(Site(2, 4)) and not w.contains(Site(-3, 3))
    assert w.corner == Site(1, 4)
    with pytest.raises(WindowError):
        w.index(Site(5, 5))
    with pytest.raises(ParameterError):
        Window(Site(0, 0), 0, 3)


def test_constant_field_is_degenerate():
    f = generate_field(WeightSpec.constant(0.0), 12345, Window(Site(0, 0), 3, 3))
    assert np.all(f.values == 0.0)


def test_overlapping_windows_agree():
    spec = WeightSpec.gaussian(0, 1)
    f1 = generate_field(spec, 9, Window(Site(0, 0), 5, 5))
    f2 = generate_field(spec, 9, Window(Site(2, 2), 5, 5))
    # overlap is [2,4]x[2,4]
    assert np.array_equal(f1.values[2:, 2:], f2.values[:3, :3])


def test_regeneration_is_byte_identical():
    spec = WeightSpec.uniform(-1, 2)
    a = generate_field(spec, 7, Window(Site(-3, 4), 6, 6)).values
    b = generate_field(spec, 7, Window(Site(-3, 4), 6, 6)).values
    assert np.array_equal(a, b)


def test_seed_and_stream_separation():
    uu = np.arange(100, dtype=np.int64)
    vv = np.zeros(100, dtype=np.int64)
    w = site_uniforms(5, WEIGHT_STREAM, uu, vv)
    c = site_uniforms(5, COUPLING_STREAM, uu, vv)
    other = site_uniforms(6, WEIGHT_STREAM, uu, vv)
    assert not np.array_equal(w, c)
    assert not np.array_equal(w, other)
    assert np.all((w > 0) & (w < 1))


def test_seed_arrays_key_each_seed_as_it_keys_alone():
    # a walker batch's seeds wrap modulo 2^64 as one seed does: negative
    # seeds, seeds at or above 2^63 and above 2^64, and numpy ints
    seeds = [0, 5, -1, -(2**63), 2**63, 2**64 - 1, 2**64 + 7, 3 * 2**64 - 2]
    seeds += [np.int64(-9), np.uint64(2**63 + 1), np.int32(4)]
    got = env._seed_array(seeds)
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.fromiter(map(env._as_u64, seeds), np.uint64))
    keys = env._key(got, COUPLING_STREAM)
    assert keys.tolist() == [int(env._key(s, COUPLING_STREAM)) for s in seeds]
    assert env._seed_array([]).shape == (0,)


def test_shift_view_identity_and_group_law():
    spec = WeightSpec.gaussian(0.5, 2.0)
    f = generate_field(spec, 3, Window(Site(0, 0), 6, 6))
    assert np.array_equal(shift_view(f, Site(0, 0)).values, f.values)
    g = shift_view(shift_view(f, Site(2, -1)), Site(-2, 1))
    assert g.window == f.window
    assert np.array_equal(g.values, f.values)
    # random compositions act as the sum of displacements
    rng = np.random.default_rng(8)
    for _ in range(5):
        z1 = Site(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        z2 = Site(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        once = shift_view(f, z1 + z2)
        twice = shift_view(shift_view(f, z1), z2)
        assert twice.window == once.window
        assert np.array_equal(twice.values, once.values)


def test_shift_view_offsets_match():
    spec = WeightSpec.gaussian(0, 1)
    f = generate_field(spec, 11, Window(Site(0, 0), 10, 10))
    z = Site(2, 3)
    g = shift_view(f, z)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = Site(int(rng.integers(0, 7)), int(rng.integers(0, 6)))
        assert g.value(y) == f.value(y + z)


def test_shift_view_of_an_explicit_field_keeps_its_values():
    f = field_from_values(np.arange(12.0).reshape(3, 4), Window(Site(0, 0), 3, 4))
    z = Site(1, 0)
    g = shift_view(f, z)
    assert g.window == Window(Site(-1, 0), 3, 4)
    assert g.value(Site(0, 0)) == f.value(Site(1, 0)) == 4.0
    for u in range(-1, 2):
        for v in range(4):
            assert g.value(Site(u, v)) == f.value(Site(u, v) + z)
    assert np.array_equal(g.values_at([-1, 1], [3, 0]), f.values_at([0, 2], [3, 0]))
    back = shift_view(g, -z)
    assert back.window == f.window and np.array_equal(back.values, f.values)
    with pytest.raises(WindowError):
        g.values_at(2, 0)  # (3, 0) is outside the explicit grid


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_constant_weights_are_not_hashed(monkeypatch, shape):
    spec = WeightSpec.constant(-0.75)
    f = generate_field(spec, 2**63 + 1, Window(Site(-2, 3), 4, 3))
    batch = FieldBatch([f, generate_field(spec, 8, Window(Site(0, 0), 1, 1))])
    uu = np.full(shape, -5)
    vv = np.arange(int(np.prod(shape))).reshape(shape)
    q = site_uniforms(f.seed, WEIGHT_STREAM, uu, vv)
    monkeypatch.setattr(env, "site_uniforms", None)  # any hash call would fail
    want = spec.quantile(q)
    for got in (f.values_at(uu, vv), batch.values_at(uu, vv)[1], shift_view(f, Site(1, 1)).values_at(uu, vv)):
        assert got.shape == shape and got.dtype == np.float64
        assert np.array_equal(got, want)
    assert batch.values_at(uu, vv).shape == (2,) + shape
    assert np.array_equal(generate_field(spec, 3, Window(Site(0, 0), 2, 5)).values, np.full((2, 5), -0.75))


@pytest.mark.parametrize("block", [1, 8192])
def test_rows_of_constant_fields_build_no_coordinates(monkeypatch, block):
    # a hashed constant field or batch yields its rows without a values_at
    # call; an explicit grid carries a constant spec only as a placeholder,
    # so its rows still come from the grid
    spec = WeightSpec.constant(-0.75)
    f = generate_field(spec, 2**63 + 1, Window(Site(-2, 3), 4, 3))
    batch = FieldBatch([f, generate_field(spec, 8, Window(Site(0, 0), 1, 1))])
    explicit = field_from_values(np.arange(81.0).reshape(9, 9) - 40.0, Window(Site(-3, 2), 9, 9))
    u0, v0, lengths = np.array([-3, 0, -3, 2, -3]), np.array([10, 6, 8, 5, 10]), np.array([1, 5, 7, 2, 9])
    j = np.arange(9)
    want = {
        field: [field.values_at(u + j[:n], v - j[:n]) for u, v, n in zip(u0, v0, lengths)]
        for field in (f, batch, explicit)
    }
    monkeypatch.setattr(env, "_HASH_BLOCK_SITES", block)
    got = {explicit: list(env._rows(explicit, u0, v0, lengths, (1, -1)))}
    monkeypatch.setattr(env.WeightField, "values_at", None)  # any coordinates would fail
    monkeypatch.setattr(env.FieldBatch, "values_at", None)
    got |= {field: list(env._rows(field, u0, v0, lengths, (1, -1))) for field in (f, batch)}
    for field, rows in want.items():
        assert len(got[field]) == len(rows)
        for w, r in zip(got[field], rows):
            assert w.shape == r.shape and w.dtype == r.dtype and np.array_equal(w, r)
    assert got[batch][2].shape == (2, 7)
    assert not np.all(got[explicit][4] == -0.75)


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        WeightSpec.gaussian(0, 0.0)
    with pytest.raises(ParameterError):
        WeightSpec.inverse_log_gamma(-1.0)
    with pytest.raises(ParameterError):
        WeightSpec.uniform(1.0, 1.0)
    with pytest.raises(ParameterError):
        WeightSpec("weibull", (1.0,))
    # an infinite parameter gives infinite or NaN weights
    for bad in (
        lambda: WeightSpec.gaussian(0, math.inf),
        lambda: WeightSpec.gaussian(math.inf, 1),
        lambda: WeightSpec.gaussian(-math.inf, 1),
        lambda: WeightSpec.inverse_log_gamma(math.inf),
        lambda: WeightSpec.uniform(-math.inf, 0),
        lambda: WeightSpec.constant(math.nan),
        lambda: WeightSpec.constant(-math.inf),
    ):
        with pytest.raises(ParameterError):
            bad()


def test_log_gamma_shapes_with_infinite_weights_are_refused():
    # gammaincinv(0.01, 2^-54) underflows to 0, so the weight would be +inf
    with pytest.raises(ParameterError, match="infinite weight"):
        WeightSpec.inverse_log_gamma(0.01)
    spec = WeightSpec.inverse_log_gamma(0.051)
    assert np.isfinite(spec.quantile(2.0**-54))


def test_the_pinned_gaussian_edge_is_ndtri_of_the_smallest_uniform():
    # the gaussian spec check reads the literal, so it needs no scipy
    assert env._Q_MIN == 2.0**-54
    assert np.float64(env._NDTRI_Q_MIN).tobytes() == special.ndtri(env._Q_MIN).tobytes()
    with pytest.raises(ParameterError, match="infinite weight"):
        WeightSpec.gaussian(0.0, 1e308)  # sd * ndtri(2^-54) overflows
    assert WeightSpec.gaussian(0.0, 1e307).params == (0.0, 1e307)


def _hash_map_extremes(n: int = 50) -> np.ndarray:
    """The n lowest and n highest uniforms (k + 0.5) * 2^-53 that
    `site_uniforms` can return, k the top 53 hash bits."""
    k = np.concatenate([np.arange(n, dtype=np.uint64), np.uint64(2**53) - np.arange(n, 0, -1, dtype=np.uint64)])
    return (k + 0.5) * 2.0**-53


def _ilg_uniforms() -> np.ndarray:
    q = site_uniforms(5, WEIGHT_STREAM, np.arange(200)[:, None], np.arange(100))
    return np.concatenate([q.ravel(), _hash_map_extremes()])


def test_log_gamma_shape_one_is_the_closed_form():
    q = _ilg_uniforms()
    assert q.max() == 1.0  # the top hash value rounds up to 1
    with np.errstate(divide="ignore"):
        got = WeightSpec.inverse_log_gamma(1.0).quantile(q)
        want = -np.log(special.gammaincinv(1.0, q))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    inside = q < 1.0
    ref = np.array([-math.log(-math.log1p(-x)) for x in q[inside].tolist()])
    np.testing.assert_allclose(got[inside], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [0.7, 1.5, 2.5])
def test_other_log_gamma_shapes_keep_gammaincinv(shape):
    q = _ilg_uniforms()
    with np.errstate(divide="ignore"):
        got = WeightSpec.inverse_log_gamma(shape).quantile(q)
        want = -np.log(special.gammaincinv(shape, q))
    assert np.array_equal(got, want)


def test_log_gamma_shape_one_reads_never_call_gammaincinv(monkeypatch):
    def boom(*args):
        raise AssertionError("gammaincinv called")

    monkeypatch.setattr(env._special(), "gammaincinv", boom)
    spec = WeightSpec.inverse_log_gamma(1.0)
    f = generate_field(spec, 2**63 + 1, Window(Site(-2, 3), 40, 30))
    batch = FieldBatch([f, generate_field(spec, 8, Window(Site(0, 0), 1, 1))])
    uu, vv = np.arange(-3, 9)[:, None], np.arange(7)
    for got in (f.values_at(uu, vv), batch.values_at(uu, vv), shift_view(f, Site(1, 1)).values):
        assert np.all(np.isfinite(got))
    with pytest.raises(AssertionError, match="gammaincinv called"):
        WeightSpec.inverse_log_gamma(1.5)  # the patch is the one quantile reads


def test_inverse_log_gamma_mean_against_quadrature():
    # independent oracle: E[-log X] for X ~ Gamma(mu) by numeric integration
    mu = 1.0
    oracle, _ = integrate.quad(
        lambda x: -math.log(x) * x ** (mu - 1) * math.exp(-x) / math.gamma(mu),
        0,
        np.inf,
    )
    assert abs(oracle - (-special.digamma(mu))) < 1e-10  # digamma identity
    spec = WeightSpec.inverse_log_gamma(mu)
    f = generate_field(spec, 7, Window(Site(0, 0), 1000, 1000))
    n = f.values.size
    mean = float(f.values.mean())
    se = float(f.values.std(ddof=1)) / math.sqrt(n)
    assert abs(mean - oracle) < 3 * se


@pytest.mark.parametrize(
    "spec",
    [
        WeightSpec.gaussian(0.3, 1.7),
        WeightSpec.uniform(-2.0, 1.0),
        WeightSpec.inverse_log_gamma(2.5),
    ],
)
def test_moments_within_four_se(spec):
    f = generate_field(spec, 99, Window(Site(0, 0), 1000, 1000))
    x = f.values.ravel()
    n = x.size
    mean_se = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - spec.mean()) < 4 * mean_se
    s2 = x.var(ddof=1)
    m4 = float(np.mean((x - x.mean()) ** 4))
    var_se = math.sqrt(max(m4 - s2**2, 0.0) / n)
    assert abs(s2 - spec.variance()) < 4 * var_se


def test_csv_roundtrip(tmp_path):
    f = generate_field(WeightSpec.gaussian(0, 1), 4, Window(Site(0, 0), 3, 2))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,v,omega"
    u, v, w = lines[1].split(",")
    assert float(w) == f.value(Site(int(u), int(v)))


def _stream_reads():
    """Every kind of weight read that goes through env's blocked rows, with
    the most sites one row of it hashes over all replicas and the sites it
    hashes in all (None where not pinned)."""
    spec = WeightSpec.inverse_log_gamma(1.5)
    f = generate_field(spec, 6, Window(Site(-4, 3), 11, 9))
    batch = FieldBatch([generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in (2, 2**63 + 5)])
    explicit = field_from_values(f.values, f.window)
    a = np.arange(0, 9, 2)
    kk = np.repeat(np.arange(61), 9)
    uu = kk // 2 - 4 + np.tile(np.arange(9), 61)
    inside = (uu >= 0) & (uu <= kk)
    line = p2l_table(f, 0.9, (0.1, -0.2), 17, Site(-2, 7))  # depth K = 12
    tables = [
        p2p_table(f, Site(4, 10), f.window, 1.5, "to_anchor"),
        p2p_table(f, Site(-3, 5), Window(Site(-4, 3), 6, 30), math.inf, "from_anchor"),
    ]
    return {
        "generate_field": (lambda: generate_field(spec, 6, Window(Site(-4, 3), 11, 9)).values, 9, 99),
        "subfield": (lambda: f.subfield(Window(Site(-30, -2), 5, 40)).values, 40, 200),
        "shift_view": (lambda: shift_view(f, Site(7, -3)).values, 9, 99),
        "band": (
            lambda: band_transition_rule(f, 1.3, (-0.7, -0.6), 60, 4).p_at(uu[inside], (kk - uu)[inside]),
            9,
            None,
        ),
        "interface": (lambda: cif_direction_stats(f, 0.8, 50, 40, 3, Site(-2, 5)).directions, 41, None),
        # levels 0..29 clipped to du <= 8: 1, 2, ..., 9, then 9 sites for
        # 21 levels, two replicas
        "probe": (lambda: p2p_values(batch, Site(-1, 4), 1.5, a, 30 - a), 2 * 9, 2 * 234),
        "probe_explicit": (lambda: p2p_pair_values(explicit, Site(-4, 3), 1.5, a, 8 - a), 0, 0),
        # a table hashes the levels of its corner of the window, less the
        # one whose weight no edge carries: the anchor (to_anchor) or the
        # far corner (from_anchor)
        "table_to": (lambda: p2p_table(f, Site(4, 10), f.window, 1.5, "to_anchor").logz, 8, 9 * 8 - 1),
        "table_from": (
            lambda: p2p_table(f, Site(-3, 5), Window(Site(-4, 3), 6, 30), 0.5, "from_anchor").logz,
            5,
            5 * 28 - 1,
        ),
        "table_explicit": (lambda: p2p_table(explicit, Site(2, 8), f.window, 1.5, "to_anchor").logz, 0, 0),
        # the sites below level n only: rows of 12, 11, ..., 1
        "p2l_residual": (lambda: np.array(line.recursion_residual()), 12, 12 * 13 // 2),
        # each table's window, in rows of constant u
        "p2p_residual": (lambda: np.array([t.recursion_residual() for t in tables]), 30, 99 + 180),
    }


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("read", list(_stream_reads()))
def test_every_weight_read_hashes_blocks_of_whole_rows(monkeypatch, block, read):
    # the same values bit for bit under any block size, including rows
    # longer than the block, and no hash call beyond the block unless it is
    # a single row; an explicit field hashes nothing
    fn, row, sites = _stream_reads()[read]
    want = fn()
    calls = []
    hash_sites = env.site_uniforms

    def counted(seed, stream, uu, vv):
        if stream == WEIGHT_STREAM:
            calls.append(np.broadcast(np.asarray(seed), np.asarray(uu), np.asarray(vv)).size)
        return hash_sites(seed, stream, uu, vv)

    monkeypatch.setattr(env, "_HASH_BLOCK_SITES", block)
    monkeypatch.setattr(env, "site_uniforms", counted)
    got = fn()
    assert np.array_equal(got, want)
    assert bool(calls) == (row > 0)
    assert max(calls, default=0) <= max(block, row)
    assert sites is None or sum(calls) == sites


@pytest.mark.parametrize(
    "count,per_item,budget,shared,sizes",
    [
        (0, 10, 100, 20, []),  # no items, no slices
        (3, 90, 100, 20, [1, 1, 1]),  # an item larger than the spare budget goes alone
        (4, 10, 30, 30, [1, 1, 1, 1]),  # so does any item when nothing is spare
        (6, 10, 80, 20, [6]),  # an exact fit of the whole batch
        (9, 10, 50, 20, [3, 3, 3]),  # exact fits give full groups
        (10, 10, 59, 20, [3, 3, 3, 1]),  # a partial last group is kept
    ],
)
def test_groups_slice_the_batch_in_order(count, per_item, budget, shared, sizes):
    groups = list(env._groups(count, per_item, budget, shared))
    items = range(count)
    assert [len(items[g]) for g in groups] == sizes
    assert [i for g in groups for i in items[g]] == list(items)
    assert all(g.stop <= count for g in groups)


def test_every_group_size_comes_from_the_one_rule():
    # a `max(1, ... // ...)` group size under src/ lives only in
    # `env._groups`, and these are the batches that it sizes
    callers = {
        ("env.py", "_blocks"),  # rows of a rectangle, in sites
        ("cocycle.py", "busemann_fields_from_p2l"),  # tilts
        ("cocycle.py", "cesaro_busemann"),  # samples, two sweeps each
        ("gibbs.py", "dlr_window_reports"),  # DLR windows
        ("gibbs.py", "ldp_rate_profile"),  # LDP replicas
        ("partition.py", "_to_anchor_ratios"),  # padded comparison rectangles
    }
    sized, called = set(), set()

    def walk(path, node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                one = any(isinstance(a, ast.Constant) and a.value == 1 for a in child.args)
                floor = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.FloorDiv) for a in child.args for n in ast.walk(a))
                if name == "max" and one and floor:
                    sized.add((path.name, fn))
                if name == "_groups":
                    called.add((path.name, fn))
            walk(path, child, child.name if isinstance(child, ast.FunctionDef) else fn)

    for path in sorted(Path(polymerlab.__file__).parent.glob("*.py")):
        walk(path, ast.parse(path.read_text(encoding="utf-8")), None)
    assert sized == {("env.py", "_groups")}
    assert called == callers
