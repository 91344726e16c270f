"""Property tests of env's keyed hash against `site_uniforms` and a Python
reference of the chain, of env's blocked row streams against per-row
`values_at`, of the streamed point-to-point table against one array sweep,
and of the batched comparison check against two tables per triple."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from polymerlab import env, partition  # noqa: E402
from polymerlab.env import (  # noqa: E402
    E1,
    E2,
    FieldBatch,
    Site,
    WeightSpec,
    Window,
    field_from_values,
    generate_field,
    shift_view,
)
from polymerlab.errors import OrderingError, WindowError  # noqa: E402
from polymerlab.partition import _sweep, comparison_check, p2p_table  # noqa: E402

SPECS = (
    WeightSpec.gaussian(0.5, 2.0),
    WeightSpec.inverse_log_gamma(1.5),
    WeightSpec.uniform(-1.0, 3.0),
)
seeds = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(2**63, 2**64 - 1))
coords = st.integers(-(10**6), 10**6)


MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def _py_fmix64(z):
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & MASK
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & MASK
    return z ^ (z >> 33)


def _py_uniform(seed, stream, u, v):
    """The site uniform in Python ints: fmix64(seed ^ golden), then stream,
    u and v absorbed by h = fmix64((h ^ x) + golden), then one fmix64."""
    h = _py_fmix64((seed & MASK) ^ GOLDEN)
    for x in (stream, u, v):
        h = _py_fmix64(((h ^ (x & MASK)) + GOLDEN) & MASK)
    return ((_py_fmix64(h) >> 11) + 0.5) * 2.0**-53


def test_the_hash_chain_is_pinned():
    pins = [
        (1, env.WEIGHT_STREAM, 0, 0, 0.2944077456492707),
        (7, env.WEIGHT_STREAM, -3, 12, 0.6530662062815897),
        (2**63 + 5, env.COUPLING_STREAM, 40, -40, 0.8910013229927543),
        (-2, env.COUPLING_STREAM, -5, 9, 0.5217580591311735),
    ]
    for seed, stream, u, v, want in pins:
        assert _py_uniform(seed, stream, u, v) == want
        assert env.site_uniforms(seed, stream, u, v) == want
        assert env._uniforms(env._key(seed, stream), np.array([u]), np.array([v]))[0] == want


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    layout=st.sampled_from(["scalar", "(S,) against (2, S)", "(R, 1) against (n,)", "(n, 1) u against (n,) v", "0-d"]),
    stream=st.sampled_from([env.WEIGHT_STREAM, env.COUPLING_STREAM]),
    seed_list=st.lists(seeds, min_size=1, max_size=6),
    coord_list=st.lists(coords, min_size=2, max_size=12),
)
@example("scalar", env.COUPLING_STREAM, [2**63 + 5], [-4, 7])
@example("0-d", env.WEIGHT_STREAM, [-(2**63)], [-1, -(10**6)])
@example("(R, 1) against (n,)", env.COUPLING_STREAM, [-1, 2**64 - 1, 0], [3, -3, 0])
def test_keyed_uniforms_equal_site_uniforms(layout, stream, seed_list, coord_list):
    c = np.array(coord_list, dtype=np.int64)
    if all(-(2**63) <= s < 2**63 for s in seed_list):
        seed_array = np.array(seed_list, dtype=np.int64)  # negative seeds wrap
    else:
        seed_array = np.array([s & MASK for s in seed_list], dtype=np.uint64)
    if layout == "scalar":
        seed, uu, vv = seed_list[0], c, c[::-1]
    elif layout == "(S,) against (2, S)":
        seed = seed_array
        uu, vv = np.resize(c, (2, seed.size)), np.resize(c[::-1], (2, seed.size))
    elif layout == "(R, 1) against (n,)":
        seed, uu, vv = seed_array[:, None], c, c[::-1]
    elif layout == "(n, 1) u against (n,) v":  # the u link runs per row, then widens
        seed, uu, vv = seed_list[0], c[:, None], c[::-1]
    else:
        seed, uu, vv = seed_list[0], np.asarray(coord_list[0]), coord_list[1]
    want = env.site_uniforms(seed, stream, uu, vv)
    got = env._uniforms(env._key(seed, stream), uu, vv)
    assert got.shape == np.shape(want)
    assert np.array_equal(got, want)
    ss, us, vs = np.broadcast_arrays(np.asarray(seed, dtype=object), uu, vv)
    ref = [_py_uniform(int(s), stream, int(u), int(v)) for s, u, v in zip(ss.flat, us.flat, vs.flat)]
    assert np.array_equal(np.ravel(got), ref)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    spec=st.sampled_from(SPECS),
    field_seeds=st.lists(seeds, min_size=1, max_size=3),
    batch=st.booleans(),
    rows=st.lists(st.tuples(coords, coords, st.integers(1, 50)), min_size=1, max_size=8),
    step=st.sampled_from([(0, 1), (1, -1)]),
    block=st.integers(1, 64),
)
def test_rows_equal_per_row_values_at(spec, field_seeds, batch, rows, step, block):
    fields = [generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in field_seeds]
    field = FieldBatch(fields) if batch else fields[0]
    u0, v0, lengths = (np.array(c) for c in zip(*rows))
    with mock.patch.object(env, "_HASH_BLOCK_SITES", block):
        got = list(env._rows(field, u0, v0, lengths, step))
    assert len(got) == len(rows)
    for (u, v, n), w in zip(rows, got):
        j = np.arange(n)
        assert np.array_equal(w, field.values_at(u + step[0] * j, v + step[1] * j))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    spec=st.sampled_from(SPECS + (WeightSpec.constant(0.25),)),
    field_seeds=st.lists(seeds, min_size=1, max_size=3),
    batch=st.booleans(),
    across=st.lists(coords, min_size=1, max_size=12),
    start=coords,
    n=st.integers(1, 50),
    block=st.integers(1, 64),
)
def test_rectangle_blocks_equal_per_row_values_at(spec, field_seeds, batch, across, start, n, block):
    # the rectangle stream of the window hash and of
    # PartitionTable.recursion_residual: rows u = across[r], v = start ..
    # start + n - 1
    fields = [generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in field_seeds]
    field = FieldBatch(fields) if batch else fields[0]
    with mock.patch.object(env, "_HASH_BLOCK_SITES", block):
        blocks = list(env._blocks(field, np.array(across), start, n))
    rows = max(1, block // (len(fields) if batch else 1) // n)
    assert [i for i, _ in blocks] == list(range(0, len(across), rows))
    got = np.concatenate([vals for _, vals in blocks], axis=-2)
    assert got.shape[-2:] == (len(across), n)
    for r, c in enumerate(across):
        assert np.array_equal(got[..., r, :], field.values_at(c, start + np.arange(n)))


def _table_reference(field, anchor, window, beta, mode):
    """p2p_table as one array sweep over the materialized window."""
    zero_temp = math.isinf(beta)
    w = field.subfield(window).values
    wb = w if zero_temp else beta * w
    comb = np.maximum if zero_temp else np.logaddexp
    au, av = window.index(anchor)
    logz = np.full((window.width, window.height), -np.inf)
    if mode == "to_anchor":
        r = wb[au::-1, av::-1]
        logz[au::-1, av::-1] = _sweep(r[1:], r[:, 1:], comb)
    else:
        b = wb[au:, av:]
        logz[au:, av:] = _sweep(b[:-1], b[:, :-1], comb)
    return logz


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    spec=st.sampled_from(SPECS + (WeightSpec.constant(-0.5),)),
    seed=seeds,
    kind=st.sampled_from(["hashed", "shifted", "explicit"]),
    origin=st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    size=st.sampled_from([(1, 1), (1, 9), (9, 1), (1, 30), (30, 1)])
    | st.tuples(st.integers(1, 30), st.integers(1, 30)),
    anchor_at=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    beta=st.sampled_from([0.5, 1.0, 3.0, math.inf]),
    mode=st.sampled_from(["to_anchor", "from_anchor"]),
    grid_shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)
def test_streamed_table_equals_the_array_sweep(
    spec, seed, kind, origin, size, anchor_at, beta, mode, grid_shift
):
    window = Window(Site(*origin), *size)
    anchor = window.origin + Site(*(min(int(f * s), s - 1) for f, s in zip(anchor_at, size)))
    field = generate_field(spec, seed, window)
    if kind == "shifted":
        field = shift_view(field, Site(7, -11))
    elif kind == "explicit":
        # a grid shifted off the table window by up to two sites, with a
        # margin of two: the window exceeds the grid when the shift does
        grid = Window(window.origin + Site(*grid_shift) - Site(2, 2), size[0] + 2, size[1] + 2)
        field = field_from_values(field.subfield(grid).values, grid)
        if not grid.contains_window(window):
            for table in (_table_reference, p2p_table):
                with pytest.raises(WindowError):
                    table(field, anchor, window, beta, mode)
            return
    got = p2p_table(field, anchor, window, beta, mode)
    assert np.array_equal(got.logz, _table_reference(field, anchor, window, beta, mode))
    assert got.logz_at(anchor) == 0.0


def _comparison_reference(field, x, u, v, beta):
    """comparison_check of one triple from two to_anchor tables."""

    def ratios(t):
        d = t - x
        table = p2p_table(field, t, Window(x, d.u + 1, d.v + 1), beta, "to_anchor")
        base = table.logz_at(x)
        return table.logz_at(x + E1) - base, table.logz_at(x + E2) - base

    (r1u, r2u), (r1v, r2v) = ratios(u), ratios(v)
    return r1u - r1v, r2v - r2u


# the [x, u] rectangle less one site: wider than tall, taller than wide,
# square, and 2 x k or k x 2
_spans = st.integers(1, 14)
_rect = st.one_of(
    st.tuples(_spans, _spans),
    _spans.map(lambda k: (k, k)),
    _spans.map(lambda k: (1, k)),
    _spans.map(lambda k: (k, 1)),
)


@st.composite
def _triple(draw):
    x = Site(*draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6))))
    du, dv = draw(_rect)
    u = x + Site(du, dv)
    # v at most as e1-ward and at least as e2-ward as u
    v = x + Site(draw(st.integers(1, du)), dv + draw(st.integers(0, 6)))
    return x, u, v


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    spec=st.sampled_from(SPECS + (WeightSpec.constant(-0.5),)),
    seed=seeds,
    kind=st.sampled_from(["hashed", "shifted", "explicit"]),
    origin=st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    triples=st.lists(_triple(), min_size=1, max_size=6),
    beta=st.sampled_from([0.5, 1.0, 3.0, math.inf]),
    as_array=st.booleans(),
    block=st.sampled_from([1, 8 * 30, 8 << 20]),
    grid_shift=st.sampled_from([(0, 0), (0, 0), (-1, 0), (0, 1), (1, -1)]),
    bad=st.sampled_from([None, None, None, "x_not_below", "v_right_of_u"]),
    bad_at=st.integers(0, 5),
)
def test_batched_comparison_equals_two_tables_per_triple(
    spec, seed, kind, origin, triples, beta, as_array, block, grid_shift, bad, bad_at
):
    shift = Site(*origin)
    triples = [tuple(s + shift for s in t) for t in triples]
    xs, us, vs = (list(c) for c in zip(*triples))
    lo = Site(min(x.u for x in xs), min(x.v for x in xs))
    hi = Site(max(t.u for t in us + vs), max(t.v for t in us + vs))
    rect = Window(lo, hi.u - lo.u + 1, hi.v - lo.v + 1)
    field = generate_field(spec, seed, Window(Site(0, 0), 1, 1))
    if kind == "shifted":
        field = shift_view(field, Site(7, -11))
    elif kind == "explicit":
        # the bounding rectangle moved by up to one site: it exceeds the grid
        # when the move does
        grid = rect.shifted(Site(*grid_shift))
        field = field_from_values(field.subfield(grid).values, grid)
    args = [np.array([(s.u, s.v) for s in c]) if as_array else c for c in (xs, us, vs)]
    if kind == "explicit" and not field.covers(rect):
        with pytest.raises(WindowError):
            comparison_check(field, *args, beta)
        with pytest.raises(WindowError):
            for t in triples:
                _comparison_reference(field, *t, beta)
        return
    if bad is not None:
        k = bad_at % len(triples)
        x, u, v = triples[k]
        if bad == "x_not_below":
            us[k] = Site(x.u + 1, x.v)  # u does not dominate x + e1 + e2
        else:
            vs[k] = u + E1
        with pytest.raises(OrderingError):
            comparison_check(field, xs, us, vs, beta)
        return
    with mock.patch.object(partition, "_COMPARISON_BLOCK_BYTES", block):
        rep = comparison_check(field, *args, beta)
    want = np.array([_comparison_reference(field, *t, beta) for t in triples])
    assert np.array_equal(rep.margin_e1, want[:, 0])
    assert np.array_equal(rep.margin_e2, want[:, 1])
    one = comparison_check(field, *triples[0], beta)  # a batch of one, as floats
    assert type(one.margin_e1) is float and (one.margin_e1, one.margin_e2) == tuple(want[0])
