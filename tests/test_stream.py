"""Property tests of env's blocked row streams against per-row `values_at`,
and of the streamed point-to-point table against one array sweep."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymerlab import env  # noqa: E402
from polymerlab.env import (  # noqa: E402
    FieldBatch,
    Site,
    WeightSpec,
    Window,
    field_from_values,
    generate_field,
    shift_view,
)
from polymerlab.errors import WindowError  # noqa: E402
from polymerlab.partition import _sweep, p2p_table  # noqa: E402

SPECS = (
    WeightSpec.gaussian(0.5, 2.0),
    WeightSpec.inverse_log_gamma(1.5),
    WeightSpec.uniform(-1.0, 3.0),
)
seeds = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(2**63, 2**64 - 1))
coords = st.integers(-(10**6), 10**6)


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
    step=st.sampled_from([(0, 1), (0, -1), (1, 0), (-1, 0)]),
    block=st.integers(1, 64),
)
def test_rectangle_blocks_equal_per_row_values_at(spec, field_seeds, batch, across, start, n, step, block):
    # the rectangle stream of p2p_table and the window hash: rows at the
    # coordinates `across` of one axis, n sites from `start` along the other
    fields = [generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in field_seeds]
    field = FieldBatch(fields) if batch else fields[0]
    with mock.patch.object(env, "_HASH_BLOCK_SITES", block):
        blocks = list(env._blocks(field, np.array(across), start, n, step))
    rows = max(1, block // (len(fields) if batch else 1) // n)
    assert [i for i, _ in blocks] == list(range(0, len(across), rows))
    got = np.concatenate([vals for _, vals in blocks], axis=-2)
    assert got.shape[-2:] == (len(across), n)
    along = start + (step[0] + step[1]) * np.arange(n)
    for r, c in enumerate(across):
        uu, vv = (along, c) if step[0] else (c, along)
        assert np.array_equal(got[..., r, :], field.values_at(uu, vv))


def _table_reference(field, anchor, window, beta, mode):
    """p2p_table as one array sweep over the materialized window."""
    zero_temp = math.isinf(beta)
    w = field.subfield(window).values
    wb = w if zero_temp else beta * w
    au, av = window.index(anchor)
    logz = np.full((window.width, window.height), -np.inf)
    if mode == "to_anchor":
        r = wb[au::-1, av::-1]
        logz[au::-1, av::-1] = _sweep(r[1:], r[:, 1:], zero_temp)
    else:
        b = wb[au:, av:]
        logz[au:, av:] = _sweep(b[:-1], b[:, :-1], zero_temp)
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
