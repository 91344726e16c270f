"""Property test of env's blocked row stream against per-row `values_at`."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymerlab import env  # noqa: E402
from polymerlab.env import FieldBatch, Site, WeightSpec, Window, generate_field  # noqa: E402

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
