"""The level step's bits and warnings, and its shortcut terms.

The level loops hold one np.errstate for a whole sweep, and `_level` enters
none; at scale 1 the terms are the raw weights, and a hashed constant field
gives scalar terms.  Each shortcut must give the bits of the generic path.
"""

import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

from polymerlab import cif, coupling, gibbs, partition
from polymerlab.cif import cif_direction_stats, interface_direct_sample
from polymerlab.coupling import band_transition_rule
from polymerlab.env import FieldBatch, Site, WeightSpec, Window, field_from_values, generate_field
from polymerlab.gibbs import TransitionField, ldp_rate_profile, rooted_mass_decay
from polymerlab.partition import _level, comparison_check, p2l_rows, p2p_pair_values, p2p_table, p2p_values

GAUSS = WeightSpec.gaussian(0, 1)
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -745.0, 700.0, 1e300, -1e300]


def _reference_level(prev, s1, s2, lo, hi):
    """The level step as it was written with the errstate inside the
    combine: each sum formed, then max + log1p(exp(min - max)), fmax'd."""
    m = prev.shape[-1] - 1
    a = prev[..., : m + hi] + s1
    b = prev[..., 1 - lo :] + s2
    x, y = a[..., :m], b[..., lo:]
    d = np.minimum(x, y)
    mx = np.maximum(x, y)
    with np.errstate(invalid="ignore"):
        np.subtract(d, mx, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    np.add(mx, d, out=d)
    mid = np.fmax(d, mx)
    return np.concatenate([b[..., :lo], mid, a[..., m:]], axis=-1)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("lo,hi", [(True, True), (True, False), (False, True), (False, False)])
def test_the_level_step_is_the_reference_formula_bit_for_bit(lo, hi):
    # every ordered pair of special values, then 10^6 random pairs with -inf
    # mixed in; prev is -0.0, the additive identity, so the pairs are the terms
    a, b = (np.array(v) for v in zip(*[(x, y) for x in SPECIAL for y in SPECIAL]))
    rng = np.random.default_rng(35)
    n = 10**6
    ra = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 5, n)
    rb = ra + rng.normal(0, 30, n)
    ra[rng.random(n) < 0.1] = -math.inf
    rb[rng.random(n) < 0.1] = -math.inf
    for s1, s2 in ((a, b), (ra, rb)):
        m = len(s1)
        prev = np.full(m + 1, -0.0)
        t1, t2 = (np.concatenate([s, [1.5]]) for s in (s1, s2))  # edge terms
        s1, s2 = t1[: m + hi], t2[: m + lo]
        want = _reference_level(prev, s1, s2, lo, hi)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            got = _level(prev, s1, s2, np.logaddexp, lo, hi)
        assert np.array_equal(_bits(got), _bits(want))


def test_the_level_step_leaves_the_errstate_to_its_loop():
    # the step enters no np.errstate: two -inf edges raise numpy's invalid
    # flag, which only the loop's errstate silences
    prev = np.array([-math.inf, -math.inf, 0.0])
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            _level(prev, np.zeros(2), np.zeros(2), np.logaddexp, False, False)
    with np.errstate(invalid="ignore"):
        got = _level(prev, np.zeros(2), np.zeros(2), np.logaddexp, False, False)
    assert got.tolist() == [-math.inf, 0.0]

    for fn in (partition._level, partition._lae_bare):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(tree)}
        assert "errstate" not in names, fn.__name__


def test_every_level_loop_runs_without_a_warning():
    # inputs where -inf meets -inf in the combine, or exp overflows in the
    # interface step, in each loop that steps `_level`
    f = generate_field(GAUSS, 3, Window(Site(0, 0), 1, 1))
    big = generate_field(WeightSpec.gaussian(0, 400), 3, Window(Site(0, 0), 1, 1))
    trans = np.full((41, 41), 0.5)
    trans[::3] = 0.0
    trans[:, ::4] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1.0, 1.5, math.inf):
            pair = p2p_pair_values(f, Site(0, 0), beta, [0, 3, 6, 1], [9, 4, 0, 0])
            assert pair[1, 0] == -math.inf and np.isfinite(pair[1, 1])
            rows = p2l_rows(f, beta, (0.2, -0.1), 30, Site(0, 0), 4, np.array([3, 17, 30, 0]))
            assert np.isneginf(rows[0, 0, -1]) and np.isfinite(rows[2, 0, 0])
            p2p_table(f, Site(12, 9), Window(Site(0, 0), 20, 20), beta, "to_anchor")
            comparison_check(f, Site(0, 0), Site(6, 2), Site(3, 5), beta)
        band_transition_rule(f, 1.0, (-0.7, -0.7), 40, 3)
        hit = rooted_mass_decay(TransitionField(Window(Site(0, 0), 41, 41), trans, "busemann", 1, 1.0), Site(40, 40), [5, 40])
        assert all(0.0 <= p <= 1.0 for p in hit.max_hit)
        ldp_rate_profile(WeightSpec.inverse_log_gamma(1.0), 1.0, (-0.3, -0.3), 6, 2, 9)
        cif_direction_stats(big, 1.0, 20, 12, 4)
        table = p2p_table(big, Site(0, 0), Window(Site(0, 0), 16, 16), 1.0, "from_anchor")
        interface_direct_sample(table, big, 12, np.random.default_rng(1))


def _read_only_rows(monkeypatch):
    """Every weight row the level loops read is read-only, so an in-place
    write into a term array raises."""
    rows = partition._rows

    def frozen(*args, **kwargs):
        for raw in rows(*args, **kwargs):
            raw = raw.view()
            raw.flags.writeable = False
            yield raw

    for module in (partition, coupling, cif):
        monkeypatch.setattr(module, "_rows", frozen)


def _sweeps(f, beta):
    """The outputs of every level loop on field f at beta."""
    win = Window(Site(0, 0), 13, 11)
    out = [
        p2p_table(f, Site(0, 0), win, beta, "from_anchor").logz,
        p2p_table(f, Site(11, 9), win, beta, "to_anchor").logz,
        p2p_pair_values(f, Site(1, 0), beta, [0, 4, 7], [9, 5, 0]),
        p2l_rows(f, beta, (0.3, -0.2), 11, Site(0, 0), 3, np.array([4, 11])),
    ]
    if not math.isinf(beta):
        out.append(cif_direction_stats(f, beta, 40, 10, 8).directions)
        rule = band_transition_rule(f, beta, (-0.7, -0.7), 30, 3)
        kk = np.arange(30)
        out.append(rule.p_at(kk // 2, kk - kk // 2))
    return out


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_unit_scale_terms_are_the_multiplied_ones(monkeypatch, beta):
    # at scale 1 the loops pass the raw weights on; multiplying by 1.0
    # gives the same bits, and no loop writes into the weights it reads
    f = generate_field(GAUSS, 12, Window(Site(0, 0), 1, 1))
    ilg = WeightSpec.inverse_log_gamma(1.0)
    _read_only_rows(monkeypatch)
    fast = _sweeps(f, beta)
    if beta == 1.0:
        fast.append(ldp_rate_profile(ilg, beta, (-0.3, -0.3), 8, 2, 5).rate)

    def times(scale, raw, inplace=False):
        return np.multiply(raw, scale, out=raw if inplace else None)

    for module in (partition, coupling, cif, gibbs):
        monkeypatch.setattr(module, "_scaled", times)
    slow = _sweeps(f, beta)
    if beta == 1.0:
        slow.append(ldp_rate_profile(ilg, beta, (-0.3, -0.3), 8, 2, 5).rate)
    assert len(fast) == len(slow)
    for x, y in zip(fast, slow):
        assert np.array_equal(_bits(x), _bits(y))


@pytest.mark.parametrize("beta", [1.0, 1.7, math.inf])
def test_a_constant_field_gives_the_explicit_grids_bits(beta):
    # a hashed constant field steps scalar terms; an explicit grid of the
    # same value steps rows, and both give the same bits
    c = 0.7
    win = Window(Site(0, 0), 40, 40)  # holds the band's sites too
    hashed = generate_field(WeightSpec.constant(c), 5, win)
    grid = field_from_values(np.full((40, 40), c), win)
    for x, y in zip(_sweeps(hashed, beta), _sweeps(grid, beta)):
        assert np.array_equal(_bits(x), _bits(y))
    # replicas of one constant on a leading axis take the same scalar terms
    batch = FieldBatch((hashed, generate_field(WeightSpec.constant(c), 6, win)))
    got = p2p_pair_values(batch, Site(1, 0), beta, [0, 4, 7], [9, 5, 0])
    want = p2p_pair_values(grid, Site(1, 0), beta, [0, 4, 7], [9, 5, 0])
    assert got.shape == (2, 2, 3)
    assert np.array_equal(_bits(got), _bits(np.broadcast_to(want[:, None], got.shape)))
    probe = p2p_values(batch, Site(0, 0), beta, [3, 0], [2, 6])
    assert np.array_equal(_bits(probe), _bits(np.stack([p2p_values(grid, Site(0, 0), beta, [3, 0], [2, 6])] * 2)))
