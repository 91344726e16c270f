import collections
import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import expit

from polymerlab import cif as cif_module
from polymerlab import gibbs
from polymerlab.cif import (
    build_tree,
    cif_cdf_check,
    cif_direction_stats,
    competition_interface,
    interface_direct_sample,
)
from polymerlab.coupling import CouplingField
from polymerlab.cocycle import direction_scan
from polymerlab.env import COUPLING_STREAM, Site, WeightSpec, Window, generate_field, site_uniforms
from polymerlab.errors import ParameterError, WindowError
from polymerlab.gibbs import backward_transitions, sample_p2p_batch
from polymerlab.partition import p2p_table

GAUSS = WeightSpec.gaussian(0, 1)


def small_tree(seed=21, theta=5, side=8, spec=GAUSS):
    f = generate_field(spec, seed, Window(Site(0, 0), side, side))
    table = p2p_table(f, Site(0, 0), Window(Site(0, 0), side, side), 1.0, "from_anchor")
    return f, table, build_tree(table, CouplingField(theta))


def test_axis_parents_forced():
    _, _, tree = small_tree()
    for k in range(1, 8):
        assert tree.parent(Site(k, 0)) == Site(k - 1, 0)
        assert tree.parent(Site(0, k)) == Site(0, k - 1)


def test_every_site_connects_to_root():
    _, _, tree = small_tree()
    for u in range(8):
        for v in range(8):
            p = tree.path_from_root(Site(u, v))
            assert p.start == Site(0, 0) and p.end == Site(u, v)


def test_subtree_labels_partition():
    _, _, tree = small_tree()
    lab = tree.subtree_labels()
    assert lab[0, 0] == 0
    assert np.all(lab[1:, 0] == 1) and np.all(lab[0, 1:] == 2)
    assert np.all((lab[1:, 1:] == 1) | (lab[1:, 1:] == 2))
    # labels inherit from the parent, seeded at e1 and e2
    for u in range(8):
        for v in range(8):
            y = Site(u, v)
            if y == Site(0, 0):
                continue
            if y == Site(1, 0):
                assert lab[u, v] == 1
            elif y == Site(0, 1):
                assert lab[u, v] == 2
            else:
                par = tree.parent(y)
                assert lab[u, v] == lab[par.u, par.v]


def test_tree_path_law_matches_backward_chain():
    f, table, _ = small_tree()
    bt = backward_transitions(table)
    n = 4000
    cnt_tree: collections.Counter = collections.Counter()
    for s in range(n):
        t2 = build_tree(table, CouplingField(1000 + s))
        pp = t2.path_from_root(Site(3, 3))
        cnt_tree[tuple(np.diff(pp.sites[:, 0]).tolist())] += 1
    steps = sample_p2p_batch(bt, Site(3, 3), n, rng=9)
    cnt_bw: collections.Counter = collections.Counter(tuple(r.tolist()) for r in steps)
    keys = sorted(set(cnt_tree) | set(cnt_bw))
    tv = 0.5 * sum(abs(cnt_tree.get(k, 0) - cnt_bw.get(k, 0)) for k in keys) / n
    assert tv < 0.06


def test_degenerate_tree_interface_hugs_e2_axis():
    _, _, tree = small_tree()
    forced = np.zeros_like(tree.parent_e1)
    degen = type(tree)(tree.root, tree.window, forced, tree.beta, tree.theta_seed)
    res = competition_interface(degen, 6, check_separation=False)
    assert np.all(res.path.sites[:, 0] == 0)  # all parents point down: T1 owns
    # the bulk, and the interface is pressed against the e2 axis


def test_interface_separation_invariant():
    for theta in range(8):
        f, table, tree = small_tree(theta=theta, side=12)
        res = competition_interface(tree, 10)
        assert res.separation_ok
    with pytest.raises(WindowError):
        competition_interface(tree, 50)


def test_tree_threading_equals_direct_chain_in_law():
    f, table, _ = small_tree(side=7)
    n = 3000
    cnt_a: collections.Counter = collections.Counter()
    cnt_b: collections.Counter = collections.Counter()
    for s in range(n):
        tr = build_tree(table, CouplingField(5000 + s))
        pa = competition_interface(tr, 5, check_separation=False).path
        cnt_a[tuple(np.diff(pa.sites[:, 0]).tolist())] += 1
    rng = np.random.default_rng(11)
    for s in range(n):
        pb = interface_direct_sample(table, f, 5, rng).path
        cnt_b[tuple(np.diff(pb.sites[:, 0]).tolist())] += 1
    keys = sorted(set(cnt_a) | set(cnt_b))
    obs = np.array([cnt_a.get(k, 0) for k in keys], dtype=float)
    exp = np.array([cnt_b.get(k, 0) for k in keys], dtype=float)
    keep = (obs + exp) >= 10
    chi2 = float(np.sum((obs[keep] - exp[keep]) ** 2 / (obs[keep] + exp[keep])))
    assert st.chi2.sf(chi2, int(keep.sum()) - 1) > 0.01


def test_lazy_interface_follows_the_tree_path_for_path():
    # replica r of the lazy sampler reads the tree's parent choices under
    # CouplingField(theta_seed + r), so it must end where the threaded tree
    # interface ends
    steps, replicas, theta_seed = 30, 40, 900
    f = generate_field(GAUSS, 41, Window(Site(0, 0), 1, 1))
    side = steps + 3
    table = p2p_table(f, Site(0, 0), Window(Site(0, 0), side, side), 1.0, "from_anchor")
    stats = cif_direction_stats(f, 1.0, replicas, steps, theta_seed)
    ends = [
        competition_interface(build_tree(table, CouplingField(theta_seed + r)), steps, False).path.end
        for r in range(replicas)
    ]
    assert stats.directions.tolist() == [e.u / steps for e in ends]
    assert len({e.u for e in ends}) > 3  # the replicas really differ


def _table_walk(field, beta, replicas, steps, theta_seed, root):
    # the interface walk read from a whole (steps+3)^2 from-root table
    rect = Window(root, steps + 3, steps + 3)
    table = p2p_table(field, root, rect, beta, "from_anchor")
    A = beta * field.subfield(table.window).values + table.logz
    seeds = np.asarray([s + theta_seed for s in range(replicas)], dtype=np.uint64)
    u = np.zeros(replicas, dtype=np.int64)
    v = np.zeros(replicas, dtype=np.int64)
    for _ in range(steps):
        zu, zv = u + 1, v + 1
        p = expit(A[zu - 1, zv] - A[zu, zv - 1])
        theta = site_uniforms(seeds, COUPLING_STREAM, zu + root.u, zv + root.v)
        step1 = theta < p
        u = u + step1
        v = v + (~step1)
    return u / steps


@pytest.mark.parametrize(
    "spec", [WeightSpec.constant(0.7), GAUSS, WeightSpec.inverse_log_gamma(1.5)]
)
def test_lockstep_interface_equals_table_walk(spec):
    f = generate_field(spec, 53, Window(Site(0, 0), 1, 1))
    for beta in (0.5, 1.0, 3.0):
        for steps in (1, 2, 37):
            for root in (Site(0, 0), Site(-6, 4)):
                got = cif_direction_stats(f, beta, 120, steps, 400, root).directions
                assert np.array_equal(got, _table_walk(f, beta, 120, steps, 400, root))


@pytest.mark.parametrize("root", [Site(0, 0), Site(-6, 4)])
def test_interface_levels_are_the_table_bit_for_bit(monkeypatch, root):
    # the interface DP and the from-root table run the same level step, so
    # each level's A = beta * w + log Z equals the table's, bit for bit
    f = generate_field(GAUSS, 61, Window(Site(0, 0), 1, 1))
    beta, steps = 1.3, 40
    levels = []
    level = cif_module._level

    def recorded(*args):
        levels.append(level(*args))
        return levels[-1]

    monkeypatch.setattr(cif_module, "_level", recorded)
    cif_direction_stats(f, beta, 30, steps, 9, root)
    table = p2p_table(f, root, Window(root, steps + 3, steps + 3), beta, "from_anchor")
    A = beta * f.subfield(table.window).values + table.logz
    assert len(levels) == steps
    for k, logz in enumerate(levels, start=1):
        i = np.arange(k + 1)
        w = f.values_at(root.u + i, root.v + k - i)
        assert np.array_equal(beta * w + logz, A[i, k - i])


def test_busemann_probes_refuse_horizons_below_two():
    f = generate_field(GAUSS, 2, Window(Site(0, 0), 1, 1))
    grid = [0.25, 0.75]
    for N in (1, 0, -3):
        with pytest.raises(ParameterError):
            direction_scan(f, 1.0, grid, N)
        with pytest.raises(ParameterError):
            cif_cdf_check(f, 1.0, grid, 10, 20, 1, busemann_horizon=N)
    with pytest.raises(ParameterError):
        cif_cdf_check(f, 1.0, grid, 10, 1, 1)  # the horizon defaults to steps


def test_constant_weights_cif_transitions_are_binomial(monkeypatch):
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 12, 12))
    table = p2p_table(f, Site(0, 0), Window(Site(0, 0), 12, 12), 1.0, "from_anchor")
    chains = []

    def walk(chain, *args):
        chains.append(chain)
        return gibbs._walk(chain, *args)

    monkeypatch.setattr(cif_module, "_walk", walk)
    rng = np.random.default_rng(3)
    direct = [interface_direct_sample(table, f, 1, rng).path.sites[1, 0] for _ in range(6)]
    # n one-step walkers of the chain the sampler builds draw the uniforms
    # of n one-step samples, in the same order
    n = 30000
    e1 = gibbs._walk(chains[0], table.anchor, 1, n, np.random.default_rng(3))[0][:, 0]
    assert e1[:6].tolist() == direct
    # P(step e1 at 0) = (v+1)/(u+v+2) at (u,v)=(0,0) -> 1/2
    se = math.sqrt(0.25 / n)
    assert abs(e1.sum() / n - 0.5) <= 3 * se


def test_constant_weights_direction_is_polya_uniform():
    # constant weights make the interface a Polya urn: step-e1 probability
    # (u+1)/(u+v+2), so the direction law converges to Uniform(0,1) with
    # boundary atoms of mass 1/(steps+1) each at finite length
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 1, 1))
    steps, R = 400, 2000
    stats = cif_direction_stats(f, 1.0, R, steps, theta_seed=3)
    half = float(stats.empirical_cdf([0.5])[0])
    assert abs(half - 0.5) <= 3.0 / (2.0 * math.sqrt(R))
    boundary = 1.0 - stats.interior_fraction(0.001)
    expect = 2.0 / (steps + 1)
    assert boundary <= expect + 3 * math.sqrt(expect / R)
    # uniformity across the interior quartiles
    for q in (0.25, 0.75):
        assert abs(float(stats.empirical_cdf([q])[0]) - q) <= 4.0 / (2.0 * math.sqrt(R))


def test_direction_stats_quenched_atom_diagnostic():
    f = generate_field(GAUSS, 21, Window(Site(0, 0), 1, 1))
    stats = cif_direction_stats(f, 1.0, 500, 200, theta_seed=7)
    assert 0.0 < stats.atom_share() <= 1.0
    assert stats.directions.size == 500


@pytest.mark.parametrize("replicas,steps", [(0, 50), (-1, 50), (20, 0), (20, -3)])
def test_direction_stats_refuse_degenerate_sizes(replicas, steps):
    # steps = 0 read NaN directions, and replicas = 0 an empty law whose
    # atom_share raised numpy's zero-size error
    f = generate_field(GAUSS, 21, Window(Site(0, 0), 1, 1))
    with pytest.raises(ParameterError, match="must be >= 1"):
        cif_direction_stats(f, 1.0, replicas, steps, theta_seed=7)
    with pytest.raises(ParameterError, match="must be >= 1"):
        cif_cdf_check(f, 1.0, [0.25, 0.75], replicas, steps, theta_seed=7, busemann_horizon=20)


def test_cdf_check_monotone_and_bands():
    f = generate_field(GAUSS, 1234, Window(Site(0, 0), 1, 1))
    cmp_ = cif_cdf_check(f, 1.0, np.linspace(0.1, 0.9, 9), 600, 300, theta_seed=11)
    assert cmp_.monotone
    assert cmp_.within_band
    assert cmp_.horizon_drift >= 0.0
    assert np.all(cmp_.ci_lo <= cmp_.empirical) and np.all(cmp_.empirical <= cmp_.ci_hi)


def test_direction_csv(tmp_path):
    f = generate_field(WeightSpec.constant(0.0), 1, Window(Site(0, 0), 1, 1))
    stats = cif_direction_stats(f, 1.0, 20, 50, theta_seed=3)
    path = stats.to_csv(tmp_path / "d.csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "replica,direction" and len(lines) == 21
