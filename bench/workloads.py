"""The four workloads.

A workload is a list of operations made from the seed.  An operation is one
experiment instance: a direct call into public polymerlab functions, or (in
``identities``) a generated config run through ``polymerlab.cli.run``.  Its
``call`` is the only timed code; its ``check`` runs afterwards and compares
the outputs with the benchmark's own references (``checks``, ``refenv``).
Statistical checks are recorded as values and never gate.

Sizes, relative to the 4 MiB L2 and 105 MiB L3 of the 2-vCPU Xeon guest
the benchmark was tuned on, are in README.md.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks as C
import refenv

WORKLOADS = ("tables", "replicas", "walkers", "identities")
NEG_INF = float("-inf")

# the probe whose drift matches each workload's code (see probes.py)
PROBE = {"tables": "stream", "replicas": "small", "walkers": "small", "identities": "small"}

# Fixed inputs of the ldp operations, independent of --seed.  With
# inverse-log-gamma(1) weights the flow rate of gibbs._ldp_rate_single
# misses the algebraic rate by more than the program's own 1e-10
# identity tolerance (the e2 step is taken as log1p(-p1) of the clipped e1
# probability), so these operations fail on every run until that is mended.
# The tilt is near the dual tilt of direction (1/2, 1/2) for these weights
# (psi(1/2) = -1.9635 in the log-gamma limit; -1.90 estimated at n = 400).
LDP_SEED = 20_241
LDP_TILT = (-1.9, -1.9)
CESARO_TILT = (-1.9, -1.9)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, C.Checker, list, np.random.Generator], None]
    # fingerprint of the output; every round must reproduce the first
    digest: Callable[[Any], bytes]


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h.digest()


def make(pl, name: str, seed: int, out_dir: str) -> list[Op]:
    """Operations of one workload; `pl` is the imported polymerlab package."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {"tables": _tables, "replicas": _replicas, "walkers": _walkers, "identities": _identities}[
        name
    ](pl, rng, out_dir)


# ---------------------------------------------------------------------------
# tables: large point-to-point tables (cdf and scan kinds)
# ---------------------------------------------------------------------------


def _tables(pl, rng, out_dir):
    from polymerlab import cif, cocycle

    Site, Window = pl.Site, pl.Window
    W1 = Window(Site(0, 0), 1, 1)
    gauss = pl.WeightSpec.gaussian(0.0, 1.0)
    seeds = [int(s) for s in rng.integers(1, 2**31, size=4)]
    ops = []

    # -- cdf: interface directions on an (steps+3)^2 table, Busemann CDF
    # from tables at horizons N and 2N
    f_cdf = pl.generate_field(gauss, seeds[0], W1)
    grid = np.linspace(0.05, 0.95, 21)
    steps, replicas = 800, 1000

    def cdf_check(res, ck, envs, r):
        for f in envs:
            ck.environment(f, r, region=2 * steps)
        emp, bus = res.empirical, res.busemann
        ck.require(np.all(np.diff(emp) >= 0) and emp.min() >= 0 and emp.max() <= 1, "cdf: empirical CDF")
        ck.close(emp * replicas, np.round(emp * replicas), 1e-9, "cdf: empirical counts")
        ck.require(np.all(np.isfinite(bus)) and np.all(bus > 0) and np.all(bus <= 1 + 1e-9), "cdf: busemann in (0,1]")
        ck.require(np.all(np.diff(bus) >= -1e-9), "cdf: busemann CDF nondecreasing (comparison lemma)")
        ck.close(res.sup_discrepancy, np.max(np.abs(emp - bus)), 0.0, "cdf: sup discrepancy")
        # the Busemann side again, from anti-diagonal sweeps to level N
        N = steps
        t_eval = np.clip(grid + 1.0 / N, 0.0, 1.0)
        aa = np.array([min(max(int(round(N * t)), 1), N - 1) for t in t_eval])
        wfn = f_cdf.values_at
        L0 = C.level_sweep(wfn, 1.0, Site(0, 0), N)[-1]
        L1 = C.level_sweep(wfn, 1.0, Site(1, 0), N - 1)[-1]
        w0 = refenv.weight("gaussian", (0.0, 1.0), seeds[0], 0, 0)
        ck.close(res.busemann, np.exp(w0 - (L0[aa] - L1[aa - 1])), 1e-9, "cdf: busemann CDF vs reference DP")
        path = os.path.join(out_dir, "cdf_comparison.csv")
        res.to_csv(path)
        cols = C.csv_columns(path)
        ck.close(cols["empirical_cdf"], emp, 0.0, "cdf: csv reparse")
        ck.close(cols["busemann_cdf"], bus, 0.0, "cdf: csv reparse")
        ck.value("cdf.sup_over_dkw", res.sup_discrepancy / res.dkw_band)
        ck.value("cdf.horizon_drift", res.horizon_drift)

    ops.append(
        Op(
            "cdf",
            lambda: cif.cif_cdf_check(f_cdf, 1.0, grid, replicas, steps, seeds[1], busemann_horizon=steps),
            cdf_check,
            lambda res: _digest(res.empirical, res.busemann, [res.horizon_drift]),
        )
    )

    # -- scan: b1(0) against the target direction at radius 1500
    f_scan = pl.generate_field(gauss, seeds[2], W1)
    radius = 1500
    t_scan = np.linspace(0.02, 0.98, 41)

    def scan_check(prof, ck, envs, r):
        for f in envs:
            ck.environment(f, r, region=radius)
        ck.require(prof.violations == 0, f"scan: {prof.violations} ordering violations")
        ck.require(np.all(np.diff(prof.b1) <= 1e-9), "scan: b1 nonincreasing in the direction")
        aa = np.array([min(max(int(round(radius * t)), 1), radius - 1) for t in t_scan])
        L0 = C.level_sweep(f_scan.values_at, 1.0, Site(0, 0), radius)[-1]
        L1 = C.level_sweep(f_scan.values_at, 1.0, Site(1, 0), radius - 1)[-1]
        ck.close(prof.b1, L0[aa] - L1[aa - 1], 1e-9, "scan: b1 vs reference DP")
        ck.value("scan.max_jump", prof.max_jump)

    ops.append(
        Op(
            "scan",
            lambda: cocycle.direction_scan(f_scan, 1.0, t_scan, radius),
            scan_check,
            lambda prof: _digest(prof.b1),
        )
    )

    # -- a constant-weight table against the closed form
    const = 0.25
    f_const = pl.generate_field(pl.WeightSpec.constant(const), seeds[3], W1)
    side = 2001

    def const_check(table, ck, envs, r):
        for f in envs:
            ck.environment(f, r)
        ii = np.concatenate(([side - 1, 0, side - 1], r.integers(0, side, size=2000)))
        jj = np.concatenate(([side - 1, side - 1, 0], r.integers(0, side, size=2000)))
        want = np.array([C.log_binomial(i, j) + const * (i + j) for i, j in zip(ii.tolist(), jj.tolist())])
        got = table.logz[ii, jj]
        ck.close(got / np.maximum(1.0, np.abs(want)), want / np.maximum(1.0, np.abs(want)), 1e-12,
                 "p2p constant: log C(a+b,a) + beta c (a+b)")

    ops.append(
        Op(
            "p2p_constant",
            lambda: pl.p2p_table(f_const, Site(0, 0), Window(Site(0, 0), side, side), 1.0, "from_anchor"),
            const_check,
            lambda t: _digest(t.logz[::50, ::50]),
        )
    )

    # -- a gaussian to_anchor table, checked on sampled anti-diagonals
    f_to = pl.generate_field(gauss, seeds[1] + 1, W1)
    M = 1400
    anchor = Site(M, M)

    def to_anchor_check(table, ck, envs, r):
        for f in envs:
            ck.environment(f, r, region=M)
        # backward anti-diagonal sweep from the anchor over the triangle
        # of sites within l1-distance M below it
        R = np.zeros(1)
        for d in range(1, M + 1):
            a = np.arange(d + 1, dtype=np.int64)
            w = f_to.values_at(M - a, M - (d - a))
            # y = anchor - (a, d-a); y+e2 has index a at d-1, y+e1 index a-1
            R = w + np.logaddexp(np.concatenate((R, [NEG_INF])), np.concatenate(([NEG_INF], R)))
            if d in (1, 7, 100, 555, M):
                got = table.logz[M - a, M - (d - a)]
                ck.close(got / np.maximum(1.0, np.abs(R)), R / np.maximum(1.0, np.abs(R)), 1e-12,
                         f"p2p to_anchor: level {d} below the anchor")

    ops.append(
        Op(
            "p2p_to_anchor",
            lambda: pl.p2p_table(f_to, anchor, Window(Site(0, 0), M + 1, M + 1), 1.0, "to_anchor"),
            to_anchor_check,
            lambda t: _digest(t.logz[::50, ::50]),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# replicas: many medium environments, mostly inverse-log-gamma
# ---------------------------------------------------------------------------


def _replicas(pl, rng, out_dir):
    from polymerlab import cocycle, gibbs

    Site, Window = pl.Site, pl.Window
    ilg = pl.WeightSpec.inverse_log_gamma(1.0)
    gauss = pl.WeightSpec.gaussian(0.0, 1.0)
    seeds = [int(s) for s in rng.integers(1, 2**31, size=4)]
    t_grid = (0.3, 0.4, 0.5, 0.6, 0.7)
    ops = []

    def shape_check_for(spec, n_list, replicas):
        def check(res, ck, envs, r):
            est, dt = res if isinstance(res, tuple) else (res, None)
            for f in envs:
                ck.environment(f, r, region=max(n_list) + 1)
            ck.require(est.samples.shape == (replicas, len(t_grid), len(n_list)), "shape: sample array shape")
            ck.require(np.all(np.isfinite(est.samples)), "shape: finite samples")
            ck.close(est.lambda_hat, est.samples.mean(axis=0), 1e-12, "shape: mean of replicas")
            ck.close(est.se, est.samples.std(axis=0, ddof=1) / math.sqrt(replicas), 1e-12, "shape: standard error")
            # one recorded environment through the reference DP; its values
            # must be one of the replicas (order is the program's business)
            if envs:
                f = envs[0]
                wfn = C.ref_weights(spec, f.seed)
                want = np.empty((len(t_grid), len(n_list)))
                levels = C.level_sweep(wfn, 1.0, Site(0, 0), max(n_list))
                for j, n in enumerate(n_list):
                    L = levels[n]
                    for i, t in enumerate(t_grid):
                        a = min(max(int(round(n * t)), 0), n)
                        want[i, j] = L[a] / n
                gaps = np.max(np.abs(est.samples - want[None]), axis=(1, 2))
                ck.require(gaps.min() <= 1e-11, f"shape: no replica matches the reference DP (gap {gaps.min():.3g})")
            for t in t_grid:
                if t < 0.5:
                    diff, se = est.paired_difference(t, 1 - t)
                    ck.value(f"shape.{spec.distribution}.symmetry_z_t={t:g}", abs(diff) / se)
            if dt is not None:
                lam, _ = est.at(0.5)
                ck.close(dt.euler_residual, abs(dt.h[0] * 0.5 + dt.h[1] * 0.5 + lam), 1e-12, "dual tilt: Euler residual")
                ck.require(math.isfinite(dt.fpl_residual), "dual tilt: finite point-to-line value")
                ck.value("dual_tilt.fpl_residual", dt.fpl_residual)

        return check

    def shape_dual():
        est = cocycle.estimate_shape(ilg, 1.0, t_grid, [100, 200], 16, seeds[0])
        return est, cocycle.dual_tilt(est, 0.5, fpl_replicas=4, fpl_n=200)

    ops.append(
        Op(
            "shape_dual_ilg",
            shape_dual,
            shape_check_for(ilg, (100, 200), 16),
            lambda res: _digest(res[0].samples, res[1].h),
        )
    )
    ops.append(
        Op(
            "shape_gaussian",
            lambda: cocycle.estimate_shape(gauss, 1.0, t_grid, [200], 12, seeds[1]),
            shape_check_for(gauss, (200,), 12),
            lambda est: _digest(est.samples),
        )
    )

    f_ces = pl.generate_field(ilg, seeds[2], Window(Site(0, 0), 4, 4))
    n_ces, samples = 150, 40

    def cesaro_check(res, ck, envs, r):
        bf, rep = res
        for f in envs:
            ck.environment(f, r, region=n_ces + 1)
        ck.require(rep.samples == samples and rep.target == (-CESARO_TILT[0], -CESARO_TILT[1]), "cesaro: report")
        ck.close([rep.mean_b1, rep.mean_b2], [bf.b1[0, 0], bf.b2[0, 0]], 1e-12, "cesaro: origin means")
        ck.require(np.all(np.isfinite(bf.b1)) and np.all(np.isfinite(bf.b2)), "cesaro: finite field")
        ck.value("cesaro.z_e1", (rep.mean_b1 - rep.target[0]) / rep.se_b1)
        ck.value("cesaro.z_e2", (rep.mean_b2 - rep.target[1]) / rep.se_b2)

    ops.append(
        Op(
            "cesaro_ilg",
            lambda: cocycle.cesaro_busemann(f_ces, 1.0, CESARO_TILT, n_ces, samples, seeds[3]),
            cesaro_check,
            lambda res: _digest(res[0].b1, res[0].b2),
        )
    )

    n_ldp, ldp_replicas = 200, 4

    def ldp_check(prof, ck, envs, r):
        for f in envs:
            ck.environment(f, r, region=2 * n_ldp)
        if not prof.identity_residual <= 1e-10:
            ck.op_failures.append(f"ldp: rate_flow_identity {prof.identity_residual:.3g} > 1e-10")
            return
        ck.require(np.all(np.isfinite(prof.rate)), "ldp: finite rate")

    ops.append(
        Op(
            "ldp_ilg",
            lambda: gibbs.ldp_rate_profile(ilg, 1.0, LDP_TILT, n_ldp, ldp_replicas, LDP_SEED),
            ldp_check,
            lambda prof: _digest(prof.rate, prof.gap),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# walkers: coupled walks and chains, small arrays per step
# ---------------------------------------------------------------------------


def _restep_pair(p_of, seed: int, a, b, horizon: int) -> int:
    """First meeting level of two walkers under the reference uniforms
    (-1 when they do not meet), stepped one site at a time."""
    ua, va = a
    for _ in range(b[0] + b[1] - ua - va):
        step = refenv.theta(seed, ua, va) < p_of(ua, va)
        ua, va = ua + step, va + (not step)
    ub, vb = b
    for k in range(horizon + 1):
        if (ua, va) == (ub, vb):
            return b[0] + b[1] + k
        if k == horizon:
            break
        step = refenv.theta(seed, ua, va) < p_of(ua, va)
        ua, va = ua + step, va + (not step)
        step = refenv.theta(seed, ub, vb) < p_of(ub, vb)
        ub, vb = ub + step, vb + (not step)
    return -1


def _walkers(pl, rng, out_dir):
    from polymerlab import cif, cocycle, coupling, gibbs

    Site, Window = pl.Site, pl.Window
    W1 = Window(Site(0, 0), 1, 1)
    gauss = pl.WeightSpec.gaussian(0.0, 1.0)
    seeds = [int(s) for s in rng.integers(1, 2**31, size=8)]
    ops = []

    horizon, gap = 3000, 2
    half = coupling.constant_rule(0.5)
    half_seeds = list(range(seeds[0], seeds[0] + 400))

    def coalescence_check_for(p_of, theta_seeds, sample):
        def check(stats, ck, envs, r):
            ck.require(stats.post_merge_violations == 0, f"coalescence: {stats.post_merge_violations} permanence violations")
            for i in r.choice(len(theta_seeds), size=sample, replace=False).tolist():
                lvl = _restep_pair(p_of(), theta_seeds[i], (0, 0), (0, gap), horizon)
                ck.require(lvl == int(stats.met_level[i]), f"coalescence: seed {theta_seeds[i]} met at {stats.met_level[i]}, reference {lvl}")
            ck.value(f"coalescence.fraction.{len(theta_seeds)}", stats.fraction)

        return check

    ops.append(
        Op(
            "coalescence_half",
            lambda: coupling.coalescence_experiment(half, Site(0, 0), Site(0, gap), horizon, half_seeds),
            coalescence_check_for(lambda: (lambda u, v: 0.5), half_seeds, 6),
            lambda s: _digest(s.met_level),
        )
    )

    f_band = pl.generate_field(gauss, seeds[1], W1)
    band_h = (-0.7, -0.7)
    half_width = 300
    band_seeds = list(range(seeds[2], seeds[2] + 200))
    rule_box = {}

    def build_band():
        # kept for the coalescence_band operation that follows
        rule_box["rule"] = coupling.band_transition_rule(f_band, 1.0, band_h, horizon + gap + 2, half_width)
        return rule_box["rule"]

    def band_check(rule, ck, envs, r):
        for f in envs:
            ck.environment(f, r, region=2 * horizon)
        kk = r.integers(0, horizon + 1, size=200)
        uu = kk // 2 - half_width + r.integers(0, 2 * half_width + 1, size=200)
        inside = (uu >= 0) & (uu <= kk)
        p = rule.p_at(uu[inside], (kk - uu)[inside])
        ck.require(np.all((p >= 0) & (p <= 1)), "band rule: probabilities in [0,1]")
        # a small band against the reference band DP
        small_f = pl.generate_field(gauss, seeds[3], W1)
        hz, hw = 40, 3
        small = coupling.band_transition_rule(small_f, 1.0, band_h, hz, hw)
        # the program stores band probabilities as float32
        ck.close(*_band_reference(small, small_f.seed, band_h, hz, hw), 2.0**-23, "band rule: small band vs reference DP")

    ops.append(
        Op(
            "band_rule",
            build_band,
            band_check,
            lambda rule: _digest(rule.p_at(np.arange(0, 1000, 7), np.arange(0, 1000, 7))),
        )
    )

    def p_band():
        rule = rule_box["rule"]
        return lambda u, v: float(rule.p_at(np.array([u]), np.array([v]))[0])

    ops.append(
        Op(
            "coalescence_band",
            lambda: coupling.coalescence_experiment(rule_box["rule"], Site(0, 0), Site(0, gap), horizon, band_seeds),
            coalescence_check_for(p_band, band_seeds, 2),
            lambda s: _digest(s.met_level),
        )
    )

    steps, replicas = 500, 1000
    f_flat = pl.generate_field(pl.WeightSpec.constant(0.0), seeds[4], W1)
    f_int = pl.generate_field(gauss, seeds[5], W1)

    def interface_check_for(theta_seed, logit_of):
        def check(stats, ck, envs, r):
            for f in envs:
                ck.environment(f, r, region=steps)
            ck.require(stats.directions.shape == (replicas,), "interface: one direction per replica")
            logit = logit_of()
            for i in r.choice(replicas, size=4, replace=False).tolist():
                u = v = 0
                for _ in range(steps):
                    zu, zv = u + 1, v + 1
                    p = 1.0 / (1.0 + math.exp(-logit(zu, zv)))
                    step = refenv.theta(theta_seed + i, zu, zv) < p
                    u, v = u + step, v + (not step)
                ck.require(stats.directions[i] == u / steps, f"interface: replica {i} ends at {stats.directions[i]}, reference {u / steps}")
            ck.value(f"interface.interior.{theta_seed}", stats.interior_fraction(0.001))

        return check

    # constant weights: the step law is the Polya urn, logit = log(zu/zv)
    ops.append(
        Op(
            "interface_flat",
            lambda: cif.cif_direction_stats(f_flat, 1.0, replicas, steps, seeds[6]),
            interface_check_for(seeds[6], lambda: (lambda zu, zv: math.log(zu / zv))),
            lambda s: _digest(s.directions),
        )
    )

    def gauss_logit():
        levels = C.level_sweep(f_int.values_at, 1.0, Site(0, 0), steps + 2)

        def A(i, j):
            return float(f_int.values_at(np.array([i]), np.array([j]))[0]) + float(levels[i + j][i])

        return lambda zu, zv: A(zu - 1, zv) - A(zu, zv - 1)

    ops.append(
        Op(
            "interface_gaussian",
            lambda: cif.cif_direction_stats(f_int, 1.0, replicas, steps, seeds[7]),
            interface_check_for(seeds[7], gauss_logit),
            lambda s: _digest(s.directions),
        )
    )

    boxes, box_reps = (16, 32, 64), 5

    def junctions_call():
        return [
            coupling.junction_statistics(half, L, coupling.CouplingField(seeds[0] + 7 * k))
            for L in boxes
            for k in range(box_reps)
        ]

    def junctions_check(reps, ck, envs, r):
        for rep in reps:
            ck.require(rep.forest_identity_ok, f"junctions: forest identity at box {rep.box}")
            ck.require(rep.junctions <= rep.interior and rep.density == rep.junctions / rep.box**2, "junctions: counts")
        dens = [np.mean([x.density for x in reps[i * box_reps : (i + 1) * box_reps]]) for i in range(len(boxes))]
        ck.value("junctions.density_decreasing", float(all(b < a for a, b in zip(dens, dens[1:]))))

    ops.append(
        Op("junctions", junctions_call, junctions_check, lambda reps: _digest([x.junctions for x in reps]))
    )

    n_max, levels = 64, (8, 16, 32, 64)
    decay_fields = [pl.generate_field(gauss, seeds[3] + k, W1) for k in range(6)]

    def decay_call():
        out = []
        for fd in decay_fields:
            bf = cocycle.busemann_from_p2l(fd, 1.0, (-1.0, -1.0), 3 * n_max + 4, Window(Site(0, 0), n_max + 1, n_max + 1))
            trans = gibbs.busemann_transitions(bf, fd)
            out.append((bf, trans, gibbs.rooted_mass_decay(trans, Site(n_max, n_max), levels)))
        return out

    def decay_check(res, ck, envs, r):
        strict = True
        for bf, trans, prof in res:
            ck.environment(bf.field, r, region=n_max + 2)
            w = bf.field.values_at(*bf.window.coord_grids())
            s = np.exp(-(bf.b1 - w)) + np.exp(-(bf.b2 - w))
            ck.close(s, np.ones_like(s), 1e-9, "decay: recovery of the Busemann field")
            want = C.hitting_profile(trans.p1, levels)
            ck.close(prof.max_hit, want, 1e-12, "decay: hitting profile vs reference sweep")
            ck.require(all(b <= a + 1e-15 for a, b in zip(prof.max_hit, prof.max_hit[1:])), "decay: profile nonincreasing")
            strict &= prof.strictly_decreasing
        ck.value("decay.strictly_decreasing", float(strict))

    ops.append(Op("decay_busemann", decay_call, decay_check, lambda res: _digest(*[p.max_hit for _, _, p in res])))
    return ops


def _band_reference(rule, seed, h, horizon, hw):
    """(program p, reference p) over every in-band site of a small band rule,
    with the band DP recomputed from reference weights."""
    n = horizon + 2
    F = {}
    for k in range(n, -1, -1):
        lo = k // 2 - hw
        for u in range(max(lo, 0), min(lo + 2 * hw, k) + 1):
            if k == n:
                F[u, k] = 0.0
                continue
            w = refenv.weight("gaussian", (0.0, 1.0), seed, u, k - u)
            c1 = F.get((u + 1, k + 1), NEG_INF) + h[0]
            c2 = F.get((u, k + 1), NEG_INF) + h[1]
            F[u, k] = w + float(np.logaddexp(c1, c2))
    got, want = [], []
    for k in range(horizon + 1):
        lo = k // 2 - hw
        for u in range(max(lo, 0), min(lo + 2 * hw, k) + 1):
            w = refenv.weight("gaussian", (0.0, 1.0), seed, u, k - u)
            want.append(math.exp(w + h[0] + F.get((u + 1, k + 1), NEG_INF) - F[u, k]))
            got.append(float(rule.p_at(np.array([u]), np.array([k - u]))[0]))
    return np.array(got), np.array(want)


# ---------------------------------------------------------------------------
# identities: many small exact-identity runs through the cli, CSV artifacts
# ---------------------------------------------------------------------------


def _identities(pl, rng, out_dir):
    from polymerlab import cli, cocycle

    Site, Window = pl.Site, pl.Window
    ops = []

    def run_op(name, text, extra_check):
        cfg = cli.parse_config(text)
        outdir = os.path.join(out_dir, name)

        def check(report, ck, envs, r):
            for f in envs:
                ck.environment(f, r, region=60)
            if not report.passed:
                ck.op_failures.append(f"{name}: " + ", ".join(c.name for c in report.checks if not c.passed))
                return
            C.report_json_matches(os.path.join(outdir, "report.json"), report, ck, name)
            extra_check(cfg, outdir, report, ck, r)

        ops.append(
            Op(name, lambda: cli.run(cfg, out_dir=outdir), check, lambda rep: _digest([c.value for c in rep.checks]))
        )

    def busemann_extra(cfg, outdir, report, ck, r):
        cols = C.csv_columns(os.path.join(outdir, "busemann.csv"))
        W, H = cfg.width, cfg.height
        b1 = cols["b1"].reshape(W, H)
        b2 = cols["b2"].reshape(W, H)
        # the same field straight from the library must reparse exactly
        field = pl.generate_field(cfg.weight_spec(), cfg.seed_weights, Window(Site(0, 0), 1, 1))
        win = Window(Site(0, 0), W, H)
        if cfg.construction == "p2l":
            bf = cocycle.busemann_from_p2l(field, cfg.beta, (cfg.h1, cfg.h2), cfg.horizon, win)
        else:
            bf = cocycle.busemann_from_p2p(field, cfg.beta, Site(W + cfg.horizon, H + cfg.horizon), win)
        ck.close(b1, bf.b1, 0.0, f"{cfg.construction}: busemann.csv reparse")
        ck.close(b2, bf.b2, 0.0, f"{cfg.construction}: busemann.csv reparse")
        closure = b1[:-1, :-1] + b2[1:, :-1] - b2[:-1, :-1] - b1[:-1, 1:]
        ck.close(closure, np.zeros_like(closure), 1e-9, f"{cfg.construction}: closure from the csv")
        for u, v in zip(r.integers(0, W, 16).tolist(), r.integers(0, H, 16).tolist()):
            w = refenv.weight("gaussian", (cfg.mean, cfg.sd), cfg.seed_weights, u, v)
            rec = math.exp(-cfg.beta * (b1[u, v] - w)) + math.exp(-cfg.beta * (b2[u, v] - w))
            ck.close(rec, 1.0, 1e-9, f"{cfg.construction}: recovery at ({u},{v}) with reference weights")
        if cfg.construction == "p2l":
            F = C.tilted_line(C.ref_weights(cfg.weight_spec(), cfg.seed_weights), cfg.beta, (cfg.h1, cfg.h2), Site(0, 0), cfg.horizon)
            want = [(F[0, 0] - F[1, 0]) / cfg.beta - cfg.h1, (F[0, 0] - F[0, 1]) / cfg.beta - cfg.h2]
            ck.close([b1[0, 0], b2[0, 0]], want, 1e-9, "p2l: origin increments vs reference DP")

    for k in range(3):
        h1, h2 = (float(x) for x in rng.normal(0.0, 0.4, size=2))
        run_op(
            f"busemann_p2l_{k}",
            f"kind = busemann\nconstruction = p2l\nh1 = {h1!r}\nh2 = {h2!r}\nhorizon = 300\n"
            f"width = 100\nheight = 100\nstaircases = 60\nseed_weights = {int(rng.integers(1, 2**31))}\n"
            f"seed_sampler = {int(rng.integers(1, 2**31))}\n",
            busemann_extra,
        )
    for k in range(2):
        run_op(
            f"busemann_p2p_{k}",
            f"kind = busemann\nconstruction = p2p\nhorizon = 150\nwidth = 100\nheight = 100\n"
            f"staircases = 60\nseed_weights = {int(rng.integers(1, 2**31))}\n"
            f"seed_sampler = {int(rng.integers(1, 2**31))}\n",
            busemann_extra,
        )

    def monotonicity_extra(cfg, outdir, report, ck, r):
        mono = C.csv_columns(os.path.join(outdir, "monotonicity.csv"))
        ck.require(np.all(mono["violations"] == 0), "monotonicity.csv: violations")
        comp = C.csv_columns(os.path.join(outdir, "comparison.csv"))
        ck.require(np.all(comp["margin_e1"] >= -1e-12) and np.all(comp["margin_e2"] >= -1e-12), "comparison.csv: margins")

    for k in range(2):
        run_op(
            f"monotonicity_{k}",
            f"kind = monotonicity\npairs = 20\ntriples = 150\nwidth = 25\nheight = 25\nhorizon = 70\n"
            f"seed_weights = {int(rng.integers(1, 2**31))}\nseed_sampler = {int(rng.integers(1, 2**31))}\n",
            monotonicity_extra,
        )

    def dlr_extra(cfg, outdir, report, ck, r):
        cols = C.csv_columns(os.path.join(outdir, "dlr.csv"))
        ck.require(np.all(cols["max_discrepancy"] <= cfg.tol), "dlr.csv: discrepancies")
        ck.require(np.all(cols["paths"][1:] == 2**cfg.levels), "dlr.csv: path counts")

    for k in range(2):
        run_op(
            f"dlr_{k}",
            f"kind = dlr\nfixture = hand2x2\nwindows = 10\nlevels = 9\nseed_weights = {int(rng.integers(1, 2**31))}\n",
            dlr_extra,
        )

    def decay_extra(cfg, outdir, report, ck, r):
        cols = C.csv_columns(os.path.join(outdir, "decay.csv"))
        want = [math.comb(n, n // 2) / 2.0**n for n in cols["n"].astype(int).tolist()]
        ck.close(cols["max_hit"], want, 1e-12, "decay.csv: half rule against the binomial")

    run_op("decay_half", "kind = decay\nrule = half\nlevels = 8 16 32 64 128 256\n", decay_extra)
    return ops
