"""Uniform-variable coupling of {e1,e2}-step walks in a common environment.

A single field of i.i.d. Uniform[0,1] variables theta(x) drives every walk
simultaneously: at site x the step is e1 when theta(x) < p(x).  Walks coupled
this way merge permanently on first meeting, and pointwise-ordered step
probabilities produce pathwise-ordered walks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvio import write_columns
from .env import (
    COUPLING_STREAM,
    _HASH_BLOCK_SITES,
    Site,
    WeightField,
    _key,
    _rows,
    _seed_array,
    _uniforms,
    site_uniforms,
)
from .errors import OrderingError, ParameterError, WindowError
from .gibbs import PolymerPath
from .partition import _level, _scaled, _temperature

__all__ = [
    "CouplingField",
    "CoupledStepRule",
    "constant_rule",
    "band_transition_rule",
    "coupled_walk",
    "coalescence_experiment",
    "ordering_check",
    "junction_statistics",
]


@dataclass(frozen=True)
class CouplingField:
    """Per-site Uniform[0,1] variables with the same counter-based
    determinism contract as weight fields, in an independent seed namespace.
    Values regenerate at any site."""

    seed: int

    def theta_at(self, uu, vv) -> np.ndarray:
        return site_uniforms(self.seed, COUPLING_STREAM, uu, vv)

    def value(self, site: Site) -> float:
        return float(self.theta_at(np.asarray([site.u]), np.asarray([site.v]))[0])


@dataclass(frozen=True)
class CoupledStepRule:
    """Step law p(x) = P(step e1 at x), as a vectorized site function."""

    p_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def p_at(self, uu, vv) -> np.ndarray:
        return np.asarray(
            self.p_fn(np.asarray(uu, dtype=np.int64), np.asarray(vv, dtype=np.int64))
        )


def constant_rule(p: float) -> CoupledStepRule:
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be a probability")

    def p_fn(uu, vv):
        return np.full(np.shape(uu), p)

    return CoupledStepRule(p_fn)


def band_transition_rule(
    field: WeightField,
    beta: float,
    h: tuple[float, float],
    horizon: int,
    half_width: int,
) -> CoupledStepRule:
    """Busemann-driven step law on a diagonal band, for long-horizon walks.

    Runs the tilted point-to-line DP restricted to the band
    |u - floor(level/2)| <= half_width, 0 <= u <= level, which is the exact
    polymer recursion of the band-confined path model: transitions normalize
    exactly, walks started inside can never leave (steps that would exit get
    probability 0), and the rule is weakly elliptic in the band interior.

    The recursion runs down from level n = horizon + 2, but walks read it
    upwards, so the rule keeps the float32 p rows of one block of
    B = isqrt(n) levels at a time (levels jB .. jB + B - 1), and for every
    block the -inf-padded F of the level above it: O((n/B + B) * width)
    bytes in place of n * width.  The build is one backward sweep that
    stores the checkpoints and keeps block 0's rows; a lookup in another
    block refills the rows from that block's checkpoint with the same
    arithmetic, so every probability is the same bits whichever block it
    was computed in.  A refill costs B level steps, about 1/B of the build.
    """
    beta, scale, comb = _temperature(beta)
    if math.isinf(beta):
        raise ParameterError("band rule is defined for finite beta")
    if half_width < 2:
        raise ParameterError("half_width must be at least 2")
    if horizon < 0:
        raise ParameterError("horizon must be nonnegative")
    if not (math.isfinite(h[0]) and math.isfinite(h[1])):
        raise ParameterError(f"band rule needs a finite tilt, got {tuple(h)}")
    n = horizon + 2
    B = math.isqrt(n)
    width = 2 * half_width + 1
    bh1 = scale * h[0]
    bh2 = scale * h[1]

    def sweep(F, j, rows=None):
        """Steps F, padded with -inf on both sides so that the children of
        every band offset are slices of it, from the level above block j
        down to level jB, in place; with `rows`, writes level k's p row to
        rows[k - jB]."""
        # the band's sites on level k are u in [lo, hi], offsets [a, a + hi - lo]
        kk = np.arange(min(j * B + B, n) - 1, j * B - 1, -1)
        lo = np.maximum(kk // 2 - half_width, 0)
        hi = np.minimum(kk // 2 + half_width, kk)
        levels = _rows(field, lo, kk - lo, hi - lo + 1, (1, -1))
        with np.errstate(invalid="ignore"):  # one for the sweep's level steps
            for k, a, w in zip(kk.tolist(), (lo - kk // 2 + half_width).tolist(), levels):
                b = a + w.size
                bw = _scaled(scale, w)
                c = F[1 - k % 2 :]  # c[i]: child u of band offset i; c[i + 1]: child u + 1
                Fk = _level(c[a : b + 1], bw + bh2, bw + bh1, comb, False, False)
                if rows is not None:
                    rows[k - j * B, a:b] = np.exp(bw + bh1 + c[a + 1 : b + 1] - Fk)
                F[1 : a + 1] = F[b + 1 : -1] = float("-inf")
                F[a + 1 : b + 1] = Fk

    F = np.full(width + 2, float("-inf"))
    uu = n // 2 - half_width + np.arange(width)
    F[1:-1][(uu >= 0) & (uu <= n)] = 0.0  # level n boundary
    checkpoints = np.empty((-(-n // B), width + 2))
    rows = np.full((B, width), np.nan, dtype=np.float32)
    for j in range(len(checkpoints) - 1, -1, -1):
        checkpoints[j] = F
        sweep(F, j, rows if j == 0 else None)
    flat = rows.ravel()
    cached = 0

    def load(j):
        """The p rows of block j, flat, refilled unless they are cached."""
        nonlocal cached
        if j != cached:
            rows.fill(np.nan)
            sweep(checkpoints[j].copy(), j, rows)
            cached = j
        return flat

    # each bound is one max pass: as uint64 a negative level or offset
    # wraps above any bound
    def p_fn(uu, vv):
        uu = np.asarray(uu, dtype=np.int64)
        vv = np.asarray(vv, dtype=np.int64)
        kk = uu + vv
        if not kk.size:
            return np.empty(kk.shape)
        top = int(kk.view(np.uint64).max())
        if top > horizon:
            raise WindowError("walk level outside the band horizon")
        idx = uu - (kk // 2 - half_width)
        if idx.view(np.uint64).max() >= width:
            raise WindowError("walk left the diagonal band")
        j = int(kk.min()) // B
        if j == top // B:  # always, for walkers: their sites share a level
            return load(j).take((kk - j * B) * width + idx).astype(np.float64)
        # block by block, from the top, so that the lowest block read, where
        # walks start, stays cached
        p = np.empty(kk.shape)
        blk = kk // B
        for j in np.unique(blk)[::-1].tolist():
            at = blk == j
            p[at] = load(j).take((kk[at] - j * B) * width + idx[at])
        return p

    return CoupledStepRule(p_fn)


@functools.cache
def _triangle(m: int, ndim: int):
    """The offsets (i, j - i), 0 <= i <= j < m, of the sites a walker can
    step from in its next m levels, in the order j(j+1)/2 + i, each shaped
    to lead `ndim` walker axes."""
    j = np.repeat(np.arange(m), np.arange(1, m + 1))
    i = np.arange(j.size) - j * (j + 1) // 2
    shape = (-1,) + (1,) * ndim
    return i.reshape(shape), (j - i).reshape(shape)


def _ahead(keys, u: np.ndarray, v: np.ndarray, levels: int):
    """The uniforms of every site walkers at (u, v) can step from in their
    next m levels, hashed by one `_uniforms` call under the `_key`s of their
    coupling seeds (broadcast against u).  m is the largest with u.size *
    m(m+1)/2 sites in one hash block, at least 1 and at most `levels`.
    After j steps, i of them e1, a walker is at (u + i, v + j - i): row
    j(j+1)/2 + i of the block, which has a column per walker in u's flat
    order.  Returns m and the block, flat; row 0 is the walkers' own sites,
    and a one-level block is only that row."""
    m = min(levels, (math.isqrt(8 * (_HASH_BLOCK_SITES // max(u.size, 1)) + 1) - 1) // 2)
    if m <= 1:
        return 1, _uniforms(keys, u, v).ravel()
    du, dv = _triangle(m, u.ndim)
    return m, _uniforms(keys, u + du, v + dv).ravel()


def _walk(rule: CoupledStepRule, keys, u: np.ndarray, v: np.ndarray, steps: int):
    """Coupled walkers at (u, v) stepped `steps` levels on uniforms hashed
    ahead by `_ahead`: e1 where the site's uniform falls below the step
    probability, which `rule.p_at` gives at the visited sites only, in u's
    shape.  Yields (u, v) after each level.  A caller may send a mask of the
    last axis: the walkers outside it, with their keys, leave the walk."""
    while steps:
        m, theta = _ahead(keys, u, v, steps)
        n = u.size
        for j in range(m):
            # `at`: each walker's flat index into the rows from j(j+1)/2
            # on, i rows below its column
            t = theta[:n].reshape(u.shape) if j == 0 else theta[j * (j + 1) // 2 * n :].take(at)
            s = t < rule.p_at(u, v)
            u, v = u + s, v + ~s
            if j < m - 1:
                at = (np.arange(n).reshape(u.shape) if j == 0 else at) + n * s
            keep = yield u, v
            if keep is not None:
                # `compress` keeps (2, A) sites C-ordered; a boolean index of
                # the last axis returns them Fortran-ordered, and every later
                # ufunc, the hash's included, then runs strided
                keys, u, v = keys[keep], u.compress(keep, -1), v.compress(keep, -1)
                if j < m - 1:
                    at = at.compress(keep, -1)
        steps -= m


def coupled_walk(
    rule: CoupledStepRule, thetas: CouplingField, start: Site, steps: int
) -> PolymerPath:
    """Deterministic walk driven by the shared uniform field."""
    sites = np.empty((steps + 1, 2), dtype=np.int64)
    sites[0] = (start.u, start.v)
    u = np.asarray([start.u], dtype=np.int64)
    v = np.asarray([start.v], dtype=np.int64)
    key = _key(thetas.seed, COUPLING_STREAM)
    for k, (u, v) in enumerate(_walk(rule, key, u, v, steps), 1):
        sites[k] = (u[0], v[0])
    return PolymerPath(sites)


@dataclass(frozen=True, eq=False)
class CoalescenceStats:
    seeds: np.ndarray
    met_level: np.ndarray  # first-meeting level per seed, -1 when censored
    # pairs whose walks split on the step out of their meeting site; a rule
    # that reads one p per site cannot split them later
    post_merge_violations: int

    @property
    def pairs(self) -> int:
        return self.met_level.size

    @property
    def coalesced(self) -> int:
        return int((self.met_level >= 0).sum())

    @property
    def censored(self) -> int:
        return self.pairs - self.coalesced

    @property
    def fraction(self) -> float:
        return self.coalesced / self.pairs if self.pairs else float("nan")

    @property
    def levels(self) -> np.ndarray:
        return self.met_level[self.met_level >= 0]

    def to_csv(self, path) -> str:
        met = self.met_level
        return write_columns(
            path, {"seed": self.seeds, "pair_id": 0, "coalesced": met >= 0, "level": met}
        )


def coalescence_experiment(
    rule: CoupledStepRule,
    start_a: Site,
    start_b: Site,
    horizon: int,
    theta_seeds,
) -> CoalescenceStats:
    """Level-synchronized coupled walks from two starts under many coupling
    seeds: detects the first common site, counts the pairs that split on the
    step out of it, and reports the censored (never-met within horizon)
    fraction.  The loop ends once every pair has met."""
    seeds = _seed_array(theta_seeds)
    S = seeds.size
    if S == 0:
        raise ParameterError("coalescence needs at least one coupling seed")
    if start_a.level() > start_b.level():
        start_a, start_b = start_b, start_a
    lag = start_b.level() - start_a.level()
    keys = _key(seeds, COUPLING_STREAM)
    ua = np.full(S, start_a.u, dtype=np.int64)
    va = np.full(S, start_a.v, dtype=np.int64)
    # bring walker a up to walker b's level first, driven by the same thetas
    for ua, va in _walk(rule, keys, ua, va, lag):
        pass
    # rows a, b of the pairs idx that have not met.  A pair that meets takes
    # one more step and then leaves: a split on that step is a permanence
    # violation, and none can follow, since one key at one site reads one
    # uniform and one p.  idx and the walk's keys, sites and block indices
    # are compacted together, and only on levels where some pair meets.
    u = np.stack([ua, np.full(S, start_b.u, dtype=np.int64)])
    v = np.stack([va, np.full(S, start_b.v, dtype=np.int64)])
    idx = np.arange(S)
    met_level = np.full(S, -1, dtype=np.int64)
    post_merge_violations = 0
    level = start_b.level()
    same = (u[0] == u[1]) & (v[0] == v[1])
    walk = _walk(rule, keys, u, v, horizon)
    live = None
    for k in range(horizon):
        met = same.any()
        if met:
            met_level[idx[same]] = level
        u, v = walk.send(live)
        level += 1
        after = (u[0] == u[1]) & (v[0] == v[1])
        live = None
        if met:
            post_merge_violations += int((same & ~after).sum())
            live = ~same
            idx, after = idx[live], after[live]
        same = after
        if not idx.size:
            break
    met_level[idx[same]] = level
    return CoalescenceStats(
        seeds=seeds,
        met_level=met_level,
        post_merge_violations=post_merge_violations,
    )


def ordering_check(
    rule_low: CoupledStepRule,
    rule_high: CoupledStepRule,
    start: Site,
    steps: int,
    theta_seeds,
    p_low: np.ndarray | None = None,
    p_high: np.ndarray | None = None,
) -> int:
    """Pathwise ordering under pointwise-ordered step laws: the rule with the
    larger e1-probability must never fall e1-behind.  When the p arrays are
    supplied the pointwise precondition is enforced first.  Returns the
    violation count over all seeds and steps (expected 0)."""
    if p_low is not None and p_high is not None:
        if np.any(p_low > p_high + 1e-12):
            raise OrderingError("step laws are not pointwise ordered")
    keys = _key(_seed_array(theta_seeds), COUPLING_STREAM)
    ul = np.full(keys.size, start.u, dtype=np.int64)
    vl = np.full(keys.size, start.v, dtype=np.int64)
    uh = ul.copy()
    vh = vl.copy()
    violations = 0
    low = _walk(rule_low, keys, ul, vl, steps)
    high = _walk(rule_high, keys, uh, vh, steps)
    for (ul, _), (uh, _) in zip(low, high):
        violations += int((ul > uh).sum())
    return violations


@dataclass(frozen=True)
class JunctionReport:
    box: int
    junctions: int
    density: float
    leaves: int
    interior: int
    trees: int

    @property
    def forest_identity_ok(self) -> bool:
        return self.leaves >= self.interior + self.trees


def junction_statistics(rule: CoupledStepRule, box: int, thetas: CouplingField) -> JunctionReport:
    """Coalescence forest of coupled walks from the south-west boundary of
    [0, box]^2: counts junction points (first meetings of distinct merged
    classes) inside [1, box]^2 per unit area, and checks the binary-forest
    inequality leaves >= interior + trees.

    Walkers step by 0 or +1 in u per level, so they cannot cross without
    meeting: the classes of a level stay sorted by u, and a merge is two
    neighbours with one u.  Level k's starts (0, k) and (k, 0) join at the
    two ends, and only the ends can leave the box, the first past v = box
    and the last past u = box.  A class that leaves holds its final count
    of starts."""
    L = int(box)
    if L < 1:
        raise ParameterError("junction box must be at least 1")
    key = _key(thetas.seed, COUPLING_STREAM)
    theta = _uniforms(key, np.arange(L + 1)[:, None], np.arange(L + 1))
    u = np.zeros(1, dtype=np.int64)  # the classes on the level, by their u
    size = np.ones(1, dtype=np.int64)  # the starts each class holds
    junctions = events = leaves = trees = 0
    for level in range(2 * L + 1):
        if 0 < level <= L:
            u = np.concatenate(([0], u, [level]))
            size = np.concatenate(([1], size, [1]))
        elif not u.size:
            break
        at = np.flatnonzero(u[1:] == u[:-1])  # classes at and at + 1 meet
        if at.size:
            events += at.size
            # inside [1, L]^2: u >= 1 and v = level - u >= 1
            junctions += int(np.count_nonzero((u[at] >= 1) & (u[at] < level)))
            size[at] += size[at + 1]
            u, size = np.delete(u, at + 1), np.delete(size, at + 1)
        v = level - u
        u = u + (theta[u, v] < rule.p_at(u, v))
        # the first class may step past v = L, the last past u = L
        lo = int(u[0] < level + 1 - L)
        hi = u.size - int(u[-1] > L)
        for n in size[:lo].tolist() + size[hi:].tolist():
            if n >= 2:
                leaves += n
                trees += 1
        u, size = u[lo:hi], size[lo:hi]
    return JunctionReport(
        box=L,
        junctions=junctions,
        density=junctions / (L * L),
        leaves=leaves,
        interior=events,
        trees=trees,
    )
