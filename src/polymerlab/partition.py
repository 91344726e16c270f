"""Log-space dynamic programming for polymer partition functions.

All thermodynamics are carried in log space: tables store log Z (beta times
the free energy) for finite beta, and the last-passage time G itself at
beta = inf.  -inf encodes "no admissible path".  Every sweep advances one
level (anti-diagonal) at a time through `_level`, whose two-term
log-sum-exp is max + log1p(exp(min - max)) (`_lae`), so raw partition
values are never materialized.

Path-weight convention: the energy of a path from x to y sums the weights at
every visited site including x and excluding y, so Z_{x,x} = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvio import write_columns
from .env import FieldBatch, Site, Window, WeightField, _blocks, _replica_shape, _rows, _site_array
from .errors import (
    DomainError,
    OrderingError,
    ParameterError,
    SizeError,
    WindowError,
)

__all__ = [
    "NEG_INF",
    "PartitionTable",
    "TiltedLineTable",
    "p2p_table",
    "p2p_values",
    "p2p_pair_values",
    "p2l_table",
    "enumerate_oracle",
    "beta_limit_check",
    "comparison_check",
]

NEG_INF = float("-inf")

# Paths with more steps than this are refused by the enumeration oracle;
# binomial growth makes larger instances pointless as test oracles.
ENUMERATION_STEP_LIMIT = 24


class _Temperature(NamedTuple):
    beta: float
    scale: float  # log-weights are scale * energies
    comb: np.ufunc  # combines the log-weights of two path families


def _temperature(beta: float) -> _Temperature:
    """The one temperature rule: beta > 0 or inf, else ParameterError.  At
    finite beta log-weights are beta * energies combined by logaddexp; at
    beta = inf they are the energies themselves (scale 1), combined by max,
    so tables hold the last-passage time G.  The level step runs comb
    elementwise, as `_lae` in place of np.logaddexp."""
    beta = float(beta)
    if not beta > 0:
        raise ParameterError(f"beta must be positive (or inf), got {beta}")
    if math.isinf(beta):
        return _Temperature(beta, 1.0, np.maximum)
    return _Temperature(beta, beta, np.logaddexp)


def lse2(a: float, b: float) -> float:
    """Stable two-term log-sum-exp for scalars."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


# ---------------------------------------------------------------------------
# The sweep kernel.  Arrays are indexed [du, dv].  The tables, the probes,
# the rectangles, the tilted point-to-line triangle and the band rule all
# advance one level (anti-diagonal) at a time: the sites of a level are
# independent, so a level is a handful of elementwise ufuncs.
# ---------------------------------------------------------------------------


def _lae(a, b, out=None) -> np.ndarray:
    """np.logaddexp(a, b) as max + log1p(exp(min - max)), from ufuncs that
    numpy vectorizes (logaddexp itself runs one scalar call per element).
    Two equal infinities make min - max NaN; the last fmax then keeps the
    max, which the sum never undercuts.  A NaN operand is NaN in both."""
    d = np.minimum(a, b)
    m = np.maximum(a, b, out=out)
    with np.errstate(invalid="ignore"):
        np.subtract(d, m, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    np.add(m, d, out=d)
    return np.fmax(d, m, out=m)


def _level(prev: np.ndarray, s1: np.ndarray, s2, comb: np.ufunc, lo: bool, hi: bool) -> np.ndarray:
    """The level after `prev` of the sweep L[i, j] = comb(L[i-1, j] + e1
    term, L[i, j-1] + e2 term); a level runs along the last axis in
    increasing i.  A site entered from prev[j] along e1 and from prev[j + 1]
    along e2 gets comb(prev[j] + s1[j], prev[j + 1] + s2[j + lo]), each sum
    formed before the combine.  With `lo` the level starts with the site on
    the i = 0 edge, entered from prev[0] along e2 only; with `hi` it ends
    with the site on the j = 0 edge, entered from prev[-1] along e1 only.

    s1 holds the e1 terms of the edges out of prev[: len(prev) - 1 + hi] and
    s2 the e2 terms of those out of prev[1 - lo :], the edges that stay in
    the domain.  s2 = None makes s1 one term per site of prev, carried by
    both of its edges (the weight of the site left) and added once.  The
    terms broadcast against prev, whose leading axes (replicas, anchors,
    tables) the level keeps.  comb is np.maximum, or np.logaddexp evaluated
    as `_lae`."""
    m = prev.shape[-1] - 1  # sites with two predecessors
    if s2 is None:
        a = prev + s1
        b = a[..., 1 - lo :]
        a = a[..., : m + hi]
    else:
        a = prev[..., : m + hi] + s1
        b = prev[..., 1 - lo :] + s2
    new = np.empty(a.shape[:-1] + (m + lo + hi,))
    (_lae if comb is np.logaddexp else comb)(a[..., :m], b[..., lo:], out=new[..., lo : lo + m])
    if lo:
        new[..., 0] = b[..., 0]
    if hi:
        new[..., -1] = a[..., -1]
    return new


def _strided(flat: np.ndarray, start: int, n: int, step: int) -> np.ndarray:
    """The n entries flat[..., start + j * step] as a view: a level of a
    C-ordered [du, dv] array of height H is flat with step +-(H - 1)."""
    stop = start + step * n
    return flat[..., start : stop if stop >= 0 else None : step]


def _levels(s1: np.ndarray, s2: np.ndarray, comb: np.ufunc, last: int | None = None):
    """The levels 0, 1, ..., last (default W + H - 2, the far corner) of the
    sweep L[0, 0] = 0, L[i, j] = comb(L[i-1, j] + s1[i-1, j], L[i, j-1] +
    s2[i, j-1]) on a W x H rectangle (comb from `_temperature`, or logaddexp
    for sums of probabilities), one at a time: level k holds L[i, k - i] for
    max(0, k - H + 1) <= i <= min(k, W - 1), in increasing i.

    s1 (..., W-1, H) and s2 (..., W, H-1) are the log-weights of the e1 and
    e2 edges into each site; the caller chooses them (site weights, cocycle
    log-probabilities, ...).  Leading axes are independent rectangles, each
    equal to its own call bit for bit.  Level k reads the edges out of level
    k - 1, the anti-diagonals of s1 and s2 (diagonals of their mirror views),
    so the sweep to level `last` reads no edge out of a higher level."""
    W, H = s2.shape[-2], s1.shape[-1]
    last = W + H - 2 if last is None else min(last, W + H - 2)
    row = np.zeros(np.broadcast_shapes(s1.shape[:-2], s2.shape[:-2]) + (1,))
    yield row
    f1, f2 = s1[..., ::-1], s2[..., ::-1]
    for k in range(1, last + 1):
        lo, hi = max(0, k - H + 1), min(k, W - 1)
        e1 = np.diagonal(f1, H - k, -2, -1)
        e2 = np.diagonal(f2, H - 1 - k, -2, -1)
        row = _level(row, e1, e2, comb, lo == 0, hi == k)
        yield row


def _sweep(s1: np.ndarray, s2: np.ndarray, comb: np.ufunc) -> np.ndarray:
    """The whole W x H table L of `_levels`, each level written through a
    strided view of the flat table."""
    W, H = s2.shape[-2], s1.shape[-1]
    L = np.empty(np.broadcast_shapes(s1.shape[:-2], s2.shape[:-2]) + (W, H))
    flat = L.reshape(L.shape[:-2] + (-1,))
    for k, row in enumerate(_levels(s1, s2, comb)):
        lo = max(0, k - H + 1)
        _strided(flat, k + lo * (H - 1), row.shape[-1], max(H - 1, 1))[...] = row
    return L


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PartitionTable:
    """Point-to-point log-partition values over a window.

    mode == "to_anchor":   logz[x] = log Z_{x, anchor} for x <= anchor,
    mode == "from_anchor": logz[y] = log Z_{anchor, y} for y >= anchor,
    -inf at sites not ordered with the anchor.  At beta = inf the array
    holds the last-passage time G instead of log Z.
    """

    field: WeightField
    anchor: Site
    beta: float
    mode: str
    window: Window
    logz: np.ndarray

    @property
    def zero_temp(self) -> bool:
        return math.isinf(self.beta)

    def logz_at(self, site: Site) -> float:
        du, dv = self.window.index(site)
        return float(self.logz[du, dv])

    def free_energy_at(self, site: Site) -> float:
        """F = log Z / beta (G itself at beta = inf)."""
        return self.logz_at(site) / _temperature(self.beta).scale

    def recursion_residual(self) -> float:
        """Max deviation from the one-step DP recursion, in log Z units,
        over the sites where the table and its prediction are finite.  The
        weights stream in blocks of whole rows from `env._blocks`, and each
        block's deviations are reduced before the next is read."""
        L = self.logz
        W, H = L.shape
        _, scale, comb = _temperature(self.beta)
        worst = NEG_INF
        last = None  # L + beta*w on the row before a from_anchor block
        u = self.window.origin.u + np.arange(W)
        for i, w in _blocks(self.field, u, self.window.origin.v, H):
            wb = scale * w
            Lb = L[i : i + len(w)]
            a = np.full(wb.shape, NEG_INF)
            b = np.full(wb.shape, NEG_INF)
            if self.mode == "to_anchor":  # wb + comb(L[u + 1, v], L[u, v + 1])
                right = L[i + 1 : i + len(w) + 1]
                a[: len(right)] = right
                b[:, :-1] = Lb[:, 1:]
                pred = comb(a, b, out=a)
                pred += wb
            else:  # comb(L[u - 1, v] + wb[u - 1, v], L[u, v - 1] + wb[u, v - 1])
                s = Lb + wb
                if last is not None:
                    a[0] = last
                a[1:] = s[:-1]
                b[:, 1:] = s[:, :-1]
                last = s[-1].copy()
                pred = comb(a, b, out=a)
            ok = np.isfinite(Lb)
            ok &= np.isfinite(pred)
            np.subtract(Lb, pred, out=pred, where=ok)
            np.abs(pred, out=pred, where=ok)
            worst = max(worst, float(np.max(pred, where=ok, initial=NEG_INF)))
        return 0.0 if worst == NEG_INF else worst

    def to_csv(self, path) -> str:
        uu, vv = self.window.coord_grids()
        return write_columns(path, {"u": uu, "v": vv, "logF": self.logz})


def p2p_table(
    field: WeightField,
    anchor: Site,
    window: Window,
    beta: float,
    mode: str = "to_anchor",
) -> PartitionTable:
    """Fill log Z_{x,anchor} (to_anchor) or log Z_{anchor,y} (from_anchor)
    for every site of the window ordered with the anchor."""
    beta, scale, comb = _temperature(beta)
    if mode not in ("to_anchor", "from_anchor"):
        raise ParameterError(f"unknown mode {mode!r}")
    if not window.contains(anchor):
        raise WindowError("anchor must lie inside the table window")
    if not field.covers(window):
        raise WindowError("explicit field cannot extend beyond its window")
    au, av = window.index(anchor)
    logz = np.full((window.width, window.height), NEG_INF)
    # the sweep from the anchor (reversed for to_anchor) on its W x H corner
    # of the window, one level at a time: level k holds the sites
    # anchor + d * (i, k - i), lo <= i <= hi, written through a strided view
    # of the flat logz.  An edge carries the weight of the site it leaves
    # (from_anchor: the sites of level k - 1, hashed for levels 0..K-1) or,
    # reversed, of the site it enters (to_anchor: the sites of level k,
    # hashed for levels 1..K)
    d = -1 if mode == "to_anchor" else 1
    W, H = (au + 1, av + 1) if d < 0 else (window.width - au, window.height - av)
    kk = np.arange(W + H - 1)
    lo, hi = np.maximum(kk - (H - 1), 0), np.minimum(kk, W - 1)
    read = kk[1:] if d < 0 else kk[:-1]
    raws = _rows(field, anchor.u + d * lo[read], anchor.v + d * (read - lo[read]), hi[read] - lo[read] + 1, (d, -d))
    flat = logz.reshape(-1)
    step = d * max(window.height - 1, 1)
    origin = au * window.height + av
    flat[origin] = 0.0
    row = np.zeros(1)
    for k, i0, i1, raw in zip(kk[1:].tolist(), lo[1:].tolist(), hi[1:].tolist(), raws):
        w = scale * raw
        grow_lo, grow_hi = i0 == 0, i1 == k
        if d > 0:
            row = _level(row, w, None, comb, grow_lo, grow_hi)
        else:
            row = _level(row, w[grow_lo:], w[: len(w) - grow_hi], comb, grow_lo, grow_hi)
        _strided(flat, origin + d * (k + i0 * (window.height - 1)), len(row), step)[...] = row
    return PartitionTable(field, anchor, beta, mode, window, logz)


def p2p_values(field: WeightField | FieldBatch, anchor: Site, beta: float, du, dv) -> np.ndarray:
    """log Z_{anchor, anchor + (du, dv)} elementwise (G at beta = inf); a
    FieldBatch puts its replica axis in front.

    Sweeps only the levels up to the farthest target, clipped to the
    targets' bounding box, and streams the weights one level at a time, so
    memory is O(level).  Every site sees the same predecessors and edge
    terms as in the from_anchor table on the square window, so the values
    equal its entries bit for bit."""
    return _probe(field, anchor, beta, du, dv, 1)


def p2p_pair_values(field: WeightField | FieldBatch, x: Site, beta: float, du, dv) -> np.ndarray:
    """log Z_{x, y} and log Z_{x+e1, y} at y = x + (du, dv) on a leading axis
    of two, -inf where du = 0, from one pass: each level is hashed once, and
    each value equals its own p2p_values call bit for bit."""
    return _probe(field, x, beta, du, dv, 2)


def _probe(field, anchor: Site, beta: float, du, dv, anchors: int) -> np.ndarray:
    """The sweeps from anchor + (k, 0), k < anchors, on a leading axis when
    anchors > 1: they cover the same sites level by level, so they advance as
    one (anchors, replicas, level) block on shared weights.  Each is -inf
    before its level k and starts there with 0 at its anchor.  Its -inf at
    i < k then enters the combine of each site at i = k as exp(-inf) = 0, so
    that site takes its e2 term bit for bit, as on its own sweep's edge."""
    _, scale, comb = _temperature(beta)
    du, dv = np.broadcast_arrays(np.asarray(du, dtype=np.int64), np.asarray(dv, dtype=np.int64))
    if np.any(du < 0) or np.any(dv < 0):
        raise OrderingError("targets must dominate the anchor")
    lead = (anchors,) * (anchors > 1) + _replica_shape(field)
    levels = (du + dv).ravel()
    order = np.argsort(levels, kind="stable")
    kk = np.arange(int(levels.max(initial=-1)) + 1)
    ends = np.searchsorted(levels[order], kk, "right")
    # level k of the triangle clipped to the targets' bounding box holds
    # the sites anchor + (i, k - i), lo <= i <= hi
    lo, hi = np.maximum(kk - dv.max(initial=0), 0), np.minimum(kk, du.max(initial=0))
    raws = _rows(field, anchor.u + lo[:-1], anchor.v + kk[:-1] - lo[:-1], hi[:-1] - lo[:-1] + 1, (1, -1))
    out = np.empty((du.size,) + lead)
    row = np.full(lead + (1,), NEG_INF)
    for k, i0, i1, raw in zip(kk.tolist(), lo.tolist(), hi.tolist(), itertools.chain((None,), raws)):
        if k:
            row = _level(row, scale * raw, None, comb, i0 == 0, i1 == k)
        if k < anchors and k <= i1:  # the sweep from anchor + (k, 0) starts here
            row[(k,) * (anchors > 1) + (..., k - i0)] = 0.0
        hit = order[ends[k - 1] if k else 0 : ends[k]]
        if hit.size:
            out[hit] = np.moveaxis(row[..., du.ravel()[hit] - i0], -1, 0)
    out = out.reshape(du.shape + lead)
    return np.ascontiguousarray(np.moveaxis(out, range(du.ndim), range(-du.ndim, 0)))


@dataclass(frozen=True, eq=False)
class TiltedLineTable:
    """Tilted point-to-line log-partition values on the triangle of sites
    above `base` with level <= n.  Stored beta-scaled (log Z^{beta,h}); at
    beta = inf the array holds G^h."""

    field: WeightField
    beta: float
    h: tuple[float, float]
    n: int
    base: Site
    logz: np.ndarray

    @property
    def zero_temp(self) -> bool:
        return math.isinf(self.beta)

    @property
    def depth(self) -> int:
        return self.n - self.base.level()

    def logz_at(self, site: Site) -> float:
        du = site.u - self.base.u
        dv = site.v - self.base.v
        K = self.depth
        if not (0 <= du <= K and 0 <= dv <= K):
            raise DomainError(f"site ({site.u},{site.v}) outside the horizon triangle")
        return float(self.logz[du, dv])

    def free_energy_at(self, site: Site) -> float:
        return self.logz_at(site) / _temperature(self.beta).scale

    def recursion_residual(self) -> float:
        K = self.depth
        if K == 0:
            return 0.0
        # the weights of the sites below level n, row u of K - u sites
        w = np.zeros((K, K))
        uu = np.arange(K)
        for u, row in zip(uu.tolist(), _rows(self.field, self.base.u + uu, self.base.v, K - uu)):
            w[u, : K - u] = row
        _, scale, comb = _temperature(self.beta)
        L = self.logz
        below = np.add.outer(np.arange(K), np.arange(K)) < K  # levels under n
        pred = scale * w + comb(L[1:, :-1] + scale * self.h[0], L[:-1, 1:] + scale * self.h[1])
        with np.errstate(invalid="ignore"):  # -inf - -inf above the horizon
            return float(np.max(np.abs(pred - L[:-1, :-1])[below]))


def p2l_table(
    field: WeightField,
    beta: float,
    h: tuple[float, float],
    n: int,
    base: Site | None = None,
) -> TiltedLineTable:
    """Tilted point-to-line table on the triangle rooted at `base` (the field
    window's origin by default).

    Values satisfy the downward recursion from the flat boundary at level n
    (0 there, -inf above)."""
    beta = _temperature(beta).beta
    if base is None:
        base = field.window.origin
    h = (float(h[0]), float(h[1]))
    logz = p2l_rows(field, beta, h, n, base, keep_rows=n - base.level() + 1)
    return TiltedLineTable(field, beta, h, n, base, logz)


def p2l_rows(
    field: WeightField | FieldBatch,
    beta: float,
    h,
    n: int,
    base: Site,
    keep_rows: int,
    horizons=None,
) -> np.ndarray:
    """First keep_rows rows of the tilted point-to-line triangle (row u holds
    the values at sites base + (u, 0..K-u)); weights are streamed, so memory
    is O(keep_rows * K) regardless of the horizon.  A FieldBatch puts its
    replica axis in front.

    `h` is one tilt (2,) or tilts (..., 2) whose leading axes broadcast with
    the replica axis: each level's weights are hashed once and every tilt
    advances with them, each equal to its own single-tilt sweep bit for bit.

    `horizons` (<= n, broadcast with the replica and tilt axes) gives each
    sweep its own flat boundary: -inf above level N and 0 written onto it,
    so the values below equal those of a sweep of horizon N bit for bit.
    The sweeps of one environment share its weights."""
    K = n - base.level()
    out = None
    for k, _, level in _p2l_sweep(field, beta, h, n, base, horizons):
        if out is None:  # the boundary level, k = K, fixes the leading axes
            out = np.full(level.shape[:-1] + (min(keep_rows, K + 1), K + 1), NEG_INF)
            flat = out.reshape(out.shape[:-2] + (-1,))
        # the sites (i, k - i) of rows i < keep_rows
        m = min(k + 1, out.shape[-2])
        _strided(flat, k, m, max(K, 1))[...] = level[..., :m]
    return out


def _p2l_sweep(field, beta: float, h, n: int, base: Site, horizons=None):
    """The sweep of `p2l_rows`, one level at a time from the boundary down:
    yields (k, raw, level) for k = K, ..., 0, where level holds the values
    at sites base + (i, k - i), i = 0..k, and raw the weights hashed for it
    at the same sites (None at k = K, where nothing is hashed)."""
    _, scale, comb = _temperature(beta)
    K = n - base.level()
    if K < 0:
        raise ParameterError("target level n is below the base site")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim < 1 or h.shape[-1] != 2:
        raise ParameterError(f"tilts must have shape (..., 2), got {h.shape}")
    bh = scale * h
    bh1, bh2 = bh[..., :1], bh[..., 1:]  # broadcast along the level
    lead = np.broadcast_shapes(h.shape[:-1], _replica_shape(field))
    top = K  # the boundary level of each sweep
    if horizons is not None:
        horizons = np.asarray(horizons, dtype=np.int64)
        if np.any(horizons > n):
            raise ParameterError("horizons must not exceed n")
        lead = np.broadcast_shapes(horizons.shape, lead)
        top = (horizons - base.level())[..., None]
    # 0 on the boundary level and -inf above it.  Site i of level k is
    # entered from site i of level k + 1 along e2 and from site i + 1 along
    # e1, so the first edge terms of `_level` carry the e2 tilt
    level = np.full(lead + (K + 1,), NEG_INF)
    np.copyto(level, 0.0, where=top == K)
    yield K, None, level
    kk = np.arange(K - 1, -1, -1)
    for k, raw in zip(kk.tolist(), _rows(field, base.u, base.v + kk, kk + 1, (1, -1))):
        w = scale * raw
        level = _level(level, w + bh2, w + bh1, comb, False, False)
        np.copyto(level, 0.0, where=top == k)
        yield k, raw, level


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle
# ---------------------------------------------------------------------------


def _path_log_weights(
    field: WeightField | FieldBatch,
    x: Site,
    steps: int,
    n_e1: int,
    scale: float,
    through: Site | None,
) -> np.ndarray:
    """Scaled energies (`_temperature` scale) of every admissible path with
    `steps` steps and `n_e1` e1-steps out of x (weights summed over visited
    sites except the endpoint), optionally restricted to paths through a
    site; a FieldBatch puts its replica axis in front.

    The paths come in the order of `itertools.combinations` of their e1
    steps.  The weights are read once on the rectangle x + [0, U) x [0, V)
    that holds every visited site and gathered per path by one flat index,
    and each path's weights are summed in visiting order along the last
    axis, so each energy equals that of its own sites' `values_at` bit for
    bit."""
    P = math.comb(steps, n_e1)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(steps), n_e1)),
        dtype=np.int8,
        count=P * n_e1,
    ).reshape(P, n_e1)
    # the e1 coordinate (from x) of the j-th visited site: the e1 steps
    # among steps 0 .. j - 1
    jj = np.arange(steps)
    cu = np.zeros((P, steps), dtype=np.intp)
    for k in range(n_e1):
        cu += combos[:, k, None] < jj
    if through is not None:
        j = through.level() - x.level()
        if j < 0 or j > steps:
            raise OrderingError("restriction site not between the endpoints")
        if j < steps:
            cu = cu[cu[:, j] == through.u - x.u]
    U, V = min(n_e1, steps - 1) + 1, min(steps - n_e1, steps - 1) + 1
    rect = field.values_at(x.u + np.arange(U)[:, None], x.v + np.arange(V))
    # site (cu, j - cu) of the rectangle, flat: cu * V + j - cu
    cu *= V - 1
    cu += jj
    # `take` gives C order, so each path's sum runs along a contiguous row
    w = np.take(rect.reshape(rect.shape[:-2] + (-1,)), cu, axis=-1)
    return scale * w.sum(axis=-1)


def enumerate_oracle(
    field: WeightField,
    x: Site,
    beta: float,
    y: Site | None = None,
    level: int | None = None,
    h: tuple[float, float] = (0.0, 0.0),
    through: Site | None = None,
) -> float:
    """Exact log partition value by literal summation over every admissible
    path (max at beta = inf), independent of the DP sweeps.

    Point-to-point with target `y`, or tilted point-to-line with target
    `level` and tilt `h`.  Returns log Z (beta-scaled) for finite beta and
    the last-passage value for beta = inf.  Only the weight scale comes from
    `_temperature`: the reductions are the oracle's own literal ones.
    """
    beta, scale, _ = _temperature(beta)
    zero_temp = math.isinf(beta)
    reduce = np.max if zero_temp else _reduce_lse
    if (y is None) == (level is None):
        raise ParameterError("provide exactly one of y= or level=")
    if y is not None:
        if not x <= y:
            return NEG_INF
        steps = (y - x).level()
        if steps > ENUMERATION_STEP_LIMIT:
            raise SizeError(f"instance needs {steps} steps > {ENUMERATION_STEP_LIMIT}")
        if steps == 0:
            return 0.0
        lw = _path_log_weights(field, x, steps, y.u - x.u, scale, through)
        if lw.size == 0:
            return NEG_INF
        return float(reduce(lw))
    steps = level - x.level()
    if steps < 0:
        return NEG_INF
    if steps > ENUMERATION_STEP_LIMIT:
        raise SizeError(f"instance needs {steps} steps > {ENUMERATION_STEP_LIMIT}")
    if steps == 0:
        return 0.0
    best = NEG_INF
    for a in range(steps + 1):
        lw = _path_log_weights(field, x, steps, a, scale, through)
        if lw.size == 0:
            continue
        part = reduce(lw) + scale * (h[0] * a + h[1] * (steps - a))
        best = max(best, part) if zero_temp else lse2(best, float(part))
    return float(best)


def _reduce_lse(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(values - m))))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaLimitReport:
    x: Site
    y: Site
    betas: tuple[float, ...]
    gaps: tuple[float, ...]  # F^beta - G
    bounds: tuple[float, ...]  # log(#paths) / beta
    sandwich_ok: bool
    monotone_ok: bool


def beta_limit_check(field: WeightField, x: Site, y: Site, betas) -> BetaLimitReport:
    """Verify 0 <= F^beta - G <= log(#paths)/beta and that the gap decreases
    in beta along the given ascending list."""
    if not x <= y:
        raise OrderingError("need x <= y")
    d = y - x
    window = Window(x, d.u + 1, d.v + 1)
    G = p2p_table(field, x, window, math.inf, "from_anchor").logz_at(y)
    n_paths = math.comb(d.level(), d.u)
    gaps, bounds = [], []
    for beta in betas:
        beta = _temperature(beta).beta
        if math.isinf(beta):
            raise ParameterError("beta_limit_check expects finite betas")
        F = p2p_table(field, x, window, beta, "from_anchor").logz_at(y) / beta
        gaps.append(F - G)
        bounds.append(math.log(n_paths) / beta)
    eps = 1e-12
    sandwich_ok = all(-eps <= g <= b + eps for g, b in zip(gaps, bounds))
    monotone_ok = all(gaps[i + 1] <= gaps[i] + eps for i in range(len(gaps) - 1))
    return BetaLimitReport(
        x, y, tuple(float(b) for b in betas), tuple(gaps), tuple(bounds), sandwich_ok, monotone_ok
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Margins of one triple (floats) or of a batch (arrays, one entry per
    triple); `ok` is elementwise and false on NaN."""

    margin_e1: float | np.ndarray
    margin_e2: float | np.ndarray

    @property
    def ok(self) -> bool | np.ndarray:
        return (self.margin_e1 >= -1e-12) & (self.margin_e2 >= -1e-12)


# The to_anchor sweeps of a comparison batch run in groups whose padded
# rectangles fit in this many bytes.
_COMPARISON_BLOCK_BYTES = 8 << 20


def comparison_check(field: WeightField, x, u, v, beta: float) -> ComparisonReport:
    """Partition-ratio comparison between two targets u, v with u at least as
    e1-ward as v: log(Z_{x+e1,u}/Z_{x,u}) >= log(Z_{x+e1,v}/Z_{x,v}) and the
    e2 ratio reversed.  Margins are the (nonnegative) log-space slacks.

    x, u, v are Sites (one triple, float margins) or batches of triples,
    each an (n, 2) int array or a sequence of Sites, broadcast along n
    (array margins).  Every margin equals that of the to_anchor
    `p2p_table`s on [x, u] and [x, v] bit for bit: the bounding rectangle of
    all triples is hashed once, and the rectangles of one orientation run as
    a leading axis of `_sweep`, each padded to the largest of its group (see
    `_to_anchor_ratios`)."""
    _, scale, comb = _temperature(beta)
    single = all(isinstance(s, Site) for s in (x, u, v))
    x, u, v = np.broadcast_arrays(_site_array(x), _site_array(u), _site_array(v))
    if not (np.all(u >= x + 1) and np.all(v >= x + 1)):
        raise OrderingError("targets must dominate x + e1 + e2")
    if not (np.all(u[:, 0] >= v[:, 0]) and np.all(u[:, 1] <= v[:, 1])):
        raise OrderingError("need u.e1 >= v.e1 and u.e2 <= v.e2")
    if len(x) == 0:
        return ComparisonReport(np.empty(0), np.empty(0))
    lo, hi = x.min(axis=0), np.maximum(u, v).max(axis=0)
    rect = Window(Site(int(lo[0]), int(lo[1])), int(hi[0] - lo[0]) + 1, int(hi[1] - lo[1]) + 1)
    w = field.subfield(rect).values
    r1, r2 = _to_anchor_ratios(scale * w, np.concatenate([x, x]) - lo, np.concatenate([u, v]) - lo, comb)
    n = len(x)
    m1, m2 = r1[:n] - r1[n:], r2[n:] - r2[:n]
    return ComparisonReport(float(m1[0]), float(m2[0])) if single else ComparisonReport(m1, m2)


def _to_anchor_ratios(wb: np.ndarray, x: np.ndarray, t: np.ndarray, comb: np.ufunc):
    """log Z_{x+e_i, t} - log Z_{x, t} (i = 1, 2) of the to_anchor table on
    [x, t] for each row of x, t (indices into the scaled weights wb), as
    `p2p_table` computes them: `_sweep` of the rectangle reversed from t,
    each edge carrying the weight of the site it enters.  The rectangles of
    one orientation (wider than tall or not) run in groups as a leading axis,
    each padded to its group's largest.  A value reads only the sites between
    it and t, so the entries read here, at x, x+e1 and x+e2, never see the
    padding."""
    d = t - x
    r1, r2 = np.empty(len(t)), np.empty(len(t))
    for wide in (False, True):
        idx = np.flatnonzero((d[:, 0] > d[:, 1]) == wide)
        per_block = max(1, _COMPARISON_BLOCK_BYTES // (8 * int((d[idx].max(axis=0, initial=0) + 1).prod())))
        for s in range(0, len(idx), per_block):
            k = idx[s : s + per_block]
            A, B = d[k].max(axis=0) + 1
            # the weights at t - (i, j); padding that runs below the
            # rectangle reads any weight there
            i = np.maximum(t[k, 0, None, None] - np.arange(A)[:, None], 0)
            r = wb[i, np.maximum(t[k, 1, None, None] - np.arange(B), 0)]
            L = _sweep(r[:, 1:], r[:, :, 1:], comb)
            n = np.arange(len(k))
            base = L[n, d[k, 0], d[k, 1]]
            r1[k] = L[n, d[k, 0] - 1, d[k, 1]] - base
            r2[k] = L[n, d[k, 0], d[k, 1] - 1] - base
    return r1, r2
