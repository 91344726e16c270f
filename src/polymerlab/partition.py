"""Log-space dynamic programming for polymer partition functions.

All thermodynamics are carried in log space: tables store log Z (beta times
the free energy) for finite beta, and the last-passage time G itself at
beta = inf.  -inf encodes "no admissible path".  The two-term log-sum-exp is
evaluated as max + log1p(exp(-|delta|)) (np.logaddexp), so raw partition
values are never materialized.

Path-weight convention: the energy of a path from x to y sums the weights at
every visited site including x and excluding y, so Z_{x,x} = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .env import E1, E2, EHAT, Site, Window, WeightField
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
    "p2l_table",
    "enumerate_oracle",
    "beta_limit_check",
    "comparison_check",
]

NEG_INF = float("-inf")

# Paths with more steps than this are refused by the enumeration oracle;
# binomial growth makes larger instances pointless as test oracles.
ENUMERATION_STEP_LIMIT = 24


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not beta > 0:
        raise ParameterError(f"beta must be positive (or inf), got {beta}")
    return beta


def lse2(a: float, b: float) -> float:
    """Stable two-term log-sum-exp for scalars."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


# ---------------------------------------------------------------------------
# The sweep kernel.  Arrays are indexed [du, dv]; each row recursion is
# collapsed to a single ufunc accumulate by factoring out in-row prefix sums.
# ---------------------------------------------------------------------------


def _row(a: np.ndarray, s: np.ndarray, acc) -> np.ndarray:
    """y[0] = a[0], y[j] = op(y[j-1] + s[j-1], a[j]), evaluated as
    acc(a - S) + S with S the exclusive prefix sum of the edge terms s."""
    S = np.empty(a.shape[0])
    S[0] = 0.0
    np.cumsum(s, out=S[1:])
    return acc(a - S) + S


def _sweep(s1: np.ndarray, s2: np.ndarray, zero_temp: bool) -> np.ndarray:
    """L[0, 0] = 0, L[i, j] = op(L[i-1, j] + s1[i-1, j], L[i, j-1] + s2[i, j-1])
    on a W x H rectangle, with op = logaddexp (max when zero_temp).

    s1 (W-1, H) and s2 (W, H-1) are the log-weights of the e1 and e2 edges
    into each site; the caller chooses them (site weights, cocycle
    log-probabilities, ...).  Rows run along the longer side."""
    W, H = s2.shape[0], s1.shape[1]
    if W > H:
        return _sweep(s2.T, s1.T, zero_temp).T
    acc = np.maximum.accumulate if zero_temp else np.logaddexp.accumulate
    L = np.empty((W, H), dtype=np.float64)
    L[0, 0] = 0.0
    np.cumsum(s2[0], out=L[0, 1:])
    for i in range(1, W):
        L[i] = _row(L[i - 1] + s1[i - 1], s2[i], acc)
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
        val = self.logz_at(site)
        return val if self.zero_temp else val / self.beta

    def recursion_residual(self) -> float:
        """Max deviation from the one-step DP recursion, in log Z units."""
        w = self.field.subfield(self.window).values
        L = self.logz
        wb = w if self.zero_temp else self.beta * w
        comb = np.maximum if self.zero_temp else np.logaddexp
        pad = np.full_like(L, NEG_INF)
        if self.mode == "to_anchor":
            right = np.concatenate([L[1:, :], pad[:1, :]], axis=0)
            up = np.concatenate([L[:, 1:], pad[:, :1]], axis=1)
            pred = wb + comb(right, up)
        else:
            left = np.concatenate([pad[:1, :], L[:-1, :] + wb[:-1, :]], axis=0)
            down = np.concatenate([pad[:, :1], L[:, :-1] + wb[:, :-1]], axis=1)
            pred = comb(left, down)
        ok = np.isfinite(L) & np.isfinite(pred)
        if not ok.any():
            return 0.0
        return float(np.max(np.abs(L[ok] - pred[ok])))

    def to_csv(self, path) -> str:
        from .csvio import write_csv

        uu, vv = self.window.coord_grids()
        return write_csv(
            path,
            ("u", "v", "logF"),
            zip(uu.ravel().tolist(), vv.ravel().tolist(), self.logz.ravel().tolist()),
        )


def p2p_table(
    field: WeightField,
    anchor: Site,
    window: Window,
    beta: float,
    mode: str = "to_anchor",
) -> PartitionTable:
    """Fill log Z_{x,anchor} (to_anchor) or log Z_{anchor,y} (from_anchor)
    for every site of the window ordered with the anchor."""
    beta = _check_beta(beta)
    if mode not in ("to_anchor", "from_anchor"):
        raise ParameterError(f"unknown mode {mode!r}")
    if not window.contains(anchor):
        raise WindowError("anchor must lie inside the table window")
    zero_temp = math.isinf(beta)
    # counter-based fields regenerate anywhere; explicit grids raise if the
    # window exceeds them
    w = field.subfield(window).values
    wb = w if zero_temp else beta * w
    au, av = window.index(anchor)
    logz = np.full((window.width, window.height), NEG_INF)
    if mode == "to_anchor":
        # reversed, the anchor is the origin and each edge carries the
        # weight of the site it enters
        r = wb[au::-1, av::-1]
        logz[au::-1, av::-1] = _sweep(r[1:], r[:, 1:], zero_temp)
    else:
        b = wb[au:, av:]
        logz[au:, av:] = _sweep(b[:-1], b[:, :-1], zero_temp)
    return PartitionTable(field, anchor, beta, mode, window, logz)


def p2p_values(field: WeightField, anchor: Site, beta: float, du, dv) -> np.ndarray:
    """log Z_{anchor, anchor + (du, dv)} elementwise (G at beta = inf).

    Sweeps only the down-set of the targets: row i runs to the largest dv of
    a target with du >= i, and weights are streamed one row at a time, so
    memory is O(row).  Each row is a prefix of the row of the from_anchor
    table on the square window, so the values equal its entries bit for bit."""
    beta = _check_beta(beta)
    du, dv = np.broadcast_arrays(np.asarray(du, dtype=np.int64), np.asarray(dv, dtype=np.int64))
    if np.any(du < 0) or np.any(dv < 0):
        raise OrderingError("targets must dominate the anchor")
    zero_temp = math.isinf(beta)
    scale = 1.0 if zero_temp else beta
    acc = np.maximum.accumulate if zero_temp else np.logaddexp.accumulate
    out = np.empty(du.shape)
    for i in range(int(du.max(initial=-1)) + 1):
        m = int(dv[du >= i].max())
        w = scale * field.values_at(np.full(m + 1, anchor.u + i), anchor.v + np.arange(m + 1))
        if i == 0:
            row = np.concatenate(([0.0], np.cumsum(w[:-1])))
        else:
            row = _row(row[: m + 1] + w_prev[: m + 1], w[:-1], acc)
        w_prev = w
        hit = du == i
        out[hit] = row[dv[hit]]
    return out


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
        val = self.logz_at(site)
        return val if self.zero_temp else val / self.beta

    def recursion_residual(self) -> float:
        K = self.depth
        if K == 0:
            return 0.0
        w = self.field.values_at(*_triangle_grids(self.base, K))
        wb = w if self.zero_temp else self.beta * w
        bh1 = self.h[0] if self.zero_temp else self.beta * self.h[0]
        bh2 = self.h[1] if self.zero_temp else self.beta * self.h[1]
        comb = np.maximum if self.zero_temp else np.logaddexp
        res = 0.0
        L = self.logz
        for k in range(K - 1, -1, -1):
            dus = np.arange(k + 1)
            dvs = k - dus
            pred = wb[dus, dvs] + comb(L[dus + 1, dvs] + bh1, L[dus, dvs + 1] + bh2)
            res = max(res, float(np.max(np.abs(pred - L[dus, dvs]))))
        return res


def _triangle_grids(base: Site, K: int):
    uu = base.u + np.arange(K + 1, dtype=np.int64)[:, None]
    vv = base.v + np.arange(K + 1, dtype=np.int64)[None, :]
    return np.broadcast_to(uu, (K + 1, K + 1)), np.broadcast_to(vv, (K + 1, K + 1))


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
    beta = _check_beta(beta)
    if base is None:
        base = field.window.origin
    K = n - base.level()
    if K < 0:
        raise ParameterError("target level n is below the window origin")
    h = (float(h[0]), float(h[1]))
    logz = p2l_rows(field, beta, h, n, base, keep_rows=K + 1)
    return TiltedLineTable(field, beta, h, n, base, logz)


def p2l_rows(
    field: WeightField,
    beta: float,
    h: tuple[float, float],
    n: int,
    base: Site,
    keep_rows: int,
) -> np.ndarray:
    """First keep_rows rows of the tilted point-to-line triangle (row u holds
    the values at sites base + (u, 0..K-u)); weights are streamed, so memory
    is O(keep_rows * K) regardless of the horizon."""
    beta = _check_beta(beta)
    zero_temp = math.isinf(beta)
    K = n - base.level()
    if K < 0:
        raise ParameterError("target level n is below the base site")
    bh1 = h[0] if zero_temp else beta * h[0]
    bh2 = h[1] if zero_temp else beta * h[1]
    scale = 1.0 if zero_temp else beta
    acc = np.maximum.accumulate if zero_temp else np.logaddexp.accumulate
    keep_rows = min(keep_rows, K + 1)
    out = np.full((keep_rows, K + 1), NEG_INF)
    # sweep from the flat boundary (0 at level K, -inf above) down to row 0;
    # reversed, row u is a row recursion whose edge terms are w + bh2 and
    # whose entries from the row above are above + bh1 + w
    row = np.zeros(1)
    for u in range(K, -1, -1):
        m = K - u
        if m > 0:
            uu = np.full(m, base.u + u, dtype=np.int64)
            w = scale * field.values_at(uu, base.v + np.arange(m, dtype=np.int64))[::-1]
            a = np.concatenate(([0.0], row[::-1] + (w + bh1)))
            row = _row(a, w + bh2, acc)[::-1]
        if u < keep_rows:
            out[u, : m + 1] = row
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle
# ---------------------------------------------------------------------------


def _path_log_weights(
    field: WeightField,
    x: Site,
    steps: int,
    n_e1: int,
    beta: float,
    through: Site | None,
) -> np.ndarray:
    """Beta-scaled energies of every admissible path with `steps` steps and
    `n_e1` e1-steps out of x (weights summed over visited sites except the
    endpoint), optionally restricted to paths through a site."""
    zero_temp = math.isinf(beta)
    combos = np.asarray(
        list(itertools.combinations(range(steps), n_e1)), dtype=np.int64
    )
    P = combos.shape[0] if n_e1 > 0 else 1
    S = np.zeros((P, steps), dtype=np.int8)
    if n_e1 > 0:
        S[np.repeat(np.arange(P), n_e1), combos.ravel()] = 1
    # coordinates of the j-th visited site (before step j), j = 0..steps-1
    cu = np.zeros((P, steps), dtype=np.int64)
    cu[:, 1:] = np.cumsum(S[:, :-1], axis=1)
    jj = np.arange(steps, dtype=np.int64)[None, :]
    cv = jj - cu
    uu = x.u + cu
    vv = x.v + cv
    if through is not None:
        j = through.level() - x.level()
        if j < 0 or j > steps:
            raise OrderingError("restriction site not between the endpoints")
        if j < steps:
            keep = (uu[:, j] == through.u) & (vv[:, j] == through.v)
        else:
            keep = np.ones(P, dtype=bool)
        uu, vv = uu[keep], vv[keep]
        if uu.shape[0] == 0:
            return np.empty(0)
    w = field.values_at(uu, vv)
    tot = w.sum(axis=1)
    return tot if zero_temp else beta * tot


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
    the last-passage value for beta = inf.
    """
    beta = _check_beta(beta)
    zero_temp = math.isinf(beta)
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
        lw = _path_log_weights(field, x, steps, y.u - x.u, beta, through)
        if lw.size == 0:
            return NEG_INF
        return float(np.max(lw)) if zero_temp else float(_reduce_lse(lw))
    steps = level - x.level()
    if steps < 0:
        return NEG_INF
    if steps > ENUMERATION_STEP_LIMIT:
        raise SizeError(f"instance needs {steps} steps > {ENUMERATION_STEP_LIMIT}")
    if steps == 0:
        return 0.0
    best = NEG_INF
    for a in range(steps + 1):
        lw = _path_log_weights(field, x, steps, a, beta, through)
        if lw.size == 0:
            continue
        tilt = h[0] * a + h[1] * (steps - a)
        tilt = tilt if zero_temp else beta * tilt
        part = (np.max(lw) if zero_temp else _reduce_lse(lw)) + tilt
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
        beta = _check_beta(beta)
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
    margin_e1: float
    margin_e2: float

    @property
    def ok(self) -> bool:
        return self.margin_e1 >= -1e-12 and self.margin_e2 >= -1e-12


def comparison_check(
    field: WeightField, x: Site, u: Site, v: Site, beta: float
) -> ComparisonReport:
    """Partition-ratio comparison between two targets u, v with u at least as
    e1-ward as v: log(Z_{x+e1,u}/Z_{x,u}) >= log(Z_{x+e1,v}/Z_{x,v}) and the
    e2 ratio reversed.  Margins are the (nonnegative) log-space slacks."""
    beta = _check_beta(beta)
    if not (u >= x + EHAT and v >= x + EHAT):
        raise OrderingError("targets must dominate x + e1 + e2")
    if not (u.u >= v.u and u.v <= v.v):
        raise OrderingError("need u.e1 >= v.e1 and u.e2 <= v.e2")

    def ratios(target: Site) -> tuple[float, float]:
        d = target - x
        window = Window(x, d.u + 1, d.v + 1)
        t = p2p_table(field, target, window, beta, "to_anchor")
        base = t.logz_at(x)
        return t.logz_at(x + E1) - base, t.logz_at(x + E2) - base

    r1u, r2u = ratios(u)
    r1v, r2v = ratios(v)
    return ComparisonReport(margin_e1=r1u - r1v, margin_e2=r2v - r2u)
