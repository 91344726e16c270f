"""Finite-horizon Busemann cocycle fields and shape-function estimation.

A Busemann field stores the nearest-neighbor increments b1(y) ~ B(y, y+e1)
and b2(y) ~ B(y, y+e2) over a window.  Fields built from point-to-line or
point-to-point tables satisfy two exact identities inherited from the DP
recursion:

  recovery:   exp(-beta*(b1-omega)) + exp(-beta*(b2-omega)) = 1
              (min(b1, b2) = omega at beta = inf),
  closure:    b1(y) + b2(y+e1) = b2(y) + b1(y+e2),

so B(x, y) summed along any staircase is path-independent.  Cesaro-averaged
fields are empirical means and satisfy neither identity pointwise; they carry
their construction metadata instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .csvio import write_columns
from .env import (
    _HASH_BLOCK_BYTES, FieldBatch, Site, WeightField, WeightSpec, Window, _site_array, _wrapped_seed, generate_field
)
from .errors import (
    HorizonError,
    ParameterError,
    ProvenanceError,
    WindowError,
)
from .partition import _temperature, p2l_rows, p2p_pair_values, p2p_table, p2p_values

__all__ = [
    "Provenance",
    "BusemannField",
    "ShapeEstimate",
    "busemann_from_p2l",
    "busemann_fields_from_p2l",
    "busemann_from_p2p",
    "check_monotonicity",
    "cesaro_busemann",
    "estimate_shape",
    "point_to_line_value",
    "boundary_profile",
    "dual_tilt",
    "cocycle_shape_check",
    "direction_scan",
]


@dataclass(frozen=True)
class Provenance:
    kind: str  # "p2l" | "p2p" | "cesaro"
    h: tuple[float, float] | None = None
    horizon: int | None = None
    target: Site | None = None
    samples: int | None = None
    fpl_residual: float | None = None


@dataclass(frozen=True, eq=False)
class BusemannField:
    window: Window
    beta: float
    b1: np.ndarray
    b2: np.ndarray
    provenance: Provenance
    field: WeightField | None = dc_field(default=None, repr=False)

    @property
    def zero_temp(self) -> bool:
        return math.isinf(self.beta)

    def b_at(self, site: Site, direction: int) -> float:
        du, dv = self.window.index(site)
        return float((self.b1 if direction == 1 else self.b2)[du, dv])

    def recovery_residual(self) -> float:
        """Max recovery defect over the window, measured in units of
        exp(-beta*omega) (equivalently: defect of the transition-probability
        normalization).  At beta = inf: max |min(b1,b2) - omega|."""
        if self.field is None:
            raise ProvenanceError("no environment attached (cesaro field?)")
        w = self.field.subfield(self.window).values
        if self.zero_temp:
            return float(np.max(np.abs(np.minimum(self.b1, self.b2) - w)))
        s = np.exp(-self.beta * (self.b1 - w)) + np.exp(-self.beta * (self.b2 - w))
        return float(np.max(np.abs(s - 1.0)))

    def closure_residual(self) -> float:
        """Max plaquette defect |b1(y) + b2(y+e1) - b2(y) - b1(y+e2)|."""
        d = (
            self.b1[:-1, :-1]
            + self.b2[1:, :-1]
            - self.b2[:-1, :-1]
            - self.b1[:-1, 1:]
        )
        return float(np.max(np.abs(d))) if d.size else 0.0

    def integrated(self) -> np.ndarray:
        """B(origin, x) for every window site x, summed along the staircase
        that first travels in e1 at the bottom edge (closure makes any other
        staircase agree)."""
        return _integrate(self.b1, self.b2)

    def staircase_sum(self, sites) -> float:
        """Sum of increments along an explicit up-right staircase, a list of
        Sites or an (n+1, 2) coordinate array: the one-staircase case of
        `staircase_sums`."""
        sites = _site_array(sites)
        return float(self.staircase_sums(sites[None], [len(sites) - 1])[0]) if len(sites) else 0.0

    def staircase_sums(self, sites, lengths) -> np.ndarray:
        """Sums of increments along S up-right staircases at once: staircase
        s is sites[s, :lengths[s] + 1] of an (S, M + 1, 2) coordinate array,
        whose later entries are ignored.  The increments are gathered into
        one zero-padded (S, M + 1) array behind a leading 0.0 and summed in
        path order by a row-wise cumsum, which is sequential, read at each
        staircase's own end: each sum equals a running `total +=` from 0.0
        bit for bit."""
        sites = np.asarray(sites, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any((lengths < 0) | (lengths >= sites.shape[1])):
            raise ParameterError(f"staircase lengths must lie in [0, {sites.shape[1] - 1}]")
        live = np.arange(sites.shape[1] - 1) < lengths[:, None]  # (S, M) steps taken
        step = np.diff(sites, axis=1)[live]
        e1 = (step[:, 0] == 1) & (step[:, 1] == 0)
        if not np.all(e1 | ((step[:, 0] == 0) & (step[:, 1] == 1))):
            raise ParameterError("staircase steps must be e1 or e2")
        du = sites[:, :-1, 0][live] - self.window.origin.u
        dv = sites[:, :-1, 1][live] - self.window.origin.v
        if np.any((du < 0) | (du >= self.window.width) | (dv < 0) | (dv >= self.window.height)):
            raise WindowError(f"staircase leaves window {self.window}")
        b = np.zeros(sites.shape[:2])  # b[:, 0] = 0.0 starts each running total
        b[:, 1:][live] = np.where(e1, self.b1[du, dv], self.b2[du, dv])
        return np.cumsum(b, axis=1)[np.arange(len(b)), lengths]

    def to_csv(self, path) -> str:
        uu, vv = self.window.coord_grids()
        return write_columns(path, {"u": uu, "v": vv, "b1": self.b1, "b2": self.b2})


def _integrate(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """`BusemannField.integrated` of increments (..., W, H): the cumsums
    run along the last two axes, one lane at a time, so every leading entry
    equals its own field's bit for bit."""
    col0 = np.zeros(b1.shape[:-1])
    col0[..., 1:] = np.cumsum(b1[..., :-1, 0], axis=-1)
    body = np.zeros(b2.shape)
    body[..., 1:] = np.cumsum(b2[..., :-1], axis=-1)
    return col0[..., None] + body


def _increments(rows: np.ndarray, W: int, H: int, beta: float, h) -> tuple[np.ndarray, np.ndarray]:
    """b_i(y) = F_{y,(n)} - F_{y+e_i,(n)} - h.e_i from point-to-line rows
    (the last two axes); tilts h (..., 2) broadcast with the leading axes."""
    scale = 1 / _temperature(beta).scale
    h = np.asarray(h, dtype=np.float64)[..., None, None]
    b1 = (rows[..., :W, :H] - rows[..., 1 : W + 1, :H]) * scale - h[..., 0, :, :]
    b2 = (rows[..., :W, :H] - rows[..., :W, 1 : H + 1]) * scale - h[..., 1, :, :]
    return b1, b2


# Tilts of one environment are swept together in groups under this many
# bytes.  A tilt counts W + 8 rows of K + 1 values, its W + 1 kept rows and
# the level sweep's temporaries, which measure about seven such rows
# (tracemalloc, K = 1000), and three W x H arrays, its increments b1 and b2
# and one temporary while they are formed.  One hash block
# (`env._HASH_BLOCK_BYTES`) is set aside for the whole group, which assumes
# that a level fits in one block: past K ~ 8190 it does not, and the hashing
# transient grows with K (1.049 of the budget at K = 20000, W = H = 2).
_TILT_BLOCK_BYTES = 8 << 20


def _p2l_bytes(n: int, window: Window) -> int:
    """The bytes that one tilt of one environment counts against a group
    budget: the count of `_TILT_BLOCK_BYTES`."""
    W, H = window.width, window.height
    return 8 * ((n - window.origin.level() + 1) * (W + 8) + 3 * W * H)


def _p2l_increments(field, beta: float, h, n: int, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """b1 and b2 of `busemann_from_p2l` on `window`, at tilts h (..., 2)
    whose leading axes broadcast with the replica axis of a FieldBatch; the
    leading axes come in front."""
    if window.corner.level() >= n:
        raise HorizonError(
            f"window reaches level {window.corner.level()} >= horizon {n}"
        )
    rows = p2l_rows(field, beta, h, n, window.origin, keep_rows=window.width + 1)
    return _increments(rows, window.width, window.height, beta, h)


def busemann_from_p2l(
    field: WeightField,
    beta: float,
    h: tuple[float, float],
    n: int,
    window: Window | None = None,
) -> BusemannField:
    """Pre-limit Busemann increments from the tilted point-to-line table:
    b_i(x) = F_{x,(n)} - F_{x+e_i,(n)} - h.e_i.  All window sites must be
    strictly below level n."""
    return next(busemann_fields_from_p2l(field, beta, [h], n, window))


def busemann_fields_from_p2l(
    field: WeightField, beta: float, tilts, n: int, window: Window | None = None
) -> Iterator[BusemannField]:
    """`busemann_from_p2l` at every tilt of `tilts` (T, 2), in order.  The
    tilts are swept in groups under `_TILT_BLOCK_BYTES`, one group at a time
    as the fields are consumed; within a group each level's weights are
    hashed once and all tilts advance as one block, so each field equals
    its own single-tilt build bit for bit."""
    tilts = np.asarray(tilts, dtype=np.float64)
    if tilts.ndim != 2 or tilts.shape[1] != 2 or len(tilts) == 0:
        raise ParameterError(f"need a nonempty (T, 2) array of tilts, got shape {tilts.shape}")
    if window is None:
        window = field.window
    group = max(1, (_TILT_BLOCK_BYTES - _HASH_BLOCK_BYTES) // _p2l_bytes(n, window))
    for i in range(0, len(tilts), group):
        hs = tilts[i : i + group]
        b1, b2 = _p2l_increments(field, beta, hs, n, window)
        for k, h in enumerate(hs.tolist()):
            prov = Provenance(kind="p2l", h=(h[0], h[1]), horizon=n)
            yield BusemannField(window, float(beta), b1[k], b2[k], prov, field)


def busemann_from_p2p(
    field: WeightField, beta: float, target: Site, window: Window
) -> BusemannField:
    """Busemann increments estimated from a point-to-point table:
    b_i(y) = F_{y,target} - F_{y+e_i,target}."""
    if not target >= window.corner + Site(1, 1):
        raise WindowError("target must dominate every window site + (1,1)")
    rect = Window(
        window.origin,
        target.u - window.origin.u + 1,
        target.v - window.origin.v + 1,
    )
    L = p2p_table(field, target, rect, beta, "to_anchor").logz
    b1, b2 = _increments(L, window.width, window.height, beta, (0.0, 0.0))
    prov = Provenance(kind="p2p", target=target, horizon=target.level())
    return BusemannField(window, float(beta), b1, b2, prov, field)


@dataclass(frozen=True)
class MonotonicityReport:
    sites: int
    violations_e1: int
    violations_e2: int
    worst_margin: float  # most negative slack observed (0 if none)

    @property
    def violations(self) -> int:
        return self.violations_e1 + self.violations_e2


def check_monotonicity(
    field_a: BusemannField, field_b: BusemannField, tol: float = 1e-12
) -> MonotonicityReport:
    """Tilt monotonicity: with h.e1 <= h'.e1 and h.e2 >= h'.e2 the h-field
    must dominate in e1 increments and be dominated in e2 increments.
    Fields are reordered internally so `a` carries the smaller e1-tilt."""
    if field_a.window != field_b.window or field_a.beta != field_b.beta:
        raise ProvenanceError("fields must share window and beta")
    ha, hb = field_a.provenance.h, field_b.provenance.h
    if ha is None or hb is None:
        raise ParameterError("monotonicity check requires tilted (p2l) fields")
    if field_a.provenance.horizon != field_b.provenance.horizon:
        raise ProvenanceError("fields must share the horizon")
    if ha[0] > hb[0]:
        field_a, field_b = field_b, field_a
        ha, hb = hb, ha
    if not (ha[0] <= hb[0] and ha[1] >= hb[1]):
        raise ParameterError(f"incomparable tilts {ha} vs {hb}")
    d1 = field_a.b1 - field_b.b1  # must be >= 0
    d2 = field_b.b2 - field_a.b2  # must be >= 0
    # counted as in direction_scan, so a NaN slack is a violation
    v1 = int(np.sum(~(d1 >= -tol)))
    v2 = int(np.sum(~(d2 >= -tol)))
    worst = float(np.min([d1.min(), d2.min(), 0.0])) if d1.size else 0.0
    return MonotonicityReport(int(d1.size), v1, v2, worst)


@dataclass(frozen=True)
class CesaroReport:
    target: tuple[float, float]  # -h
    mean_b1: float
    mean_b2: float
    se_b1: float
    se_b2: float
    fpl_mean: float
    fpl_se: float
    samples: int


def cesaro_busemann(
    field: WeightField,
    beta: float,
    h: tuple[float, float],
    n: int,
    sample_count: int,
    seed: int,
    window: Window | None = None,
) -> tuple[BusemannField, CesaroReport]:
    """Empirical Cesaro-averaged Busemann field: average of pre-limit fields
    at independent environments and uniform horizons N ~ U{1..n}.

    The mean report compares the origin-site grand means against -h.e_i; it
    is sharp only when h is (close to) a zero of the point-to-line free
    energy, which is what `dual_tilt` supplies.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if window is None:
        window = field.window
    base = window.origin
    if window.corner.level() >= n:
        raise HorizonError("window levels must stay below n")
    rng = np.random.default_rng(np.random.SeedSequence((_wrapped_seed(seed), 0x4E5)))
    horizons = rng.integers(1, n + 1, size=sample_count)
    envs = _replica_batch(field.spec, seed, sample_count, 0xE17)
    W, H = window.width, window.height
    # one sweep per environment and horizon: the Cesaro horizons N and the
    # full horizon n, on the same weights
    rows = p2l_rows(envs, beta, h, n, base, W + 1, np.stack([horizons, np.full_like(horizons, n)]))
    with np.errstate(invalid="ignore"):  # -inf minus -inf above the horizon
        b1, b2 = _increments(rows[0, :, :, : H + 1], W, H, beta, h)
    # increments are genuine below level N and 0 at or above it
    above = sum(window.coord_grids()) >= horizons[:, None, None]
    b1 = np.where(above, 0.0, b1)
    b2 = np.where(above, 0.0, b2)
    o_b1 = b1[:, 0, 0]
    o_b2 = b2[:, 0, 0]
    F = rows[1, :, 0, 0]
    fpl = F / _temperature(beta).scale / (n - base.level())
    b1_mean = b1.mean(axis=0)
    b2_mean = b2.mean(axis=0)
    se = lambda a: float(np.std(a, ddof=1) / math.sqrt(len(a))) if len(a) > 1 else float("nan")
    report = CesaroReport(
        target=(-float(h[0]), -float(h[1])),
        mean_b1=float(np.mean(o_b1)),
        mean_b2=float(np.mean(o_b2)),
        se_b1=se(o_b1),
        se_b2=se(o_b2),
        fpl_mean=float(np.mean(fpl)),
        fpl_se=se(fpl),
        samples=sample_count,
    )
    prov = Provenance(
        kind="cesaro",
        h=(float(h[0]), float(h[1])),
        horizon=n,
        samples=sample_count,
        fpl_residual=abs(report.fpl_mean),
    )
    return BusemannField(window, float(beta), b1_mean, b2_mean, prov, None), report


# ---------------------------------------------------------------------------
# Shape function estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShapeEstimate:
    spec: WeightSpec
    beta: float
    seed: int
    t_grid: tuple[float, ...]
    n_list: tuple[int, ...]
    samples: np.ndarray  # (replicas, len(t_grid), len(n_list)) per-replica values
    lambda_hat: np.ndarray  # (len(t_grid), len(n_list))
    se: np.ndarray

    @property
    def replicas(self) -> int:
        return self.samples.shape[0]

    def at(self, t: float, n: int | None = None) -> tuple[float, float]:
        """(estimate, standard error) at direction t and size n (largest by
        default)."""
        ti = self._t_index(t)
        ni = self.n_list.index(n) if n is not None else len(self.n_list) - 1
        return float(self.lambda_hat[ti, ni]), float(self.se[ti, ni])

    def _t_index(self, t: float) -> int:
        for i, tv in enumerate(self.t_grid):
            if abs(tv - t) < 1e-12:
                return i
        raise ParameterError(f"direction {t} not on the estimated grid")

    def paired_difference(self, t1: float, t2: float) -> tuple[float, float]:
        """Mean and SE of lambda(t1) - lambda(t2) using per-replica pairing
        (the replicas share environments across directions)."""
        i, j = self._t_index(t1), self._t_index(t2)
        d = self.samples[:, i, -1] - self.samples[:, j, -1]
        return float(np.mean(d)), float(np.std(d, ddof=1) / math.sqrt(len(d)))

    def to_csv(self, path) -> str:
        t = np.array(self.t_grid)[:, None]
        return write_columns(
            path, {"t": t, "n": self.n_list, "lambda_hat": self.lambda_hat, "se": self.se}
        )


def _replica_batch(spec: WeightSpec, seed: int, count: int, salt: int) -> FieldBatch:
    """`count` environments whose seeds are spawned from (seed, salt)."""
    children = np.random.SeedSequence((_wrapped_seed(seed), salt)).spawn(count)
    seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]
    return FieldBatch([generate_field(spec, s, Window(Site(0, 0), 1, 1)) for s in seeds])


def _check_replicas(replicas: int, n_list) -> None:
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if any(n < 1 for n in n_list):
        raise ParameterError(f"sizes n must be >= 1, got {tuple(n_list)}")


def _mean_se(samples: np.ndarray):
    """Mean over the leading replica axis and its standard error (0 for a
    single replica)."""
    mean = samples.mean(axis=0)
    if len(samples) < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(len(samples))


def estimate_shape(
    spec: WeightSpec,
    beta: float,
    t_grid,
    n_list,
    replicas: int,
    seed: int,
) -> ShapeEstimate:
    """Monte Carlo estimate of the limiting point-to-point free energy
    Lambda(t, 1-t) = lim n^-1 F_{0, n(t,1-t)} on a direction grid, with the
    same environments reused across directions and sizes (paired design)."""
    t_grid = tuple(float(t) for t in t_grid)
    n_list = tuple(sorted(int(n) for n in n_list))
    if any(not (0.0 < t < 1.0) for t in t_grid):
        raise ParameterError("directions must be interior: t in (0,1)")
    _check_replicas(replicas, n_list)
    envs = _replica_batch(spec, seed, replicas, 0x5A7E)
    nn = np.array(n_list)
    aa = np.array([[min(max(int(round(n * t)), 0), n) for n in n_list] for t in t_grid])
    vals = p2p_values(envs, Site(0, 0), beta, aa, nn - aa)
    samples = vals / _temperature(beta).scale / nn
    lam, se = _mean_se(samples)
    return ShapeEstimate(spec, float(beta), seed, t_grid, n_list, samples, lam, se)


def point_to_line_value(
    spec: WeightSpec, beta: float, h, n: int, replicas: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, se) of n^-1 F^{beta,h}_{0,(n)}."""
    _check_replicas(replicas, [n])
    envs = _replica_batch(spec, seed, replicas, 0xF91)
    F = p2l_rows(envs, beta, h, n, Site(0, 0), keep_rows=1)[:, 0, 0]
    mean, se = _mean_se(F / _temperature(beta).scale / n)
    return float(mean), float(se)


def boundary_profile(
    spec: WeightSpec, beta: float, s_list, n_list, replicas: int, seed: int
) -> list[tuple[float, float, float]]:
    """Near-axis shape values: for each (s, n) returns
    (s, ratio, se_ratio) with ratio = (Lambda_hat(s) - E[omega]) / (2 sqrt(s Var)),
    estimated at target (round(n s), n - round(n s))."""
    mean = spec.mean()
    sd = math.sqrt(spec.variance())
    if sd == 0:
        raise ParameterError("boundary profile needs nondegenerate weights")
    _check_replicas(replicas, n_list)
    envs = _replica_batch(spec, seed, replicas, 0xB0D)
    out = []
    for s, n in zip(s_list, n_list):
        a = int(round(n * s))
        if a < 1:
            raise ParameterError(f"n={n} too small for s={s}")
        logz = p2p_values(envs, Site(0, 0), beta, a, n - a)
        vals = logz / _temperature(beta).scale / n
        denom = 2.0 * math.sqrt(s * spec.variance())
        ratio, se = _mean_se((vals - mean) / denom)
        out.append((float(s), float(ratio), float(se)))
    return out


@dataclass(frozen=True)
class DualTiltResult:
    t: float
    h: tuple[float, float]
    h_se: tuple[float, float]
    euler_residual: float
    fpl_residual: float | None
    fpl_se: float | None


def dual_tilt(
    shape: ShapeEstimate,
    t: float,
    fpl_replicas: int = 0,
    fpl_n: int | None = None,
) -> DualTiltResult:
    """Dual tilt h = -grad Lambda at direction (t, 1-t), from a central
    finite difference of the shape estimate lifted to a 2-vector with the
    homogeneity identity  t g1 + (1-t) g2 = Lambda.

    With fpl_replicas > 0, also estimates the point-to-line free energy at h
    (its magnitude is the duality residual; zero in the limit)."""
    ti = shape._t_index(t)
    if ti == 0 or ti == len(shape.t_grid) - 1:
        raise ParameterError("direction at the grid boundary: cannot difference")
    t_lo, t_hi = shape.t_grid[ti - 1], shape.t_grid[ti + 1]
    ni = len(shape.n_list) - 1
    lam_r = shape.samples[:, ti, ni]
    slope_r = (shape.samples[:, ti + 1, ni] - shape.samples[:, ti - 1, ni]) / (t_hi - t_lo)
    g2_r = lam_r - t * slope_r
    g1_r = slope_r + g2_r
    (g1, g1_se), (g2, g2_se) = _mean_se(g1_r), _mean_se(g2_r)
    h1, h2, h1_se, h2_se = -float(g1), -float(g2), float(g1_se), float(g2_se)
    lam = float(np.mean(lam_r))
    euler = abs(h1 * t + h2 * (1 - t) + lam)
    fpl_mean = fpl_se = None
    if fpl_replicas > 0:
        n = fpl_n if fpl_n is not None else max(shape.n_list)
        fpl_mean, fpl_se = point_to_line_value(
            shape.spec, shape.beta, (h1, h2), n, fpl_replicas, shape.seed + 1
        )
    return DualTiltResult(
        t=float(t),
        h=(h1, h2),
        h_se=(h1_se, h2_se),
        euler_residual=euler,
        fpl_residual=None if fpl_mean is None else abs(fpl_mean),
        fpl_se=fpl_se,
    )


@dataclass(frozen=True)
class CocycleShapeProfile:
    n_list: tuple[int, ...]
    deviations: tuple[float, ...]

    @property
    def decreasing(self) -> bool:
        return all(
            self.deviations[i + 1] < self.deviations[i]
            for i in range(len(self.deviations) - 1)
        )


def cocycle_shape_check(
    busemann: BusemannField, m_hat: tuple[float, float], n_list
) -> CocycleShapeProfile:
    """Linear-growth deviation of the integrated cocycle:
    max over level-n sites x of |B(0,x) - m_hat . x| / n, per n."""
    n_list = tuple(int(n) for n in n_list)
    W, H = busemann.window.width, busemann.window.height
    for n in n_list:
        if n + 1 > W or n + 1 > H:
            raise WindowError(f"window too small for level {n}")
    B = busemann.integrated()
    devs = []
    for n in n_list:
        a = np.arange(n + 1)
        vals = B[a, n - a] - (m_hat[0] * a + m_hat[1] * (n - a))
        devs.append(float(np.max(np.abs(vals)) / n))
    return CocycleShapeProfile(n_list, tuple(devs))


@dataclass(frozen=True, eq=False)
class ScanProfile:
    t_grid: tuple[float, ...]
    b1: np.ndarray
    violations: int
    max_jump: float

    def to_csv(self, path) -> str:
        jumps = np.abs(np.diff(self.b1, prepend=self.b1[0]))
        return write_columns(path, {"t": self.t_grid, "b1": self.b1, "jump": jumps})


def b1_logz(field: WeightField, beta: float, x: Site, t, horizons) -> np.ndarray:
    """log Z_{x, y} - log Z_{x+e1, y} (G differences at beta = inf) at the
    targets y = x + (a, N - a), a = min(max(round(N t), 1), N - 1), for every
    horizon N (leading axes) and direction t (last axis); all targets are
    probed in one streamed pass (`p2p_pair_values`)."""
    N = np.asarray(horizons, dtype=np.int64)[..., None]
    if np.any(N < 2):
        raise ParameterError("the target horizon must be at least 2")
    aa = np.minimum(np.maximum(np.rint(N * np.asarray(t, dtype=np.float64)), 1), N - 1)
    aa = aa.astype(np.int64)
    logz = p2p_pair_values(field, x, beta, aa, N - aa)
    return logz[0] - logz[1]


def direction_scan(
    field: WeightField, beta: float, t_grid, target_radius: int, x: Site = Site(0, 0)
) -> ScanProfile:
    """b1(x) as a function of the target direction at fixed horizon:
    b1(x; t) = F_{x, target(t)} - F_{x+e1, target(t)} with
    target(t) = x + (round(N t), N - round(N t)).

    The comparison inequality forces the profile to be nonincreasing in t;
    violations beyond 1e-12 or NaN are counted (expected zero).  The largest
    jump between adjacent grid directions is descriptive output.
    """
    t_grid = tuple(float(t) for t in t_grid)
    scale = _temperature(beta).scale
    vals = b1_logz(field, beta, x, t_grid, target_radius) * (1 / scale)
    diffs = np.diff(vals)
    violations = int(np.sum(~(diffs <= 1e-12)))
    max_jump = float(np.max(np.abs(diffs))) if diffs.size else 0.0
    return ScanProfile(t_grid, vals, violations, max_jump)
