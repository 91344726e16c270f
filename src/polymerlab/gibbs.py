"""Quenched polymer measures: exact path probabilities, backward-chain
sampling of point-to-point measures, forward chains driven by Busemann
fields, DLR consistency, the LDP rate curve, and rooted-mass decay.

Forward transition probabilities pi(y -> y+e1) = exp(beta*(omega_y - b1(y)))
come from a recovering Busemann field, so they normalize up to the recovery
residual.  Backward transitions come from a partition table and normalize
exactly by the DP identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import BusemannField
from .env import E1, E2, Site, WeightField, Window
from .errors import (
    DomainError,
    ParameterError,
    SizeError,
    WindowError,
)
from .partition import NEG_INF, PartitionTable, _sweep, p2p_table, p2p_values

__all__ = [
    "PolymerPath",
    "TransitionField",
    "backward_transitions",
    "busemann_transitions",
    "sample_p2p",
    "sample_p2p_batch",
    "exact_path_probability",
    "level_mass_profile",
    "dlr_consistency_check",
    "forward_chain_sample",
    "forward_chain_batch",
    "ldp_rate_profile",
    "rooted_mass_decay",
]


@dataclass(frozen=True, eq=False)
class PolymerPath:
    """Admissible up-right path; sites[k] is the position after k steps, so
    its level is start level + k."""

    sites: np.ndarray  # (length+1, 2) int64
    truncated: bool = False

    def __post_init__(self):
        s = np.asarray(self.sites, dtype=np.int64)
        object.__setattr__(self, "sites", s)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ParameterError("sites must be an (n, 2) array")
        d = np.diff(s, axis=0)
        if d.size and not np.all((d.sum(axis=1) == 1) & (d >= 0).all(axis=1)):
            raise ParameterError("steps must be e1 or e2")

    @property
    def start(self) -> Site:
        return Site(int(self.sites[0, 0]), int(self.sites[0, 1]))

    @property
    def end(self) -> Site:
        return Site(int(self.sites[-1, 0]), int(self.sites[-1, 1]))

    @property
    def start_level(self) -> int:
        return int(self.sites[0].sum())

    def __len__(self) -> int:
        return self.sites.shape[0] - 1

    def site(self, k: int) -> Site:
        return Site(int(self.sites[k, 0]), int(self.sites[k, 1]))

    def steps_e1(self) -> np.ndarray:
        """0/1 array, 1 where the k-th step is e1."""
        return np.diff(self.sites[:, 0])

    def to_csv(self, path) -> str:
        from .csvio import write_csv

        return write_csv(
            path,
            ("k", "u", "v"),
            (
                (k, int(self.sites[k, 0]), int(self.sites[k, 1]))
                for k in range(self.sites.shape[0])
            ),
        )


def path_from_steps(start: Site, steps_e1) -> PolymerPath:
    """Build a path from its start site and a 0/1 sequence (1 = e1 step)."""
    s = np.asarray(steps_e1, dtype=np.int64)
    sites = np.empty((s.size + 1, 2), dtype=np.int64)
    sites[0] = (start.u, start.v)
    sites[1:, 0] = start.u + np.cumsum(s)
    sites[1:, 1] = start.v + np.cumsum(1 - s)
    return PolymerPath(sites)


@dataclass(frozen=True, eq=False)
class TransitionField:
    """Per-site step law.  p1[y] is the probability of the e1-type step:
    forward chains step to y+e1, backward chains to y-e1.  The complementary
    step has probability 1 - p1."""

    window: Window
    p1: np.ndarray
    provenance: str  # "busemann" | "backward" | "cif"
    direction: int  # +1 forward, -1 backward
    beta: float
    anchor: Site | None = None
    norm_residual: float = 0.0

    def p_at(self, site: Site) -> float:
        du, dv = self.window.index(site)
        return float(self.p1[du, dv])

    def as_step_rule(self):
        """Adapter for the uniform-variable coupling (forward fields only)."""
        if self.direction != 1:
            raise ParameterError("step rules require a forward transition field")
        from .coupling import CoupledStepRule

        win = self.window
        arr = self.p1

        def p_fn(uu, vv):
            du = np.asarray(uu, dtype=np.int64) - win.origin.u
            dv = np.asarray(vv, dtype=np.int64) - win.origin.v
            if np.any((du < 0) | (du >= win.width) | (dv < 0) | (dv >= win.height)):
                raise WindowError("walk left the transition window")
            return arr[du, dv]

        return CoupledStepRule(p_fn, description=f"{self.provenance} transitions")


def backward_transitions(table: PartitionTable) -> TransitionField:
    """Backward-chain step law of the point-to-point polymer measure rooted
    at the table anchor x: p1[u] = P(u -> u-e1) = e^{beta w(u-e1)} Z_{x,u-e1} / Z_{x,u}.

    Needs a from_anchor table (values Z_{x, .}).  Steps off the axes through
    x are forced automatically by the -inf entries outside the cone."""
    if table.mode != "from_anchor":
        raise ParameterError("backward transitions need a from_anchor table")
    if table.zero_temp:
        raise ParameterError("backward sampling is defined for finite beta")
    L = table.logz
    w = table.field.subfield(table.window).values
    wb = table.beta * w
    prev1 = np.full_like(L, NEG_INF)
    prev1[1:, :] = L[:-1, :] + wb[:-1, :]
    with np.errstate(invalid="ignore"):
        p1 = np.exp(prev1 - L)
    p1[~np.isfinite(L)] = np.nan
    au, av = table.window.index(table.anchor)
    p1[au, av] = np.nan  # chain terminates at the anchor
    # normalization defect against the complementary step (DP identity)
    prev2 = np.full_like(L, NEG_INF)
    prev2[:, 1:] = L[:, :-1] + wb[:, :-1]
    with np.errstate(invalid="ignore"):
        p2 = np.exp(prev2 - L)
    ok = np.isfinite(L)
    ok[au, av] = False
    resid = float(np.max(np.abs(p1[ok] + p2[ok] - 1.0))) if ok.any() else 0.0
    return TransitionField(
        table.window, p1, "backward", -1, table.beta, table.anchor, resid
    )


def busemann_transitions(busemann: BusemannField, field: WeightField) -> TransitionField:
    """Forward semi-infinite chain approximant: p1 = exp(beta*(omega - b1))."""
    if busemann.zero_temp:
        raise ParameterError("forward sampling is defined for finite beta")
    w = field.subfield(busemann.window).values
    p1 = np.exp(busemann.beta * (w - busemann.b1))
    p2 = np.exp(busemann.beta * (w - busemann.b2))
    resid = float(np.max(np.abs(p1 + p2 - 1.0)))
    return TransitionField(
        busemann.window, np.clip(p1, 0.0, 1.0), "busemann", 1, busemann.beta, None, resid
    )


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_p2p(transitions: TransitionField, start: Site, rng) -> PolymerPath:
    """One path of the point-to-point measure Q_{anchor, start}, sampled as
    the backward Markov chain from `start` and returned in forward
    orientation (anchor first)."""
    steps = sample_p2p_batch(transitions, start, 1, rng)[0]
    return path_from_steps(transitions.anchor, steps)


def sample_p2p_batch(
    transitions: TransitionField, start: Site, count: int, rng
) -> np.ndarray:
    """Step matrix of `count` backward-chain samples, forward orientation:
    row s is the 0/1 e1-step sequence of sample s."""
    if transitions.direction != -1 or transitions.anchor is None:
        raise ParameterError("backward sampling needs backward transitions")
    anchor = transitions.anchor
    if not anchor <= start:
        raise DomainError("start must dominate the anchor")
    k = (start - anchor).level()
    rng = _as_rng(rng)
    du0, dv0 = transitions.window.index(start)
    du = np.full(count, du0, dtype=np.int64)
    dv = np.full(count, dv0, dtype=np.int64)
    steps = np.empty((count, k), dtype=np.int8)
    for j in range(k - 1, -1, -1):
        p = transitions.p1[du, dv]
        lost = np.isnan(p)
        if lost.any():
            i = int(np.argmax(lost))
            site = transitions.window.origin + Site(int(du[i]), int(dv[i]))
            raise DomainError(f"site ({site.u},{site.v}) not reachable from anchor")
        take_e1 = rng.random(count) < p
        steps[:, j] = take_e1
        du = du - take_e1
        dv = dv - (~take_e1)
    return steps


def exact_path_probability(
    busemann: BusemannField, field: WeightField, x: Site, path: PolymerPath
) -> float:
    """Probability of a finite cylinder under the semi-infinite measure
    defined by the cocycle: exp(beta * (sum of weights along the path minus
    B(x, endpoint))), with B integrated along any staircase."""
    if busemann.zero_temp:
        raise ParameterError("path probabilities are defined for finite beta")
    if path.start != x:
        raise ParameterError("path must start at x")
    if len(path) == 0:
        return 1.0
    win = busemann.window
    for k in range(path.sites.shape[0]):
        if not win.contains(path.site(k)):
            raise WindowError("path leaves the cocycle window")
    B = busemann.integrated()
    bx = B[win.index(x)]
    by = B[win.index(path.end)]
    w = field.values_at(path.sites[:-1, 0], path.sites[:-1, 1])
    return float(np.exp(busemann.beta * (float(np.sum(w)) - (by - bx))))


def level_mass_profile(
    busemann: BusemannField, field: WeightField, x: Site, levels
) -> list[tuple[int, float]]:
    """Iterated-recovery normalization: per level distance n, the defect
    |sum_y Z_{x,y} e^{-beta B(x,y)} - 1| (at beta=inf: |max_y (G - B)|)."""
    win = busemann.window
    levels = sorted(int(n) for n in levels)
    n_max = levels[-1]
    target = x + Site(n_max, n_max)
    if not (win.contains(x) and win.contains(target)):
        raise WindowError("window too small for the requested levels")
    nn = np.array(levels)[:, None]
    aa = np.minimum(np.arange(n_max + 1), nn)  # level n, padded with repeats of (n, 0)
    lines = p2p_values(field, x, busemann.beta, aa, nn - aa)
    B = busemann.integrated()
    x0u, x0v = win.index(x)
    out = []
    for n, line in zip(levels, lines):
        a = np.arange(n + 1)
        logz = line[: n + 1]
        bvals = B[x0u + a, x0v + (n - a)] - B[x0u, x0v]
        if busemann.zero_temp:
            defect = abs(float(np.max(logz - bvals)))
        else:
            expo = logz - busemann.beta * bvals
            m = float(np.max(expo))
            total = math.exp(m) * float(np.sum(np.exp(expo - m)))
            defect = abs(total - 1.0)
        out.append((n, defect))
    return out


@dataclass(frozen=True)
class DlrReport:
    paths_checked: int
    max_discrepancy: float


def dlr_consistency_check(
    busemann: BusemannField, field: WeightField, x: Site, n: int
) -> DlrReport:
    """Markov consistency of the cocycle measure with the quenched polymer
    measures: for every path from x to level n,
    Pi_x(path) = Pi_x(X_n = endpoint) * Q_{x,endpoint}(path),
    with Pi from exact path probabilities (cocycle route), Pi(X_n = .) by
    summing them, and Q from partition tables (DP route)."""
    from .partition import _path_log_weights

    steps = n - x.level()
    if steps < 0:
        raise ParameterError("level n is below x")
    if steps > 20:
        raise SizeError("more than 20 steps: enumeration refused")
    if steps == 0:
        return DlrReport(1, 0.0)
    win = busemann.window
    beta = busemann.beta
    if busemann.zero_temp:
        raise ParameterError("DLR consistency is defined for finite beta")
    B = busemann.integrated()
    bx = B[win.index(x)]
    worst = 0.0
    count = 0
    found = False
    for a in range(steps + 1):
        end = Site(x.u + a, x.v + steps - a)
        if not win.contains(end):
            continue
        found = True
        # all paths x -> end live in the rect [x, end], inside the window
        blw = _path_log_weights(field, x, steps, a, beta, None)
        bend = B[win.index(end)]
        lhs = np.exp(blw - beta * (bend - bx))
        mass = float(np.sum(lhs))
        rect = Window(x, a + 1, steps - a + 1)
        logz = p2p_table(field, x, rect, beta, "from_anchor").logz_at(end)
        rhs = mass * np.exp(blw - logz)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        count += lhs.size
    if not found:
        raise WindowError("no admissible endpoints inside the window")
    return DlrReport(count, worst)


def forward_chain_sample(
    transitions: TransitionField, x: Site, steps: int, rng
) -> PolymerPath:
    """Sample the forward Markov chain; if the walk would leave the window
    the path is cut short and flagged truncated."""
    if transitions.direction != 1:
        raise ParameterError("forward sampling needs a forward transition field")
    rng = _as_rng(rng)
    sites = [(x.u, x.v)]
    cur = x
    truncated = False
    for _ in range(steps):
        if not transitions.window.contains(cur):
            truncated = True
            break
        p = transitions.p_at(cur)
        nxt = cur + E1 if rng.random() < p else cur + E2
        if not transitions.window.contains(nxt):
            truncated = True
            break
        sites.append((nxt.u, nxt.v))
        cur = nxt
    return PolymerPath(np.asarray(sites, dtype=np.int64), truncated=truncated)


@dataclass(frozen=True, eq=False)
class ForwardBatch:
    endpoints: np.ndarray  # (count, 2) final positions (walkers that stayed)
    first_e1: int  # how many walkers stepped e1 first
    truncated: int  # walkers that hit the window edge


def forward_chain_batch(
    transitions: TransitionField, x: Site, steps: int, count: int, rng
) -> ForwardBatch:
    """Vectorized forward chains; truncated walkers are frozen in place and
    excluded from the endpoint list.  A start outside the window truncates
    every walker at once."""
    if transitions.direction != 1:
        raise ParameterError("forward sampling needs a forward transition field")
    rng = _as_rng(rng)
    win = transitions.window
    du = np.full(count, x.u - win.origin.u, dtype=np.int64)
    dv = np.full(count, x.v - win.origin.v, dtype=np.int64)
    alive = np.full(count, win.contains(x))
    first_e1 = 0
    for j in range(steps):
        p = transitions.p1[du[alive], dv[alive]]
        take = rng.random(int(alive.sum())) < p
        if j == 0:
            first_e1 = int(take.sum())
        ndu = du[alive] + take
        ndv = dv[alive] + (~take)
        stay = (ndu < win.width) & (ndv < win.height)
        idx = np.flatnonzero(alive)
        du[idx[stay]] = ndu[stay]
        dv[idx[stay]] = ndv[stay]
        alive[idx[~stay]] = False
    endpoints = np.stack(
        [du[alive] + win.origin.u, dv[alive] + win.origin.v], axis=1
    )
    return ForwardBatch(endpoints, first_e1, int(count - alive.sum()))


@dataclass(frozen=True, eq=False)
class LdpProfile:
    zeta1: np.ndarray  # e1-fraction grid, (a/n)
    rate: np.ndarray  # mean empirical rate over replicas
    rate_se: np.ndarray
    gap: np.ndarray  # mean of rate_r - (-h.zeta - lambda_r), paired per replica
    gap_se: np.ndarray
    identity_residual: float  # max |flow-DP rate - algebraic rate|
    reference: np.ndarray | None = None  # -h.zeta - Lambda_hat(zeta), external
    reference_se: np.ndarray | None = None

    def to_csv(self, path) -> str:
        from .csvio import write_csv

        ref = self.reference if self.reference is not None else np.full_like(self.rate, np.nan)
        rse = (
            self.reference_se
            if self.reference_se is not None
            else np.full_like(self.rate, np.nan)
        )
        return write_csv(
            path,
            ("zeta1", "rate", "rate_se", "gap", "gap_se", "reference", "reference_se"),
            zip(
                self.zeta1.tolist(),
                self.rate.tolist(),
                self.rate_se.tolist(),
                self.gap.tolist(),
                self.gap_se.tolist(),
                ref.tolist(),
                rse.tolist(),
            ),
        )


def _ldp_rate_single(
    busemann: BusemannField, field: WeightField, x: Site, n: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Empirical rate -(1/n) log Pi_x(X_n = y) for all y at level distance n,
    via the probability-flow DP, the matching free-energy curve F_{x,y}/n of
    the same environment, and the max defect of the flow rate against the
    algebraic form -(1/n)(log Z - beta B)."""
    if busemann.zero_temp:
        raise ParameterError("the probability flow is defined for finite beta")
    beta = busemann.beta
    win = busemann.window
    if not (win.contains(x) and win.contains(x + Site(n, n))):
        raise WindowError("cocycle window too small for level n")
    x0u, x0v = win.index(x)
    rect = Window(x, n + 1, n + 1)
    # the flow DP is the sweep whose edge terms are the cocycle measure's
    # log step probabilities beta * (omega - b_i)
    blk = (slice(x0u, x0u + n + 1), slice(x0v, x0v + n + 1))
    w = field.subfield(rect).values
    logflow = _sweep(
        (beta * (w - busemann.b1[blk]))[:-1],
        (beta * (w - busemann.b2[blk]))[:, :-1],
        False,
    )
    a = np.arange(n + 1)
    rate_flow = -logflow[a, n - a] / n
    logz = p2p_values(field, x, beta, a, n - a)
    B = busemann.integrated()
    bvals = B[x0u + a, x0v + (n - a)] - B[x0u, x0v]
    rate_alg = -(logz - beta * bvals) / n
    lam = logz / (beta * n)
    return rate_flow, lam, float(np.max(np.abs(rate_flow - rate_alg)))


def ldp_rate_profile(
    spec,
    beta: float,
    h_hat: tuple[float, float],
    n: int,
    replicas: int,
    seed: int,
    horizon_margin: int = 50,
    shape=None,
) -> LdpProfile:
    """Monte Carlo estimate of the rate curve of the Busemann-driven chain:
    mean over environments of -(1/n) log Pi_0(X_n = (a, n-a)).

    Each replica builds a fresh environment, the tilted cocycle field at
    horizon 2n + margin, and the exact flow probabilities; the algebraic
    identity rate = -(1/n)(log Z - beta B) is verified per replica.  The
    `gap` columns compare the rate against -h.zeta - F_r/n with the
    free-energy curve taken from the same replica, so the common finite-n
    deficit of both sides cancels; an external ShapeEstimate only feeds the
    descriptive `reference` columns.
    """
    from .cocycle import _replica_seeds, busemann_from_p2l
    from .env import generate_field

    horizon = 2 * n + horizon_margin
    rates = np.empty((replicas, n + 1))
    gaps = np.empty((replicas, n + 1))
    zeta1 = np.arange(n + 1) / n
    drift = -(h_hat[0] * zeta1 + h_hat[1] * (1 - zeta1))
    ident = 0.0
    for k, env_seed in enumerate(_replica_seeds(seed, replicas, 0x1D9)):
        fld = generate_field(spec, env_seed, Window(Site(0, 0), 1, 1))
        bf = busemann_from_p2l(
            fld, beta, h_hat, horizon, Window(Site(0, 0), n + 2, n + 2)
        )
        r, lam_r, d = _ldp_rate_single(bf, fld, Site(0, 0), n)
        rates[k] = r
        gaps[k] = r - (drift - lam_r)
        ident = max(ident, d)
    rate = rates.mean(axis=0)
    gap = gaps.mean(axis=0)
    if replicas > 1:
        rate_se = rates.std(axis=0, ddof=1) / math.sqrt(replicas)
        gap_se = gaps.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        rate_se = np.zeros_like(rate)
        gap_se = np.zeros_like(gap)
    reference = reference_se = None
    if shape is not None:
        tg = np.asarray(shape.t_grid)
        lam = shape.lambda_hat[:, -1]
        lse = shape.se[:, -1]
        inside = (zeta1 >= tg[0]) & (zeta1 <= tg[-1])
        lam_i = np.interp(zeta1, tg, lam)
        se_i = np.interp(zeta1, tg, lse)
        reference = np.where(inside, drift - lam_i, np.nan)
        reference_se = np.where(inside, se_i, np.nan)
    return LdpProfile(zeta1, rate, rate_se, gap, gap_se, ident, reference, reference_se)


@dataclass(frozen=True)
class MassDecayProfile:
    levels: tuple[int, ...]
    max_hit: tuple[float, ...]

    @property
    def strictly_decreasing(self) -> bool:
        return all(
            self.max_hit[i + 1] < self.max_hit[i] for i in range(len(self.max_hit) - 1)
        )

    def to_csv(self, path) -> str:
        from .csvio import write_csv

        return write_csv(path, ("n", "max_hit"), zip(self.levels, self.max_hit))


def rooted_mass_decay(
    transitions: TransitionField, target: Site, levels
) -> MassDecayProfile:
    """Exact hitting probabilities of `target` for the forward chain, via the
    backward DP h(y) = p1(y) h(y+e1) + (1-p1(y)) h(y+e2), h(target) = 1.
    Reports max over y <= target at l1-distance n, per n."""
    if transitions.direction != 1:
        raise ParameterError("rooted mass decay needs a forward transition field")
    levels = tuple(sorted(int(n) for n in levels))
    n_max = levels[-1]
    win = transitions.window
    base = target - Site(n_max, n_max)
    if not (win.contains(base) and win.contains(target)):
        raise WindowError("window too small for the requested distances")
    b0u, b0v = win.index(base)
    p1 = transitions.p1[b0u : b0u + n_max + 1, b0v : b0v + n_max + 1]
    hit = np.zeros((n_max + 1, n_max + 1))
    hit[n_max, n_max] = 1.0
    for k in range(2 * n_max - 1, -1, -1):
        a_lo = max(0, k - n_max)
        a_hi = min(n_max, k)
        a = np.arange(a_lo, a_hi + 1)
        b = k - a
        up1 = np.where(a + 1 <= n_max, hit[np.minimum(a + 1, n_max), b], 0.0)
        up2 = np.where(b + 1 <= n_max, hit[a, np.minimum(b + 1, n_max)], 0.0)
        hit[a, b] = p1[a, b] * up1 + (1.0 - p1[a, b]) * up2
    out = []
    for n in levels:
        a = np.arange(0, n + 1)
        vals = hit[n_max - a, n_max - (n - a)]
        out.append(float(np.max(vals)))
    return MassDecayProfile(levels, tuple(out))
