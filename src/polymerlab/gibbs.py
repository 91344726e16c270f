"""Quenched polymer measures: exact path probabilities, backward-chain
sampling of point-to-point measures, forward chains driven by Busemann
fields, DLR consistency, the LDP rate curve, and rooted-mass decay.

Forward transition probabilities pi(y -> y+e1) = exp(beta*(omega_y - b1(y)))
come from a recovering Busemann field, so they normalize up to the recovery
residual.  Backward transitions come from a partition table and normalize
exactly by the DP identity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import BusemannField, _integrate, _p2l_bytes, _p2l_increments
from .csvio import write_columns
from .env import _HASH_BLOCK_BYTES, FieldBatch, Site, WeightField, Window
from .errors import (
    DomainError,
    ParameterError,
    SizeError,
    WindowError,
)
from . import partition
from .partition import NEG_INF, PartitionTable, _levels, _p2l_sweep, _path_log_weights, _temperature, p2p_values

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
    "dlr_window_reports",
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
        k = np.arange(self.sites.shape[0])
        return write_columns(path, {"k": k, "u": self.sites[:, 0], "v": self.sites[:, 1]})


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

        return CoupledStepRule(p_fn)


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


def _walk(transitions: TransitionField, start: Site, steps: int, count: int, rng):
    """Advance `count` walkers from `start` by `steps` steps of the chain in
    its direction.  Each step draws `rng.random(k)` for the k walkers still
    in the window and takes the e1-type step where the uniform is below p1;
    a walker that leaves the window, or starts outside it, is frozen, and a
    NaN step law raises.  Returns the (count, steps) int8 e1-step matrix,
    the steps each walker took (a leaving step included) and the indices of
    the walkers that stayed in the window."""
    rng = np.random.default_rng(rng)  # a Generator is returned unaltered
    win, d = transitions.window, transitions.direction
    e1 = np.zeros((count, steps), dtype=np.int8)
    taken = np.zeros(count, dtype=np.int64)
    live = np.arange(count if win.contains(start) else 0)
    du = np.full(live.size, start.u - win.origin.u)
    dv = np.full(live.size, start.v - win.origin.v)
    for j in range(steps):
        p = transitions.p1[du, dv]
        if np.isnan(p).any():
            i = int(np.argmax(np.isnan(p)))
            raise DomainError(f"site ({win.origin.u + du[i]},{win.origin.v + dv[i]}) has no step law")
        take = rng.random(live.size) < p
        e1[live, j] = take
        taken[live] = j + 1
        du, dv = du + d * take, dv + d * ~take
        inside = (du >= 0) & (du < win.width) & (dv >= 0) & (dv < win.height)
        live, du, dv = live[inside], du[inside], dv[inside]
    return e1, taken, live


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
    transitions.window.index(start)  # a start outside the window raises
    steps, _, _ = _walk(transitions, start, (start - anchor).level(), count, rng)
    return steps[:, ::-1]


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
    summing them, and Q from partition tables (DP route).  One window: the
    one-replica case of `_dlr_reports`."""
    (report,) = _dlr_reports(busemann.integrated(), busemann.window, busemann.beta, field, x, n)
    return report


# DLR windows are checked together in groups under this many bytes.  A
# window counts its point-to-line sweep as a tilt of `cocycle._TILT_BLOCK_BYTES`
# does, and, at the endpoint with the most paths, P paths of `steps` sites:
# their gathered weights and five arrays of P energies and probabilities.
# What the group shares is set aside: one hash block and the enumeration's
# 10 bytes per path site (its flat intp index into the weights, the int8
# combinations and a bool temporary).  At levels = 20, P = 184756, a window
# counts 37 MB and the enumeration 37 MB, so a group holds one window.  A
# group peaked at 0.66 of the budget at levels = 20 (one window), 0.82 at 19
# (four) and 0.91 at 18 (ten) (tracemalloc).
_DLR_BLOCK_BYTES = 96 << 20


def dlr_window_reports(
    fields, beta: float, h: tuple[float, float], horizon: int, window: Window, x: Site, n: int
) -> list[DlrReport]:
    """`dlr_consistency_check(busemann_from_p2l(f, beta, h, horizon, window),
    f, x, n)` for each hashed field f of `fields` (unshifted, of one
    distribution), in order.  The windows go in groups under
    `_DLR_BLOCK_BYTES`; a group advances as one FieldBatch through the
    point-to-line sweep, the probe of log Z_{x, endpoint} and the path
    enumeration, with every reduction along the paths' own axis, so each
    report equals its own window's bit for bit."""
    steps = n - x.level()
    paths = math.comb(steps, steps // 2) if steps >= 0 else 0
    per_window = _p2l_bytes(horizon, window) + 8 * paths * (steps + 5)
    spare = _DLR_BLOCK_BYTES - _HASH_BLOCK_BYTES - 10 * paths * steps
    group = max(1, spare // per_window)
    reports = []
    for g in range(0, len(fields), group):
        batch = FieldBatch(fields[g : g + group])
        B = _integrate(*_p2l_increments(batch, beta, h, horizon, window))
        reports += _dlr_reports(B, window, beta, batch, x, n)
    return reports


def _dlr_reports(B: np.ndarray, win: Window, beta: float, field, x: Site, n: int) -> list[DlrReport]:
    """The check of `dlr_consistency_check` from integrated Busemann fields
    B (..., W, H) on `win` and their environments: one field, or a
    FieldBatch whose replica axis is B's leading axis.  One report per
    leading entry."""
    steps = n - x.level()
    if steps < 0:
        raise ParameterError("level n is below x")
    if steps > 20:
        raise SizeError("more than 20 steps: enumeration refused")
    if steps == 0:
        return [DlrReport(1, 0.0)] * math.prod(B.shape[:-2])
    if math.isinf(beta):
        raise ParameterError("DLR consistency is defined for finite beta")
    bx = B[(...,) + win.index(x)]
    # the endpoints inside the window; all paths x -> end live in the rect
    # [x, end], inside the window, and one probe gives every log Z_{x, end}
    aa = [a for a in range(steps + 1) if win.contains(Site(x.u + a, x.v + steps - a))]
    if not aa:
        raise WindowError("no admissible endpoints inside the window")
    logz = p2p_values(field, x, beta, aa, [steps - a for a in aa])
    worst = np.zeros(B.shape[:-2])
    count = 0
    for i, a in enumerate(aa):
        end = Site(x.u + a, x.v + steps - a)
        blw = _path_log_weights(field, x, steps, a, beta, None)
        bend = B[(...,) + win.index(end)]
        lhs = np.exp(blw - (beta * (bend - bx))[..., None])
        mass = np.sum(lhs, axis=-1, keepdims=True)
        rhs = mass * np.exp(blw - logz[..., i, None])
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs), axis=-1))  # keeps a NaN
        count += lhs.shape[-1]
    return [DlrReport(count, w) for w in np.ravel(worst).tolist()]


def forward_chain_sample(
    transitions: TransitionField, x: Site, steps: int, rng
) -> PolymerPath:
    """Sample the forward Markov chain; if the walk would leave the window
    the path is cut short and flagged truncated."""
    if transitions.direction != 1:
        raise ParameterError("forward sampling needs a forward transition field")
    e1, taken, stayed = _walk(transitions, x, steps, 1, rng)
    truncated = steps > 0 and stayed.size == 0
    path = path_from_steps(x, e1[0, : max(int(taken[0]) - truncated, 0)])
    return PolymerPath(path.sites, truncated=truncated)


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
    e1, _, stayed = _walk(transitions, x, steps, count, rng)
    s1 = e1[stayed].sum(axis=1)
    endpoints = np.stack([x.u + s1, x.v + steps - s1], axis=1)
    return ForwardBatch(endpoints, int(e1[:, :1].sum()), count - stayed.size)


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
        return write_columns(
            path,
            {
                "zeta1": self.zeta1,
                "rate": self.rate,
                "rate_se": self.rate_se,
                "gap": self.gap,
                "gap_se": self.gap_se,
                "reference": np.nan if self.reference is None else self.reference,
                "reference_se": np.nan if self.reference_se is None else self.reference_se,
            },
        )


# Replicas of `ldp_rate_profile` are swept together in groups under this
# many bytes.  A replica counts three values (b1, b2 and the weight) at each
# of the n(n+1)/2 sites below level n, and ten levels of 2n + 51 values, the
# point-to-line sweep's temporaries with their hashing once a level of all
# replicas outgrows a hash block.  One hash block (`env._HASH_BLOCK_BYTES`)
# is set aside for the whole group.  At n = 200 a group holds 8 replicas; a
# full group peaks at 0.65 of the budget at n = 500 and 0.91 at n = 600, and
# a group of one overruns it from about n = 620 on.  `_LDP_MAX_N` is the
# largest n whose one replica's count fits, and the cli refuses larger n.
_LDP_BLOCK_BYTES = 5 << 20


def _ldp_replica_bytes(n: int) -> int:
    return 8 * (3 * n * (n + 1) // 2 + 10 * (2 * n + 51))


# the count grows with n, so the n that fit are a prefix of 1, 2, ...
_LDP_MAX_N = bisect.bisect_right(
    range(1, 1 << 16), _LDP_BLOCK_BYTES - _HASH_BLOCK_BYTES, key=_ldp_replica_bytes
)


def ldp_rate_profile(
    spec,
    beta: float,
    h_hat: tuple[float, float],
    n: int,
    replicas: int,
    seed: int,
    shape=None,
) -> LdpProfile:
    """Monte Carlo estimate of the rate curve of the Busemann-driven chain:
    mean over environments of -(1/n) log Pi_0(X_n = (a, n-a)).

    Each replica builds a fresh environment, the tilted cocycle increments
    b_i = F_{y,(N)} - F_{y+e_i,(N)} - h.e_i at horizon N = 2n + 50 below
    level n, and the exact flow probabilities, a sweep whose edge terms are
    the cocycle measure's log step probabilities beta(omega - b_i); the
    algebraic identity rate = -(1/n)(log Z - beta B) is verified per
    replica.  The `gap` columns compare the rate against -h.zeta - F_r/n
    with the free-energy curve taken from the same replica, so the common
    finite-n deficit of both sides cancels; an external ShapeEstimate only
    feeds the descriptive `reference` columns.

    Replicas are swept in groups under `_LDP_BLOCK_BYTES`, in two passes.
    The pass down, one point-to-line sweep, hashes each level once and keeps
    the levels k < n, each as one (3, R, k + 1) array of b1 and b2 (from
    levels k and k + 1, with the arithmetic of `cocycle._increments`) and
    the raw weights.  The pass up walks them from level 0 and steps the flow
    and the free-energy curve (the from_anchor table of the square, whose
    entries equal `p2p_values` bit for bit) as one stacked block to level n.
    So each replica equals its own busemann_from_p2l, subfield and
    p2p_values route bit for bit.
    """
    from .cocycle import _check_replicas, _mean_se, _replica_batch

    _check_replicas(replicas, [n])
    beta, scale, comb = _temperature(beta)
    if math.isinf(beta):
        raise ParameterError("the probability flow is defined for finite beta")
    horizon = 2 * n + 50
    envs = _replica_batch(spec, seed, replicas, 0x1D9).fields
    group = max(1, (_LDP_BLOCK_BYTES - _HASH_BLOCK_BYTES) // _ldp_replica_bytes(n))
    inv = 1 / scale
    h = np.asarray(h_hat, dtype=np.float64)[:, None, None]
    zeta1 = np.arange(n + 1) / n
    drift = -(h_hat[0] * zeta1 + h_hat[1] * (1 - zeta1))
    # C-contiguous sample arrays: their means over replicas add row by row
    rates = np.empty((replicas, n + 1))
    gaps = np.empty((replicas, n + 1))
    ident = np.empty(replicas)
    for g in range(0, replicas, group):
        batch = FieldBatch(envs[g : g + group])
        R = len(batch.fields)
        # pass down: b1, b2 and the weights at the sites (i, k - i) of each
        # level k < n, whose e1 and e2 neighbours are sites i + 1 and i above
        down = []
        for k, raw, level in _p2l_sweep(batch, beta, h_hat, horizon, Site(0, 0)):
            if k < n:
                t = np.empty((3, R, k + 1))
                np.subtract(level, above[..., 1:], out=t[0])
                np.subtract(level, above[..., :-1], out=t[1])
                t[:2] *= inv
                t[:2] -= h
                t[2] = raw
                down.append(t)
            above = level
        # pass up: B(0, (a, n-a)) = bvals[:, a] + tail[:, a], the staircase
        # b1(0, 0) + ... + b1(a - 1, 0), then b2(a, 0) + ... + b2(a, n - a - 1)
        bvals, tail = np.zeros((2, R, n + 1))
        level = np.zeros((2, R, 1))
        for k, t in enumerate(reversed(down)):
            np.add(bvals[:, k], t[0, :, k], out=bvals[:, k + 1])
            tail[:, k] = t[1, :, k]
            tail[:, :k] += t[1, :, :k]
            # in place: the edge terms beta * (omega - b_i) and beta * omega
            # of the flow and the free energy, which step as one block
            np.subtract(t[2], t[:2], out=t[:2])
            t *= beta
            level = partition._level(level, t[::2], t[1:], comb, True, True)
        bvals += tail
        rate_flow = -level[0] / n
        logz = level[1]
        rate_alg = -(logz - beta * bvals) / n
        lam = logz / (beta * n)
        rates[g : g + group] = rate_flow
        gaps[g : g + group] = rate_flow - (drift - lam)
        ident[g : g + group] = np.max(np.abs(rate_flow - rate_alg), axis=-1)
    rate, rate_se = _mean_se(rates)
    gap, gap_se = _mean_se(gaps)
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
    return LdpProfile(
        zeta1, rate, rate_se, gap, gap_se, float(np.max(ident)), reference, reference_se
    )


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
        return write_columns(path, {"n": self.levels, "max_hit": self.max_hit})


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
    # reversed, hit(target - (i, j)) is the sweep from the target with edge
    # terms log p1 and log(1 - p1), run to the last requested level; an
    # exact p1 = 0 or 1 makes an edge of -inf, which the level step's
    # combine passes through exactly
    p1 = transitions.p1[b0u : b0u + n_max + 1, b0v : b0v + n_max + 1][::-1, ::-1]
    with np.errstate(divide="ignore"):
        s1, s2 = np.log(p1[1:]), np.log1p(-p1[:, 1:])
    hit = {}
    for n, level in enumerate(_levels(s1, s2, np.logaddexp, n_max)):
        if n in levels:
            hit[n] = float(np.max(np.exp(level)))
    out = [hit[n] for n in levels]
    return MassDecayProfile(levels, tuple(out))
