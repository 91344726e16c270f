"""Coupled spanning tree of backward polymer chains and its competition
interface.

Every site y >= root + (1,1) picks a parent gamma(y) in {y-e1, y-e2} with the
backward-chain probabilities, driven by the shared uniform variable theta(y);
axis sites have forced parents.  The union of choices is a spanning tree of
root + Z_+^2, the path root -> y on the tree has the point-to-point polymer
law, and the interface between the two subtrees rooted at e1 and e2 is a
Markov chain whose step law depends on partition-function ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingField
from .csvio import write_columns
from .env import COUPLING_STREAM, E1, E2, EHAT, Site, WeightField, Window, _key, _rows, _seed_array, _special, _uniforms
from .errors import (
    DomainError,
    ParameterError,
    WindowError,
)
from .gibbs import PolymerPath, TransitionField, _walk, backward_transitions, path_from_steps
from .cocycle import _check_replicas, b1_logz
from .partition import PartitionTable, _level, _temperature

__all__ = [
    "SpanningTree",
    "InterfaceResult",
    "build_tree",
    "competition_interface",
    "interface_direct_sample",
    "cif_direction_stats",
    "cif_cdf_check",
]


@dataclass(frozen=True, eq=False)
class SpanningTree:
    root: Site
    window: Window
    parent_e1: np.ndarray  # True where gamma(y) = y - e1
    beta: float
    theta_seed: int

    def parent(self, y: Site) -> Site:
        if y == self.root:
            raise DomainError("the root has no parent")
        if y.v == self.root.v:
            return y - E1
        if y.u == self.root.u:
            return y - E2
        du, dv = self.window.index(y)
        return y - E1 if self.parent_e1[du, dv] else y - E2

    def path_from_root(self, y: Site) -> PolymerPath:
        rev = [(y.u, y.v)]
        cur = y
        while cur != self.root:
            cur = self.parent(cur)
            rev.append((cur.u, cur.v))
        return PolymerPath(np.asarray(rev[::-1], dtype=np.int64))

    def subtree_labels(self) -> np.ndarray:
        """1 where the tree path from the root starts with e1, 2 where it
        starts with e2, 0 at the root."""
        W, H = self.window.width, self.window.height
        r0u, r0v = self.window.index(self.root)
        if (r0u, r0v) != (0, 0):
            raise WindowError("tree window must be rooted at its origin")
        labels = np.zeros((W, H), dtype=np.int8)
        labels[0, 1:] = 2
        prev = labels[0].copy()
        prev[0] = 1  # sites hanging off the root via e1 belong to subtree 1
        cols = np.arange(H)
        for u in range(1, W):
            anchor_idx = np.where(self.parent_e1[u], cols, -1)
            vstar = np.maximum.accumulate(anchor_idx)
            labels[u] = prev[vstar]
            prev = labels[u]
        labels[0, 0] = 0
        return labels


def build_tree(table: PartitionTable, thetas: CouplingField) -> SpanningTree:
    """Sample the coupled spanning tree from a from_anchor partition table:
    parent choices are theta(y) < backward-step probability at y."""
    if table.mode != "from_anchor":
        raise ParameterError("tree construction needs a from_anchor table")
    root = table.anchor
    if table.window.origin != root:
        raise WindowError("tree window must be rooted at the table anchor")
    bt = backward_transitions(table)
    uu, vv = table.window.coord_grids()
    theta = thetas.theta_at(uu, vv)
    with np.errstate(invalid="ignore"):
        parent_e1 = theta < bt.p1
    # forced parents on the axes through the root
    parent_e1[:, 0] = True
    parent_e1[0, :] = False
    return SpanningTree(root, table.window, parent_e1, table.beta, thetas.seed)


@dataclass(frozen=True, eq=False)
class InterfaceResult:
    path: PolymerPath
    separation_checked: bool
    separation_ok: bool


def competition_interface(
    tree: SpanningTree, steps: int, check_separation: bool = True
) -> InterfaceResult:
    """Thread the interface between the two subtrees: from phi, step e1
    exactly when the diagonal site phi + e1 + e2 attaches westward (joins the
    e2 subtree)."""
    win = tree.window
    phi = tree.root
    sites = [(phi.u, phi.v)]
    for _ in range(steps):
        z = phi + EHAT
        if not win.contains(z):
            raise WindowError("tree window too shallow for the requested steps")
        du, dv = win.index(z)
        phi = phi + E1 if tree.parent_e1[du, dv] else phi + E2
        sites.append((phi.u, phi.v))
    path = PolymerPath(np.asarray(sites, dtype=np.int64))
    sep_ok = True
    if check_separation:
        labels = tree.subtree_labels()
        for k in range(len(path)):
            y = path.site(k)
            for nb, want in ((y + E1, 1), (y + E2, 2)):
                if win.contains(nb):
                    sep_ok &= bool(labels[win.index(nb)] == want)
    return InterfaceResult(path, check_separation, bool(sep_ok))


def interface_direct_sample(
    table: PartitionTable, field: WeightField, steps: int, rng
) -> InterfaceResult:
    """Interface sampled directly as the Markov chain with the
    partition-ratio step law (no tree construction): p(step e1) at y is
    expit(A(z - e1) - A(z - e2)) with A = beta*w + log Z and z = y + e1 + e2,
    the westward-parent probability of the diagonal site.  Only the last
    step may leave the table window less its top row and right column."""
    win = table.window
    A = table.beta * field.subfield(win).values + table.logz
    with np.errstate(invalid="ignore"):  # -inf - -inf outside the anchor's cone
        p1 = _special().expit(A[:-1, 1:] - A[1:, :-1])
    chain = TransitionField(Window(win.origin, win.width - 1, win.height - 1), p1, "cif", 1, table.beta)
    steps_e1, taken, _ = _walk(chain, table.anchor, steps, 1, rng)
    if taken[0] < steps:
        raise WindowError("table window too shallow for the requested steps")
    return InterfaceResult(path_from_steps(table.anchor, steps_e1[0]), False, True)


@dataclass(frozen=True, eq=False)
class DirectionStats:
    directions: np.ndarray  # terminal e1-fraction per replica
    steps: int

    def empirical_cdf(self, grid) -> np.ndarray:
        g = np.asarray(grid, dtype=np.float64)
        return np.searchsorted(np.sort(self.directions), g, side="right") / self.directions.size

    def atom_share(self) -> float:
        """Largest fraction of replicas with an identical terminal direction
        (resolution 1/steps); diagnostic only."""
        _, counts = np.unique(np.round(self.directions * self.steps), return_counts=True)
        return float(counts.max() / self.directions.size)

    def interior_fraction(self, eps: float = 0.001) -> float:
        d = self.directions
        return float(np.mean((d >= eps) & (d <= 1 - eps)))

    def to_csv(self, path) -> str:
        replica = np.arange(self.directions.size)
        return write_columns(path, {"replica": replica, "direction": self.directions})


def cif_direction_stats(
    field: WeightField,
    beta: float,
    replicas: int,
    steps: int,
    theta_seed: int,
    root: Site = Site(0, 0),
) -> DirectionStats:
    """Terminal interface directions over many tree seeds in one quenched
    environment.  Trees are sampled lazily: only the parent choices on the
    interface's own diagonal are ever drawn, which is distributionally
    identical to building the full tree.  The from-root DP advances with
    the walkers one level at a time (`partition._level`), reading its
    weights from `env._rows`: with A = beta*w + log Z on level k, log Z on
    level k + 1 is logaddexp(A[a - 1], A[a]), and a walker at root + (u, v)
    steps e1 with probability expit(A[u] - A[u + 1]) on the new level.  The
    from-root table runs the same level step, so A equals
    beta*w + `p2p_table(...)`.logz bit for bit.  beta = inf is
    refused: its level step is the max, but a tie rule for the walker's
    step is not defined yet."""
    beta, scale, comb = _temperature(beta)
    if math.isinf(beta):
        raise ParameterError("interface directions are defined for finite beta")
    _check_replicas(replicas, [steps])
    seeds = _seed_array(range(theta_seed, theta_seed + replicas))
    keys = _key(seeds, COUPLING_STREAM)
    u = np.zeros(replicas, dtype=np.int64)
    v = np.zeros(replicas, dtype=np.int64)
    # level k holds the sites root + (a, k - a), a = 0..k
    levels = _rows(field, root.u, root.v + np.arange(steps + 1), np.arange(1, steps + 2), (1, -1))
    wb = scale * next(levels)
    logz = np.zeros(1)
    for w in levels:
        logz = _level(logz, wb, None, comb, True, True)
        wb = scale * w
        A = wb + logz
        p = _special().expit(A[u] - A[u + 1])
        zu, zv = u + 1, v + 1
        theta = _uniforms(keys, zu + root.u, zv + root.v)
        step1 = theta < p
        u = u + step1
        v = v + (~step1)
    return DirectionStats((u / steps).astype(np.float64), steps)


@dataclass(frozen=True, eq=False)
class CdfComparison:
    t_grid: np.ndarray
    empirical: np.ndarray
    busemann: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    sup_discrepancy: float
    dkw_band: float
    horizon_drift: float
    replicas: int

    @property
    def within_band(self) -> bool:
        return self.sup_discrepancy <= self.dkw_band

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.empirical) >= -1e-15))

    def to_csv(self, path) -> str:
        return write_columns(
            path,
            {
                "xi": self.t_grid,
                "empirical_cdf": self.empirical,
                "busemann_cdf": self.busemann,
                "ci_lo": self.ci_lo,
                "ci_hi": self.ci_hi,
            },
        )


def _busemann_cdf_values(
    field: WeightField, beta: float, root: Site, t_eval: np.ndarray, horizons
) -> np.ndarray:
    """exp(beta*(omega_root - b1(root; xi))) with b1 from point-to-point
    values at targets root + (round(N t), N - round(N t)), for every horizon
    N (leading axes) in one pass."""
    w0 = float(field.values_at(np.asarray([root.u]), np.asarray([root.v]))[0])
    b1 = b1_logz(field, beta, root, t_eval, horizons) / beta
    return np.exp(beta * (w0 - b1))


def cif_cdf_check(
    field: WeightField,
    beta: float,
    t_grid,
    replicas: int,
    steps: int,
    theta_seed: int,
    busemann_horizon: int | None = None,
) -> CdfComparison:
    """Quenched direction-law check: empirical CDF of the terminal interface
    direction against the Busemann formula exp(beta*(omega_0 - b1(0; xi+))),
    with the right limit approximated by evaluating one lattice unit to the
    right at the target radius (the finest right-shift the finite proxy
    resolves; a full grid step would smear across quenched near-atoms).
    Reports the sup discrepancy against the two-sided DKW 99% band, pointwise
    99% binomial intervals, and the horizon-doubling drift of the Busemann
    side."""
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size < 2:
        raise ParameterError("need at least two grid directions")
    N = busemann_horizon if busemann_horizon is not None else steps
    if N < 2:
        raise ParameterError(f"busemann_horizon must be at least 2, got {N}")
    t_eval = np.clip(t_grid + 1.0 / N, 0.0, 1.0)
    # the 2N targets' down-set holds the N targets': one pass for both
    bus, bus2 = _busemann_cdf_values(field, beta, Site(0, 0), t_eval, [N, 2 * N])
    stats = cif_direction_stats(field, beta, replicas, steps, theta_seed)
    emp = stats.empirical_cdf(t_grid)
    drift = float(np.max(np.abs(bus - bus2)))
    sup = float(np.max(np.abs(emp - bus)))
    dkw = math.sqrt(math.log(2.0 / 0.01) / (2.0 * replicas))
    # pointwise 99% binomial (normal approximation) around the empirical CDF
    z = 2.5758293035489004
    se = np.sqrt(np.clip(emp * (1 - emp), 1e-12, None) / replicas)
    ci_lo = np.clip(emp - z * se, 0.0, 1.0)
    ci_hi = np.clip(emp + z * se, 0.0, 1.0)
    return CdfComparison(
        t_grid=t_grid,
        empirical=emp,
        busemann=bus,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        sup_discrepancy=sup,
        dkw_band=dkw,
        horizon_drift=drift,
        replicas=replicas,
    )
