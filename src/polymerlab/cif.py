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
from scipy.special import expit

from .coupling import CouplingField
from .env import COUPLING_STREAM, E1, E2, EHAT, Site, WeightField, Window, site_uniforms
from .errors import (
    DomainError,
    ParameterError,
    WindowError,
)
from .gibbs import PolymerPath, backward_transitions
from .partition import PartitionTable, p2p_table, p2p_values

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

    @property
    def terminal_direction(self) -> float:
        d = self.path.end - self.path.start
        n = d.level()
        return d.u / n if n else math.nan


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


def _interface_logits(table: PartitionTable, field: WeightField):
    """p(step e1) at y equals expit(logit[y + e1 + e2]) with
    logit(z) = (beta*w + logZ)(z - e1) - (beta*w + logZ)(z - e2):
    the westward-parent probability of the diagonal site."""
    wb = table.beta * field.subfield(table.window).values
    A = wb + table.logz
    return A


def interface_direct_sample(
    table: PartitionTable, field: WeightField, steps: int, rng
) -> InterfaceResult:
    """Interface sampled directly as the Markov chain with the
    partition-ratio step law (no tree construction)."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    A = _interface_logits(table, field)
    win = table.window
    phi = table.anchor
    sites = [(phi.u, phi.v)]
    for _ in range(steps):
        z = phi + EHAT
        if not win.contains(z):
            raise WindowError("table window too shallow for the requested steps")
        zu, zv = win.index(z)
        p_e1 = expit(A[zu - 1, zv] - A[zu, zv - 1])  # westward parent prob
        phi = phi + E1 if rng.random() < p_e1 else phi + E2
        sites.append((phi.u, phi.v))
    return InterfaceResult(PolymerPath(np.asarray(sites, dtype=np.int64)), False, True)


@dataclass(frozen=True, eq=False)
class DirectionStats:
    directions: np.ndarray  # terminal e1-fraction per replica
    steps: int

    @property
    def median(self) -> float:
        return float(np.median(self.directions))

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
        from .csvio import write_csv

        return write_csv(
            path,
            ("replica", "direction"),
            ((i, float(d)) for i, d in enumerate(self.directions)),
        )


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
    identical to building the full tree."""
    rect = Window(root, steps + 3, steps + 3)
    table = p2p_table(field, root, rect, beta, "from_anchor")
    A = _interface_logits(table, field)
    seeds = np.asarray(
        [s + theta_seed for s in range(replicas)], dtype=np.uint64
    )
    u = np.zeros(replicas, dtype=np.int64)
    v = np.zeros(replicas, dtype=np.int64)
    for _ in range(steps):
        zu, zv = u + 1, v + 1
        logit = A[zu - 1, zv] - A[zu, zv - 1]
        p = expit(logit)
        theta = site_uniforms(seeds, COUPLING_STREAM, zu + root.u, zv + root.v)
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
        from .csvio import write_csv

        return write_csv(
            path,
            ("xi", "empirical_cdf", "busemann_cdf", "ci_lo", "ci_hi"),
            zip(
                self.t_grid.tolist(),
                self.empirical.tolist(),
                self.busemann.tolist(),
                self.ci_lo.tolist(),
                self.ci_hi.tolist(),
            ),
        )


def _busemann_cdf_values(
    field: WeightField, beta: float, root: Site, t_eval: np.ndarray, N: int
) -> np.ndarray:
    """exp(beta*(omega_root - b1(root; xi))) with b1 from point-to-point
    values at targets root + (round(N t), N - round(N t))."""
    aa = np.array([min(max(int(round(N * float(t))), 1), N - 1) for t in t_eval])
    vals0 = p2p_values(field, root, beta, aa, N - aa)
    vals1 = p2p_values(field, root + E1, beta, aa - 1, N - aa)
    w0 = float(field.values_at(np.asarray([root.u]), np.asarray([root.v]))[0])
    b1 = (vals0 - vals1) / beta
    return np.exp(beta * (w0 - b1))


def cif_cdf_check(
    field: WeightField,
    beta: float,
    t_grid,
    replicas: int,
    steps: int,
    theta_seed: int,
    busemann_horizon: int | None = None,
    right_shift: float | None = None,
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
    delta = float(right_shift) if right_shift is not None else 1.0 / N
    stats = cif_direction_stats(field, beta, replicas, steps, theta_seed)
    emp = stats.empirical_cdf(t_grid)
    t_eval = np.clip(t_grid + delta, 0.0, 1.0)
    bus = _busemann_cdf_values(field, beta, Site(0, 0), t_eval, N)
    bus2 = _busemann_cdf_values(field, beta, Site(0, 0), t_eval, 2 * N)
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
