"""The benchmark's own checks: reference DPs, closed forms, CSV reparse.

Everything here runs outside the timed calls.  The DPs sweep anti-diagonals
(level by level), a different algorithm from the program's prefix-sum row
sweeps, and take their weights either from ``refenv`` (plain-Python hash)
or, for the large instances where a plain-Python hash would take seconds,
from the program's own field after ``Checker.environment`` has compared
sampled sites of that field with ``refenv``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import refenv

NEG_INF = float("-inf")


class Checker:
    """Collects failed checks (wrong output), failed operations (the
    program's own exact check refused its result) and recorded values of
    statistical checks, which never gate."""

    def __init__(self):
        self.errors: list[str] = []
        self.op_failures: list[str] = []
        self.values: dict[str, float] = {}

    def require(self, ok, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def close(self, got, want, tol: float, what: str) -> None:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.errors.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        gap = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not gap <= tol:  # NaN fails too
            self.errors.append(f"{what}: gap {gap:.3g} > {tol:.3g}")

    def value(self, name: str, x) -> None:
        self.values[name] = float(x)

    def environment(self, field, rng, sites: int = 24, region: int = 0) -> None:
        """Sampled sites of a counter-based field against the reference:
        the materialized window, and (with region > 0) sites regenerated by
        values_at anywhere in [0, region)^2 around the window origin."""
        if field.seed < 0:  # explicit grids carry no hash
            return
        dist, params = field.spec.distribution, field.spec.params
        sh = field.shift
        W, H = field.values.shape
        du = rng.integers(0, W, size=sites)
        dv = rng.integers(0, H, size=sites)
        for a, b in zip(du.tolist(), dv.tolist()):
            u, v = field.window.origin.u + a + sh.u, field.window.origin.v + b + sh.v
            want = refenv.weight(dist, params, field.seed, u, v)
            got = float(field.values[a, b])
            self.require(
                abs(got - want) <= refenv.weight_tolerance(want),
                f"env seed={field.seed} site=({u},{v}): {got!r} != reference {want!r}",
            )
        if region > 0:
            uu = field.window.origin.u + rng.integers(0, region, size=sites)
            vv = field.window.origin.v + rng.integers(0, region, size=sites)
            got = field.values_at(uu, vv)
            for u, v, g in zip(uu.tolist(), vv.tolist(), got.tolist()):
                want = refenv.weight(dist, params, field.seed, u + sh.u, v + sh.v)
                self.require(
                    abs(g - want) <= refenv.weight_tolerance(want),
                    f"env seed={field.seed} site=({u},{v}) via values_at: {g!r} != {want!r}",
                )


def ref_weights(spec, seed: int):
    """Vectorized-by-loop weight lookup (uu, vv) -> array from the reference."""
    dist, params = spec.distribution, spec.params

    def weights(uu, vv):
        return np.array(
            [refenv.weight(dist, params, seed, u, v) for u, v in zip(uu.tolist(), vv.tolist())]
        )

    return weights


def level_sweep(weights, beta: float, x, level: int) -> list[np.ndarray]:
    """log Z_{x, x+(a, k-a)} for a = 0..k, for every k = 0..level (list
    index = k), by a forward anti-diagonal sweep.  The energy includes the
    start and excludes the end, as in the program."""
    out = [np.zeros(1)]
    a = np.arange(level + 1, dtype=np.int64)
    for k in range(1, level + 1):
        g = out[-1] + beta * weights(x.u + a[:k], x.v + (k - 1 - a[:k]))
        out.append(np.logaddexp(np.concatenate(([NEG_INF], g)), np.concatenate((g, [NEG_INF]))))
    return out


def tilted_line(weights, beta: float, h, x, depth: int) -> dict:
    """Tilted point-to-line values F(x+(a,b)) for a+b <= 2 by a backward
    anti-diagonal sweep from the flat boundary (F = 0) at relative level
    `depth`: F(y) = beta w(y) + logaddexp(F(y+e1) + beta h1, F(y+e2) + beta h2)."""
    bh1, bh2 = beta * h[0], beta * h[1]
    F = np.zeros(depth + 1)  # level depth, index a
    for k in range(depth - 1, -1, -1):
        a = np.arange(k + 1, dtype=np.int64)
        w = weights(x.u + a, x.v + (k - a))
        F = beta * w + np.logaddexp(F[1 : k + 2] + bh1, F[: k + 1] + bh2)
        if k == 1:
            f1 = F
    return {(0, 0): float(F[0]), (1, 0): float(f1[1]), (0, 1): float(f1[0])}


def csv_columns(path) -> dict[str, np.ndarray]:
    """Columns of a numeric artifact, parsed with float() (exact for the
    program's 17-significant-digit output)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    cols = list(zip(*rows)) if rows else [() for _ in header]
    out = {}
    for name, col in zip(header, cols):
        try:
            out[name] = np.array([float(x) for x in col])
        except ValueError:  # a label column
            out[name] = list(col)
    return out


def report_json_matches(path, report, ck: Checker, what: str) -> None:
    """report.json must reparse to the in-memory check values exactly."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ck.require(data["passed"] == report.passed, f"{what}: report.json passed flag")
    ck.require(len(data["checks"]) == len(report.checks), f"{what}: report.json check count")
    for got, want in zip(data["checks"], report.checks):
        ck.require(
            got["name"] == want.name and float(got["value"]) == want.value,
            f"{what}: report.json {got['name']}={got['value']} != {want.value!r}",
        )


def log_binomial(a: int, b: int) -> float:
    return math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)


def hitting_profile(p1: np.ndarray, levels) -> list[float]:
    """Max hitting probability of the top-right site of p1's square at each
    l1-distance, by a backward sweep written independently of the program's."""
    n = p1.shape[0] - 1
    hit = {(n, n): 1.0}
    best = {0: 1.0}
    for d in range(1, 2 * n + 1):
        m = 0.0
        for a in range(max(0, d - n), min(n, d) + 1):
            i, j = n - a, n - (d - a)
            p = float(p1[i, j])
            h = p * hit.get((i + 1, j), 0.0) + (1.0 - p) * hit.get((i, j + 1), 0.0)
            hit[(i, j)] = h
            m = max(m, h)
        best[d] = m
    return [best[k] for k in levels]
