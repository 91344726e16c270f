"""Microseconds per level step of each level loop of polymerlab.

    python scripts/level_cost.py
    python scripts/level_cost.py --scale 0.02 --repeats 1

Every sweep steps `partition._level` once per level, inside one of five
loops: the corner loop `partition._levels` (tables and probes, from and to
an anchor), the point-to-line sweep `partition._p2l_sweep`, the band rule's
sweep, the interface walk of `cif.cif_direction_stats` and the two passes
of `gibbs.ldp_rate_profile`.  For each loop this prints two rows:

- `fixed`: levels of a few sites, so the time is the cost a level pays
  whatever its width.  The corner loop runs a 3000 x 3 table and the band
  rule its narrowest band (width 5).  The triangular loops (point-to-line,
  interface, LDP) cannot keep a level narrow, so their row is the
  difference of two small sizes divided by the difference of their levels,
  which cancels the cost of the call itself;
- `bench`: the sizes of the bench operation that runs the loop (2001^2
  constant and 1401^2 gaussian tables, the LDP's point-to-line sweep, the
  walkers band, the cdf interface walk, the ldp profile).

Each line is tab-separated: loop, row, the mean sites per level, the
levels timed and the microseconds per level.  Every call is timed once a
round, for --repeats rounds, and keeps its best time, so a burst of load
on a shared machine spoils one round of every row rather than all the
calls of one.  Weights are hashed inside the timed calls, as in a run, at
beta = 1.  --scale multiplies every size (a smoke run uses a small one).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from polymerlab import cif, coupling, gibbs, partition  # noqa: E402
from polymerlab.env import FieldBatch, Site, WeightSpec, Window, generate_field  # noqa: E402

GAUSS = WeightSpec.gaussian(0.0, 1.0)
ILG = WeightSpec.inverse_log_gamma(1.0)
TILT = (0.1, -0.1)


def _field(spec=GAUSS, seed=7):
    return generate_field(spec, seed, Window(Site(0, 0), 1, 1))


def _table(mode: str, W: int, H: int, spec=GAUSS):
    """A from_anchor table from the window's origin, or a to_anchor one to
    its corner: W + H - 2 levels."""
    f, win = _field(spec), Window(Site(0, 0), W, H)
    anchor = win.origin if mode == "from_anchor" else win.corner
    return (lambda: partition.p2p_table(f, anchor, win, 1.0, mode)), W + H - 2, W * H / (W + H - 1)


def _p2l(n: int, replicas: int = 1):
    """The point-to-line sweep of n levels below level n, on `replicas`
    inverse-log-gamma environments (the LDP's pass down)."""
    f = FieldBatch(tuple(_field(ILG, 11 + r) for r in range(replicas)))
    return (lambda: partition.p2l_rows(f, 1.0, TILT, n, Site(0, 0), keep_rows=1)), n, replicas * (n + 1) / 2


def _band(horizon: int, half_width: int):
    f = _field()
    levels = horizon + 2
    return (lambda: coupling.band_transition_rule(f, 1.0, (-0.7, -0.7), horizon, half_width)), levels, 2 * half_width + 1


def _cif(steps: int, replicas: int):
    f = _field()
    return (lambda: cif.cif_direction_stats(f, 1.0, replicas, steps, 5)), steps, (steps + 3) / 2


def _ldp(n: int, replicas: int):
    """Both passes: 2n + 50 levels down and n levels up."""
    down = 2 * n + 50
    sites = replicas * (down * (down + 1) / 2 + n * (n + 3)) / (down + n)
    return (lambda: gibbs.ldp_rate_profile(ILG, 1.0, (-0.3, -0.3), n, replicas, 3)), down + n, sites


def _cases(scale: float):
    """(loop, row, cases): one case is timed per level, two as the
    difference of the larger and the smaller size."""
    s = lambda n, least=2: max(least, round(n * scale))  # noqa: E731
    yield "corner_from", "fixed", [_table("from_anchor", s(3000), 3)]
    yield "corner_to", "fixed", [_table("to_anchor", s(3000), 3)]
    yield "p2l_sweep", "fixed", [_p2l(s(10)), _p2l(s(70, 3))]
    yield "band", "fixed", [_band(s(3000), 2)]
    yield "cif", "fixed", [_cif(s(10), 3), _cif(s(70, 3), 3)]
    yield "ldp", "fixed", [_ldp(s(4), 1), _ldp(s(24, 3), 1)]
    yield "corner_from", "bench", [_table("from_anchor", s(2001), s(2001), WeightSpec.constant(0.25))]
    yield "corner_to", "bench", [_table("to_anchor", s(1401), s(1401))]
    yield "p2l_sweep", "bench", [_p2l(s(450), 4)]
    yield "band", "bench", [_band(s(3004), s(300))]
    yield "cif", "bench", [_cif(s(800), s(1000, 1))]
    yield "ldp", "bench", [_ldp(s(200), 4)]


def rows(scale: float, repeats: int):
    """(loop, row, sites per level, levels, microseconds per level)."""
    table = list(_cases(scale))
    calls = [call for _, _, cases in table for call, _, _ in cases]
    best = [float("inf")] * len(calls)
    for call in calls:
        call()  # warm up
    for _ in range(repeats):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - t0)
    times = iter(best)
    for loop, row, cases in table:
        if len(cases) == 1:
            (_, levels, sites), seconds = cases[0], next(times)
        else:  # the levels between the two sizes
            (_, l1, s1), (_, l2, s2) = cases
            t1, t2 = next(times), next(times)
            levels, sites, seconds = l2 - l1, (s2 * l2 - s1 * l1) / (l2 - l1), t2 - t1
        yield loop, row, sites, levels, 1e6 * seconds / levels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every size (default 1)")
    parser.add_argument("--repeats", type=int, default=7, help="rounds, each timing every call once (default 7)")
    args = parser.parse_args(argv)
    if not (args.scale > 0 and args.repeats >= 1):
        parser.error("--scale must be positive and --repeats at least 1")
    print("loop\trow\tsites_per_level\tlevels\tus_per_level", flush=True)
    for loop, row, sites, levels, us in rows(args.scale, args.repeats):
        print(f"{loop}\t{row}\t{sites:.1f}\t{levels}\t{us:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
