"""Reference-speed probes.

The speed of this kind of code drifts by several percent over a few seconds
on a shared virtual machine, and no hardware counters are available to
count instructions instead.  Each timed operation is therefore divided by a
fixed numpy workload, timed just before and just after it, and reported in
seconds at reference speed:

    scaled = raw * nominal / mean(probe before, probe after)

A probe must drift the way the operation drifts, so there are two kinds:

* ``small``: a loop of ufuncs on 512-element arrays, like the per-step
  walker, chain and small-table code (working set in L1/L2).
* ``stream``: one ``logaddexp.accumulate`` over 2**21 doubles (16 MB in,
  16 MB out), like the large-table sweeps (working set far beyond L2).

Neither imports polymerlab, so no change to the program moves a probe.
The nominal times are constants close to the probe times measured on a
2-vCPU Xeon KVM guest; they only fix the unit.
"""

from __future__ import annotations

import time

import numpy as np

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_S33 = np.uint64(33)
_S11 = np.uint64(11)


class Probe:
    def __init__(self, kind: str):
        self.kind = kind
        if kind == "small":
            self.nominal = 0.0100
            self._x0 = np.arange(512, dtype=np.uint64)
            self._f0 = np.linspace(-1.0, 1.0, 512)
        elif kind == "stream":
            self.nominal = 0.0950
            self._big = np.random.default_rng(0).standard_normal(2 << 20)
        else:
            raise ValueError(f"unknown probe {kind!r}")

    def _small(self) -> None:
        x = self._x0
        f = self._f0
        with np.errstate(over="ignore"):
            for _ in range(300):
                x = x ^ (x >> _S33)
                x = x * _M1
                take = (x >> _S11).astype(np.float64) * 2.0**-53 < 0.5
                f = np.logaddexp(f, take * 0.5) - 0.25
                x = x + take

    def _stream(self) -> None:
        np.logaddexp.accumulate(self._big)

    def time(self) -> float:
        """Seconds taken by one probe run."""
        fn = self._small if self.kind == "small" else self._stream
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
