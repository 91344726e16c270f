"""Independent reference for the environment, in plain Python.

Re-implements the documented per-site hash chain of ``polymerlab.env``
(murmur3 ``fmix64`` finalizers chained by ``absorb``) with Python integers,
and takes the quantiles from the standard library:

* gaussian(mean, sd):        mean + sd * NormalDist().inv_cdf(q)
* inverse_log_gamma(1):      omega = -log(-log1p(-q))
* constant(c):               c

Nothing here imports polymerlab, so a fault in the program's hashing or
quantile code cannot hide in the reference.  ``python3 bench/refenv.py``
runs the self-test.
"""

from __future__ import annotations

import math
import statistics

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
WEIGHT_STREAM = 0x57454947
COUPLING_STREAM = 0x434F5550

_NORMAL = statistics.NormalDist()


def fmix64(z: int) -> int:
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & MASK
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & MASK
    return z ^ (z >> 33)


def absorb(h: int, x: int) -> int:
    return fmix64(((h ^ x) + GOLDEN) & MASK)


def uniform(seed: int, stream: int, u: int, v: int) -> float:
    """The site uniform in (0, 1) for (seed, stream, u, v)."""
    h = fmix64((seed & MASK) ^ GOLDEN)
    h = absorb(h, stream & MASK)
    h = absorb(h, u & MASK)
    h = absorb(h, v & MASK)
    h = fmix64(h)
    return ((h >> 11) + 0.5) * 2.0**-53


def quantile(distribution: str, params: tuple, q: float) -> float:
    if distribution == "gaussian":
        mean, sd = params
        return mean + sd * _NORMAL.inv_cdf(q)
    if distribution == "inverse_log_gamma":
        if params != (1.0,):
            raise ValueError("the reference covers inverse_log_gamma with shape 1 only")
        return -math.log(-math.log1p(-q))
    if distribution == "constant":
        return params[0]
    raise ValueError(f"no reference for {distribution!r}")


def weight(distribution: str, params: tuple, seed: int, u: int, v: int) -> float:
    return quantile(distribution, params, uniform(seed, WEIGHT_STREAM, u, v))


def theta(seed: int, u: int, v: int) -> float:
    """Coupling uniform at a site."""
    return uniform(seed, COUPLING_STREAM, u, v)


def weight_tolerance(value: float) -> float:
    """Allowed gap between the program's quantile (scipy) and the standard
    library's: both are accurate to a few ulps, so 1e-12 relative is loose
    enough never to flag rounding and tight enough to flag any wrong bit of
    the hash (which moves the uniform by at least 2**-53 and the weight by
    far more than this, away from the extreme tails)."""
    return 1e-12 * max(1.0, abs(value))


# Known answers: fmix64 is the murmur3 finalizer; the site uniforms were
# recorded from the hash chain documented in polymerlab.env.
_FMIX_KNOWN = {0: 0, 1: 0xB456BCFC34C2CB2C}
_UNIFORM_KNOWN = (
    (1, WEIGHT_STREAM, 0, 0, 0.2944077456492707),
    (7, WEIGHT_STREAM, -3, 12, 0.6530662062815897),
    (2**63 + 5, COUPLING_STREAM, 40, -40, 0.8910013229927543),
)


def self_test() -> None:
    """Fast checks of the reference itself (a few milliseconds)."""
    for z, want in _FMIX_KNOWN.items():
        got = fmix64(z)
        if got != want:
            raise AssertionError(f"fmix64({z:#x}) = {got:#x}, expected {want:#x}")
    for seed, stream, u, v, want in _UNIFORM_KNOWN:
        got = uniform(seed, stream, u, v)
        if got != want:
            raise AssertionError(f"uniform({seed}, {stream:#x}, {u}, {v}) = {got!r}, expected {want!r}")
    if abs(quantile("gaussian", (0.0, 1.0), 0.975) - 1.959963984540054) > 1e-12:
        raise AssertionError("gaussian quantile")
    q = 0.3
    if abs(quantile("inverse_log_gamma", (1.0,), q) + math.log(-math.log(1.0 - q))) > 1e-12:
        raise AssertionError("inverse_log_gamma quantile")


if __name__ == "__main__":
    self_test()
    print("refenv self-test passed")
