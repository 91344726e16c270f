"""Lattice geometry and reproducible i.i.d. random fields.

Sites live on Z^2, admissible steps are e1 = (1, 0) and e2 = (0, 1), and the
level of a site is u + v (its anti-diagonal index).  Per-site randomness is
produced by a keyed counter-based hash of (seed, u, v), so the value at a site
is a pure function of (seed, site, distribution) and does not depend on which
window the field was materialized over.  Overlapping windows therefore agree
site by site, and shifted views are exact.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_columns
from .errors import ParameterError, WindowError

__all__ = [
    "E1",
    "E2",
    "EHAT",
    "Site",
    "Window",
    "WeightSpec",
    "WeightField",
    "FieldBatch",
    "generate_field",
    "shift_view",
]


@dataclass(frozen=True)
class Site:
    """Lattice point of Z^2. Comparison operators implement the coordinatewise
    partial order (x <= y iff both coordinates are <=), not a total order."""

    u: int
    v: int

    def level(self) -> int:
        return self.u + self.v

    def __add__(self, other: "Site") -> "Site":
        return Site(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "Site") -> "Site":
        return Site(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "Site":
        return Site(-self.u, -self.v)

    def __le__(self, other: "Site") -> bool:
        return self.u <= other.u and self.v <= other.v

    def __ge__(self, other: "Site") -> bool:
        return self.u >= other.u and self.v >= other.v

    def __lt__(self, other: "Site") -> bool:
        return self <= other and self != other

    def __gt__(self, other: "Site") -> bool:
        return self >= other and self != other


E1 = Site(1, 0)
E2 = Site(0, 1)
EHAT = Site(1, 1)


def _site_array(sites) -> np.ndarray:
    """A Site, a sequence of Sites or an (n, 2) int array as an (n, 2)
    int64 array of (u, v) rows."""
    if isinstance(sites, Site):
        sites = [sites]
    if not isinstance(sites, np.ndarray):
        sites = np.array([(s.u, s.v) for s in sites], dtype=np.int64).reshape(-1, 2)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ParameterError(f"sites must be a Site, Sites or an (n, 2) array, got shape {sites.shape}")
    return sites.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle of sites: origin + [0, width) x [0, height)."""

    origin: Site
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ParameterError("window dimensions must be >= 1")

    @property
    def corner(self) -> Site:
        """Inclusive upper-right corner."""
        return Site(self.origin.u + self.width - 1, self.origin.v + self.height - 1)

    def contains(self, site: Site) -> bool:
        du = site.u - self.origin.u
        dv = site.v - self.origin.v
        return 0 <= du < self.width and 0 <= dv < self.height

    def contains_window(self, other: "Window") -> bool:
        return self.contains(other.origin) and self.contains(other.corner)

    def index(self, site: Site) -> tuple[int, int]:
        """Array index (du, dv) of a site; raises if outside the window."""
        if not self.contains(site):
            raise WindowError(f"site ({site.u},{site.v}) outside window {self}")
        return site.u - self.origin.u, site.v - self.origin.v

    def shifted(self, z: Site) -> "Window":
        return Window(self.origin + z, self.width, self.height)

    def coord_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute (u, v) coordinate arrays of shape (width, height)."""
        uu = self.origin.u + np.arange(self.width, dtype=np.int64)[:, None]
        vv = self.origin.v + np.arange(self.height, dtype=np.int64)[None, :]
        return np.broadcast_to(uu, (self.width, self.height)), np.broadcast_to(
            vv, (self.width, self.height)
        )


_DISTRIBUTIONS = ("gaussian", "inverse_log_gamma", "uniform", "constant")

# The smallest uniform `site_uniforms` can produce: (0 + 0.5) * 2^-53.
_Q_MIN = 2.0**-54
# scipy.special.ndtri(_Q_MIN), pinned so that checking a gaussian spec needs
# no scipy.
_NDTRI_Q_MIN = -8.292361075813597


@functools.cache
def _special():
    """scipy.special, imported on first use, so that the closed-form
    quantiles and the gaussian spec check load no scipy."""
    from scipy import special

    return special


def _quantile(distribution: str, params: tuple[float, ...], q):
    """Inverse CDF of a distribution at uniforms q, vectorized."""
    if distribution == "gaussian":
        mean, sd = params
        return mean + sd * _special().ndtri(q)
    if distribution == "inverse_log_gamma":
        (shape,) = params
        # -log X is decreasing in X, so feed the uniform straight in:
        # the result is still uniform-distribution-correct by symmetry.
        if shape == 1.0:  # Gamma(1) is Exp(1): gammaincinv(1, q) = -log1p(-q)
            return -np.log(-np.log1p(-q))
        return -np.log(_special().gammaincinv(shape, q))
    if distribution == "uniform":
        a, b = params
        return a + (b - a) * q
    return np.full_like(q, params[0], dtype=np.float64)


@dataclass(frozen=True)
class WeightSpec:
    """Marginal distribution of a single weight.

    Supported: gaussian(mean, sd), inverse_log_gamma(shape) with
    omega = -log(Gamma(shape) variate), uniform(a, b), constant(c).
    """

    distribution: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.distribution not in _DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        p = tuple(float(x) for x in self.params)
        object.__setattr__(self, "params", p)
        if not np.all(np.isfinite(p)):
            raise ParameterError(f"{self.distribution} parameters must be finite")
        if self.distribution == "gaussian":
            if len(p) != 2 or not p[1] > 0:
                raise ParameterError("gaussian requires (mean, sd) with sd > 0")
        elif self.distribution == "inverse_log_gamma":
            if len(p) != 1 or not p[0] > 0:
                raise ParameterError("inverse_log_gamma requires shape > 0")
        elif self.distribution == "uniform":
            if len(p) != 2 or not p[0] < p[1]:
                raise ParameterError("uniform requires (a, b) with a < b")
        elif self.distribution == "constant":
            if len(p) != 1:
                raise ParameterError("constant requires a single value")
        # The quantile is monotone, so the smallest hashed uniform decides
        # whether any site's weight is infinite (an inverse_log_gamma shape
        # below about 0.0503 sends it to +inf).  This reads no site, so it
        # bypasses `quantile`, whose calls count as weight reads.
        with np.errstate(divide="ignore", over="ignore"):
            if self.distribution == "gaussian":
                edge = p[0] + p[1] * _NDTRI_Q_MIN
            else:
                edge = _quantile(self.distribution, p, _Q_MIN)
            if not np.isfinite(edge):
                raise ParameterError(
                    f"{self.distribution} parameters {p} give an infinite weight at the smallest site uniform 2^-54"
                )

    @staticmethod
    def gaussian(mean: float, sd: float) -> "WeightSpec":
        return WeightSpec("gaussian", (mean, sd))

    @staticmethod
    def inverse_log_gamma(shape: float) -> "WeightSpec":
        return WeightSpec("inverse_log_gamma", (shape,))

    @staticmethod
    def uniform(a: float, b: float) -> "WeightSpec":
        return WeightSpec("uniform", (a, b))

    @staticmethod
    def constant(c: float) -> "WeightSpec":
        return WeightSpec("constant", (c,))

    def mean(self) -> float:
        if self.distribution == "gaussian":
            return self.params[0]
        if self.distribution == "inverse_log_gamma":
            return -float(_special().digamma(self.params[0]))
        if self.distribution == "uniform":
            return 0.5 * (self.params[0] + self.params[1])
        return self.params[0]

    def variance(self) -> float:
        if self.distribution == "gaussian":
            return self.params[1] ** 2
        if self.distribution == "inverse_log_gamma":
            return float(_special().polygamma(1, self.params[0]))
        if self.distribution == "uniform":
            return (self.params[1] - self.params[0]) ** 2 / 12.0
        return 0.0

    def quantile(self, q: np.ndarray) -> np.ndarray:
        """Inverse CDF, vectorized; maps per-site uniforms to weights."""
        return _quantile(self.distribution, self.params, q)


# Counter-based per-site hashing. Chained murmur3 finalizers keyed by
# (stream, seed, u, v); each link is a bijection of uint64, so distinct
# inputs cannot collapse structurally.

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

WEIGHT_STREAM = 0x57454947  # namespace tag for weight fields
COUPLING_STREAM = 0x434F5550  # namespace tag for coupling (uniform) fields


def _fmix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _S33)
    z = z * _MIX1
    z = z ^ (z >> _S33)
    z = z * _MIX2
    return z ^ (z >> _S33)


def _absorb(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _fmix64((h ^ x) + _GOLDEN)


def _fmix64_into(h: np.ndarray, t: np.ndarray) -> None:
    """`_fmix64` of h written back into h, with t as scratch: the per-site
    links run in place, while a key (often one numpy scalar, where in-place
    ufunc calls cost more than new scalars) takes `_fmix64`."""
    for mix in (_MIX1, _MIX2):
        h ^= np.right_shift(h, _S33, out=t)
        h *= mix
    h ^= np.right_shift(h, _S33, out=t)


def _as_u64(x) -> np.ndarray | np.uint64:
    if isinstance(x, (int, np.integer)):
        return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)
    return np.asarray(x).astype(np.uint64)


def _seed_array(seeds) -> np.ndarray:
    """Integer seeds modulo 2^64 as one uint64 array, each the value
    `_as_u64` keys on: a negative seed or one at or above 2^64 wraps."""
    return np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def _wrapped_seed(seed) -> int:
    """The seed modulo 2^64, the value the hash keys on, as an int for
    seeding numpy generators: a negative seed names the same streams as its
    wrapped value, and seeds in [0, 2^64) are unchanged."""
    return int(_as_u64(seed))


def _key(seed, stream: int):
    """The hash state after the seed and stream links: a uint64 scalar, or an
    array in the shape of `seed`.  Walkers key their seeds once and finish
    each step's chain with `_uniforms`."""
    with np.errstate(over="ignore"):  # modular uint64 wrap is intended
        h = _fmix64(_as_u64(seed) ^ _GOLDEN)
        return _absorb(h, np.uint64(stream & 0xFFFFFFFFFFFFFFFF))


def _uniforms(key, uu, vv) -> np.ndarray:
    """The chain of `site_uniforms` from a `_key` on: absorbs u and v and
    runs the last finalizer in place, on an owned buffer and a scratch
    array, which the uniforms are finally written into.  The u link runs
    over key x u only, so a column of rows against one row of v pays it once
    per row; the v link widens the buffer to the sites' shape."""
    u64 = np.asarray(uu, dtype=np.int64).view(np.uint64)
    v64 = np.asarray(vv, dtype=np.int64).view(np.uint64)
    h = np.asarray(key ^ u64)
    t = np.empty_like(h)
    h += _GOLDEN
    _fmix64_into(h, t)
    h = np.asarray(h ^ v64)
    if h.shape != t.shape:
        t = np.empty_like(h)
    h += _GOLDEN
    _fmix64_into(h, t)
    _fmix64_into(h, t)
    out = t.view(np.float64)
    np.add(np.right_shift(h, 11, out=h), 0.5, out=out)
    out *= 2.0**-53
    return out if out.ndim else out[()]  # a scalar for 0-d sites, as ufuncs give


def site_uniforms(seed, stream: int, uu, vv) -> np.ndarray:
    """Uniform(0,1) variates attached to sites, as a pure function of
    (seed, stream, u, v): (k + 0.5) * 2^-53 for the top 53 hash bits k.
    Output lies in [2^-54, 1]: it is exactly 1.0 where k = 2^53 - 1, because
    that sum rounds up (probability 2^-53 per site), and strictly below 1
    elsewhere.  `seed` may be a scalar or an array broadcast against the
    coordinates."""
    return _uniforms(_key(seed, stream), uu, vv)


# Weight reads hash whole rows of sites in blocks of at most this many sites
# over all replicas, so the fixed cost of a hash call is shared.
_HASH_BLOCK_SITES = 8192
# The peak bytes of hashing one block: its coordinates, the hash state and
# scratch, and the quantile's temporaries measure up to about 70 bytes per
# site (tracemalloc).  The sweeps' memory budgets set this much aside.
_HASH_BLOCK_BYTES = 80 * _HASH_BLOCK_SITES


def _groups(count: int, per_item: int, budget: int, shared: int):
    """The consecutive slices of `count` items that each hold as many items
    of `per_item` as fit in `budget` beside `shared`, and at least one."""
    size = max(1, (budget - shared) // per_item)
    return (slice(i, min(i + size, count)) for i in range(0, count, size))


def _weights(spec: WeightSpec, seed, uu, vv) -> np.ndarray:
    """The weights of one distribution at sites: the quantiles of their
    hashed uniforms, or the constant of a constant spec in the sites'
    broadcast shape, with nothing hashed."""
    if spec.distribution == "constant":
        return np.full(np.broadcast_shapes(np.shape(seed), np.shape(uu), np.shape(vv)), spec.params[0])
    return spec.quantile(site_uniforms(seed, WEIGHT_STREAM, uu, vv))


def _hashed(window: Window, spec: WeightSpec, seed, shift: Site = Site(0, 0)) -> "WeightField":
    """The environment materialized over a window: its values are written in
    place from `_blocks`, in blocks of whole rows of constant u."""
    field = WeightField(window, spec, seed, np.empty((window.width, window.height)), shift)
    u = window.origin.u + np.arange(window.width)
    for i, vals in _blocks(field, u, window.origin.v, window.height):
        field.values[i : i + len(vals)] = vals
    return field


def _replica_shape(field) -> tuple[int, ...]:
    """The leading replica axes of a field's weights: (R,) for a FieldBatch,
    () for one WeightField."""
    return field.seeds.shape if isinstance(field, FieldBatch) else ()


def _blocks(field, across, start, n: int):
    """Raw weights of a rectangle of rows u = `across`[i], v = start ..
    start + n - 1, in the blocks of whole rows of `_rows`: yields (i,
    weights of rows i, i+1, ... on axis -2).  A block hashes a column of
    the rows' u against one row of v."""
    block = _HASH_BLOCK_SITES // math.prod(_replica_shape(field))
    along = start + np.arange(n)
    across = np.asarray(across)[:, None]
    for s in _groups(len(across), n, block, 0):
        yield s.start, field.values_at(across[s], along)


def _rows(field, u0, v0, lengths, step=(0, 1)):
    """Raw weights of a WeightField or FieldBatch (replica axis in front) on
    rows (u0[r], v0[r]) + j * step, j < lengths[r] (step (0, 1) along u =
    const, (1, -1) or (-1, 1) along a level), one row at a time, hashed in blocks of
    whole rows (at least one): each equals its own `values_at` bit for bit.
    `_blocks` streams a rectangle of rows without ragged coordinates.  A
    hashed constant field yields its rows without building coordinates (an
    explicit grid carries a constant spec only as a placeholder)."""
    u0, v0, lengths = np.broadcast_arrays(u0, v0, lengths)
    batch = isinstance(field, FieldBatch)
    spec = field.fields[0].spec if batch else field.spec if type(field) is WeightField else None
    if spec is not None and spec.distribution == "constant":
        for m in lengths.tolist():
            yield np.full(_replica_shape(field) + (m,), spec.params[0])
        return
    block = _HASH_BLOCK_SITES // math.prod(_replica_shape(field))
    ends = np.cumsum(lengths)
    i = done = 0
    while i < lengths.size:
        j = max(i + 1, int(np.searchsorted(ends, done + block, "right")))
        n = lengths[i:j]
        starts = ends[i:j] - n - done  # of each row within the block
        k = np.arange(ends[j - 1] - done)
        uu, vv = (np.repeat(c[i:j] - d * starts, n) + d * k for c, d in zip((u0, v0), step))
        vals = field.values_at(uu, vv)
        for s, m in zip(starts.tolist(), n.tolist()):
            yield vals[..., s : s + m]
        i, done = j, int(ends[j - 1])


@dataclass(frozen=True, eq=False)
class WeightField:
    """The i.i.d. environment restricted to a window.

    `shift` implements translated views: value(y) = draw(seed, y + shift).
    Instances are immutable and safe to share across workers.
    """

    window: Window
    spec: WeightSpec
    seed: int
    values: np.ndarray = dataclasses.field(repr=False)
    shift: Site = Site(0, 0)

    def value(self, site: Site) -> float:
        du, dv = self.window.index(site)
        return float(self.values[du, dv])

    def values_at(self, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
        """Weights at arbitrary sites, regenerated from the hash (no window
        restriction); agrees exactly with `values` on the window."""
        if self.shift.u or self.shift.v:
            uu, vv = np.asarray(uu) + self.shift.u, np.asarray(vv) + self.shift.v
        return _weights(self.spec, self.seed, uu, vv)

    def covers(self, window: Window) -> bool:
        """Whether `values_at` reaches every site of the window: a hashed
        field regenerates anywhere, an explicit grid only on its window."""
        return True

    def subfield(self, window: Window) -> "WeightField":
        """The same environment materialized over another window."""
        return _hashed(window, self.spec, self.seed, self.shift)

    def to_csv(self, path) -> str:
        uu, vv = self.window.coord_grids()
        return write_columns(path, {"u": uu, "v": vv, "omega": self.values})


@dataclass(frozen=True, eq=False)
class FieldBatch:
    """Hashed, unshifted environments of one distribution on a leading
    replica axis.  `values_at` hashes and transforms the sites of all of
    them in one call; entry r equals fields[r].values_at bit for bit."""

    fields: tuple[WeightField, ...]
    seeds: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        fields = tuple(self.fields)
        if not fields or any(
            type(f) is not WeightField or f.spec != fields[0].spec or f.shift != Site(0, 0)
            for f in fields
        ):
            raise ParameterError("a field batch takes unshifted hashed fields of one distribution")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "seeds", _seed_array(f.seed for f in fields))

    def values_at(self, uu, vv) -> np.ndarray:
        """Weights at the sites in every environment, shape (R,) + sites."""
        seeds = self.seeds.reshape((-1,) + (1,) * max(np.ndim(uu), np.ndim(vv)))
        return _weights(self.fields[0].spec, seeds, uu, vv)


def generate_field(spec: WeightSpec, seed: int, window: Window) -> WeightField:
    """Materialize the environment over a window.

    Regeneration with the same (seed, spec) over any window reproduces
    identical per-site values; overlapping windows agree on the overlap.
    """
    return _hashed(window, spec, seed)


def shift_view(field: WeightField, z: Site) -> WeightField:
    """Translated view: (shift_view(f, z)).value(y) == f.value(y + z).

    Composes as a group action; shifting by z then -z restores the original.
    An explicit grid keeps its values over the shifted window.
    """
    if isinstance(field, _ExplicitField):
        return dataclasses.replace(field, window=field.window.shifted(-z))
    return _hashed(field.window.shifted(-z), field.spec, field.seed, field.shift + z)


class _ExplicitField(WeightField):
    """A field whose weights are a stored grid over its window."""

    def values_at(self, uu, vv):  # type: ignore[override]
        uu = np.asarray(uu, dtype=np.int64)
        vv = np.asarray(vv, dtype=np.int64)
        du = uu - self.window.origin.u
        dv = vv - self.window.origin.v
        if np.any((du < 0) | (du >= self.window.width) | (dv < 0) | (dv >= self.window.height)):
            raise WindowError("explicit field queried outside its window")
        return self.values[du, dv]

    def covers(self, window: Window) -> bool:  # type: ignore[override]
        return self.window.contains_window(window)

    def subfield(self, window):  # type: ignore[override]
        if not self.covers(window):
            raise WindowError("explicit field cannot extend beyond its window")
        du0 = window.origin.u - self.window.origin.u
        dv0 = window.origin.v - self.window.origin.v
        return field_from_values(self.values[du0 : du0 + window.width, dv0 : dv0 + window.height], window)


def field_from_values(values: np.ndarray, window: Window) -> WeightField:
    """Wrap an explicit weight grid (hand examples, fixtures) as a field.

    Such fields do not support regeneration outside their window; `values_at`
    falls back to the stored array.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (window.width, window.height):
        raise ParameterError(
            f"values shape {arr.shape} does not match window {window.width}x{window.height}"
        )
    # constant(0) spec is a placeholder carrying no distribution semantics
    return _ExplicitField(window, WeightSpec.constant(0.0), -1, arr)
