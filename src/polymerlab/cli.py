"""Configuration-driven experiment runner.

Configs are flat key/value text files (``key = value``, ``#`` comments).
Every experiment is deterministic given its config: environments come from
counter-based seeds, samplers from explicit generator seeds, and CSV output
uses 17-significant-digit floats, so reruns are byte-identical.

Commands:
    polymerlab run <config> [--out DIR] [--beta inf]
    polymerlab suite <manifest> [--out DIR] [--beta inf]

Exit status 0 means every asserted invariant of the experiment passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import cif as cif_mod
from . import cocycle as coc
from . import coupling as cpl
from . import gibbs as gb
from .csvio import format_value, write_columns, write_csv
from .env import Site, WeightSpec, Window, _wrapped_seed, generate_field
from .errors import ConfigError, ParameterError, PolymerlabError
from .fixtures import hand_grid_field
from .partition import comparison_check

__all__ = ["ExperimentConfig", "Check", "Report", "load_config", "run", "suite", "main"]

KINDS = (
    "shape",
    "busemann",
    "monotonicity",
    "cesaro",
    "dlr",
    "ldp",
    "decay",
    "coalescence",
    "junctions",
    "interface",
    "cdf",
    "scan",
)


def _parse_floatlist(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.replace(",", " ").split())


def _parse_intlist(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(",", " ").split())


@dataclass(frozen=True)
class _In:
    """The closed interval [lo, hi] of accepted numbers; `text` names it in
    refusals.  NaN lies in no interval."""

    lo: float
    hi: float
    text: str

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def _at_least(lo: int) -> _In:
    return _In(lo, math.inf, f"at least {lo}")


# counts and sizes below 1 give a degenerate run
_COUNT = _at_least(1)
# the smallest positive double, so `x in _In(_TINY, ...)` means x > 0
_TINY = math.ulp(0.0)
# a standard error needs two samples; below that a check reads NaN or 0
_SAMPLE = _at_least(2)
_PROBABILITY = _In(0.0, 1.0, "between 0 and 1")
# a non-finite tilt makes the band rule's p NaN, which steps every walker
# along e2, so every pair "meets"
_FINITE = _In(-sys.float_info.max, sys.float_info.max, "finite")
# the dual tilt's shape estimate differences the directions t +- 0.05 and
# t +- 0.1 (_FIXED's shape_step), which must lie in (0, 1)
_DUAL_T = _In(math.nextafter(0.1, 1.0), math.nextafter(0.9, 0.0), "strictly between 0.1 and 0.9")
# the shape kind's directions must be interior
_INTERIOR = _In(_TINY, math.nextafter(1.0, 0.0), "strictly between 0 and 1")

# each weight distribution -> the config fields of its parameters, in order
_WEIGHT_FIELDS = {
    "gaussian": ("mean", "sd"),
    "inverse_log_gamma": ("shape_param",),
    "uniform": ("a", "b"),
    "constant": ("value",),
}

# field name -> (parser, default, accepted).  `accepted` is None, the tuple
# of allowed strings, or an _In that a number, and every entry of a list
# (which must not be empty, unless its default is: n_list), lies in.  A
# list must be strictly increasing.
_COMMON = {
    "kind": (str, None, None),  # required; _config checks it first
    "weights": (str, "gaussian", tuple(_WEIGHT_FIELDS)),
    "mean": (float, 0.0, None),
    "sd": (float, 1.0, None),
    "shape_param": (float, 1.0, None),
    "a": (float, 0.0, None),
    "b": (float, 1.0, None),
    "value": (float, 0.0, None),
    "beta": (float, 1.0, _In(_TINY, math.inf, "positive or inf")),
    "seed_weights": (int, 1, None),
    "seed_coupling": (int, 2, None),
    "seed_sampler": (int, 3, None),
    "out": (str, "", None),
}

_SCHEMAS: dict[str, dict] = {
    "shape": {
        "t_grid": (_parse_floatlist, (0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75), _INTERIOR),
        "n": (int, 1000, _COUNT),
        # () means n alone
        "n_list": (_parse_intlist, (), _COUNT),
        # _config asks for 2 (a standard error) unless weights = constant
        "replicas": (int, 20, _COUNT),
    },
    "busemann": {
        "construction": (str, "p2l", ("p2l", "p2p")),
        "h1": (float, 0.0, _FINITE),
        "h2": (float, 0.0, _FINITE),
        # the p2p target (width + horizon, height + horizon) dominates the window
        "horizon": (int, 200, _at_least(0)),
        "width": (int, 40, _at_least(2)),
        "height": (int, 40, _at_least(2)),
        "staircases": (int, 100, _COUNT),
    },
    "monotonicity": {
        "width": (int, 30, _COUNT),
        "height": (int, 30, _COUNT),
        "horizon": (int, 80, None),
        "pairs": (int, 100, _COUNT),
        "triples": (int, 500, _COUNT),
    },
    "cesaro": {
        "t": (float, 0.5, _DUAL_T),
        # the Cesaro field lives on the 8x8 window, whose corner is at level 14
        "n": (int, 400, _at_least(15)),
        "samples": (int, 200, _SAMPLE),
        "shape_n": (int, 800, _COUNT),
        "shape_replicas": (int, 12, _SAMPLE),
    },
    "dlr": {
        "fixture": (str, "", ("", "hand2x2")),
        "windows": (int, 20, _COUNT),
        # every path of `levels` steps is enumerated; dlr_consistency_check stops at 20
        "levels": (int, 10, _In(1, 20, "between 1 and 20")),
    },
    "ldp": {
        # past _LDP_MAX_N one replica overruns the sweep's memory budget
        "n": (int, 500, _In(1, gb._LDP_MAX_N, f"between 1 and {gb._LDP_MAX_N}")),
        "replicas": (int, 10, _SAMPLE),
        "t": (float, 0.5, _DUAL_T),
        "shape_n": (int, 2000, _COUNT),
        "shape_replicas": (int, 12, _SAMPLE),
    },
    "decay": {
        "rule": (str, "half", ("half", "busemann")),
        "levels": (_parse_intlist, (8, 16, 32, 64), _at_least(0)),
        "seeds": (int, 10, _COUNT),
        "h1": (float, -0.7, _FINITE),
        "h2": (float, -0.7, _FINITE),
    },
    "coalescence": {
        "rule": (str, "half", ("half", "busemann")),
        "horizon": (int, 10000, _COUNT),
        "seeds": (int, 1000, _COUNT),
        # gap 0 starts both walkers on one site, a threshold <= 0 passes any
        # fraction: either way the check passes by construction
        "gap": (int, 2, _COUNT),
        "threshold": (float, 0.99, _In(_TINY, 1.0, "greater than 0 and at most 1")),
        "h1": (float, -0.7, _FINITE),
        "h2": (float, -0.7, _FINITE),
        # the band rule's half width; below 2 `band_transition_rule` refuses it
        "half_width": (int, 1200, _at_least(2)),
    },
    "junctions": {
        "p": (float, 0.5, _PROBABILITY),
        "boxes": (_parse_intlist, (16, 32, 64), _COUNT),
        "replicas": (int, 20, _COUNT),
    },
    "interface": {
        "steps": (int, 2000, _COUNT),
        "replicas": (int, 1000, _COUNT),
    },
    "cdf": {
        "grid_points": (int, 21, _at_least(2)),
        "grid_lo": (float, 0.05, _PROBABILITY),
        "grid_hi": (float, 0.95, _PROBABILITY),
        "replicas": (int, 1000, _COUNT),
        # the Busemann side probes targets at this horizon
        "steps": (int, 2000, _at_least(2)),
    },
    "scan": {
        "t_points": (int, 41, _COUNT),
        # a smaller radius gives a backwards or one-point direction grid
        "radius": (int, 200, _at_least(5)),
    },
}


# The fixed tolerances and sizes of each kind's checks.  They are not
# config fields, so no config can loosen a check until it passes; a config
# that sets one is refused, and a parsed config reads them as attributes
# like its fields.
_FIXED: dict[str, dict[str, float]] = {
    "shape": {"entropy_tol": 0.01},
    "busemann": {"recovery_tol": 1e-9, "closure_tol": 1e-9, "path_tol": 1e-8},
    "monotonicity": {"tilt_scale": 0.5, "triple_size": 30},
    "cesaro": {"shape_step": 0.05},
    "dlr": {"tol": 1e-10},
    "ldp": {"identity_tol": 1e-10, "shape_step": 0.05},
    "interface": {"interior_eps": 0.001, "interior_min": 0.97},
    "cdf": {"tail_eps": 0.02},
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    values: dict

    def __getattr__(self, name):
        # copy and pickle look up dunders on an instance made without
        # `values`; reading self.values there would recurse
        if name.startswith("__") or "values" not in vars(self):
            raise AttributeError(name)
        try:
            return self.values[name] if name in self.values else _FIXED[self.kind][name]
        except KeyError as exc:
            raise AttributeError(name) from exc

    def weight_spec(self) -> WeightSpec:
        w = self.values["weights"]
        return WeightSpec(w, tuple(self.values[k] for k in _WEIGHT_FIELDS[w]))


# kinds whose runners need a finite beta: no zero-temperature version exists
_FINITE_BETA_KINDS = ("dlr", "ldp", "interface", "cdf")


def parse_config(text: str) -> ExperimentConfig:
    return _config(_fields(text))


def _fields(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty field name")
        if key in raw:
            raise ConfigError(f"field {key!r}: duplicated")
        raw[key] = val
    return raw


def _config(raw: dict[str, str]) -> ExperimentConfig:
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("field 'kind': missing")
    if kind not in KINDS:
        raise ConfigError(f"field 'kind': unknown experiment {kind!r}")
    schema = dict(_COMMON)
    schema.update(_SCHEMAS[kind])
    values: dict = {}
    for key, sval in raw.items():
        if key not in schema:
            fixed = _FIXED.get(kind, {})
            how = f"fixed at {fixed[key]!r}" if key in fixed else "not recognized"
            raise ConfigError(f"field {key!r}: {how} for kind {kind!r}")
        parser = schema[key][0]
        try:
            values[key] = parser(sval)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: cannot parse {sval!r}") from exc
    for key, (_, default, accepted) in schema.items():
        values.setdefault(key, default)
        if accepted is not None and not (default == () == values[key]):
            _refuse_outside(key, values[key], accepted)
        if isinstance(values[key], tuple) and not all(a < b for a, b in zip(values[key], values[key][1:])):
            raise ConfigError(f"field {key!r}: must be strictly increasing")
    if math.isinf(values["beta"]) and (kind in _FINITE_BETA_KINDS or values.get("rule") == "busemann"):
        raise ConfigError(f"field 'beta': kind {kind!r} is defined for finite beta only")
    if kind == "monotonicity" or values.get("construction") == "p2l":
        # every window site lies below the horizon
        _refuse_outside("horizon", values["horizon"], _at_least(values["width"] + values["height"] - 1))
    if kind == "shape" and values["weights"] != "constant":
        _refuse_outside("replicas", values["replicas"], _SAMPLE)
    if kind == "cdf" and not values["grid_lo"] < values["grid_hi"]:
        raise ConfigError("field 'grid_hi': must be greater than grid_lo")
    cfg = ExperimentConfig(kind, values)
    try:
        cfg.weight_spec()
    except ParameterError as exc:
        names = ", ".join(map(repr, _WEIGHT_FIELDS[values["weights"]]))
        raise ConfigError(f"field {names}: {exc}") from exc
    return cfg


def _refuse_outside(key: str, value, accepted) -> None:
    values = value if isinstance(value, tuple) else (value,)
    if not values or any(v not in accepted for v in values):
        text = accepted.text if isinstance(accepted, _In) else f"one of {', '.join(map(repr, accepted))}"
        raise ConfigError(f"field {key!r}: must be {text}")


def load_config(path) -> ExperimentConfig:
    return _load(path, None)


def _load(path, beta: str | None) -> ExperimentConfig:
    """Read a config file; a --beta value replaces its beta field before the
    fields are parsed and checked."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = _fields(fh.read())
    if beta is not None:
        raw["beta"] = beta
    return _config(raw)


@dataclass(frozen=True)
class Check:
    """One asserted invariant; a NaN or infinite value never passes."""

    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value):
            object.__setattr__(self, "passed", False)


@dataclass
class Report:
    kind: str
    config: dict
    checks: list[Check] = dc_field(default_factory=list)
    artifacts: list[str] = dc_field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "passed": self.passed,
                "config": {k: format_value(v) if isinstance(v, float) else v for k, v in self.config.items()},
                "checks": [
                    {
                        "name": c.name,
                        "value": format_value(c.value),
                        "tolerance": format_value(c.tolerance),
                        "passed": c.passed,
                        "note": c.note,
                    }
                    for c in self.checks
                ],
                "artifacts": self.artifacts,
                "seconds": round(self.seconds, 3),
            },
            indent=2,
            sort_keys=True,
        )


def _leq(name: str, value: float, tol: float, note: str = "") -> Check:
    return Check(name, float(value), float(tol), bool(value <= tol), note)


def _eq0(name: str, value: float, note: str = "") -> Check:
    return Check(name, float(value), 0.0, bool(value == 0), note)


def _flag(name: str, ok: bool, note: str = "") -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0, bool(ok), note)


# ---------------------------------------------------------------------------
# experiment bodies: (cfg, outdir, checks, artifacts) -> None; each appends
# its Checks to `checks` and the paths of its CSVs to `artifacts`
# ---------------------------------------------------------------------------


def _run_shape(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    n_list = cfg.n_list if cfg.n_list else (cfg.n,)
    if max(n_list) != cfg.n:
        n_list = tuple(sorted(set(n_list) | {cfg.n}))
    est = coc.estimate_shape(
        spec, cfg.beta, cfg.t_grid, n_list, cfg.replicas, cfg.seed_weights
    )
    artifacts.append(est.to_csv(os.path.join(outdir, "shape.csv")))
    if spec.distribution == "constant":
        for t in cfg.t_grid:
            lam, _ = est.at(t)
            ent = -t * math.log(t) - (1 - t) * math.log(1 - t)
            ref = spec.params[0] + ent / cfg.beta
            checks.append(
                _leq(f"entropy_reference_t={t:g}", abs(lam - ref), cfg.entropy_tol)
            )
        return
    for t in cfg.t_grid:
        t2 = 1.0 - t
        if t2 <= t + 1e-12:
            continue
        if not any(abs(t2 - s) < 1e-9 for s in cfg.t_grid):
            continue
        diff, se = est.paired_difference(t, t2)
        checks.append(
            _leq(f"symmetry_t={t:g}", abs(diff), 2 * se + 1e-15, note=f"se={se:.3g}")
        )
    lam = est.lambda_hat[:, -1]
    se = est.se[:, -1]
    for i in range(1, len(cfg.t_grid) - 1):
        second = lam[i - 1] - 2 * lam[i] + lam[i + 1]
        combined = math.sqrt(se[i - 1] ** 2 + 4 * se[i] ** 2 + se[i + 1] ** 2)
        checks.append(
            _leq(f"concavity_t={cfg.t_grid[i]:g}", second, 2 * combined, note=f"se={combined:.3g}")
        )


def _run_busemann(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
    window = Window(Site(0, 0), cfg.width, cfg.height)
    if cfg.construction == "p2l":
        bf = coc.busemann_from_p2l(field, cfg.beta, (cfg.h1, cfg.h2), cfg.horizon, window)
    else:
        target = Site(cfg.width + cfg.horizon, cfg.height + cfg.horizon)
        bf = coc.busemann_from_p2p(field, cfg.beta, target, window)
    artifacts.append(bf.to_csv(os.path.join(outdir, "busemann.csv")))
    checks.append(_leq("recovery_residual", bf.recovery_residual(), cfg.recovery_tol))
    checks.append(_leq("closure_residual", bf.closure_residual(), cfg.closure_tol))
    rng = np.random.default_rng(_wrapped_seed(cfg.seed_sampler))
    # staircase s takes the steps e1[s, : tu + tv] (1 for e1) from the
    # origin to ends[s] = (tu, tv); the zeros after them are not read
    e1 = np.zeros((cfg.staircases, cfg.width + cfg.height - 2), dtype=np.int64)
    ends = np.empty((cfg.staircases, 2), dtype=np.int64)
    for s in range(cfg.staircases):
        tu = int(rng.integers(1, cfg.width))
        tv = int(rng.integers(1, cfg.height))
        e1[s, :tu] = 1
        rng.shuffle(e1[s, : tu + tv])
        ends[s] = tu, tv
    sites = np.zeros((cfg.staircases, e1.shape[1] + 1, 2), dtype=np.int64)
    np.cumsum(np.stack([e1, 1 - e1], axis=-1), axis=1, out=sites[:, 1:])
    gaps = np.abs(bf.staircase_sums(sites, ends.sum(axis=1)) - bf.integrated()[ends[:, 0], ends[:, 1]])
    # np.max keeps a NaN gap, which then fails the check
    checks.append(_leq("staircase_independence", np.max(gaps), cfg.path_tol))


def _run_monotonicity(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
    window = Window(Site(0, 0), cfg.width, cfg.height)
    rng = np.random.default_rng(_wrapped_seed(cfg.seed_sampler))
    tilts = []
    for _ in range(cfg.pairs):
        d1 = float(rng.uniform(0, cfg.tilt_scale))
        d2 = float(rng.uniform(0, cfg.tilt_scale))
        h = (float(rng.normal(0, cfg.tilt_scale)), float(rng.normal(0, cfg.tilt_scale)))
        tilts += [h, (h[0] + d1, h[1] - d2)]
    # one sweep per group of tilts; zip pairs the iterator's consecutive
    # fields (h, h'), so only the current group is held
    fields = coc.busemann_fields_from_p2l(field, cfg.beta, tilts, cfg.horizon, window)
    violations = 0
    rows = []
    for k, (fa, fb) in enumerate(zip(fields, fields)):
        rep = coc.check_monotonicity(fa, fb)
        violations += rep.violations
        rows.append((k, *fa.provenance.h, *fb.provenance.h, rep.violations, rep.worst_margin))
    artifacts.append(
        write_csv(
            os.path.join(outdir, "monotonicity.csv"),
            ("pair", "h1", "h2", "hp1", "hp2", "violations", "worst_margin"),
            rows,
        )
    )
    checks.append(_eq0("tilt_monotonicity_violations", violations))
    L = cfg.triple_size
    triples = []
    for _ in range(cfg.triples):
        x = Site(int(rng.integers(0, L // 3)), int(rng.integers(0, L // 3)))
        u = Site(int(rng.integers(x.u + 1, L)), int(rng.integers(x.v + 1, L)))
        v = Site(int(rng.integers(x.u + 1, u.u + 1)), int(rng.integers(u.v, L)))
        triples.append((x, u, v))
    rep = comparison_check(field, *map(list, zip(*triples)), cfg.beta)
    comp_bad = int(np.sum(~rep.ok))
    margins = {"triple": np.arange(cfg.triples), "margin_e1": rep.margin_e1, "margin_e2": rep.margin_e2}
    artifacts.append(write_columns(os.path.join(outdir, "comparison.csv"), margins))
    checks.append(_eq0("comparison_violations", comp_bad))


def _dual_tilt_for(cfg: ExperimentConfig, spec, t: float):
    step = cfg.shape_step
    grid = (t - 2 * step, t - step, t, t + step, t + 2 * step)
    est = coc.estimate_shape(
        spec, cfg.beta, grid, [cfg.shape_n], cfg.shape_replicas, cfg.seed_weights + 101
    )
    return coc.dual_tilt(est, t), est


def _run_cesaro(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    if spec.distribution == "constant":
        # the zero-free-energy tilt of the constant model, in closed form
        c = spec.params[0]
        h = (-c - math.log(2.0) / cfg.beta, -c - math.log(2.0) / cfg.beta)
    else:
        dt, _ = _dual_tilt_for(cfg, spec, cfg.t)
        h = dt.h
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 8, 8))
    bf, rep = coc.cesaro_busemann(
        field, cfg.beta, h, cfg.n, cfg.samples, cfg.seed_sampler
    )
    artifacts.append(bf.to_csv(os.path.join(outdir, "cesaro_field.csv")))
    artifacts.append(
        write_csv(
            os.path.join(outdir, "cesaro_mean.csv"),
            ("component", "mean", "target", "se"),
            [
                ("e1", rep.mean_b1, rep.target[0], rep.se_b1),
                ("e2", rep.mean_b2, rep.target[1], rep.se_b2),
            ],
        )
    )
    checks.append(
        _leq("cesaro_mean_e1", abs(rep.mean_b1 - rep.target[0]), 3 * rep.se_b1, note=f"fpl={rep.fpl_mean:.4f}")
    )
    checks.append(
        _leq("cesaro_mean_e2", abs(rep.mean_b2 - rep.target[1]), 3 * rep.se_b2)
    )


def _run_dlr(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    rows = []
    if cfg.fixture:  # hand2x2, the only fixture
        field = hand_grid_field(pad_to=6)
        bf = coc.busemann_from_p2p(field, cfg.beta, Site(3, 3), Window(Site(0, 0), 2, 2))
        rep = gb.dlr_consistency_check(bf, field, Site(0, 0), 2)
        rows.append(("hand2x2", rep.paths_checked, rep.max_discrepancy))
        checks.append(_leq("dlr_fixture", rep.max_discrepancy, 1e-12))
    spec = cfg.weight_spec()
    seeds = [cfg.seed_weights + k for k in range(cfg.windows)]
    fields = [generate_field(spec, seed, Window(Site(0, 0), 1, 1)) for seed in seeds]
    side = cfg.levels + 1
    reports = gb.dlr_window_reports(
        fields, cfg.beta, (0.0, 0.0), 3 * cfg.levels + 4, Window(Site(0, 0), side, side), Site(0, 0), cfg.levels
    )
    worst = 0.0
    for seed, rep in zip(seeds, reports):
        worst = np.maximum(worst, rep.max_discrepancy)  # keeps a NaN
        rows.append((f"seed{seed}", rep.paths_checked, rep.max_discrepancy))
    artifacts.append(
        write_csv(
            os.path.join(outdir, "dlr.csv"), ("case", "paths", "max_discrepancy"), rows
        )
    )
    checks.append(_leq("dlr_max_discrepancy", worst, cfg.tol))


def _run_ldp(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    dt, est = _dual_tilt_for(cfg, spec, cfg.t)
    prof = gb.ldp_rate_profile(
        spec, cfg.beta, dt.h, cfg.n, cfg.replicas, cfg.seed_weights + 7, shape=est
    )
    artifacts.append(prof.to_csv(os.path.join(outdir, "ldp_rate.csv")))
    checks.append(_leq("rate_flow_identity", prof.identity_residual, cfg.identity_tol))
    lower = prof.rate + 2 * prof.rate_se
    checks.append(
        _flag(
            "rate_nonnegative_2se",
            bool(np.all(lower >= -1e-12)),
            note=f"min(rate+2se)={float(lower.min()):.3g}",
        )
    )
    i = int(np.argmin(np.abs(prof.zeta1 - cfg.t)))
    gap = abs(float(prof.gap[i]))
    # the dual-tilt estimate enters the gap linearly; fold its SE in
    tilt_se = dt.h_se[0] * cfg.t + dt.h_se[1] * (1 - cfg.t)
    tol = 2 * (float(prof.gap_se[i]) + tilt_se)
    checks.append(_leq("rate_zero_at_dual", gap, tol, note=f"zeta={prof.zeta1[i]:.3f}"))


def _run_decay(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    n_max = max(cfg.levels)
    rows = []
    all_decreasing = True
    binom_worst = 0.0
    for k in range(cfg.seeds):
        target = Site(n_max, n_max)
        window = Window(Site(0, 0), n_max + 1, n_max + 1)
        if cfg.rule == "half":
            p1 = np.full((window.width, window.height), 0.5)
            trans = gb.TransitionField(window, p1, "busemann", 1, cfg.beta)
        else:
            field = generate_field(spec, cfg.seed_weights + k, Window(Site(0, 0), 1, 1))
            bf = coc.busemann_from_p2l(
                field, cfg.beta, (cfg.h1, cfg.h2), 3 * n_max + 4, window
            )
            trans = gb.busemann_transitions(bf, field)
        prof = gb.rooted_mass_decay(trans, target, cfg.levels)
        all_decreasing &= prof.strictly_decreasing
        for n, mh in zip(prof.levels, prof.max_hit):
            rows.append((k, n, mh))
            if cfg.rule == "half":
                binom_worst = np.maximum(binom_worst, abs(mh - math.comb(n, n // 2) / 2.0**n))
        if cfg.rule == "half":
            break  # deterministic; one pass suffices
    artifacts.append(
        write_csv(os.path.join(outdir, "decay.csv"), ("seed", "n", "max_hit"), rows)
    )
    checks.append(_flag("profile_strictly_decreasing", all_decreasing))
    if cfg.rule == "half":
        checks.append(_leq("binomial_match", binom_worst, 1e-12))


def _run_coalescence(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    if cfg.rule == "half":
        rule = cpl.constant_rule(0.5)
    else:
        field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
        rule = cpl.band_transition_rule(
            field, cfg.beta, (cfg.h1, cfg.h2), cfg.horizon + cfg.gap + 2, cfg.half_width
        )
    seeds = [cfg.seed_coupling + k for k in range(cfg.seeds)]
    stats = cpl.coalescence_experiment(
        rule, Site(0, 0), Site(0, cfg.gap), cfg.horizon, seeds
    )
    artifacts.append(stats.to_csv(os.path.join(outdir, "coalescence.csv")))
    checks.append(
        Check(
            "coalesced_fraction",
            stats.fraction,
            cfg.threshold,
            stats.fraction >= cfg.threshold,
            note=f"censored={stats.censored}/{stats.pairs}",
        )
    )
    checks.append(
        _eq0(
            "post_merge_violations",
            stats.post_merge_violations,
            note="pairs split on the step out of their meeting site",
        )
    )


def _run_junctions(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    rule = cpl.constant_rule(cfg.p)
    rows = []
    densities = []
    identity_ok = True
    for L in cfg.boxes:
        ds = []
        for r in range(cfg.replicas):
            rep = cpl.junction_statistics(rule, L, cpl.CouplingField(cfg.seed_coupling + r))
            ds.append(rep.density)
            identity_ok &= rep.forest_identity_ok
        densities.append(float(np.mean(ds)))
        rows.append((L, densities[-1]))
    artifacts.append(write_csv(os.path.join(outdir, "junctions.csv"), ("L", "density"), rows))
    checks.append(_flag("forest_identity", identity_ok))
    decreasing = all(densities[i + 1] < densities[i] for i in range(len(densities) - 1))
    checks.append(
        _flag("density_decreasing", decreasing, note=" ".join(f"{d:.4f}" for d in densities))
    )


def _run_interface(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
    stats = cif_mod.cif_direction_stats(
        field, cfg.beta, cfg.replicas, cfg.steps, cfg.seed_coupling
    )
    artifacts.append(stats.to_csv(os.path.join(outdir, "interface_directions.csv")))
    # boundary-exact directions have vanishing but positive finite-length
    # mass (2/(steps+1) already for the constant model), so the directedness
    # proxy is a threshold, not an all-replicas assertion
    frac = stats.interior_fraction(cfg.interior_eps)
    checks.append(
        Check(
            "directions_interior",
            frac,
            cfg.interior_min,
            frac >= cfg.interior_min,
            note=f"atom_share={stats.atom_share():.3f}",
        )
    )
    if spec.distribution == "constant":
        half_cdf = float(stats.empirical_cdf([0.5])[0])
        tol = 3.0 / (2.0 * math.sqrt(cfg.replicas))
        checks.append(_leq("median_half", abs(half_cdf - 0.5), tol))


def _run_cdf(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
    grid = np.linspace(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    cmp_ = cif_mod.cif_cdf_check(field, cfg.beta, grid, cfg.replicas, cfg.steps, cfg.seed_coupling)
    artifacts.append(cmp_.to_csv(os.path.join(outdir, "cdf_comparison.csv")))
    checks.append(
        _leq(
            "cdf_sup_discrepancy",
            cmp_.sup_discrepancy,
            cmp_.dkw_band,
            note=f"dkw99 at {cfg.replicas} replicas; drift={cmp_.horizon_drift:.4f}",
        )
    )
    checks.append(_flag("cdf_monotone", cmp_.monotone))
    tails = cif_mod._busemann_cdf_values(
        field, cfg.beta, Site(0, 0), np.asarray([cfg.tail_eps, 1 - cfg.tail_eps]), cfg.steps
    )
    checks.append(_leq("cdf_lower_tail", float(tails[0]), 0.5))
    checks.append(
        Check("cdf_upper_tail", float(tails[1]), 0.9, bool(tails[1] >= 0.9))
    )


def _run_scan(cfg: ExperimentConfig, outdir: str, checks: list, artifacts: list):
    spec = cfg.weight_spec()
    field = generate_field(spec, cfg.seed_weights, Window(Site(0, 0), 1, 1))
    lo = max(2.0 / cfg.radius, 0.02)
    grid = np.linspace(lo, 1 - lo, cfg.t_points)
    prof = coc.direction_scan(field, cfg.beta, grid, cfg.radius)
    artifacts.append(prof.to_csv(os.path.join(outdir, "scan.csv")))
    checks.append(_eq0("scan_monotonicity_violations", prof.violations))
    checks.append(Check("largest_jump", prof.max_jump, math.inf, True, "descriptive"))


_RUNNERS = {
    "shape": _run_shape,
    "busemann": _run_busemann,
    "monotonicity": _run_monotonicity,
    "cesaro": _run_cesaro,
    "dlr": _run_dlr,
    "ldp": _run_ldp,
    "decay": _run_decay,
    "coalescence": _run_coalescence,
    "junctions": _run_junctions,
    "interface": _run_interface,
    "cdf": _run_cdf,
    "scan": _run_scan,
}


def run(config: ExperimentConfig, out_dir: str | None = None) -> Report:
    """Execute one experiment; writes CSV artifacts and report.json."""
    outdir = out_dir or config.values.get("out") or f"out_{config.kind}"
    os.makedirs(outdir, exist_ok=True)
    report = Report(kind=config.kind, config=dict(config.values))
    t0 = time.perf_counter()
    _RUNNERS[config.kind](config, outdir, report.checks, report.artifacts)
    report.seconds = time.perf_counter() - t0
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    return report


def suite(configs, out_dir: str | None = None) -> tuple[bool, list[Report]]:
    """Run a list of configs (paths or ExperimentConfig) and aggregate."""
    reports = []
    for i, item in enumerate(configs):
        cfg = load_config(item) if isinstance(item, (str, os.PathLike)) else item
        sub = os.path.join(out_dir, f"{i:02d}_{cfg.kind}") if out_dir else None
        reports.append(run(cfg, out_dir=sub))
    return all(r.passed for r in reports), reports


def _print_report(report: Report, stream=sys.stdout) -> None:
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        tol = "" if math.isinf(c.tolerance) else f" tol={format_value(c.tolerance)}"
        note = f" ({c.note})" if c.note else ""
        print(
            f"[{status}] {report.kind}.{c.name}: value={format_value(c.value)}{tol}{note}",
            file=stream,
        )
    print(
        f"{report.kind}: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.checks)} checks, {report.seconds:.1f}s)",
        file=stream,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polymerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a manifest (one config path per line)")
    p_suite.add_argument("manifest")
    for p in (p_run, p_suite):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--beta", default=None, help="override the config beta (accepts 'inf')"
        )
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args.config, args.beta)
            report = run(cfg, out_dir=args.out)
            _print_report(report)
            return 0 if report.passed else 1
        with open(args.manifest, "r", encoding="utf-8") as fh:
            paths = [
                line.strip()
                for line in fh
                if line.strip() and not line.strip().startswith("#")
            ]
        base = os.path.dirname(os.path.abspath(args.manifest))
        paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in paths]
        configs = [_load(p, args.beta) for p in paths]
        ok, reports = suite(configs, out_dir=args.out)
        for r in reports:
            _print_report(r)
        print(f"suite: {'PASS' if ok else 'FAIL'} ({len(reports)} experiments)")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolymerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
