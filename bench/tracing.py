"""Per-layer tracing from outside the program.

The tracer wraps the public functions (and a few public methods) of each
polymerlab module.  A wrapped function is patched into every module
namespace that holds it, because several modules bind functions at import
(``cocycle``, ``gibbs`` and ``cif`` import ``p2p_table`` by name,
``coupling`` and ``cif`` import ``site_uniforms``, ``cli`` imports
``write_csv``).  Each call records a span (name, start, end, parent) in
memory; a span's self time is its duration minus its child spans, and is
charged to the span's layer metric.  Counts that define the work of a layer
are taken from the call arguments or results, so they cost no extra
program work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# layer metric -> (module, names); methods are "Class.method"
LAYERS = {
    "env.hash_s": ("env", ["site_uniforms"]),
    "env.quantile_s": ("env", ["WeightSpec.quantile"]),
    "env.field_s": (
        "env",
        ["generate_field", "shift_view", "WeightField.values_at", "WeightField.subfield"],
    ),
    "partition.sweep_s": (
        "partition",
        [
            "p2p_table",
            "p2l_table",
            "p2l_rows",
            "enumerate_oracle",
            "beta_limit_check",
            "comparison_check",
            "PartitionTable.recursion_residual",
            "TiltedLineTable.recursion_residual",
        ],
    ),
    "cocycle.field_s": (
        "cocycle",
        [
            "busemann_from_p2l",
            "busemann_from_p2p",
            "check_monotonicity",
            "cocycle_shape_check",
            "direction_scan",
            "BusemannField.recovery_residual",
            "BusemannField.closure_residual",
            "BusemannField.integrated",
            "BusemannField.staircase_sum",
        ],
    ),
    "cocycle.replica_s": (
        "cocycle",
        ["estimate_shape", "cesaro_busemann", "point_to_line_value", "boundary_profile", "dual_tilt"],
    ),
    "gibbs.chain_s": (
        "gibbs",
        [
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
        ],
    ),
    "coupling.walk_s": ("coupling", ["coalescence_experiment", "coupled_walk", "ordering_check"]),
    "coupling.band_s": ("coupling", ["band_transition_rule"]),
    "coupling.junction_s": ("coupling", ["junction_statistics"]),
    "cif.interface_s": (
        "cif",
        [
            "build_tree",
            "competition_interface",
            "interface_direct_sample",
            "cif_direction_stats",
            "cif_cdf_check",
        ],
    ),
    "csvio.write_s": ("csvio", ["write_csv"]),
    "cli.self_s": ("cli", ["run", "suite", "load_config", "parse_config"]),
}

COUNTS = (
    "env.sites_hashed",
    "env.quantile_sites",
    "partition.calls",
    "partition.sites_swept",
    "cocycle.fields",
    "cocycle.replicas",
    "gibbs.flow_sites",
    "coupling.walker_steps",
    "coupling.band_sites",
    "cif.interface_steps",
    "csvio.rows",
)


def _size(*arrays) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(x) for x in arrays))))


def _p2p_count(t, a, _result):
    window, anchor = a["window"], a["anchor"]
    au, av = anchor.u - window.origin.u, anchor.v - window.origin.v
    if a["mode"] == "to_anchor":
        sites = (au + 1) * (av + 1)
    else:
        sites = (window.width - au) * (window.height - av)
    t.sweep(sites, window.width * window.height * 8 / 2**20)


def _p2l_rows_count(t, a, _result):
    K = a["n"] - a["base"].level()
    t.sweep((K + 1) * (K + 2) // 2, min(a["keep_rows"], K + 1) * (K + 1) * 8 / 2**20)


def _coalescence_count(t, a, _result):
    lag = abs(a["start_b"].level() - a["start_a"].level())
    t.add("coupling.walker_steps", len(list(a["theta_seeds"])) * (2 * a["horizon"] + lag))


def _ldp_count(t, a, result):
    t.add("gibbs.flow_sites", a["replicas"] * (a["n"] + 1) * (a["n"] + 2) // 2)
    t.high("gibbs.flow_identity_max", result.identity_residual)


# function -> count(tracer, bound arguments, result)
COUNTERS = {
    "site_uniforms": lambda t, a, r: t.add("env.sites_hashed", _size(a["seed"], a["uu"], a["vv"])),
    "WeightSpec.quantile": lambda t, a, r: t.add("env.quantile_sites", np.size(a["q"])),
    "p2p_table": _p2p_count,
    "p2l_rows": _p2l_rows_count,
    "busemann_from_p2l": lambda t, a, r: t.add("cocycle.fields", 1),
    "busemann_from_p2p": lambda t, a, r: t.add("cocycle.fields", 1),
    "BusemannField.recovery_residual": lambda t, a, r: t.high("cocycle.recovery_residual_max", r),
    "estimate_shape": lambda t, a, r: t.add("cocycle.replicas", a["replicas"]),
    "cesaro_busemann": lambda t, a, r: t.add("cocycle.replicas", a["sample_count"]),
    "point_to_line_value": lambda t, a, r: t.add("cocycle.replicas", a["replicas"]),
    "ldp_rate_profile": _ldp_count,
    "coalescence_experiment": _coalescence_count,
    "band_transition_rule": lambda t, a, r: t.add(
        "coupling.band_sites", (a["horizon"] + 3) * (2 * a["half_width"] + 1)
    ),
    "cif_direction_stats": lambda t, a, r: t.add("cif.interface_steps", a["replicas"] * a["steps"]),
}


def patch_everywhere(package, original, replacement) -> list[tuple[object, str, object]]:
    """Replace `original` by `replacement` in every module of the package
    that holds it; returns the patches for undoing."""
    patches = []
    prefix = package.__name__ + "."
    for modname, module in list(sys.modules.items()):
        if modname != package.__name__ and not modname.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)
    return patches


class Tracer:
    """Spans and counts for one run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s = {metric: 0.0 for metric in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.maxima = {"cocycle.recovery_residual_max": 0.0, "gibbs.flow_identity_max": 0.0}
        self.table_peak_mb = 0.0
        self.root_s = 0.0
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # counts -----------------------------------------------------------------
    def add(self, name: str, n) -> None:
        self.counts[name] += int(n)

    def high(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def sweep(self, sites: int, table_mb: float) -> None:
        self.add("partition.calls", 1)
        self.add("partition.sites_swept", sites)
        self.table_peak_mb = max(self.table_peak_mb, table_mb)

    # wrapping ---------------------------------------------------------------
    def _wrap(self, fn, name: str, metric: str):
        count = COUNTERS.get(name)
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        tracer = self

        if name == "write_csv":

            @functools.wraps(fn)
            def wrapper(path, header, rows):
                def counted(rows=rows):
                    for row in rows:
                        tracer.counts["csvio.rows"] += 1
                        yield row

                return tracer._call(fn, metric, name, (path, header, counted()), {})

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            result = tracer._call(fn, metric, name, args, kw)
            if count is not None and tracer.enabled:
                count(tracer, {**defaults, **dict(zip(names, args)), **kw}, result)
            return result

        return wrapper

    def _call(self, fn, metric, name, args, kw):
        if not self.enabled:  # the benchmark's own checks call the program too
            return fn(*args, **kw)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            self.spans[index] = (name, frame[1], end, parent)
            self.self_s[metric] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                self.root_s += duration

    def install(self, package) -> None:
        for metric, (modname, names) in LAYERS.items():
            module = sys.modules[f"{package.__name__}.{modname}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, name, metric))
                else:
                    original = getattr(module, name)
                    wrapper = self._wrap(original, name, metric)
                    self._patches += patch_everywhere(package, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def snapshot(tracer: Tracer) -> dict:
    """Cumulative values, to be differenced per round."""
    snap = dict(tracer.self_s)
    snap.update({k: float(v) for k, v in tracer.counts.items()})
    snap["trace.calls_s"] = tracer.root_s
    return snap


def layer_metrics(delta: dict, tracer: Tracer) -> dict:
    """Per-layer metrics of one round, from the difference of two snapshots."""

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    m = dict(delta)
    m.update(tracer.maxima)
    m["partition.table_peak_mb"] = tracer.table_peak_mb
    m["env.hash_ns_per_site"] = ns_per(delta["env.hash_s"], delta["env.sites_hashed"])
    m["partition.sweep_ns_per_site"] = ns_per(delta["partition.sweep_s"], delta["partition.sites_swept"])
    m["coupling.walk_ns_per_step"] = ns_per(delta["coupling.walk_s"], delta["coupling.walker_steps"])
    m["trace.self_sum_s"] = sum(delta[k] for k in LAYERS)
    return m


def unit(name: str) -> str:
    if "_ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_max"):
        return "value"
    return "count"
