"""The benchmark's tracer patches program functions by name: every name it
lists must exist, uninstalling must put every original back, and artifact
writes stay visible to it."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import polymerlab
import polymerlab.cli  # noqa: F401  (the tracer patches every polymerlab module)
from polymerlab.cocycle import BusemannField, Provenance
from polymerlab.env import Site, Window

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("polymerlab_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores_every_traced_name():
    tracing = _tracing()
    package = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "polymerlab"}
    traced = []  # (module or class, attribute, original)
    for modname, names in tracing.LAYERS.values():
        module = package[f"polymerlab.{modname}"]
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner) if owner else module
            traced.append((holder, attr, vars(holder)[attr]))
    before = {name: dict(vars(m)) for name, m in package.items()}
    tracer = tracing.Tracer()
    tracer.install(polymerlab)
    try:
        for holder, attr, original in traced:
            assert vars(holder)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for holder, attr, original in traced:
        assert vars(holder)[attr] is original, attr
    for name, module in package.items():
        now = vars(module)
        assert now.keys() == before[name].keys(), name
        assert all(now[k] is v for k, v in before[name].items()), name


def test_tracer_counts_the_rows_of_an_artifact(tmp_path):
    W, H = 20, 30
    b = np.arange(W * H, dtype=np.float64).reshape(W, H) / 7
    bf = BusemannField(Window(Site(0, 0), W, H), 1.0, b, -b, Provenance("p2l"))
    tracer = _tracing().Tracer()
    tracer.install(polymerlab)
    tracer.enabled = True
    try:
        bf.to_csv(tmp_path / "busemann.csv")
    finally:
        tracer.uninstall()
    assert tracer.counts["csvio.rows"] == W * H
    assert tracer.self_s["csvio.write_s"] > 0
