"""The benchmark's tracer patches program functions by name: every name it
lists must exist, and uninstalling must put every original back."""

import importlib.util
import sys
from pathlib import Path

import polymerlab
import polymerlab.cli  # noqa: F401  (the tracer patches every polymerlab module)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_installs_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("polymerlab_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
