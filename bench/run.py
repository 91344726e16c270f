"""polymerlab benchmark: one workload (or all) per fresh process.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; polymerlab is imported from ./src, never
from an installed copy.  The run repeats whole rounds of the workload's
operations for --seconds, times each operation between two reference
probes, checks every output outside the timed calls, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (setup_s, verdict_s, peak_rss_mb);
--trace 1 wraps the program's public functions and reports per-layer
metrics instead.  Artifacts, statistical values and spans go to
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7


def _import_program():
    """Import polymerlab from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polymerlab", "__init__.py")):
        raise SystemExit(f"bench: no polymerlab sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import polymerlab

    if os.path.dirname(os.path.dirname(os.path.abspath(polymerlab.__file__))) != src:
        raise SystemExit(f"bench: polymerlab imported from {polymerlab.__file__}, not {src}")
    import polymerlab.cli  # noqa: F401  (the cli glue is part of set-up)

    return polymerlab


def _setup(workload: str, seed: int):
    """Interpreter, imports and input generation: everything before the
    first timed call."""
    pl = _import_program()
    import refenv
    import workloads

    refenv.self_test()
    out_dir = os.path.join(OUT, workload)
    os.makedirs(out_dir, exist_ok=True)
    return pl, workloads.make(pl, workload, seed, out_dir), out_dir


def _measure_setup(workload: str, seed: int, probe) -> tuple[float, float]:
    """Median over SETUP_REPEATS fresh processes of the time from spawn to
    inputs ready, raw and at reference speed.  A single 10 ms probe is too
    noisy to scale one set-up, so the median of all the probes taken
    around the set-ups scales the median set-up."""
    raw, probe_s = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        probe_s.append(probe.time())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        probe_s.append(probe.time())
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up child failed (exit {code})")
        raw.append(t1 - t0)
    setup = statistics.median(raw)
    return setup, setup * probe.nominal / statistics.median(probe_s)


class _Recorder:
    """Records every environment the program builds through generate_field,
    so that sampled sites of each can be checked against refenv."""

    def __init__(self, pl):
        import tracing

        self.fields = []
        self.on = False
        original = pl.env.generate_field

        def recording(*args, **kw):
            field = original(*args, **kw)
            if self.on:
                self.fields.append(field)
            return field

        self._patches = tracing.patch_everywhere(pl, original, recording)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # One CPU for the run, its probes and its set-up children: on the
    # 2-vCPU guest the two CPUs are not equally fast from moment to moment,
    # and a probe only corrects an operation that ran where it ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np

    t_run0 = time.perf_counter()
    pl, ops, out_dir = _setup(workload, seed)
    import checks
    import probes
    import tracing
    import workloads

    probe = probes.Probe(workloads.PROBE[workload])
    setup_raw, setup_scaled = _measure_setup(workload, seed, probe)
    recorder = _Recorder(pl)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install(pl)
    ck = checks.Checker()
    check_rng = np.random.default_rng([seed, 0xC4EC])
    digests: dict[str, bytes] = {}
    per_op_scaled: dict[str, list[float]] = {op.name: [] for op in ops}
    per_op_raw: dict[str, list[float]] = {op.name: [] for op in ops}
    probe_s: list[float] = []
    round_layers = []
    failing: set[str] = set()
    attempted = failed = 0
    rounds = 0
    # --seconds bounds the measured rounds; the first round's checks are
    # not counted, so every run measures about the same number of rounds
    measured = last_round = 0.0
    while rounds == 0 or measured + last_round <= seconds:
        t_round = time.perf_counter()
        check_s = 0.0
        snap0 = tracing.snapshot(tracer) if tracer else None
        for op in ops:
            attempted += 1
            recorder.fields.clear()
            before = probe.time()
            recorder.on = True
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, exc
            t1 = time.perf_counter()
            if tracer:
                tracer.enabled = False
            recorder.on = False
            after = probe.time()
            per_op_raw[op.name].append(t1 - t0)
            probe_s += [before, after]
            per_op_scaled[op.name].append((t1 - t0) * probe.nominal * 2 / (before + after))
            if error is not None:
                failed += 1
                print(f"bench: {workload}.{op.name} raised {error!r}", file=sys.stderr)
                continue
            if rounds == 0:
                t_check = time.perf_counter()
                n_fail = len(ck.op_failures)
                op.check(result, ck, list(recorder.fields), check_rng)
                digests[op.name] = op.digest(result)
                if len(ck.op_failures) > n_fail:
                    failing.add(op.name)
                check_s += time.perf_counter() - t_check
            elif op.digest(result) != digests.get(op.name):
                ck.require(False, f"{op.name}: round {rounds} output differs from round 0")
            failed += op.name in failing
            del result
        rounds += 1
        last_round = time.perf_counter() - t_round - check_s
        measured += last_round
        if tracer:
            delta = {k: v - snap0[k] for k, v in tracing.snapshot(tracer).items()}
            round_layers.append(tracing.layer_metrics(delta, tracer))
    recorder.uninstall()
    if tracer:
        tracer.uninstall()

    # round 0 warms caches and interleaves the checks with the probes, so
    # it is left out of the timings whenever a later round exists
    timed = slice(1 if rounds > 1 else 0, None)
    verdict = sum(statistics.median(v[timed]) for v in per_op_scaled.values())
    verdict_raw = sum(statistics.median(v[timed]) for v in per_op_raw.values())
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "operations": [op.name for op in ops],
        "verdict_raw_s": verdict_raw,
        "setup_raw_s": setup_raw,
        "per_op_scaled_s": {k: statistics.median(v[timed]) for k, v in per_op_scaled.items()},
        "per_round_raw_s": per_op_raw,
        "probe_s": probe_s,
        "errors": ck.errors[:20],
        "op_failures": ck.op_failures,
        "values": ck.values,
    }
    if tracer:
        metrics = {
            k: {"value": statistics.median(r[k] for r in round_layers[timed]), "unit": tracing.unit(k)}
            for k in round_layers[0]
        }
        metrics["trace.verdict_s"] = {"value": verdict, "unit": "s"}
        calls, self_sum = metrics["trace.calls_s"]["value"], metrics["trace.self_sum_s"]["value"]
        info["trace_self_sum_gap_s"] = abs(calls - self_sum)
        ck.require(abs(calls - self_sum) <= 1e-6 * max(calls, 1.0), "trace: self times do not add up")
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
    else:
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "verdict_s": {"value": verdict, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    info["run_wall_s"] = time.perf_counter() - t_run0
    with open(os.path.join(out_dir, f"values_trace{int(traced)}.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    for e in ck.errors[:20]:
        print(f"bench: check failed: {e}", file=sys.stderr)
    return {"correct": not ck.errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    names = ("tables", "replicas", "walkers", "identities")  # workloads.WORKLOADS, before any import
    if args.workload == "all":
        results = {}
        for name in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name] = json.loads(lines[-1])
            print(lines[-1])
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(combined))
        return 0
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
