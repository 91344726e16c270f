"""Compare two `polymerlab suite` output trees, or one tree with pinned digests.

    python scripts/compare_outputs.py A B
    python scripts/compare_outputs.py --digests configs/manifest.sha256 A

Exits 0 when both trees hold the same files, every CSV is byte-identical
and each report.json is equal apart from its `seconds` (artifacts are
compared by file name, since their paths carry the output directory).  Otherwise it
prints what differs and exits 1: files found on one side only, report
fields that differ, and, for each moved CSV, the max absolute and relative
difference of each column, the relative one against the largest magnitude
in the column.  Each column is labelled with the README's rule for moved
CSVs:

- `abs`: a difference of two log Z, held to K * ulp(M) / beta absolutely,
  with M the largest |log Z| and K the number of levels the run sweeps;
- `via b1`: `busemann_cdf`, which may move by busemann_cdf * K * ulp(M);
- `residual`: the residual of an exact identity, held to its check's
  tolerance, 1e-9;
- `rel 1e-12`: every other column, marked `ok` or `FAIL` against 1e-12.

With `--digests FILE` it checks one tree against a digest file instead:
one line per CSV (`<path> sha256 <hex>`) and one per check of each
report.json (`<path> check <name> <passed> <value> <tolerance>`), paths
relative to the tree.  It prints each line found on one side only and
exits 1 when there is any.  `configs/manifest.sha256` pins the outputs
of `polymerlab suite configs/manifest.txt`; a change that moves an output
replaces the lines printed for it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

# (file name, column) -> rule, as the README's CSV section states it
RULES = {
    ("busemann.csv", "b1"): "abs",
    ("busemann.csv", "b2"): "abs",
    ("cesaro_field.csv", "b1"): "abs",
    ("cesaro_field.csv", "b2"): "abs",
    ("cesaro_mean.csv", "mean"): "abs",
    ("scan.csv", "b1"): "abs",
    ("scan.csv", "jump"): "abs",
    ("cdf_comparison.csv", "busemann_cdf"): "via b1",
    ("dlr.csv", "max_discrepancy"): "residual",
}
REL_BOUND = 1e-12


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names
    }


def _read(path: str) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[j] for r in body] for j, name in enumerate(header)}


def _column_diff(a: list[str], b: list[str]) -> tuple[float, float] | None:
    """(max abs difference, max abs difference / largest |value|) of two
    numeric columns, NaN and infinities equal only to themselves; None
    where a cell is not a number."""
    try:
        x, y = [float(v) for v in a], [float(v) for v in b]
    except ValueError:
        return None
    worst = 0.0
    for u, v in zip(x, y):
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        worst = max(worst, abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf)
    scale = max((abs(v) for v in x + y if math.isfinite(v)), default=0.0)
    if scale:
        return worst, worst / scale
    return worst, 0.0 if worst == 0 else math.inf


def compare_csv(rel: str, path_a: str, path_b: str) -> list[str]:
    a, b = _read(path_a), _read(path_b)
    if list(a) != list(b):
        return [f"{rel}: columns differ: {list(a)} against {list(b)}"]
    if len(next(iter(a.values()), [])) != len(next(iter(b.values()), [])):
        return [f"{rel}: row counts differ"]
    lines = [f"{rel}: moved"]
    for name in a:
        if a[name] == b[name]:
            lines.append(f"  {name}: identical")
            continue
        rule = RULES.get((os.path.basename(rel), name), "rel 1e-12")
        diff = _column_diff(a[name], b[name])
        if diff is None:
            cells = sum(u != v for u, v in zip(a[name], b[name]))
            lines.append(f"  {name}: {cells} text cells differ [{rule}]")
            continue
        verdict = (" ok" if diff[1] <= REL_BOUND else " FAIL") if rule == "rel 1e-12" else ""
        lines.append(f"  {name}: max abs {diff[0]:.3g}, max rel {diff[1]:.3g} [{rule}]{verdict}")
    return lines


def compare_reports(rel: str, path_a: str, path_b: str) -> list[str]:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    for r in (a, b):
        r.pop("seconds", None)
        # artifact paths carry the output directory the run was given
        r["artifacts"] = [os.path.basename(p) for p in r.get("artifacts", [])]
    return [f"{rel}: field {k!r} differs" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def compare_trees(root_a: str, root_b: str) -> list[str]:
    """Every difference between the trees, one line each; empty when they
    agree."""
    fa, fb = _files(root_a), _files(root_b)
    lines = [f"only in {root}: {f}" for root, only in ((root_a, fa - fb), (root_b, fb - fa)) for f in sorted(only)]
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(root_a, rel), os.path.join(root_b, rel)
        if os.path.basename(rel) == "report.json":
            lines += compare_reports(rel, pa, pb)
        elif rel.endswith(".csv"):
            with open(pa, "rb") as ha, open(pb, "rb") as hb:
                if ha.read() != hb.read():
                    lines += compare_csv(rel, pa, pb)
    return lines


def digest_lines(root: str) -> list[str]:
    """The digest lines of every CSV and report.json under `root`, by path."""
    lines = []
    for rel in sorted(_files(root)):
        path = os.path.join(root, rel)
        if rel.endswith(".csv"):
            with open(path, "rb") as fh:
                lines.append(f"{rel} sha256 {hashlib.sha256(fh.read()).hexdigest()}")
        elif os.path.basename(rel) == "report.json":
            with open(path, encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
            for c in checks:
                passed = "true" if c["passed"] else "false"
                lines.append(f"{rel} check {c['name']} {passed} {c['value']} {c['tolerance']}")
    return lines


def read_digests(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def compare_digests(pinned: list[str], found: list[str]) -> list[str]:
    """Each line on one side only, pinned side first; empty when they agree."""
    pin, got = set(pinned), set(found)
    return [f"pinned only: {x}" for x in pinned if x not in got] + [
        f"tree only: {x}" for x in found if x not in pin
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first suite output directory")
    parser.add_argument("b", nargs="?", help="second suite output directory")
    parser.add_argument("--digests", metavar="FILE", help="check A against this digest file")
    args = parser.parse_args(argv)
    if (args.b is None) == (args.digests is None):
        parser.error("give two directories, or one with --digests")
    roots = [args.a] if args.digests else [args.a, args.b]
    for root in roots:
        if not os.path.isdir(root):
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    if args.digests:
        lines = compare_digests(read_digests(args.digests), digest_lines(args.a))
        subject = f"{args.a} against {args.digests}"
    else:
        lines = compare_trees(args.a, args.b)
        subject = f"{sum(f.endswith('.csv') for f in _files(args.a))} CSVs under {args.a}"
    for line in lines:
        print(line)
    print(f"{'differ' if lines else 'identical'}: {subject}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
