#!/usr/bin/env python3
"""Diffs two results files of the benchmark suite (run.py --seed N).

    python3 bench/suite/compare.py BASE.json NEW.json

Rules:
  * exact metrics (counts, iterations, modeled seconds) must be equal; any
    difference is a real change in work and is listed as DRIFT;
  * wall metrics compare their reported values (run.py: the lower quartile
    of host seconds, the median otherwise) against the bound of
    BENCHMARK.json: the new value may be worse than the base value by at
    most the bound;
  * a wall metric is "unresolved" when either side's interquartile range
    is wider than the bound, unless every sample of one side beats every
    sample of the other;
  * one row per workload, and every ratio is printed with its base.

Exit status 1 on any regression or drift, 0 otherwise.  Python standard
library only.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(metric, base, new, base_samples, new_samples):
    """(word, ratio) for one wall metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    ratio = new["value"] / base["value"] if base["value"] else float("inf")
    worse = ratio - 1.0 if lower else 1.0 - ratio

    def iqr(s):
        return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0

    def beats(a, b):  # every sample of a better than every sample of b
        return (max(a) < min(b)) if lower else (min(a) > max(b))

    separated = beats(new_samples, base_samples) or \
        beats(base_samples, new_samples)
    if max(iqr(base), iqr(new)) > bound and not separated:
        return "unresolved", ratio
    if worse > bound:
        return "REGRESSION", ratio
    if -worse > bound:
        return "improved", ratio
    return "ok", ratio


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    bad = False
    # Exact end-to-end metrics (iterations) are compared with the others
    # in the exact block below.
    first = next(iter(base["workloads"].values()))["timed"]
    wall = [m for m in spec["end_to_end"]
            if not first.get(m["name"], {}).get("exact")]
    print(f"base {args.base} (seed {base['seed']}) vs new {args.new} "
          f"(seed {new['seed']}); cell = new/base ratio of reported values, "
          "base value, verdict")
    header = f"{'workload':22s}" + "".join(f" {m['name']:>34s}" for m in wall)
    print(header)
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            print(f"{w:22s} missing from {args.new}")
            bad = True
            continue
        cells = []
        for m in wall:
            name = m["name"]
            bs, ns = b["timed"].get(name), n["timed"].get(name)
            if bs is None or ns is None:
                cells.append(f"{'missing':>34s}")
                bad = True
                continue
            word, ratio = verdict(m, bs, ns, b["samples"][name],
                                  n["samples"][name])
            bad = bad or word == "REGRESSION"
            cell = f"{ratio:.3f}x of {bs['value']:.4g}{m['unit']} {word}"
            cells.append(f"{cell:>34s}")
        print(f"{w:22s}" + "".join(" " + c for c in cells))

    drift = []
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w, {}).get("exact", {})
        for name in sorted(set(b["exact"]) | set(n)):
            if b["exact"].get(name) != n.get(name):
                drift.append(f"  {w} {name}: base {b['exact'].get(name)!r} "
                             f"new {n.get(name)!r}")
    if base["seed"] != new["seed"]:
        print(f"exact metrics not compared: seeds differ "
              f"({base['seed']} vs {new['seed']})")
    elif drift:
        print("DRIFT in exact metrics (a real change in work; explain it):")
        print("\n".join(drift))
        bad = True
    else:
        print("exact metrics identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
