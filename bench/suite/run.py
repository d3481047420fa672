#!/usr/bin/env python3
"""Runner of the end-to-end solver benchmark (see README.md).

Builds the Release bench_suite program into build-bench/ and runs it.

One workload, one process -- the form BENCHMARK.json names as its command:

    python3 bench/suite/run.py --workload laplace-direct --seed 1 \
        --seconds 25 --trace 0

prints every metric with its unit, reported value, median, quartiles and
sample count, and as its last line one JSON object {correct, attempted,
failed, metrics}: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.

The whole suite -- every workload, timed and traced, one process at a time:

    python3 bench/suite/run.py --seed 1 [--check-exact] [--write-baseline]

writes build-bench/results/results_seed<N>.json and a Chrome trace per
workload in build-bench/traces/.  --check-exact fails on any drift of the
exact metrics (counts, iterations, modeled seconds) from baseline.json;
--write-baseline records them there instead.  Exit status is non-zero on
any gate failure.  Python standard library only.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bench_suite"
BASELINE = SUITE / "baseline.json"
TRACE_BOUND = 0.1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then rebuilds incrementally; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(SUITE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "bench_suite"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            return False
    return True


def run_bench(workload, seed, seconds, trace, trace_out=None):
    """Runs one bench_suite process; returns its JSON record, or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        # bench_suite stops starting cycles at --seconds; the margin covers
        # problem assembly and the last cycle.  run() kills it on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {seconds + 120} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return None
    rec = json.loads(lines[-1])
    rec["exit"] = proc.returncode
    return rec


def stats(samples, unit, exact):
    """Median, quartiles and n, as statistics.quantiles(n=4) gives them,
    and the reported value.  Host seconds report their lower quartile:
    other tenants of the machine only ever add time, in bursts of seconds
    to minutes, so the lower quartile tracks the code and the median
    tracks the neighbours (README.md, "Noise")."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    value = q1 if unit == "s" and not exact else med
    return {"value": value, "median": med, "q1": q1, "q3": q3,
            "n": len(samples)}


def summarize(rec):
    """Per-metric stats of one bench_suite record."""
    return {name: dict(stats(m["samples"], m["unit"], m["exact"]),
                       unit=m["unit"], exact=m["exact"])
            for name, m in rec["metrics"].items()}


def print_metrics(title, summary, names):
    print(f"== {title}")
    print(f"  {'metric':32s} {'unit':8s} {'value':>13s} {'median':>13s} "
          f"{'q1':>13s} {'q3':>13s} {'n':>4s}")
    for name in names:
        s = summary.get(name)
        if s is None:
            print(f"  {name:32s} MISSING")
            continue
        print(f"  {name:32s} {s['unit']:8s} {s['value']:13.6g} "
              f"{s['median']:13.6g} {s['q1']:13.6g} {s['q3']:13.6g} "
              f"{s['n']:4d}")


def workload_result(rec, spec, trace):
    """The one-line result object of a single-workload run."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    summary = summarize(rec)
    metrics, ok = {}, rec["exit"] == 0 and rec["failed"] == 0
    for m in wanted:
        s = summary.get(m["name"])
        if s is None or s["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}")
            ok = False
            continue
        metrics[m["name"]] = {"value": s["value"], "unit": m["unit"]}
    return {"correct": ok, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def print_trace_health(traced):
    """Reports (does not gate) how much the traced rebuild costs over the
    facade, paired cycle by cycle in one process: whole cycles and setup
    alone.  The spans are trustworthy while both stay within TRACE_BOUND."""
    for name in ("trace.overhead_frac", "trace.setup_overhead_frac"):
        v = traced[name]["median"]
        word = "within" if abs(v) <= TRACE_BOUND else "OUTSIDE"
        print(f"  {name:32s} median {v:+.4f} ({word} +-{TRACE_BOUND})")


def exact_medians(timed, traced):
    """Medians of every exact metric of one workload (timed and traced runs
    both report some; they must agree), plus the disagreeing names."""
    out, clashes = {}, []
    for rec in (timed, traced):
        for name, s in summarize(rec).items():
            if not s["exact"]:
                continue
            if name in out and out[name] != s["median"]:
                clashes.append(name)
            out[name] = s["median"]
    return out, clashes


def check_exact(results):
    with open(BASELINE) as f:
        base = json.load(f)
    if base["seed"] != results["seed"]:
        log(f"run.py: baseline is for seed {base['seed']}, "
            f"this run used seed {results['seed']}")
        return False
    ok = True
    for w, want in base["workloads"].items():
        got = results["workloads"].get(w, {}).get("exact", {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print(f"EXACT DRIFT {w} {name}: baseline {want.get(name)!r} "
                      f"now {got.get(name)!r}")
                ok = False
    print("exact metrics match baseline.json" if ok else
          "exact metrics DRIFTED from baseline.json")
    return ok


def run_suite(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    results = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        timed = run_bench(w, args.seed, seconds, 0)
        traced = run_bench(w, args.seed, seconds, 1,
                            BUILD / "traces" / f"trace_{w}.json")
        if timed is None or traced is None:
            ok = False
            continue
        exact, clashes = exact_medians(timed, traced)
        for name in clashes:
            log(f"run.py: {w} {name} differs between timed and traced runs")
        ok = ok and not clashes
        for rec in (timed, traced):
            ok = ok and rec["exit"] == 0 and rec["failed"] == 0
        results["workloads"][w] = {
            "timed": summarize(timed), "traced": summarize(traced),
            "exact": exact, "layers": traced.get("layers", []),
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "samples": {n: m["samples"] for n, m in timed["metrics"].items()}}
        print_metrics(f"{w} (seed {args.seed}, {seconds} s per run)",
                      results["workloads"][w]["timed"],
                      [m["name"] for m in spec["end_to_end"]])
        print_trace_health(results["workloads"][w]["traced"])
    out = Path(args.out) if args.out else \
        BUILD / "results" / f"results_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"results: {out}\ntraces: {BUILD / 'traces'}")
    if args.write_baseline:
        with open(BASELINE, "w") as f:
            json.dump({"seed": args.seed,
                       "workloads": {w: r["exact"] for w, r in
                                     results["workloads"].items()}},
                      f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"baseline written: {BASELINE}")
    if args.check_exact:
        ok = check_exact(results) and ok
    print("suite " + ("PASSED" if ok else "FAILED: see GATE/DRIFT lines"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload (the BENCHMARK.json form)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, help="budget of one run "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-exact", action="store_true")
    p.add_argument("--write-baseline", action="store_true")
    p.add_argument("--out", help="results file of a suite run")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    spec = load_spec()
    if not build():
        return 1
    if not args.workload:
        return run_suite(args, spec)

    seconds = args.seconds or spec["run_seconds"]
    trace_out = (BUILD / "traces" / f"trace_{args.workload}.json"
                 if args.trace else None)
    rec = run_bench(args.workload, args.seed, seconds, args.trace, trace_out)
    if rec is None:
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print_metrics(f"{args.workload} seed {args.seed} trace {args.trace}",
                  summarize(rec), [m["name"] for m in wanted])
    result = workload_result(rec, spec, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
