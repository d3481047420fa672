#!/usr/bin/env bash
# A/B timing of two checkouts on one benchmark workload, in alternating
# pairs so host-speed drift hits both sides alike.
#
#   scripts/ab_pairs.sh A_DIR B_DIR WORKLOAD N
#
# Runs N pairs of `python3 bench/suite/run.py --workload WORKLOAD --seed 1
# --seconds 25 --trace 0`, one in A_DIR and one in B_DIR, A first in even
# pairs and B first in odd ones (each run.py builds its own build-bench/ on
# first use), and prints for every end-to-end metric
# the median and interquartile range of each side and the number of pairs
# in which B is better (direction from A_DIR's BENCHMARK.json).  The raw
# result lines go to $AB_LOG (default: ab_pairs.<WORKLOAD>.jsonl in the
# current directory), each run's stderr to $AB_LOG.<side><pair>.err.  A run
# that fails (run.py exits nonzero on a wrong result) is kept and reported.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 A_DIR B_DIR WORKLOAD N" >&2
  exit 2
fi
a_dir=$(cd "$1" && pwd)
b_dir=$(cd "$2" && pwd)
workload=$3
pairs=$4
log=${AB_LOG:-ab_pairs.$workload.jsonl}
: > "$log"

run_one() {  # run_one SIDE DIR PAIR
  local line err="$log.$1$3.err"
  line=$(cd "$2" && python3 bench/suite/run.py --workload "$workload" \
    --seed 1 --seconds 25 --trace 0 2>"$err" | tail -n 1) || true
  case $line in
    "{"*) ;;
    *) echo "side $1 pair $3: no result line (see $err)" >&2
       line='{"correct": false, "metrics": {}}' ;;
  esac
  printf '{"side": "%s", "pair": %d, "result": %s}\n' "$1" "$3" "$line" \
    >> "$log"
}

for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    run_one A "$a_dir" "$i"
    run_one B "$b_dir" "$i"
  else
    run_one B "$b_dir" "$i"
    run_one A "$a_dir" "$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$log" "$a_dir/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = {"A": {}, "B": {}}
for r in rows:
    runs[r["side"]][r["pair"]] = r["result"]
pairs = sorted(set(runs["A"]) & set(runs["B"]))
failed = [p for p in pairs
          if not (runs["A"][p].get("correct") and runs["B"][p].get("correct"))]
if failed:
    print(f"pairs with a failed run: {failed}")


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


print(f"{'metric':22s} {'A median':>10s} {'A IQR':>9s} "
      f"{'B median':>10s} {'B IQR':>9s} {'B better':>9s}")
for name, direction in better.items():
    va, vb, wins = [], [], 0
    for p in pairs:
        ma, mb = runs["A"][p]["metrics"], runs["B"][p]["metrics"]
        if name not in ma or name not in mb:
            continue
        a, b = ma[name]["value"], mb[name]["value"]
        va.append(a)
        vb.append(b)
        wins += (b < a) if direction == "lower" else (b > a)
    if not va:
        continue
    qa, qb = quartiles(va), quartiles(vb)
    print(f"{name:22s} {qa[1]:10.4g} {qa[2] - qa[0]:9.3g} "
          f"{qb[1]:10.4g} {qb[2] - qb[0]:9.3g} {wins:>4d}/{len(va)}")
EOF
