#!/usr/bin/env bash
# Prints the line count of the .hpp/.cpp sources of each src/<dir> layer,
# then the total -- the net src/ size ROADMAP.md tracks -- as the last
# line.  Usage: scripts/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
  find "$@" \( -name '*.hpp' -o -name '*.cpp' \) -print0 | xargs -0 cat |
    wc -l
}

for dir in src/*/; do
  printf '%-16s %6d\n' "${dir%/}" "$(count "$dir")"
done
count src
