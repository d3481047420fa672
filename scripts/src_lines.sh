#!/usr/bin/env bash
# Prints the total line count of the .hpp/.cpp sources under src/ -- the
# net src/ size ROADMAP.md tracks.  Usage: scripts/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

find src \( -name '*.hpp' -o -name '*.cpp' \) -print0 | xargs -0 cat | wc -l
