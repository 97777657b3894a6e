#!/usr/bin/env bash
# Non-test line counts per crate: for every .rs file under a crate's
# src/ (binaries included), the lines above its first `#[cfg(test)]`,
# or all of its lines when it has none. Integration tests under tests/
# are not counted. Run from anywhere:
#
#   scripts/loc.sh          # one line per crate, then the total
#   scripts/loc.sh ta core  # only the named crates
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  local total=0 n f
  while IFS= read -r -d '' f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    total=$((total + n))
  done < <(find "$1" -name '*.rs' -print0)
  echo "$total"
}

if [ "$#" -gt 0 ]; then
  crates=("$@")
else
  crates=()
  for dir in crates/*/; do
    crates+=("$(basename "$dir")")
  done
fi
sum=0
for crate in "${crates[@]}"; do
  n=$(count "crates/$crate/src")
  printf '%-10s %7d\n' "$crate" "$n"
  sum=$((sum + n))
done
if [ "$#" -eq 0 ]; then
  n=$(count src)
  printf '%-10s %7d\n' "(root)" "$n"
  sum=$((sum + n))
fi
printf '%-10s %7d\n' total "$sum"
