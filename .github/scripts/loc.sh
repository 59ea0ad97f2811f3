#!/usr/bin/env bash
# Prints the non-test Rust line count of each crate and in total.
#
# Counts every .rs file under crates/*/src, src and examples, each up
# to (not including) its first `#[cfg(test)]` line; integration tests
# (tests/ directories, benches) are not counted. Prints only, never
# fails on a number.
#
#   .github/scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

count() {
  find "$1" -name '*.rs' -exec awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src examples; do
  n=$(count "$dir")
  printf '%-18s %7d\n' "${dir%/src}" "$n"
  total=$((total + n))
done
printf '%-18s %7d\n' total "$total"
