#!/usr/bin/env bash
# Non-test source lines per crate: every `.rs` file under a crate's `src/`
# counted up to (not including) its first `#[cfg(test)]` line, or whole
# when it has none. The root crate is reported as `dbselect`.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repository)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }
        ' | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for src in src crates/*/src; do
    [ -d "$src" ] || continue
    if [ "$src" = src ]; then name=dbselect; else name=$(basename "$(dirname "$src")"); fi
    n=$(count "$src")
    total=$((total + n))
    printf '%-20s %7d\n' "$name" "$n"
done
printf '%-20s %7d\n' total "$total"
