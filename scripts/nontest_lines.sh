#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines: every tracked `.rs` file
# outside tests/, examples/, benches/ and perfbench/, each cut at its
# first `#[cfg(test)]` line. Prints one number.
#
# usage: scripts/nontest_lines.sh [REV]   (default: the working tree)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev=${1:-}
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$')
else
    files=$(git ls-files -- '*.rs')
fi
# Reads every line, even past the cut: an awk that exits early would
# leave `git show` writing to a closed pipe (SIGPIPE under pipefail).
count='/#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }'
total=0
while IFS= read -r f; do
    case "/$f" in
        */tests/* | */examples/* | */benches/* | /perfbench/*) continue ;;
    esac
    if [ -n "$rev" ]; then
        n=$(git show "$rev:$f" | awk "$count")
    else
        n=$(awk "$count" "$f")
    fi
    total=$((total + n))
done <<< "$files"
echo "$total"
