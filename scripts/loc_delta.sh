#!/usr/bin/env bash
# Hand-written non-test lines added and removed since a base commit: every
# file under crates/*/src (cut at its `#[cfg(test)] mod tests`, and without
# the test-only endpoint_model.rs), abi/syscalls.abi and scripts/.  Comment
# lines count.  The working tree is compared, so it runs before the commit.
#
# Usage: scripts/loc_delta.sh <base-commit>
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: scripts/loc_delta.sh <base-commit>}

cut_tests() {
    awk '/^#\[cfg\(test\)\]$/ { held = $0; next }
         held != "" { if ($0 ~ /^mod tests/) exit; print held; held = "" }
         { print }'
}

added=0 removed=0
while read -r file; do
    delta=$(diff <(git show "$base:$file" 2>/dev/null | cut_tests) \
                 <(cut_tests 2>/dev/null <"$file") || true)
    added=$((added + $(grep -c '^>' <<<"$delta" || true)))
    removed=$((removed + $(grep -c '^<' <<<"$delta" || true)))
done < <({ git diff --name-only "$base" -- crates abi/syscalls.abi scripts
           git ls-files --others --exclude-standard -- crates scripts; } |
         grep -E '^(crates/[^/]+/src/|abi/|scripts/)' | grep -v endpoint_model.rs | sort -u)
echo "added $added  removed $removed  net $((added - removed))"
