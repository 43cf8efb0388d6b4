#!/usr/bin/env bash
# Check that the working tree reproduces every quick-mode figure artifact of
# a given revision byte for byte — the test plan for behaviour-preserving
# changes.
#
#   scripts/compare_figures.sh <rev>
#
# Builds the `figures` binary offline at <rev> (in a temporary git worktree,
# removed on exit) and from the working tree, runs `figures --quick` for every
# experiment ID that `figures --list` prints, then
# `figures --quick --metrics F3 --metrics F4 --metrics F6`, and cmp's every
# JSON file the two runs wrote. F5's wall_ms, Mev_per_s and peak_rss_mb
# columns are wall-clock measurements that differ between any two runs, so
# f5.json is compared with those columns masked. Prints one line per file and
# exits 1 if any file differs or exists on one side only.
#
# The temporary worktree and the <rev> build live under $TMPDIR (default
# /tmp); the working-tree build uses the repository's own target/ directory.
set -euo pipefail

rev=${1:?usage: scripts/compare_figures.sh <rev>}
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/compare_figures.XXXXXX")

cleanup() {
    git -C "$root" worktree remove --force "$work/tree" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$work/tree" "$base"

# run_side <source tree> <cargo target dir> <output dir>
run_side() {
    local src=$1 target=$2 out=$3
    cargo build --release --offline --quiet --manifest-path "$src/Cargo.toml" \
        -p rdv-bench --bin figures --target-dir "$target"
    local bin=$target/release/figures ids
    ids=$("$bin" --list | awk 'NR > 1 { print $1 }')
    mkdir -p "$out"
    # shellcheck disable=SC2086 # one argument per experiment ID
    (cd "$out" && "$bin" --quick $ids >/dev/null 2>&1)
    (cd "$out" && "$bin" --quick --metrics F3 --metrics F4 --metrics F6 >/dev/null 2>&1)
}

# F5 JSON with its wall-clock measurement columns blanked.
mask_f5() {
    python3 - "$1" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
masked = [doc["columns"].index(c) for c in ("wall_ms", "Mev_per_s", "peak_rss_mb")]
for row in doc["rows"]:
    for i in masked:
        row[i] = "-"
print(json.dumps(doc, sort_keys=True))
PY
}

echo "[compare_figures] building and running $rev ($base)"
run_side "$work/tree" "$work/target" "$work/base"
echo "[compare_figures] building and running the working tree"
run_side "$root" "$root/target" "$work/head"

status=0
for f in "$work/base/results"/*.json "$work/head/results"/*.json; do
    name=$(basename "$f")
    [[ $f == "$work/head/"* && -f "$work/base/results/$name" ]] && continue
    a="$work/base/results/$name" b="$work/head/results/$name"
    if [[ ! -f $a || ! -f $b ]]; then
        echo "ONE-SIDED $name"
        status=1
    elif cmp -s "$a" "$b"; then
        echo "same      $name"
    elif [[ $name == f5.json ]] && cmp -s <(mask_f5 "$a") <(mask_f5 "$b"); then
        echo "same      $name (wall-clock columns masked)"
    else
        echo "DIFF      $name"
        status=1
    fi
done
exit $status
