#!/usr/bin/env bash
# bench_gate.sh — same-host A/B regression gate for the event engine.
#
# Builds the internal/sim test binary twice, from the merge-base and
# from the working tree, then interleaves COUNT runs of
# BenchmarkEngineEvent and BenchmarkEngineFanout on the two binaries.
# It fails if HEAD's best ns/op on either benchmark exceeds the base's
# best by more than MAX_REGRESS percent (default 25). Both benchmarks
# use only the engine's public API (At/After/Step), so the same source
# runs on both sides; since both sides run on one host in one job,
# interleaved, the ratio does not depend on which machine runs the gate.
#
# The base is BASE_REF when set, else the merge-base of HEAD with
# origin/$GITHUB_BASE_REF (pull requests), origin/main or main. When
# that is HEAD itself and the tree is clean (a push to main), the base
# is HEAD's parent. The base needs full history: check out with
# fetch-depth 0.
#
# Usage: scripts/bench_gate.sh
# Env: BASE_REF, MAX_REGRESS (default 25), BENCHTIME (default 1s),
#      COUNT (default 5).
set -euo pipefail

cd "$(dirname "$0")/.."
max="${MAX_REGRESS:-25}"
count="${COUNT:-5}"
benchtime="${BENCHTIME:-1s}"
benches='^BenchmarkEngine(Event|Fanout)$'

base_ref="${BASE_REF:-}"
if [ -z "$base_ref" ]; then
    for upstream in "origin/${GITHUB_BASE_REF:-main}" origin/main main; do
        if git rev-parse -q --verify "$upstream^{commit}" >/dev/null; then
            base_ref="$(git merge-base HEAD "$upstream")"
            break
        fi
    done
    if [ -z "$base_ref" ]; then
        echo "no upstream branch to take a merge-base with; set BASE_REF" >&2
        exit 1
    fi
    if [ "$base_ref" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
        base_ref="$(git rev-parse HEAD^)"
    fi
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_ref" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" ./internal/sim/)
go test -c -o "$tmp/head.test" ./internal/sim/
echo "bench_gate: base $(git rev-parse --short "$base_ref") vs working tree at $(git rev-parse --short HEAD)"

# Alternate which side goes first so slow drift in host speed hits both.
raw="$tmp/raw"
for i in $(seq "$count"); do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        "$tmp/$side.test" -test.run '^$' -test.bench "$benches" \
            -test.benchtime "$benchtime" -test.timeout 10m | awk -v side="$side" '/^Benchmark/ { print side, $0 }' |
            tee -a "$raw"
    done
done

awk -v max="$max" '
{
    name = $2
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    key = $1 SUBSEP name
    if (!(key in best) || $4 + 0 < best[key] + 0) best[key] = $4
    if (!(name in names)) { names[name] = 1; n++ }
}
END {
    fail = 0
    for (name in names) {
        b = best["base", name]; h = best["head", name]
        if (b == "" || h == "") {
            printf "FAIL: %s has no samples on one side\n", name
            fail = 1
            continue
        }
        lim = b * (1 + max / 100)
        printf "%s: base best %.2f ns/op, head best %.2f ns/op (%+.1f%%), limit %.2f ns/op (+%d%%)\n",
            name, b, h, (h / b - 1) * 100, lim, max
        if (h > lim) {
            printf "FAIL: %s regressed beyond %d%% against the merge-base\n", name, max
            fail = 1
        }
    }
    if (n < 2) {
        print "FAIL: expected samples of both engine benchmarks"
        fail = 1
    }
    if (!fail) print "OK"
    exit fail
}' "$raw"
