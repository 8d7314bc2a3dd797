#!/usr/bin/env bash
# bench.sh — run the engine, executor, and fleet benchmarks and append one
# run-labeled entry to BENCH_engine.json. History accumulates instead
# of being overwritten, so regressions are visible across runs; a
# pre-history file in the old single-run format is preserved as the
# pinned "baseline" entry.
#
# Usage: scripts/bench.sh [output.json]
# Extra control via env: BENCHTIME (default 1s), COUNT (default 1),
# LABEL (default <git-short-rev>-<utc-timestamp>).
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_engine.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
label="${LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo local)-$(date -u +%Y%m%dT%H%M%SZ)}"

raw="$(mktemp)"
run="$(mktemp)"
next="$(mktemp)"
trap 'rm -f "$raw" "$run" "$next"' EXIT

go test -run '^$' -bench 'EngineEvent|EngineFanout|EngineHotLoop|TradeoffParallel|FleetTenants' -benchmem \
    -benchtime "$benchtime" -count "$count" \
    ./internal/sim/ ./internal/core/ | tee "$raw"

# Machine/toolchain metadata, recorded per run so entries from
# different hosts are never compared as if they were a regression
# (the pr6-fleet heap4 "15x regression" was exactly that: a slower
# recording machine, not a code change).
goversion="$(go env GOVERSION 2>/dev/null || go version | awk '{print $3}')"
ncpu="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 0)"
os="$(uname -sr 2>/dev/null || echo unknown)"
cpu="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$cpu" ] || cpu="unknown"

awk -v label="$label" -v goversion="$goversion" -v ncpu="$ncpu" \
    -v os="$os" -v cpu="$cpu" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    ns[name] = $3; bytes[name] = ""; allocs[name] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bytes[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
    }
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
    printf "    {\n      \"label\": \"%s\",\n", label
    printf "      \"env\": {\"go\": \"%s\", \"cpus\": %s, \"os\": \"%s\", \"cpu_model\": \"%s\"},\n", goversion, ncpu, os, cpu
    printf "      \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "        {\"name\": \"%s\", \"ns_per_op\": %s", name, ns[name]
        if (bytes[name] != "")  printf ", \"bytes_per_op\": %s", bytes[name]
        if (allocs[name] != "") printf ", \"allocs_per_op\": %s", allocs[name]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "      ]\n    }\n"
}' "$raw" > "$run"

if [ ! -s "$out" ]; then
    { printf '{\n  "runs": [\n'; cat "$run"; printf '  ]\n}\n'; } > "$next"
elif grep -q '"runs"' "$out"; then
    # Append to existing history: drop the closing "  ]" / "}",
    # comma-terminate the previous run, add the new one.
    sed '$d' "$out" | sed '$d' | sed '$ s/}$/},/' > "$next"
    cat "$run" >> "$next"
    printf '  ]\n}\n' >> "$next"
else
    # Old single-run format: keep it as the pinned "baseline" entry.
    {
        printf '{\n  "runs": [\n    {\n      "label": "baseline",\n'
        sed '1d;$d' "$out" | sed 's/^/    /'
        printf '    },\n'
    } > "$next"
    cat "$run" >> "$next"
    printf '  ]\n}\n' >> "$next"
fi
mv "$next" "$out"

echo "appended run \"$label\" to $out"
