#!/bin/sh
# Runs the hot-path micro-benchmarks and emits the results as
# BENCH_<date>.json so the performance trajectory can be compared across
# PRs. Usage:
#
#   scripts/bench.sh [output.json]
#
# BENCHTIME overrides the per-benchmark budget (default 2s; CI's bench
# smoke uses BENCHTIME=1x for a fast structural pass whose JSON is
# uploaded as an artifact — numbers from 1x runs are not comparable).
#
# SCALE_N selects the BenchmarkMatchAllScale synthetic reference counts
# (default "1000|10000"; the 100000 fixture's raw signatures need ~13 GB
# to build, so the full curve is an opt-in: SCALE_N='1000|10000|100000').
# The simulated-fleet fixtures (N=1.5k and N=10k) always run.
#
# COUNT repeats every benchmark (go test -count; default 1). With
# COUNT > 1 each benchmark's ns_per_op, bytes_per_op and allocs_per_op
# are the medians of its runs, and ns_per_op_min, ns_per_op_max and
# count record the spread, so a snapshot can tell noise from a change:
#
#   COUNT=5 scripts/bench.sh    # what CI's push-to-main snapshot runs
#
# The JSON is a list of {name, ns_per_op, allocs_per_op, bytes_per_op}
# objects (plus the spread fields when COUNT > 1) and a header with the
# commit and environment.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_$(date +%Y-%m-%d).json}"
benchtime="${BENCHTIME:-2s}"
count="${COUNT:-1}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

scale_n="${SCALE_N:-1000|10000}"

go test -run '^$' \
  -bench 'BenchmarkDatabaseMatch|BenchmarkCandidatesIn|BenchmarkExtract|BenchmarkCosine512|BenchmarkPcapRoundTrip|BenchmarkStreamReaderDecode|BenchmarkEnginePush|BenchmarkEngineStream|BenchmarkEnsemblePush|BenchmarkClusterPush|BenchmarkShardedPush|BenchmarkDBCodec|BenchmarkEngineEnroll|BenchmarkMultiStreamDegraded|BenchmarkServerQuery|BenchmarkSSEFanout|BenchmarkServedStream' \
  -benchmem -benchtime="$benchtime" -count="$count" . ./internal/server | tee "$raw"

# The indexed-matching scale curve; its own invocation so the N filter
# (an anchored third path element) cannot touch other benchmarks' subs.
go test -run '^$' \
  -bench "BenchmarkMatchAllScale/(synth|fleet)/N=(${scale_n}|1.5k|10k)\$" \
  -benchmem -benchtime="$benchtime" -count="$count" ./internal/core | tee -a "$raw"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
awk -v commit="$commit" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v count="$count" '
# median sorts v[1..k] in place (insertion sort; k is COUNT) and
# returns its middle value, the mean of the middle two for even k.
function median(v, k,    i, j, x) {
    for (i = 2; i <= k; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > x + 0; j--) v[j+1] = v[j]
        v[j+1] = x
    }
    return k % 2 ? v[(k+1)/2] : (v[k/2] + v[k/2+1]) / 2
}
function stat(field, name, k,    i, v) {
    for (i = 1; i <= k; i++) v[i] = runs[name, field, i]
    return median(v, k)
}
BEGIN { n = 0; CONVFMT = "%.15g" }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (!(name in seen)) { seen[name] = 0; order[n++] = name }
    k = ++seen[name]
    runs[name, "ns", k] = ns; runs[name, "bytes", k] = bytes; runs[name, "allocs", k] = allocs
}
END {
    printf "{\n\"commit\": \"%s\",\n\"date\": \"%s\",\n\"cpu\": \"%s\",\n\"benchmarks\": [\n", commit, date, cpu
    for (i = 0; i < n; i++) {
        name = order[i]; k = seen[name]
        bytes = runs[name, "bytes", 1] == "" ? "null" : stat("bytes", name, k)
        allocs = runs[name, "allocs", 1] == "" ? "null" : stat("allocs", name, k)
        line = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
                       name, stat("ns", name, k), bytes, allocs)
        if (count > 1) {
            min = max = runs[name, "ns", 1]
            for (j = 2; j <= k; j++) {
                if (runs[name, "ns", j] + 0 < min + 0) min = runs[name, "ns", j]
                if (runs[name, "ns", j] + 0 > max + 0) max = runs[name, "ns", j]
            }
            line = line sprintf(", \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"count\": %d", min, max, k)
        }
        printf "%s}%s\n", line, (i < n-1 ? "," : "")
    }
    print "]\n}"
}' "$raw" > "$out"

echo "wrote $out"
