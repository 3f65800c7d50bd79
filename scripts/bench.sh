#!/usr/bin/env bash
# bench.sh — run the pinned benchmark set and record steady-state numbers
# as JSON for cross-PR regression tracking.
#
# Pinned set: the F1/F2 characterization benchmarks (the replay engine's
# hot path, full-size suite), F9 (the stream-side analyzers), the PR 4
# ComparePoliciesSuite sweep (the fused multi-policy replay) and its
# scalar twin (the batch-vs-scalar A/B), and the PR 6 BatchKernel
# probe-phase micro, five counted runs each (the steady-state statistic
# is a minimum, and on shared vCPU runners two post-cold samples were
# too few for it to settle), plus the PR 3 stream-cache
# pair (suite construction cold vs. warm). The first iteration of each
# also pays the one-time suite build (sync.Once); it is recorded
# separately as the "cold" sample so the steady-state statistics are not
# skewed by it.
#
# The PR 8 batch_kernel section records, per specialized policy, the
# steady-state ns/access of the monomorphic batch kernel and of the
# generic interface loop over the same stream (internal/policy's
# BenchmarkBatchKernel sub-benchmarks), plus the per-policy speedup.
#
# The PR 9 tracker section records the residency-tracker micros
# (internal/sharing's BenchmarkAdvanceBatch and BenchmarkTwoPhaseLane
# sub-benchmarks, ns/access): the struct layout vs both SoA demand
# levels for the advance phase, and the pipelined SoA / pipelined
# struct / serial scalar shapes of a two-phase lane, plus the headline
# speedups of each pair. (PR 10's SIMD tier and its micros were deleted
# in PR 25; BENCH_PR10.json keeps their numbers as history.)
#
#   scripts/bench.sh [output.json] [baseline.json]
#     default output:   BENCH_PR10.json
#     default baseline: BENCH_PR9.json (skipped when absent)
#
# The PR 7 cluster section records the wall time of the fixed-catalogue
# sweep through an in-process coordinator with 1, 2 and 4 workers
# (cmd/dumprows -cluster N, which also byte-verifies the merge), so the
# JSON tracks scaling efficiency, not just per-op latency.
#
# SHARELLC_BENCH_SCALE (default 1 = full size) scales the suite used by
# the cold/warm construction benchmarks.
#
# The JSON records, next to the static seed_baseline block, the
# cumulative speedup of the steady-state F1 replay against that seed
# number — the across-PR progress figure — and prints it on stderr.
# After writing the output, the steady-state (minimum) ns/op of
# BenchmarkF1SharedHitFraction4MB is also compared against the baseline
# file; a regression of more than 20% prints a prominent warning on
# stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
BASELINE="${2:-BENCH_PR9.json}"
BENCHES='^(BenchmarkF1SharedHitFraction4MB|BenchmarkF2SharedHitFraction8MB|BenchmarkF9SharingPhases|BenchmarkComparePoliciesSuite|BenchmarkComparePoliciesSuiteScalar)$'
SUITE_BENCHES='^(BenchmarkSuiteBuildCold|BenchmarkSuiteBuildWarm)$'
export SHARELLC_BENCH_SCALE="${SHARELLC_BENCH_SCALE:-1}"
RAW="$(mktemp)"
SUITE_RAW="$(mktemp)"
POLICY_RAW="$(mktemp)"
TRACKER_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$SUITE_RAW" "$POLICY_RAW" "$TRACKER_RAW"' EXIT

go test -bench "$BENCHES" -benchmem -count=5 -run '^$' -timeout 60m . | tee "$RAW" >&2

# The probe-phase micro (sweep-independent baseline for the batch
# kernel's probe loop) appends to the same raw log; the parser below is keyed by
# benchmark name, so the samples land in the same JSON array.
go test -bench '^BenchmarkBatchKernel$' -benchmem -count=5 -run '^$' -timeout 10m \
  ./internal/cache | tee -a "$RAW" >&2

# Per-policy monomorphic kernel vs generic interface loop (the PR 8
# specialization A/B), parsed into the batch_kernel JSON section below.
go test -bench '^BenchmarkBatchKernel$' -count=5 -run '^$' -timeout 30m \
  ./internal/policy | tee "$POLICY_RAW" >&2

# Residency-tracker micros (the PR 9 SoA layout and two-phase pipeline
# A/Bs), parsed into the tracker JSON section below.
go test -bench '^(BenchmarkAdvanceBatch|BenchmarkTwoPhaseLane)$' -count=5 -run '^$' -timeout 30m \
  ./internal/sharing | tee "$TRACKER_RAW" >&2

TRACKER_JSON="$(awk '
  /^Benchmark(AdvanceBatch|TwoPhaseLane)\// {
    name = $1
    sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    v = ""
    for (i = 2; i <= NF; i++) if ($i == "ns/access") v = $(i - 1) + 0
    if (v == "") next
    if (!(name in best) || v < best[name]) best[name] = v
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
  }
  function ratio(a, b) {
    if (a in best && b in best && best[b] > 0) return sprintf("%.2f", best[a] / best[b])
    return "null"
  }
  END {
    printf "{"
    for (i = 1; i <= n; i++) {
      printf "\"%s\": %g, ", order[i], best[order[i]]
    }
    printf "\"advance_soa_speedup\": %s, ", ratio("AdvanceBatch/struct", "AdvanceBatch/soa-counters")
    printf "\"twophase_pipeline_speedup\": %s, ", ratio("TwoPhaseLane/scalar", "TwoPhaseLane/struct")
    printf "\"twophase_soa_speedup\": %s", ratio("TwoPhaseLane/scalar", "TwoPhaseLane/soa")
    printf "}"
  }' "$TRACKER_RAW")"

KERNEL_JSON="$(awk '
  /^BenchmarkBatchKernel\// {
    name = $1
    sub(/^BenchmarkBatchKernel\//, "", name); sub(/-[0-9]+$/, "", name)
    v = ""
    for (i = 2; i <= NF; i++) if ($i == "ns/access") v = $(i - 1) + 0
    if (v == "") next
    if (!(name in best) || v < best[name]) best[name] = v
    if (name !~ /\/generic$/ && !(name in seen)) { seen[name] = 1; order[++n] = name }
  }
  END {
    printf "{"
    for (i = 1; i <= n; i++) {
      p = order[i]
      g = best[p "/generic"]
      if (i > 1) printf ", "
      printf "\"%s\": {\"kernel_ns_per_access\": %g, \"generic_ns_per_access\": %s, \"speedup\": %s}", \
        p, best[p], (g == "" ? "null" : g "" ), \
        (g != "" && best[p] > 0 ? sprintf("%.2f", g / best[p]) : "null")
    }
    printf "}"
  }' "$POLICY_RAW")"

# The suite-construction pair runs in an isolated user cache dir so the
# warm measurement only ever sees snapshots its own cold pass wrote.
XDG_CACHE_HOME="$(mktemp -d)" \
  go test -bench "$SUITE_BENCHES" -count=1 -run '^$' -timeout 60m \
  ./internal/sim/streamcache | tee "$SUITE_RAW" >&2

# Cluster scaling: wall time of the fixed-catalogue sweep distributed
# over N in-process workers (real HTTP lease/fetch/merge path). Each run
# also byte-verifies the merged tables against the direct path — a
# failing diff fails the bench.
DUMPBIN="$(mktemp)"
go build -o "$DUMPBIN" ./cmd/dumprows
CLUSTER_JSON="{"
for n in 1 2 4; do
  start_ns="$(date +%s%N)"
  "$DUMPBIN" -cluster "$n" >&2
  end_ns="$(date +%s%N)"
  ms=$(( (end_ns - start_ns) / 1000000 ))
  echo "cluster sweep, $n worker(s): ${ms} ms" >&2
  [[ "$n" != 1 ]] && CLUSTER_JSON+=", "
  CLUSTER_JSON+="\"workers_${n}_wall_ms\": ${ms}"
done
CLUSTER_JSON+="}"
rm -f "$DUMPBIN"

awk -v scale="$SHARELLC_BENCH_SCALE" -v cluster="$CLUSTER_JSON" -v batchkernel="$KERNEL_JSON" -v tracker="$TRACKER_JSON" '
  function flush_bench(    i) {
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"sample\": \"%s\"}", \
      name, ns, (bop == "" ? "null" : bop), (aop == "" ? "null" : aop), kind
  }
  /^goos:/   { goos = $2 }
  /^goarch:/ { goarch = $2 }
  /^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns  = $(i-1)
      if ($i == "B/op")      bop = $(i-1)
      if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    # The first counted run of each benchmark pays one-time costs (the
    # shared suite build behind sync.Once); label it cold and keep the
    # steady-state minimum over the remaining runs.
    seen[name]++
    kind = (seen[name] == 1 ? "cold" : "steady")
    if (kind == "steady" && (!(name in steady) || ns + 0 < steady[name])) steady[name] = ns + 0
    if (FILENAME == ARGV[1]) flush_bench()
    if (name == "BenchmarkSuiteBuildCold") suite_cold = ns + 0
    if (name == "BenchmarkSuiteBuildWarm") suite_warm = ns + 0
  }
  BEGIN { print "{"; print "  \"benchmarks\": ["; first = 1 }
  END {
    print ""
    print "  ],"
    print "  \"steady_state\": {"
    sfirst = 1
    for (n in steady) {
      if (!sfirst) printf ",\n"
      sfirst = 0
      printf "    \"%s\": %g", n, steady[n]
    }
    print ""
    print "  },"
    printf "  \"suite_build\": {\"scale\": %s, ", scale
    printf "\"cold_ns_per_op\": %s, \"warm_ns_per_op\": %s, ", \
      (suite_cold == "" ? "null" : suite_cold), (suite_warm == "" ? "null" : suite_warm)
    if (suite_cold != "" && suite_warm != "" && suite_warm > 0)
      printf "\"warm_speedup\": %.2f},\n", suite_cold / suite_warm
    else
      printf "\"warm_speedup\": null},\n"
    printf "  \"cluster\": %s,\n", (cluster == "" ? "null" : cluster)
    printf "  \"batch_kernel\": %s,\n", (batchkernel == "" ? "null" : batchkernel)
    printf "  \"tracker\": %s,\n", (tracker == "" ? "null" : tracker)
    # Suite-level batch-vs-scalar A/B from the steady-state minima.
    bs = steady["BenchmarkComparePoliciesSuite"]
    ss = steady["BenchmarkComparePoliciesSuiteScalar"]
    if (bs > 0 && ss > 0)
      printf "  \"suite_batch_vs_scalar\": {\"batch_ns_per_op\": %g, \"scalar_ns_per_op\": %g, \"speedup\": %.2f},\n", bs, ss, ss / bs
    else
      print "  \"suite_batch_vs_scalar\": null,"
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\",\n", goos, goarch, cpu
    seed_ns = 3600000000
    print "  \"seed_baseline\": {"
    print "    \"note\": \"steady-state BenchmarkF1SharedHitFraction4MB at the v0 seed commit (a6b47ae), same machine class\","
    printf "    \"ns_per_op\": %.0f, \"bytes_per_op\": 688000000, \"allocs_per_op\": 5764000,\n", seed_ns
    # Cumulative speedup of the F1 replay across every PR since the seed
    # commit, from this run'\''s steady-state minimum.
    f1 = steady["BenchmarkF1SharedHitFraction4MB"]
    if (f1 > 0) {
      printf "    \"cumulative_speedup\": %.2f\n", seed_ns / f1
      printf "cumulative F1 speedup vs seed baseline: %.2fx (%.0f -> %.0f ns/op)\n", \
        seed_ns / f1, seed_ns, f1 > "/dev/stderr"
    } else {
      print "    \"cumulative_speedup\": null"
    }
    print "  }"
    print "}"
  }
' "$RAW" "$SUITE_RAW" > "$OUT"

echo "wrote $OUT" >&2

# min_f1 FILE: the steady-state ns_per_op for
# BenchmarkF1SharedHitFraction4MB in a bench JSON file. New-format files
# carry explicit "sample" labels (cold samples are excluded); older
# baselines (BENCH_PR1/PR2) have unlabeled samples, where the minimum is
# the steady state by construction.
min_f1() {
  awk '
    /"name": "BenchmarkF1SharedHitFraction4MB"/ {
      if (/"sample": "cold"/) next
      if (match($0, /"ns_per_op": [0-9.e+]+/)) {
        v = substr($0, RSTART + 13, RLENGTH - 13) + 0
        if (best == "" || v < best) best = v
      }
    }
    END { if (best != "") print best }
  ' "$1"
}

if [[ -f "$BASELINE" ]]; then
  new_ns="$(min_f1 "$OUT")"
  base_ns="$(min_f1 "$BASELINE")"
  if [[ -n "$new_ns" && -n "$base_ns" ]]; then
    awk -v new="$new_ns" -v base="$base_ns" -v baseline="$BASELINE" '
      BEGIN {
        pct = (new - base) / base * 100
        printf "F1 steady-state: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%)\n", new, base, pct > "/dev/stderr"
        if (new > base * 1.2) {
          printf "WARNING: BenchmarkF1SharedHitFraction4MB regressed more than 20%% vs %s\n", baseline > "/dev/stderr"
        }
      }'
  else
    echo "warning: could not extract F1 ns/op for baseline comparison" >&2
  fi
else
  echo "baseline $BASELINE not found; skipping regression check" >&2
fi
