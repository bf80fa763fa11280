#!/usr/bin/env bash
# Wall-clock scaling of the parallel Monte-Carlo engine, plus the
# fault-layer, tracing, scale and serve baselines.
#
# Usage: scripts/bench_trajectory.sh [OUT_JSON] [CHAOS_OUT_JSON] [OBS_OUT_JSON] [SCALE_OUT_JSON] [SERVE_OUT_JSON] [SERVE_LOAD_OUT_JSON]
#
# Runs the fig7 quick workload through the release tomo-sim binary at the
# thread counts this machine can honestly measure (1, 2, and max — but
# never more threads than cores; a single-core runner only times 1),
# verifies the JSON artifacts are byte-identical across thread counts
# (including an untimed 2-thread oversubscription smoke on single-core
# machines), and writes BENCH_montecarlo.json (default: repo root) with
# wall-clock, trials/sec, and the core count per point. Then A/Bs the
# fault-injection machinery at rate zero (--faults off) against
# the TOMO_FAULT=0 bypass and writes BENCH_chaos.json asserting the
# overhead stays below 10%. Then A/Bs span/provenance tracing
# (--trace-out) against an untraced run and writes BENCH_obs.json
# asserting the tracing overhead stays below 5%. Finally runs the
# Rocketfuel-scale kernel sweep (tomo-sim run scale) and writes
# BENCH_scale.json with per-point sparse/dense timings and the core
# count, asserting the sparse path beats the dense baseline >= 3x on the
# largest point where the dense kernels still finish and that the
# 10k-link system build stays >= 2x under the 256.5s dense-factor
# baseline. Finally runs the tomo-serve ingest/query
# workload (tomo-serve bench: one in-process daemon, a probe client
# streaming 400 full-coverage batches, a query thread hammering the
# engine mid-ingest) three times, keeps the best-p99 run, and writes
# BENCH_serve.json, asserting the p99 query latency met the SLO —
# tomo-bench regression re-runs this workload and gates on that tail.
# Finally runs the multi-client serve-load sweep (tomo-sim run
# serve-load: N in {1,4,16,64} concurrent probe clients hammering one
# daemon with queries) three times, keeps the run with the best tail at
# the largest fleet, and writes BENCH_serve_load.json, asserting the
# 16-client point sustains >= 80k batches/s with the query p99 under
# the SLO at every client count — tomo-bench regression re-runs this
# sweep and gates on both. Prints BENCH lines as it goes.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_JSON="${1:-BENCH_montecarlo.json}"
CHAOS_OUT_JSON="${2:-BENCH_chaos.json}"
OBS_OUT_JSON="${3:-BENCH_obs.json}"
SCALE_OUT_JSON="${4:-BENCH_scale.json}"
SERVE_OUT_JSON="${5:-BENCH_serve.json}"
SERVE_LOAD_OUT_JSON="${6:-BENCH_serve_load.json}"
SEED=42
CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"

echo "==> cargo build --release -p tomo-sim -p tomo-serve"
cargo build --release -p tomo-sim -p tomo-serve >/dev/null

BIN=target/release/tomo-sim
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# fig7 --quick: 1 system x 40 trials per family, 2 families = 80 trials.
TRIALS=80

# Timed points never oversubscribe: a 2-thread "throughput" number from
# a single core measures scheduler contention, not scaling, and would
# poison the committed baseline that tomo-bench regression gates on.
thread_counts() {
  if [ "$CORES" -le 1 ]; then
    echo "1"
  elif [ "$CORES" -eq 2 ]; then
    echo "1 2"
  else
    echo "1 2 $CORES"
  fi
}

# Determinism smoke always covers 2 threads, timed or not: artifacts must
# be byte-identical even when the executor oversubscribes the machine.
identity_counts() {
  if [ "$CORES" -le 1 ]; then
    echo "1 2"
  else
    thread_counts
  fi
}

measure() { # threads -> seconds (wall clock, 3 runs, best-of)
  local threads="$1" best="" t0 t1 secs
  for _ in 1 2 3; do
    t0=$(date +%s.%N)
    "$BIN" run fig7 --quick --seed "$SEED" --threads "$threads" \
      --out "$WORK/t$threads" >/dev/null
    t1=$(date +%s.%N)
    secs=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
    if [ -z "$best" ] || awk -v a="$secs" -v b="$best" 'BEGIN{exit !(a<b)}'; then
      best="$secs"
    fi
  done
  echo "$best"
}

declare -A WALL
for n in $(thread_counts); do
  mkdir -p "$WORK/t$n"
  WALL[$n]=$(measure "$n")
  tps=$(echo "${WALL[$n]}" | awk -v t="$TRIALS" '{printf "%.1f", t / $1}')
  echo "BENCH fig7_quick threads=$n wall_secs=${WALL[$n]} trials_per_sec=$tps"
done

# Same-seed artifacts must be byte-identical across thread counts. On a
# single core this still exercises 2 threads — one untimed run, since
# oversubscribed wall clock is meaningless but determinism is not.
for n in $(identity_counts); do
  if [ ! -f "$WORK/t$n/fig7.json" ]; then
    mkdir -p "$WORK/t$n"
    "$BIN" run fig7 --quick --seed "$SEED" --threads "$n" \
      --out "$WORK/t$n" >/dev/null
  fi
  if ! cmp -s "$WORK/t1/fig7.json" "$WORK/t$n/fig7.json"; then
    echo "BENCH ERROR: fig7.json differs between 1 and $n threads" >&2
    exit 1
  fi
done
echo "BENCH artifacts byte-identical across thread counts"

{
  echo "{"
  echo "  \"workload\": \"tomo-sim run fig7 --quick --seed $SEED\","
  echo "  \"trials\": $TRIALS,"
  echo "  \"cores\": $CORES,"
  echo "  \"runs_per_point\": 3,"
  echo "  \"points\": ["
  first=1
  for n in $(thread_counts); do
    tps=$(echo "${WALL[$n]}" | awk -v t="$TRIALS" '{printf "%.1f", t / $1}')
    [ "$first" -eq 1 ] || echo ","
    first=0
    printf '    {"threads": %s, "wall_secs": %s, "trials_per_sec": %s, "cores": %s}' \
      "$n" "${WALL[$n]}" "$tps" "$CORES"
  done
  echo ""
  echo "  ]"
  echo "}"
} > "$OUT_JSON"
echo "BENCH wrote $OUT_JSON"

# --- Fault-layer overhead A/B -------------------------------------------
# The chaos harness with every rate at zero draws nothing, so the only
# cost left is the machinery itself (plan construction, per-trial stream
# seeding, disarm bookkeeping). TOMO_FAULT=0 bypasses all of it; both
# runs must produce byte-identical artifacts and the machinery must cost
# less than 10% wall clock.
# One chaos --quick run is only a few ms, so each sample times CHAOS_REPS
# back-to-back invocations to stay well clear of timer granularity.
CHAOS_REPS=40
measure_chaos() { # fault_flag(0|1) tag -> best wall secs per CHAOS_REPS runs
  local flag="$1" tag="$2" best="" t0 t1 secs i
  for _ in 1 2 3; do
    t0=$(date +%s.%N)
    for i in $(seq "$CHAOS_REPS"); do
      TOMO_FAULT="$flag" "$BIN" run chaos --quick --seed "$SEED" --threads 1 \
        --faults off --out "$WORK/chaos_$tag" >/dev/null
    done
    t1=$(date +%s.%N)
    secs=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
    if [ -z "$best" ] || awk -v a="$secs" -v b="$best" 'BEGIN{exit !(a<b)}'; then
      best="$secs"
    fi
  done
  echo "$best"
}

BYPASS_SECS=$(measure_chaos 0 bypass)
MACHINERY_SECS=$(measure_chaos 1 machinery)

if ! cmp -s "$WORK/chaos_bypass/chaos.json" "$WORK/chaos_machinery/chaos.json"; then
  echo "BENCH ERROR: chaos.json differs between TOMO_FAULT=0 and rate-zero runs" >&2
  exit 1
fi
echo "BENCH artifacts byte-identical bypass vs rate-zero machinery"

python3 - "$BYPASS_SECS" "$MACHINERY_SECS" "$CHAOS_OUT_JSON" <<'PY'
import json, sys

bypass_secs, machinery_secs, out_path = sys.argv[1:4]
bypass, machinery = float(bypass_secs), float(machinery_secs)
overhead = (machinery - bypass) / bypass if bypass > 0 else 0.0
report = {
    "workload": "tomo-sim run chaos --quick --seed 42 --threads 1 --faults off",
    "runs_per_point": 3,
    "invocations_per_sample": 40,
    "bypass_wall_secs": bypass,
    "machinery_wall_secs": machinery,
    "overhead_frac": round(overhead, 4),
}
if overhead >= 0.10:
    sys.exit(f"BENCH ERROR: fault-layer overhead {overhead:.1%} >= 10%")
json.dump(report, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
print(f"BENCH chaos bypass={bypass}s machinery={machinery}s "
      f"overhead={overhead:.1%}")
PY
echo "BENCH wrote $CHAOS_OUT_JSON"

# --- Tracing overhead A/B -----------------------------------------------
# --trace-out turns on span + per-trial provenance journaling. Tracing is
# passive by design (ISSUE: <5% overhead, byte-identical artifacts), so
# the traced run must match the untraced one and cost almost nothing.
measure_obs() { # tag extra-args... -> best wall secs; artifacts in $WORK/obs_$tag
  local tag="$1" best="" t0 t1 secs
  shift
  for _ in 1 2 3; do
    t0=$(date +%s.%N)
    "$BIN" run fig7 --quick --seed "$SEED" --threads 1 \
      --out "$WORK/obs_$tag" "$@" >/dev/null 2>&1
    t1=$(date +%s.%N)
    secs=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
    if [ -z "$best" ] || awk -v a="$secs" -v b="$best" 'BEGIN{exit !(a<b)}'; then
      best="$secs"
    fi
  done
  echo "$best"
}

UNTRACED_SECS=$(measure_obs plain)
TRACED_SECS=$(measure_obs traced --trace-out "$WORK/obs.trace.json")

if ! cmp -s "$WORK/obs_plain/fig7.json" "$WORK/obs_traced/fig7.json"; then
  echo "BENCH ERROR: fig7.json differs between traced and untraced runs" >&2
  exit 1
fi
echo "BENCH artifacts byte-identical traced vs untraced"

python3 - "$UNTRACED_SECS" "$TRACED_SECS" "$WORK/obs.trace.json" "$TRIALS" \
  "$OBS_OUT_JSON" <<'PY'
import json, sys

untraced_secs, traced_secs, trace_path, trials, out_path = sys.argv[1:6]
untraced, traced = float(untraced_secs), float(traced_secs)
overhead = (traced - untraced) / untraced if untraced > 0 else 0.0
events = json.load(open(trace_path)).get("traceEvents", [])
trial_events = [e for e in events if e.get("name") == "trial"]
report = {
    "workload": "tomo-sim run fig7 --quick --seed 42 --threads 1",
    "runs_per_point": 3,
    "untraced_wall_secs": untraced,
    "traced_wall_secs": traced,
    "overhead_frac": round(overhead, 4),
    "trace_events": len(events),
    "trial_spans": len(trial_events),
}
if overhead >= 0.05:
    sys.exit(f"BENCH ERROR: tracing overhead {overhead:.1%} >= 5%")
if len(trial_events) < int(trials):
    sys.exit(f"BENCH ERROR: only {len(trial_events)} trial spans "
             f"for {trials} trials")
json.dump(report, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
print(f"BENCH obs untraced={untraced}s traced={traced}s "
      f"overhead={overhead:.1%} events={len(events)}")
PY
echo "BENCH wrote $OBS_OUT_JSON"

# --- Rocketfuel-scale kernel sweep --------------------------------------
# One full sweep (default config: 1k/2k/5k/10k targets, dense baselines
# at <= 2k, full system builds at <= 10k). The sweep already times each
# kernel internally, so a single run suffices; per-point `cores` records
# what this machine could honestly measure, and tomo-bench regression
# re-runs only the smallest point.
echo "BENCH scale sweep (tomo-sim run scale --seed $SEED --threads 1)"
mkdir -p "$WORK/scale"
"$BIN" run scale --seed "$SEED" --threads 1 \
  --out "$WORK/scale" --metrics "$WORK/scale_metrics.json"

python3 - "$WORK/scale/scale.json" "$WORK/scale_metrics.json" \
  "$CORES" "$SCALE_OUT_JSON" <<'PY'
import json, sys

scale_path, metrics_path, cores, out_path = sys.argv[1:5]
result = json.load(open(scale_path))
metrics = json.load(open(metrics_path))
counters = metrics.get("counters", {})
cores = int(cores)

factor = metrics.get("histograms", {}).get("linalg.sparse_chol.factor_seconds", {})
if factor.get("count", 0) < 2:
    sys.exit("BENCH ERROR: scale sweep never built a system through the "
             "sparse Gram factor")
if counters.get("lp.simplex.revised.solves", 0) < 1:
    sys.exit("BENCH ERROR: scale sweep never used the revised simplex")

points, best_speedup, best_links = [], None, None
for p in result["points"]:
    sparse = p["gram_sparse_seconds"] + p["lp_revised_seconds"] \
        + (p["system_build_seconds"] or 0.0)
    entry = {
        "target_links": p["target_links"],
        "links": p["links"],
        "paths": p["paths"],
        "routing_nnz": p["routing_nnz"],
        "gram_nnz": p["gram_nnz"],
        "gram_sparse_seconds": p["gram_sparse_seconds"],
        "gram_dense_seconds": p["gram_dense_seconds"],
        "system_build_seconds": p["system_build_seconds"],
        "path_enum_seconds": p["path_enum_seconds"],
        "factor_seconds": p["factor_seconds"],
        "lp_revised_seconds": p["lp_revised_seconds"],
        "lp_revised_pivots": p["lp_revised_pivots"],
        "lp_dense_seconds": p["lp_dense_seconds"],
        "sparse_seconds": round(sparse, 6),
        "cores": cores,
    }
    if p["gram_dense_seconds"] is not None and p["lp_dense_seconds"] is not None:
        dense = p["gram_dense_seconds"] + p["lp_dense_seconds"]
        fast = p["gram_sparse_seconds"] + p["lp_revised_seconds"]
        if fast > 0:
            entry["speedup_vs_dense"] = round(dense / fast, 2)
            best_speedup, best_links = entry["speedup_vs_dense"], p["links"]
    points.append(entry)

if best_speedup is None:
    sys.exit("BENCH ERROR: no sweep point ran the dense baselines")
if best_speedup < 3.0:
    sys.exit(f"BENCH ERROR: sparse path only {best_speedup}x vs dense "
             f"at {best_links} links (need >= 3x)")

# System-build hot path: before the sparse Gram factorization landed,
# the 10k-link TomographySystem build (dense Gram assembly feeding a
# dense O(n^3) Cholesky) took 256.5s on this machine. The overhaul must
# hold at least a 2x improvement.
BUILD_10K_BEFORE = 256.534226
ten_k = [p for p in points
         if p["target_links"] == 10_000 and p["system_build_seconds"] is not None]
build_gate = None
if ten_k:
    after = ten_k[0]["system_build_seconds"]
    if after * 2.0 > BUILD_10K_BEFORE:
        sys.exit(f"BENCH ERROR: 10k system build {after:.1f}s not >= 2x "
                 f"under the {BUILD_10K_BEFORE}s pre-overhaul baseline")
    build_gate = {
        "links": ten_k[0]["links"],
        "before_seconds": BUILD_10K_BEFORE,
        "after_seconds": after,
        "speedup": round(BUILD_10K_BEFORE / after, 1) if after > 0 else None,
    }
    print(f"BENCH scale 10k system build {after:.3f}s vs "
          f"{BUILD_10K_BEFORE}s pre-overhaul "
          f"({build_gate['speedup']}x)")

report = {
    "workload": "tomo-sim run scale --seed 42 --threads 1",
    "seed": result["seed"],
    "cores": cores,
    "system_build_10k": build_gate,
    "points": points,
}
json.dump(report, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
largest = points[-1]
print(f"BENCH scale largest point links={largest['links']} "
      f"sparse_seconds={largest['sparse_seconds']}")
print(f"BENCH scale sparse vs dense speedup={best_speedup}x "
      f"at {best_links} links")
PY
echo "BENCH wrote $SCALE_OUT_JSON"

# --- tomo-serve: ingest throughput + query tail under load ---------------
# The daemon bench runs fully in-process (server, probe client, and a
# concurrent query thread), so its p99 is the serving tail under real
# ingest. Best-of-3 on the tail, same discipline as every gate above.
SERVE_BENCH=target/release/tomo-serve
echo "BENCH serve workload (tomo-serve bench --batches 400)"
for i in 1 2 3; do
  "$SERVE_BENCH" bench --batches 400 > "$WORK/serve_$i.json"
done

python3 - "$WORK/serve_1.json" "$WORK/serve_2.json" "$WORK/serve_3.json" \
  "$CORES" "$SERVE_OUT_JSON" <<'PY'
import json, sys

runs = [json.load(open(p)) for p in sys.argv[1:4]]
cores, out_path = int(sys.argv[4]), sys.argv[5]
best = min(runs, key=lambda r: r["query_p99_us"])
if not best["slo_met"]:
    sys.exit(f"BENCH ERROR: serve p99 {best['query_p99_us']}us blew the "
             f"{best['slo_ms']}ms SLO on every run")
report = {
    "workload": "tomo-serve bench --batches 400",
    "runs_per_point": 3,
    "cores": cores,
    **best,
}
json.dump(report, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
print(f"BENCH serve batches_per_sec={best['batches_per_sec']} "
      f"queries={best['queries']} p50={best['query_p50_us']}us "
      f"p99={best['query_p99_us']}us (SLO {best['slo_ms']}ms)")
PY
echo "BENCH wrote $SERVE_OUT_JSON"

# --- tomo-serve: multi-client load sweep ---------------------------------
# N concurrent probe clients against one daemon with a query hammer; the
# sweep itself enforces bit-exact final state vs the single-client
# reference, so any run that completes is correct — here we keep the run
# with the lowest p99 at the largest fleet and gate the throughput floor
# the regression gate will hold future changes to.
echo "BENCH serve-load sweep (tomo-sim run serve-load --seed $SEED --threads 1)"
for i in 1 2 3; do
  mkdir -p "$WORK/serve_load_$i"
  "$BIN" run serve-load --seed "$SEED" --threads 1 \
    --out "$WORK/serve_load_$i" >/dev/null
done

python3 - "$WORK/serve_load_1/serve_load.json" \
  "$WORK/serve_load_2/serve_load.json" \
  "$WORK/serve_load_3/serve_load.json" "$SERVE_LOAD_OUT_JSON" <<'PY'
import json, sys

runs = [json.load(open(p)) for p in sys.argv[1:4]]
out_path = sys.argv[4]
best = min(runs, key=lambda r: r["points"][-1]["query_p99_us"])
slo_us = best["config"]["slo_ms"] * 1000.0
for p in best["points"]:
    if not p["byte_identical"]:
        sys.exit(f"BENCH ERROR: serve-load {p['clients']}-client fleet "
                 f"diverged from the single-client reference")
    if not p["slo_ok"] or p["query_p99_us"] >= slo_us:
        sys.exit(f"BENCH ERROR: serve-load {p['clients']}-client p99 "
                 f"{p['query_p99_us']}us blew the {slo_us}us SLO")
sixteen = [p for p in best["points"] if p["clients"] == 16]
if not sixteen:
    sys.exit("BENCH ERROR: serve-load sweep has no 16-client point")
if sixteen[0]["batches_per_sec"] < 80_000:
    sys.exit(f"BENCH ERROR: 16-client throughput "
             f"{sixteen[0]['batches_per_sec']:.0f} batches/s < 80k floor")
json.dump(best, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
for p in best["points"]:
    print(f"BENCH serve-load clients={p['clients']} "
          f"batches_per_sec={p['batches_per_sec']:.0f} "
          f"p50={p['query_p50_us']}us p99={p['query_p99_us']}us "
          f"rejects={p['queue_rejects']}")
PY
echo "BENCH wrote $SERVE_LOAD_OUT_JSON"
