#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every smoke below writes under one work dir. The one trap removes it
# and stops any daemon a failed step left running.
WORK="$(mktemp -d /tmp/tomo-ci.XXXXXX)"
SERVE_PID=""
DAEMON_PID=""
trap 'kill $SERVE_PID $DAEMON_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "==> cargo build --release --workspace (library plus the tomo-* binaries the smokes run)"
cargo build --release --workspace

echo "==> cargo test -q --workspace (root suites plus every crate's unit tests and proptests)"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Every package and every target: libraries, binaries, tests, benches
# and examples.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# Every public doc must build without warnings: a stale or ambiguous
# intra-doc link (an item renamed, deleted or made private) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml (benchmark build + tiny oracle runs)"
# The benchmark is a workspace of its own that builds against these
# crates; its tests run all four workloads at tiny size with their
# oracles, so a library change that breaks the benchmark fails here.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> artifact contract (seed-42 artifacts byte-identical to artifacts/)"
# Regenerate every committed artifact, at 1 and at 2 threads, and
# compare bytes: any change to placement, the LP layer, the detector or
# the trial streams that moves a single number fails here. `run all`
# runs only the figures, so the noise campaigns run on their own.
for threads in 1 2; do
  ARTIFACT_OUT="$WORK/artifacts-t$threads"
  target/release/tomo-sim run all --seed 42 --threads "$threads" \
    --out "$ARTIFACT_OUT" --metrics "$WORK/all-metrics-t$threads.json" >/dev/null
  target/release/tomo-sim run gap --seed 42 --threads "$threads" \
    --out "$ARTIFACT_OUT" --metrics "$WORK/gap-metrics-t$threads.json" >/dev/null
  target/release/tomo-sim run noise --seed 42 --threads "$threads" \
    --out "$ARTIFACT_OUT" >/dev/null
  for name in fig2 fig4 fig5 fig6 fig7 fig8 fig9 gap noise; do
    cmp "artifacts/$name.json" "$ARTIFACT_OUT/$name.json" || {
      echo "ci: $name.json at $threads threads differs from artifacts/$name.json" >&2
      exit 1
    }
  done
done
# At 3 threads the figures' trials land on the workers in yet another
# order, so a worker's reused LP buffers see other solves before each
# one: the seven figure artifacts must keep their bytes there too. run gap
# evaluates its candidates in fixed-size batches, so its LP work must not
# depend on the worker count either: pin it at 3 threads too, and at 8,
# where placement's workers run furthest past the pair that fills the
# rank.
target/release/tomo-sim run all --seed 42 --threads 3 \
  --out "$WORK/artifacts-t3" --metrics "$WORK/all-metrics-t3.json" >/dev/null
target/release/tomo-sim run gap --seed 42 --threads 3 \
  --out "$WORK/artifacts-t3" --metrics "$WORK/gap-metrics-t3.json" >/dev/null
target/release/tomo-sim run gap --seed 42 --threads 8 \
  --out "$WORK/artifacts-t8" --metrics "$WORK/gap-metrics-t8.json" >/dev/null
for name in fig2 fig4 fig5 fig6 fig7 fig8 fig9 gap; do
  cmp "artifacts/$name.json" "$WORK/artifacts-t3/$name.json" || {
    echo "ci: $name.json at 3 threads differs from artifacts/$name.json" >&2
    exit 1
  }
done
cmp artifacts/gap.json "$WORK/artifacts-t8/gap.json" || {
  echo "ci: gap.json at 8 threads differs from artifacts/gap.json" >&2
  exit 1
}
echo "ci: all nine seed-42 artifacts are byte-identical to artifacts/ at 1 and 2 threads (the seven figures and gap.json at 3 too, gap.json at 8)"
# Same bytes could hide a changed search: pin the LP layer's decisions
# too. Every dense-tableau solve, pivot and iteration, each solve's
# outcome, and the standard-form rows summed over solves must repeat
# exactly (box-implied rows never pivot, so only the row count would
# show them coming back). The phase-1 objective must keep both verdicts
# far from LP_TOL = 1e-7: every infeasible solve ends at >= 1e-2, every
# feasible one at <= 1e-8. The estimator and projector columns are
# computed on first use, so the number of distinct columns a run builds
# is pinned as well, at every thread count. Placement streams its Yen
# calls over the workers but feeds the rank tracker in pair order and
# drops the calls run past full rank uncounted, so its Yen calls,
# returned paths and rank raises must repeat exactly too. Each
# attacker set caches one attack context (clean estimate and LP rows) per
# system and x, and is used on one thread, so the contexts built are
# pinned at every thread count: a strategy that stops sharing them, or a
# cache that shares one across systems, moves this count. Each thread
# keeps its last Eq. 2 solve, keyed by system id and the bits of y; the
# repeats it answers fall within one trial, which runs on one thread, so
# the solves and the reuses are pinned at every thread count too (8
# threads read the same).
python3 - "$WORK" <<'PY'
import json, sys
expected = {
    "all": {"solves": 5323, "pivots": 291693, "iterations": 299971,
            "optimal": 3197, "infeasible": 2126, "rows": 382025},
    "gap": {"solves": 81, "pivots": 4522, "iterations": 4554,
            "optimal": 18, "infeasible": 63, "rows": 5582},
}
expected_builds = {"all": 2828, "gap": 834}
expected_contexts = {"all": 1024, "gap": 63}
expected_estimates = {
    "all": {"solves": 1452, "reused": 258},
    "gap": {"solves": 78, "reused": 3},
}
expected_placement = {
    "all": {"pairs": 41348, "candidates": 246323, "rank_raises": 1808},
    "gap": {"pairs": 9606, "candidates": 57203, "rank_raises": 369},
}
for run, threads in (("all", 1), ("gap", 1), ("all", 2), ("gap", 2),
                    ("all", 3), ("gap", 3), ("gap", 8)):
    path = f"{sys.argv[1]}/{run}-metrics-t{threads}.json"
    metrics = json.load(open(path))
    counters = metrics.get("counters", {})
    got = {k: counters.get(f"lp.simplex.{k}", 0) for k in expected[run]}
    if got != expected[run]:
        sys.exit(f"ci: run {run} at {threads} threads: lp.simplex "
                 f"counters {got} != {expected[run]}")
    builds = counters.get("core.estimator_cache.builds", 0)
    if builds != expected_builds[run]:
        sys.exit(f"ci: run {run} at {threads} threads: "
                 f"core.estimator_cache.builds {builds} != "
                 f"{expected_builds[run]}")
    contexts = counters.get("attack.context.builds", 0)
    if contexts != expected_contexts[run]:
        sys.exit(f"ci: run {run} at {threads} threads: "
                 f"attack.context.builds {contexts} != "
                 f"{expected_contexts[run]}")
    estimates = {k: counters.get(f"core.estimate.{k}", 0)
                 for k in expected_estimates[run]}
    if estimates != expected_estimates[run]:
        sys.exit(f"ci: run {run} at {threads} threads: core.estimate "
                 f"counters {estimates} != {expected_estimates[run]}")
    placement = {k: counters.get(f"core.placement.{k}", 0)
                 for k in expected_placement[run]}
    if placement != expected_placement[run]:
        sys.exit(f"ci: run {run} at {threads} threads: core.placement "
                 f"counters {placement} != {expected_placement[run]}")
    margin = metrics.get("histograms", {})
    feasible = margin.get("lp.simplex.phase1_objective.feasible")
    infeasible = margin.get("lp.simplex.phase1_objective.infeasible")
    if not feasible or not infeasible:
        sys.exit(f"ci: run {run} at {threads} threads: no phase-1 "
                 f"objective histograms in {path}")
    if infeasible["min"] < 1e-2 or feasible["max"] > 1e-8:
        sys.exit(f"ci: run {run} at {threads} threads: phase-1 margin "
                 f"drifted toward LP_TOL: infeasible min "
                 f"{infeasible['min']}, feasible max {feasible['max']}")
print("ci: lp.simplex solves/pivots/iterations/optimal/infeasible/rows, "
      "the phase-1 verdict margin, core.estimator_cache.builds, "
      "attack.context.builds, core.estimate solves/reused and "
      "core.placement pairs/candidates/rank_raises match for run all and "
      "run gap at 1, 2 and 3 threads, and run gap at 8")
PY

echo "==> tomo-sim 2-thread smoke (fig7 --quick --threads 2 --metrics)"
SMOKE_METRICS="$WORK/smoke-metrics.json"
target/release/tomo-sim run fig7 --quick --threads 2 --metrics "$SMOKE_METRICS" >/dev/null
# Each placement streams its Yen calls through one fan-out, so the run
# makes 4 batches: 2 placements and 2 trial maps. A return to one map per
# placed monitor reads ~187 here.
python3 - "$SMOKE_METRICS" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
gauges = metrics.get("gauges", {})
workers = gauges.get("par.workers")
nnz = gauges.get("linalg.sparse.nnz", 0)
batches = metrics.get("counters", {}).get("par.batches")
if workers != 2:
    sys.exit(f"ci: expected par.workers = 2, got {workers}")
if nnz < 1:
    sys.exit(f"ci: expected linalg.sparse.nnz > 0, got {nnz}")
if batches != 4:
    sys.exit(f"ci: expected par.batches = 4 (2 placements, 2 trial maps), got {batches}")
print(f"ci: 2-thread smoke reported par.workers = 2 and par.batches = 4 (sparse nnz={nnz})")
PY

echo "==> tomo-sim scale smoke (scale --quick --threads 1 --metrics)"
# The smallest sweep point must build its system through the sparse Gram
# factor (two factorizations: the standalone one and the system build's)
# and route its budget LP through the revised simplex, and the artifact
# must land on disk. Its structure is pinned: a 689-node graph (11-word
# BFS levels) and a 999-column rank check (16 words), whose `gram_nnz`
# moves if the BFS tie-break does.
SCALE_METRICS="$WORK/scale-metrics.json"
SCALE_OUT="$WORK/scale"
target/release/tomo-sim run scale --quick --seed 42 --threads 1 \
  --metrics "$SCALE_METRICS" --out "$SCALE_OUT" >/dev/null
python3 - "$SCALE_METRICS" "$SCALE_OUT/scale.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
counters = metrics.get("counters", {})
artifact = json.load(open(sys.argv[2]))
factor = metrics.get("histograms", {}).get("linalg.sparse_chol.factor_seconds", {})
factors = factor.get("count", 0)
revised = counters.get("lp.simplex.revised.solves", 0)
if factors < 2:
    sys.exit(f"ci: expected >= 2 sparse Gram factorizations, got {factors}")
if revised < 1:
    sys.exit(f"ci: expected lp.simplex.revised.solves > 0, got {revised}")
points = artifact.get("points", [])
if not points:
    sys.exit("ci: scale.json has no points")
expected = {"links": 999, "nodes": 689, "paths": 1199, "routing_nnz": 2000, "gram_nnz": 4943}
got = {k: points[0].get(k) for k in expected}
if got != expected:
    sys.exit(f"ci: scale smoke structure {got}, expected {expected}")
print(f"ci: scale smoke made {factors} sparse Gram factorizations and used "
      f"the revised simplex ({points[0]['links']} links, "
      f"{points[0]['lp_revised_pivots']} pivots)")
PY

echo "==> localize example (cargo run --release --example localize_attacker)"
# Attacker localization end to end: the example frames a victim from one
# ISP router and must find that router among the suspects.
LOCALIZE_OUT="$(cargo run -q --release --example localize_attacker)"
echo "$LOCALIZE_OUT" | grep -q 'attacker among them: YES' || {
  echo "ci: localize example did not find the attacker:" >&2
  echo "$LOCALIZE_OUT" >&2
  exit 1
}
echo "ci: localize example found the attacker among the suspects"

echo "==> tomo-sim chaos smoke (chaos --quick --threads 2 --metrics)"
# Default fault mix (measurement faults only): faults must fire, every
# one must be absorbed by a degradation path, and the run must exit 0.
CHAOS_METRICS="$WORK/chaos-metrics.json"
CHAOS_OUT="$WORK/chaos"
target/release/tomo-sim run chaos --quick --seed 42 --threads 2 \
  --metrics "$CHAOS_METRICS" --out "$CHAOS_OUT" >/dev/null
python3 - "$CHAOS_METRICS" "$CHAOS_OUT/chaos.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
artifact = json.load(open(sys.argv[2]))
injected = counters.get("fault.injected", 0)
if injected < 1:
    sys.exit(f"ci: expected fault.injected > 0, got {injected}")
totals = artifact["totals"]
if totals["injected"] != totals["handled"] + totals["quarantined"]:
    sys.exit(f"ci: chaos fault ledger unbalanced: {totals}")
if totals["quarantined_trials"] != 0:
    sys.exit(f"ci: default chaos mix quarantined "
             f"{totals['quarantined_trials']} trials")
print(f"ci: chaos smoke injected {injected} faults, "
      f"all handled ({totals['degraded_trials']} degraded trials, "
      f"0 quarantined)")
PY

echo "==> degraded-branch smoke (exact and ridge degraded solves on the chaos path)"
# The chaos smoke above loses probes on every sweep point: most degraded
# solves must keep full rank and take the exact branch, and at least one
# must collapse the rank and take the ridge branch, with the fault ledger
# balanced.
python3 - "$CHAOS_METRICS" "$CHAOS_OUT/chaos.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
artifact = json.load(open(sys.argv[2]))
solves = counters.get("core.degraded.solves", 0)
ridge = counters.get("core.degraded.ridge", 0)
if not solves > ridge >= 1:
    sys.exit(f"ci: expected core.degraded.solves > core.degraded.ridge >= 1, "
             f"got {solves} solves and {ridge} ridge")
totals = artifact["totals"]
if totals["injected"] != totals["handled"] + totals["quarantined"]:
    sys.exit(f"ci: chaos fault ledger unbalanced: {totals}")
print(f"ci: degraded smoke made {solves} degraded solves, {ridge} of them "
      f"ridge, ledger balanced")
PY

echo "==> tomo-sim trace smoke (fig7 --quick --trace-out)"
# --trace-out must emit valid Chrome trace-event JSON with one span and
# one provenance instant per Monte-Carlo trial (fig7 --quick = 80).
TRACE_JSON="$WORK/trace.json"
target/release/tomo-sim run fig7 --quick --seed 42 --threads 2 \
  --trace-out "$TRACE_JSON" >/dev/null 2>&1
python3 - "$TRACE_JSON" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
trials = [e for e in events if e.get("ph") == "X" and e.get("name") == "trial"]
instants = [e for e in events if e.get("ph") == "i"]
if len(trials) < 80:
    sys.exit(f"ci: expected >= 80 trial spans, got {len(trials)}")
if len(instants) < 80:
    sys.exit(f"ci: expected >= 80 provenance instants, got {len(instants)}")
orphans = [e for e in instants
           if str(e["args"].get("parent_id", "0")) == "0"]
if orphans:
    sys.exit(f"ci: {len(orphans)} provenance instants have no parent span")
keys = {"seed", "trial", "degraded"}
missing = [e for e in instants if not keys <= set(e["args"])]
if missing:
    sys.exit(f"ci: {len(missing)} provenance instants missing {keys}")
print(f"ci: trace smoke captured {len(trials)} trial spans and "
      f"{len(instants)} provenance records")
PY

echo "==> tomo-sim --serve-metrics smoke (live Prometheus scrape mid-run)"
# Scrape the run-scoped endpoint while fig7 is still executing: the
# response must carry Prometheus type families for the live counters.
SERVE_PORT=9184
target/release/tomo-sim run fig7 --quick --seed 42 --threads 1 \
  --serve-metrics "$SERVE_PORT" >/dev/null 2>&1 &
SERVE_PID=$!
python3 - "$SERVE_PORT" <<'PY'
import sys, time, urllib.request
port = sys.argv[1]
url = f"http://127.0.0.1:{port}/metrics"
for _ in range(50):  # fig7 --quick runs ~2s; poll until families appear
    try:
        body = urllib.request.urlopen(url, timeout=1).read().decode()
        if "# TYPE tomo_" in body:
            families = sum(1 for l in body.splitlines()
                           if l.startswith("# TYPE "))
            print(f"ci: mid-run scrape returned {families} "
                  f"Prometheus families")
            sys.exit(0)
    except OSError:
        pass
    time.sleep(0.1)
sys.exit("ci: never scraped Prometheus text from the running simulator")
PY
wait "$SERVE_PID"

echo "==> tomo-serve smoke (daemon + faulted probe + HTTP + shutdown)"
# Boot the streaming daemon on ephemeral ports, stream faulted batches
# at it with tomo-probe, check the delivery ledger balances, hit every
# HTTP endpoint, then shut it down over HTTP and require a clean exit.
SERVE_WORK="$WORK/serve"
mkdir -p "$SERVE_WORK"
SERVE_LOG="$SERVE_WORK/daemon.log"
target/release/tomo-serve --ingest-port 0 --http-port 0 \
  --journal "$SERVE_WORK/journal.bin" --max-secs 120 > "$SERVE_LOG" &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^http_addr=' "$SERVE_LOG" 2>/dev/null && break
  sleep 0.1
done
INGEST_ADDR="$(sed -n 's/^ingest_addr=//p' "$SERVE_LOG")"
HTTP_ADDR="$(sed -n 's/^http_addr=//p' "$SERVE_LOG")"
if [ -z "$INGEST_ADDR" ] || [ -z "$HTTP_ADDR" ]; then
  echo "ci: tomo-serve never printed its bound addresses" >&2
  exit 1
fi
PROBE_JSON="$(target/release/tomo-probe --addr "$INGEST_ADDR" \
  --batches 24 --seed 42 --faults frame=0.3)"
echo "$PROBE_JSON" | grep -q '"acked": 24' || {
  echo "ci: probe did not deliver all 24 batches: $PROBE_JSON" >&2
  exit 1
}
echo "$PROBE_JSON" | grep -q '"balanced": true' || {
  echo "ci: probe fault ledger unbalanced: $PROBE_JSON" >&2
  exit 1
}
echo "ci: faulted probe delivered 24/24 with a balanced ledger"
python3 - "$HTTP_ADDR" <<'PY'
import json, sys, urllib.request
base = f"http://{sys.argv[1]}"
def get(path):
    return urllib.request.urlopen(base + path, timeout=2).read().decode()
if "ok" not in get("/healthz"):
    sys.exit("ci: /healthz not ok")
get("/readyz")  # raises on 503; full-coverage stream makes it ready
state = json.loads(get("/state"))
if state["coverage"] != state["num_paths"] or state["degraded"]:
    sys.exit(f"ci: /state not fully covered: {state}")
verdict = json.loads(get("/verdict"))
if verdict["detected"]:
    sys.exit(f"ci: clean stream flagged by the detector: {verdict}")
stats = json.loads(get("/stats"))
if stats["applied"] != 24:
    sys.exit(f"ci: /stats applied != 24: {stats}")
if stats["quarantined_frames"] < 1:
    sys.exit(f"ci: frame faults never quarantined: {stats}")
p99 = stats["query_latency_us"]["p99"]
if p99 is not None and p99 >= stats["slo_ms"] * 1000.0:
    sys.exit(f"ci: query p99 {p99}us blew the {stats['slo_ms']}ms SLO")
families = [l for l in get("/metrics").splitlines()
            if l.startswith("# TYPE tomo_serve_")]
if not families:
    sys.exit("ci: /metrics has no tomo_serve_ family")
req = urllib.request.Request(base + "/shutdown", data=b"", method="POST")
urllib.request.urlopen(req, timeout=2)
print(f"ci: serve smoke ok (applied=24, quarantined_frames="
      f"{stats['quarantined_frames']}, query p99={p99}us, "
      f"{len(families)} tomo_serve_ metric families)")
PY
# A shutdown that hangs must fail this step, not stall it: poll for the
# daemon's exit for at most 30 s, then kill it.
for _ in $(seq 300); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  kill -9 "$DAEMON_PID" 2>/dev/null || true
  echo "ci: tomo-serve still running 30 s after POST /shutdown; killed it" >&2
  exit 1
fi
wait "$DAEMON_PID" || {
  echo "ci: tomo-serve exited non-zero after /shutdown" >&2
  exit 1
}
grep -q 'reason=requested' "$SERVE_LOG" || {
  echo "ci: daemon exit was not the requested shutdown:" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
echo "ci: daemon shut down cleanly on request"

echo "==> tomo-sim serve-chaos smoke (live daemon kill/restart sweep)"
# The sweep itself enforces the invariants (balanced ledger, bit-exact
# reconvergence after a mid-sweep restart, p99 under SLO, every loaded
# snapshot whole and its version monotone) and exits non-zero on any
# violation. The smoke re-checks the artifact, and that the query hammer
# ran at every point (an SLO over zero queries holds vacuously).
SERVE_CHAOS_OUT="$WORK/serve-chaos"
target/release/tomo-sim run serve-chaos --quick --seed 42 \
  --out "$SERVE_CHAOS_OUT" >/dev/null
python3 - "$SERVE_CHAOS_OUT/serve_chaos.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
points = r["points"]
if not points:
    sys.exit("ci: serve-chaos produced no points")
for p in points:
    if not p["byte_identical"]:
        sys.exit(f"ci: serve-chaos point {p['scale']} not bit-exact")
    if p["epoch_after_restart"] != 2:
        sys.exit(f"ci: serve-chaos point {p['scale']} epoch "
                 f"{p['epoch_after_restart']} != 2 after one restart")
    if not p["slo_ok"]:
        sys.exit(f"ci: serve-chaos point {p['scale']} blew the SLO")
    if p["queries"] < 1:
        sys.exit(f"ci: serve-chaos point {p['scale']} ran no queries")
t = r["totals"]
if t["injected"] != t["handled"] + t["quarantined"]:
    sys.exit(f"ci: serve-chaos ledger unbalanced: {t}")
print(f"ci: serve-chaos smoke ok ({len(points)} points, "
      f"{t['injected']} wire faults, every restart bit-exact)")
PY

echo "==> tomo-sim serve-load smoke (concurrent clients vs one daemon, --quick)"
# The quick sweep runs 1 then 4 concurrent clients against a single
# daemon with query hammering; the run itself enforces bit-exact final
# state vs the offline engine reference and snapshot self-checks, and
# exits non-zero on any violation. The smoke re-checks the artifact,
# and that the query hammer ran at every point.
SERVE_LOAD_OUT="$WORK/serve-load"
target/release/tomo-sim run serve-load --quick --seed 42 \
  --out "$SERVE_LOAD_OUT" >/dev/null
python3 - "$SERVE_LOAD_OUT/serve_load.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
points = r["points"]
clients = [p["clients"] for p in points]
if not points or max(clients) < 4:
    sys.exit(f"ci: serve-load smoke never reached 4 concurrent clients: {clients}")
total = r["config"]["batches_total"]
for p in points:
    if p["batches"] != total:
        sys.exit(f"ci: serve-load {p['clients']}-client point delivered "
                 f"{p['batches']}/{total} batches")
    if not p["byte_identical"]:
        sys.exit(f"ci: serve-load {p['clients']}-client final state "
                 f"diverged from the offline reference")
    if not p["slo_ok"]:
        sys.exit(f"ci: serve-load {p['clients']}-client point blew the "
                 f"{r['config']['slo_ms']}ms query SLO")
    if p["snapshot_version"] < 1:
        sys.exit(f"ci: serve-load {p['clients']}-client point never "
                 f"published a snapshot")
    if p["queries"] < 1:
        sys.exit(f"ci: serve-load {p['clients']}-client point ran no "
                 f"queries")
best = max(p["batches_per_sec"] for p in points)
print(f"ci: serve-load smoke ok ({clients} clients, every fleet "
      f"bit-exact, best {best:.0f} batches/s)")
PY

echo "==> tomo-bench regression (committed BENCH baselines)"
# TOMO_BENCH_SKIP=1 skips the gate (e.g. on shared/noisy runners).
target/release/tomo-bench regression

echo "ci: all checks passed"
