//! `tomo-bench` — performance-regression gate over the committed
//! `BENCH_*.json` baselines.
//!
//! ```text
//! tomo-bench regression [--dir DIR] [--threshold FRAC] [--runs N]
//! ```
//!
//! Loads `BENCH_montecarlo.json` from `DIR` (default: the current
//! directory), re-runs each recorded workload point in-process, and
//! fails when throughput regresses by more than `FRAC` (default 0.15)
//! against the committed `trials_per_sec`. When `BENCH_scale.json` is
//! also present, its smallest sweep point (the sparse Gram + system
//! build + revised-simplex pipeline at ~1k links) is re-run the same
//! way and gated on combined sparse-path seconds. When
//! `BENCH_serve.json` is present, the `tomo-serve` ingest/query
//! workload is re-run and its p99 query latency gated against both the
//! committed SLO and the committed tail (with absolute slack, since µs
//! tails jitter more than throughput). When `BENCH_serve_load.json` is
//! present, the multi-client serve-load sweep is re-run and gated on
//! aggregate throughput (>15% regression fails) and on the p99 staying
//! under the SLO at every client count. Points recorded on more cores
//! than this machine has are skipped rather than failed, and
//! `TOMO_BENCH_SKIP=1` bypasses the whole gate — both escape hatches
//! keep the check honest on smaller CI runners.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tomo_par::Executor;
use tomo_sim::{fig7, scale};

/// Workload identity: must match `scripts/bench_trajectory.sh`.
const BASELINE_FILE: &str = "BENCH_montecarlo.json";
const SCALE_FILE: &str = "BENCH_scale.json";
const SERVE_FILE: &str = "BENCH_serve.json";
const SERVE_LOAD_FILE: &str = "BENCH_serve_load.json";
/// Absolute slack added to the serve p99 ceiling: sub-millisecond tails
/// jitter by tens of µs run to run, which a pure fraction would flag.
const SERVE_P99_SLACK_US: f64 = 250.0;
const BASELINE_SEED: u64 = 42;
const DEFAULT_THRESHOLD: f64 = 0.15;
const DEFAULT_RUNS: usize = 3;

struct Options {
    dir: PathBuf,
    threshold: f64,
    runs: usize,
}

fn usage() -> String {
    "usage:\n  tomo-bench regression [--dir DIR] [--threshold FRAC] [--runs N]\n\n\
     Re-runs the committed BENCH_montecarlo.json workload points (and, when\n\
     present, BENCH_scale.json's smallest sweep point) and fails on >FRAC\n\
     (default 0.15) regression. Points needing more cores than available\n\
     are skipped; TOMO_BENCH_SKIP=1 skips the gate."
        .to_string()
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    if argv.first().map(String::as_str) != Some("regression") {
        return Err(usage());
    }
    let mut opts = Options {
        dir: PathBuf::from("."),
        threshold: DEFAULT_THRESHOLD,
        runs: DEFAULT_RUNS,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => {
                let v = argv.get(i + 1).ok_or("--dir needs a value")?;
                opts.dir = PathBuf::from(v);
                i += 2;
            }
            "--threshold" => {
                let v = argv.get(i + 1).ok_or("--threshold needs a value")?;
                let frac: f64 = v.parse().map_err(|_| format!("bad threshold {v:?}"))?;
                if !(0.0..1.0).contains(&frac) {
                    return Err("--threshold must be in [0, 1)".to_string());
                }
                opts.threshold = frac;
                i += 2;
            }
            "--runs" => {
                let v = argv.get(i + 1).ok_or("--runs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad run count {v:?}"))?;
                if n == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
                opts.runs = n;
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// One recorded throughput point from the baseline file.
#[derive(Debug)]
struct BaselinePoint {
    threads: usize,
    trials_per_sec: f64,
    /// Cores present when the point was recorded (per-point override,
    /// falling back to the file-level `cores` field).
    cores: Option<u64>,
}

#[derive(Debug)]
struct Baseline {
    trials: u64,
    cores: Option<u64>,
    points: Vec<BaselinePoint>,
}

fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field_f64 = |v: &serde_json::Value, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{}: missing numeric {key:?}", path.display()))
    };
    let trials = field_f64(&root, "trials")? as u64;
    let cores = root.get("cores").and_then(serde_json::Value::as_f64);
    let points = root
        .get("points")
        .and_then(|p| match p {
            serde_json::Value::Array(items) => Some(items.as_slice()),
            _ => None,
        })
        .ok_or_else(|| format!("{}: missing \"points\" array", path.display()))?
        .iter()
        .map(|p| {
            Ok(BaselinePoint {
                threads: field_f64(p, "threads")? as usize,
                trials_per_sec: field_f64(p, "trials_per_sec")?,
                cores: p
                    .get("cores")
                    .and_then(serde_json::Value::as_f64)
                    .map(|c| c as u64),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if points.is_empty() {
        return Err(format!("{}: no points to check", path.display()));
    }
    Ok(Baseline {
        trials,
        cores: cores.map(|c| c as u64),
        points,
    })
}

/// The `tomo-sim run fig7 --quick` workload the baseline records,
/// re-run in-process: same seed, same config, chosen thread count.
fn run_workload(threads: usize, runs: usize) -> Result<(f64, u64), String> {
    let config = fig7::Fig7Config {
        num_systems: 1,
        trials_per_system: 40,
        ..fig7::Fig7Config::default()
    };
    let exec = Executor::new(threads);
    let mut best = f64::INFINITY;
    let mut trials = 0u64;
    for _ in 0..runs {
        let start = Instant::now();
        let result = fig7::run(BASELINE_SEED, &config, &exec).map_err(|e| format!("fig7: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        trials = (result.wireline.trials + result.wireless.trials) as u64;
        best = best.min(secs);
    }
    Ok((best, trials))
}

/// The smallest committed scale-sweep point, reduced to what the gate
/// re-measures: identity (links/paths, for drift detection), the
/// recorded sparse-path seconds, and the cores it was recorded on.
#[derive(Debug)]
struct ScaleBaseline {
    links: u64,
    paths: u64,
    sparse_seconds: f64,
    cores: Option<u64>,
}

fn load_scale_baseline(path: &Path) -> Result<ScaleBaseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let first = root
        .get("points")
        .and_then(|p| match p {
            serde_json::Value::Array(items) => items.first(),
            _ => None,
        })
        .ok_or_else(|| format!("{}: missing non-empty \"points\" array", path.display()))?;
    let field = |key: &str| -> Result<f64, String> {
        first
            .get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{}: point missing numeric {key:?}", path.display()))
    };
    Ok(ScaleBaseline {
        links: field("links")? as u64,
        paths: field("paths")? as u64,
        sparse_seconds: field("sparse_seconds")?,
        cores: first
            .get("cores")
            .and_then(serde_json::Value::as_f64)
            .map(|c| c as u64)
            .or_else(|| {
                root.get("cores")
                    .and_then(serde_json::Value::as_f64)
                    .map(|c| c as u64)
            }),
    })
}

/// Re-runs the baseline's smallest sweep point: the full default-config
/// workload at the 1000-link target (same derived seed as a full sweep,
/// dense baselines off — the gate times only the sparse path it checks).
fn run_scale_workload(runs: usize) -> Result<(f64, u64, u64), String> {
    // Default sweep with the cap lowered, NOT `sweep: vec![1_000]`: the
    // nested-prefix sweep derives its topology stream from the largest
    // *configured* target, so only this shape reproduces the committed
    // baseline's first point byte-for-byte.
    let gate_config = scale::ScaleConfig {
        max_links: 1_000,
        dense_baseline_max_links: 0,
        ..scale::ScaleConfig::default()
    };
    let mut best = f64::INFINITY;
    let mut identity = (0u64, 0u64);
    for _ in 0..runs {
        let result = scale::run(BASELINE_SEED, &gate_config).map_err(|e| format!("scale: {e}"))?;
        let p = &result.points[0];
        identity = (p.links as u64, p.paths as u64);
        let secs =
            p.gram_sparse_seconds + p.lp_revised_seconds + p.system_build_seconds.unwrap_or(0.0);
        best = best.min(secs);
    }
    Ok((best, identity.0, identity.1))
}

fn scale_gate(opts: &Options, available: usize) -> Result<bool, String> {
    let path = opts.dir.join(SCALE_FILE);
    if !path.exists() {
        println!("  {SCALE_FILE}: SKIP (not present)");
        return Ok(false);
    }
    let baseline = load_scale_baseline(&path)?;
    if let Some(cores) = baseline.cores {
        if cores > available as u64 {
            println!("  scale: SKIP (baseline recorded on {cores} cores, have {available})");
            return Ok(false);
        }
    }
    let (secs, links, paths) = run_scale_workload(opts.runs)?;
    if links != baseline.links || paths != baseline.paths {
        return Err(format!(
            "workload drift: baseline point has {}/{} links/paths, re-run produced {links}/{paths} — \
             regenerate {SCALE_FILE} with scripts/bench_trajectory.sh",
            baseline.links, baseline.paths
        ));
    }
    // Mirror the throughput gate: fail when the sparse path got slower
    // by more than the threshold fraction.
    let ceiling = baseline.sparse_seconds / (1.0 - opts.threshold);
    let verdict = if secs > ceiling { "FAIL" } else { "ok" };
    println!(
        "  scale {links} links: {secs:.3}s sparse path vs baseline {:.3}s (ceiling {ceiling:.3}s) — {verdict}",
        baseline.sparse_seconds
    );
    Ok(secs > ceiling)
}

/// The committed `tomo-serve` workload identity and gated tail.
#[derive(Debug)]
struct ServeBaseline {
    batches: u64,
    rows_per_batch: u64,
    query_p99_us: f64,
    slo_ms: f64,
    cores: Option<u64>,
}

fn load_serve_baseline(path: &Path) -> Result<ServeBaseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |key: &str| -> Result<f64, String> {
        root.get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{}: missing numeric {key:?}", path.display()))
    };
    Ok(ServeBaseline {
        batches: field("batches")? as u64,
        rows_per_batch: field("rows_per_batch")? as u64,
        query_p99_us: field("query_p99_us")?,
        slo_ms: field("slo_ms")?,
        cores: root
            .get("cores")
            .and_then(serde_json::Value::as_f64)
            .map(|c| c as u64),
    })
}

/// Re-runs the daemon ingest + concurrent-query workload; keeps the
/// best (lowest) p99 across runs, the same best-of-N discipline as the
/// throughput gates.
fn run_serve_workload(baseline: &ServeBaseline, runs: usize) -> (f64, u64) {
    let config = tomo_serve::bench::BenchConfig {
        batches: baseline.batches as usize,
        slo_ms: baseline.slo_ms,
    };
    let mut best_p99 = f64::INFINITY;
    let mut rows_per_batch = 0u64;
    for _ in 0..runs {
        let report = tomo_serve::bench::run(&config);
        rows_per_batch = report.rows_per_batch as u64;
        best_p99 = best_p99.min(report.query_p99_us);
    }
    (best_p99, rows_per_batch)
}

/// Gates the serve workload's p99 query latency: fail when the tail
/// blows the committed SLO outright, or regresses past the committed
/// baseline by more than the threshold fraction plus absolute slack.
fn serve_gate(opts: &Options, available: usize) -> Result<bool, String> {
    let path = opts.dir.join(SERVE_FILE);
    if !path.exists() {
        println!("  {SERVE_FILE}: SKIP (not present)");
        return Ok(false);
    }
    let baseline = load_serve_baseline(&path)?;
    if let Some(cores) = baseline.cores {
        if cores > available as u64 {
            println!("  serve: SKIP (baseline recorded on {cores} cores, have {available})");
            return Ok(false);
        }
    }
    let (p99, rows_per_batch) = run_serve_workload(&baseline, opts.runs);
    if rows_per_batch != baseline.rows_per_batch {
        return Err(format!(
            "workload drift: baseline has {} rows/batch, re-run produced {rows_per_batch} — \
             regenerate {SERVE_FILE} with scripts/bench_trajectory.sh",
            baseline.rows_per_batch
        ));
    }
    let slo_us = baseline.slo_ms * 1000.0;
    let ceiling = (baseline.query_p99_us / (1.0 - opts.threshold))
        .max(baseline.query_p99_us + SERVE_P99_SLACK_US);
    let failed = p99 >= slo_us || p99 > ceiling;
    let verdict = if failed { "FAIL" } else { "ok" };
    println!(
        "  serve p99: {p99:.1}µs vs baseline {:.1}µs (ceiling {ceiling:.1}µs, SLO {slo_us:.0}µs) — {verdict}",
        baseline.query_p99_us
    );
    Ok(failed)
}

/// One committed serve-load sweep point: the identity and the two
/// numbers the gate re-measures.
#[derive(Debug)]
struct ServeLoadPointBaseline {
    clients: u64,
    batches_per_sec: f64,
    query_p99_us: f64,
}

/// The committed multi-client serve-load workload.
#[derive(Debug)]
struct ServeLoadBaseline {
    batches_total: u64,
    groups: u64,
    slo_ms: f64,
    cores: Option<u64>,
    points: Vec<ServeLoadPointBaseline>,
}

fn load_serve_load_baseline(path: &Path) -> Result<ServeLoadBaseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let config = root
        .get("config")
        .ok_or_else(|| format!("{}: missing \"config\" object", path.display()))?;
    let field = |v: &serde_json::Value, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{}: missing numeric {key:?}", path.display()))
    };
    let points = root
        .get("points")
        .and_then(|p| match p {
            serde_json::Value::Array(items) => Some(items.as_slice()),
            _ => None,
        })
        .ok_or_else(|| format!("{}: missing \"points\" array", path.display()))?
        .iter()
        .map(|p| {
            Ok(ServeLoadPointBaseline {
                clients: field(p, "clients")? as u64,
                batches_per_sec: field(p, "batches_per_sec")?,
                query_p99_us: field(p, "query_p99_us")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if points.is_empty() {
        return Err(format!("{}: no points to check", path.display()));
    }
    Ok(ServeLoadBaseline {
        batches_total: field(config, "batches_total")? as u64,
        groups: field(config, "groups")? as u64,
        slo_ms: field(config, "slo_ms")?,
        cores: root
            .get("cores")
            .and_then(serde_json::Value::as_f64)
            .map(|c| c as u64),
        points,
    })
}

/// Gates the multi-client serve-load sweep: re-runs the committed
/// workload (same client counts, batches and groups), keeps the
/// best throughput and tail per point across runs, and fails on a
/// past-threshold throughput regression or a p99 at (or past) the SLO at
/// any client count. The sweep's correctness invariants (bit-identical
/// state, snapshot self-checks) are enforced by the run itself — any
/// violation surfaces as an error here, not a silent pass.
fn serve_load_gate(opts: &Options, available: usize) -> Result<bool, String> {
    let path = opts.dir.join(SERVE_LOAD_FILE);
    if !path.exists() {
        println!("  {SERVE_LOAD_FILE}: SKIP (not present)");
        return Ok(false);
    }
    let baseline = load_serve_load_baseline(&path)?;
    if let Some(cores) = baseline.cores {
        if cores > available as u64 {
            println!("  serve-load: SKIP (baseline recorded on {cores} cores, have {available})");
            return Ok(false);
        }
    }
    let config = tomo_sim::serve_load::ServeLoadConfig {
        client_counts: baseline.points.iter().map(|p| p.clients as usize).collect(),
        batches_total: baseline.batches_total as usize,
        groups: baseline.groups as usize,
        slo_ms: baseline.slo_ms,
    };
    let mut best_tput = vec![0.0f64; baseline.points.len()];
    let mut best_p99 = vec![f64::INFINITY; baseline.points.len()];
    for _ in 0..opts.runs {
        let result =
            tomo_sim::serve_load::run(BASELINE_SEED, &config).map_err(|e| e.to_string())?;
        for (i, p) in result.points.iter().enumerate() {
            if p.clients as u64 != baseline.points[i].clients {
                return Err(format!(
                    "workload drift: baseline point {i} has {} clients, re-run produced {} — \
                     regenerate {SERVE_LOAD_FILE} with scripts/bench_trajectory.sh",
                    baseline.points[i].clients, p.clients
                ));
            }
            best_tput[i] = best_tput[i].max(p.batches_per_sec);
            best_p99[i] = best_p99[i].min(p.query_p99_us);
        }
    }
    let slo_us = baseline.slo_ms * 1000.0;
    let mut failed = false;
    for (i, b) in baseline.points.iter().enumerate() {
        let floor = b.batches_per_sec * (1.0 - opts.threshold);
        let point_failed = best_tput[i] < floor || best_p99[i] >= slo_us;
        let verdict = if point_failed { "FAIL" } else { "ok" };
        println!(
            "  serve-load {} clients: {:.0} batches/s vs baseline {:.0} (floor {:.0}), \
             p99 {:.1}µs vs baseline {:.1}µs (SLO {slo_us:.0}µs) — {verdict}",
            b.clients, best_tput[i], b.batches_per_sec, floor, best_p99[i], b.query_p99_us
        );
        if point_failed {
            failed = true;
        }
    }
    Ok(failed)
}

fn regression_gate(opts: &Options) -> Result<bool, String> {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let baseline = load_baseline(&opts.dir.join(BASELINE_FILE))?;
    if let Some(cores) = baseline.cores {
        println!("baseline recorded on {cores} core(s); this machine has {available}");
    }
    let mut failed = false;
    for point in &baseline.points {
        let recorded_cores = point.cores.or(baseline.cores);
        if point.threads > available {
            println!(
                "  threads={}: SKIP (needs {} cores, have {available})",
                point.threads, point.threads
            );
            continue;
        }
        if let Some(cores) = recorded_cores {
            if point.threads as u64 > cores {
                // An oversubscribed baseline point measures scheduler
                // contention, not throughput; never gate on it.
                println!(
                    "  threads={}: SKIP (baseline oversubscribed: {} > {cores} cores)",
                    point.threads, point.threads
                );
                continue;
            }
        }
        let (secs, trials) = run_workload(point.threads, opts.runs)?;
        if trials != baseline.trials {
            return Err(format!(
                "workload drift: baseline ran {} trials, re-run produced {trials} — \
                 regenerate {BASELINE_FILE} with scripts/bench_trajectory.sh",
                baseline.trials
            ));
        }
        let current = trials as f64 / secs;
        let floor = point.trials_per_sec * (1.0 - opts.threshold);
        let verdict = if current < floor { "FAIL" } else { "ok" };
        println!(
            "  threads={}: {:.1} trials/s vs baseline {:.1} (floor {:.1}) — {verdict}",
            point.threads, current, point.trials_per_sec, floor
        );
        if current < floor {
            failed = true;
        }
    }
    if scale_gate(opts, available)? {
        failed = true;
    }
    if serve_gate(opts, available)? {
        failed = true;
    }
    if serve_load_gate(opts, available)? {
        failed = true;
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if std::env::var("TOMO_BENCH_SKIP").as_deref() == Ok("1") {
        println!("tomo-bench regression: skipped (TOMO_BENCH_SKIP=1)");
        return ExitCode::SUCCESS;
    }
    match regression_gate(&opts) {
        Ok(false) => {
            println!("tomo-bench regression: ok");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!(
                "tomo-bench regression: throughput regressed more than {:.0}% — \
                 investigate, or regenerate baselines with scripts/bench_trajectory.sh",
                opts.threshold * 100.0
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("tomo-bench regression: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn requires_the_regression_subcommand() {
        assert!(parse_options(&argv(&[])).is_err());
        assert!(parse_options(&argv(&["bench"])).is_err());
        assert!(parse_options(&argv(&["regression"])).is_ok());
    }

    #[test]
    fn flags_are_validated() {
        let o = parse_options(&argv(&[
            "regression",
            "--dir",
            "baselines",
            "--threshold",
            "0.2",
            "--runs",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.dir, PathBuf::from("baselines"));
        assert!((o.threshold - 0.2).abs() < 1e-12);
        assert_eq!(o.runs, 1);
        assert!(parse_options(&argv(&["regression", "--threshold", "1.5"])).is_err());
        assert!(parse_options(&argv(&["regression", "--runs", "0"])).is_err());
        assert!(parse_options(&argv(&["regression", "--nope"])).is_err());
    }

    #[test]
    fn baseline_parses_committed_shape() {
        let dir = std::env::temp_dir().join("tomo_bench_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(BASELINE_FILE);
        std::fs::write(
            &path,
            r#"{
              "workload": "tomo-sim run fig7 --quick --seed 42",
              "trials": 80,
              "cores": 1,
              "runs_per_point": 3,
              "points": [
                {"threads": 1, "wall_secs": 2.8, "trials_per_sec": 28.0, "cores": 1}
              ]
            }"#,
        )
        .unwrap();
        let b = load_baseline(&path).unwrap();
        assert_eq!(b.trials, 80);
        assert_eq!(b.cores, Some(1));
        assert_eq!(b.points.len(), 1);
        assert_eq!(b.points[0].threads, 1);
        assert_eq!(b.points[0].cores, Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn baseline_rejects_missing_fields() {
        let dir = std::env::temp_dir().join("tomo_bench_baseline_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(BASELINE_FILE);
        std::fs::write(&path, r#"{"trials": 80}"#).unwrap();
        assert!(load_baseline(&path).unwrap_err().contains("points"));
        std::fs::write(&path, r#"{"points": []}"#).unwrap();
        assert!(load_baseline(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_baseline_parses_committed_shape() {
        let dir = std::env::temp_dir().join("tomo_bench_scale_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SCALE_FILE);
        std::fs::write(
            &path,
            r#"{
              "workload": "tomo-sim run scale --seed 42",
              "seed": 42,
              "cores": 1,
              "points": [
                {"links": 1005, "paths": 3005, "sparse_seconds": 0.11, "cores": 1},
                {"links": 2015, "paths": 4015, "sparse_seconds": 0.78}
              ]
            }"#,
        )
        .unwrap();
        let b = load_scale_baseline(&path).unwrap();
        assert_eq!(b.links, 1005);
        assert_eq!(b.paths, 3005);
        assert!((b.sparse_seconds - 0.11).abs() < 1e-12);
        assert_eq!(b.cores, Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_baseline_rejects_missing_fields() {
        let dir = std::env::temp_dir().join("tomo_bench_scale_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SCALE_FILE);
        std::fs::write(&path, r#"{"points": []}"#).unwrap();
        assert!(load_scale_baseline(&path).unwrap_err().contains("points"));
        std::fs::write(&path, r#"{"points": [{"links": 10, "paths": 20}]}"#).unwrap();
        assert!(load_scale_baseline(&path)
            .unwrap_err()
            .contains("sparse_seconds"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_baseline_parses_committed_shape() {
        let dir = std::env::temp_dir().join("tomo_bench_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SERVE_FILE);
        std::fs::write(
            &path,
            r#"{
              "workload": "tomo-serve bench --batches 400",
              "cores": 2,
              "batches": 400, "rows_per_batch": 8, "ingest_secs": 0.21,
              "batches_per_sec": 1900.0, "rows_per_sec": 15200.0,
              "queries": 410, "query_p50_us": 9.0, "query_p99_us": 31.0,
              "slo_ms": 5, "slo_met": true
            }"#,
        )
        .unwrap();
        let b = load_serve_baseline(&path).unwrap();
        assert_eq!(b.batches, 400);
        assert_eq!(b.rows_per_batch, 8);
        assert!((b.query_p99_us - 31.0).abs() < 1e-12);
        assert!((b.slo_ms - 5.0).abs() < 1e-12);
        assert_eq!(b.cores, Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_baseline_rejects_missing_fields() {
        let dir = std::env::temp_dir().join("tomo_bench_serve_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SERVE_FILE);
        std::fs::write(&path, r#"{"batches": 400, "rows_per_batch": 8}"#).unwrap();
        assert!(load_serve_baseline(&path)
            .unwrap_err()
            .contains("query_p99_us"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_load_baseline_parses_committed_shape() {
        let dir = std::env::temp_dir().join("tomo_bench_serve_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SERVE_LOAD_FILE);
        // The committed file still records the old `shards` knob; the
        // gate reads past it.
        std::fs::write(
            &path,
            r#"{
              "seed": 42,
              "cores": 1,
              "config": {
                "client_counts": [1, 4], "batches_total": 4096,
                "groups": 8, "shards": 4, "slo_ms": 5.0
              },
              "points": [
                {"clients": 1, "batches_per_sec": 90000.0, "query_p99_us": 40.0},
                {"clients": 4, "batches_per_sec": 85000.0, "query_p99_us": 55.0}
              ]
            }"#,
        )
        .unwrap();
        let b = load_serve_load_baseline(&path).unwrap();
        assert_eq!(b.batches_total, 4096);
        assert_eq!(b.groups, 8);
        assert!((b.slo_ms - 5.0).abs() < 1e-12);
        assert_eq!(b.cores, Some(1));
        assert_eq!(b.points.len(), 2);
        assert_eq!(b.points[1].clients, 4);
        assert!((b.points[1].batches_per_sec - 85000.0).abs() < 1e-9);
        assert!((b.points[0].query_p99_us - 40.0).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_load_baseline_rejects_missing_fields() {
        let dir = std::env::temp_dir().join("tomo_bench_serve_load_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SERVE_LOAD_FILE);
        std::fs::write(&path, r#"{"points": []}"#).unwrap();
        assert!(load_serve_load_baseline(&path)
            .unwrap_err()
            .contains("config"));
        std::fs::write(
            &path,
            r#"{"config": {"batches_total": 64, "groups": 4, "slo_ms": 5.0},
                "points": []}"#,
        )
        .unwrap();
        assert!(load_serve_load_baseline(&path)
            .unwrap_err()
            .contains("no points"));
        std::fs::write(
            &path,
            r#"{"config": {"batches_total": 64, "groups": 4, "slo_ms": 5.0},
                "points": [{"clients": 1, "batches_per_sec": 100.0}]}"#,
        )
        .unwrap();
        assert!(load_serve_load_baseline(&path)
            .unwrap_err()
            .contains("query_p99_us"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workload_reruns_the_quick_fig7_trial_count() {
        // One run is enough to pin the trial count the gate checks.
        let (secs, trials) = run_workload(1, 1).unwrap();
        assert!(secs > 0.0);
        assert_eq!(trials, 80);
    }
}
