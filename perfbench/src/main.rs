//! `perfbench` — the repository's benchmark: four seeded workloads that
//! drive the library crates end to end, check their outputs, and report
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! perfbench --workload <mc-fig7|detect-wireline|serve-ingest|serve-degraded|all>
//!           --seed N --seconds S --trace <0|1> [--tiny] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed oracle makes
//! `correct` false and the exit code 1. See `perfbench/README.md`.

mod montecarlo;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `all` runs them.
const WORKLOADS: &[&str] = &[
    "mc-fig7",
    "detect-wireline",
    "serve-ingest",
    "serve-degraded",
];

/// Workloads whose layer calls all run under the root span's thread.
const MONTE_CARLO: &[&str] = &["mc-fig7", "detect-wireline"];

/// Largest share of a Monte-Carlo run's wall time no layer span may cover.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Where traces, layer tables and result records go, relative to the
/// working directory.
const DEFAULT_OUT: &str = ".bench_out";

/// One workload invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Smoke-test sizes instead of the benchmark's.
    pub tiny: bool,
    /// Worker threads and load-generator connections (the core count).
    pub threads: usize,
    /// Output directory for traces and records.
    pub out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace <0|1> [--tiny] [--out DIR]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        threads: cores(),
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            run.tiny = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                run.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => run.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    run.seed = seed.ok_or_else(usage)?;
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", run.workload, usage()));
    }
    Ok(run)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the benchmark was built from, read from `.git` when the
/// working directory is a checkout with history ("unknown" otherwise).
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// Runs one workload: untraced for the end-to-end metrics, or traced,
/// writing the Chrome trace and the per-layer table.
fn run_workload(run: &Run) -> Result<Outcome, String> {
    tomo_obs::reset();
    tomo_obs::set_tracing(run.trace);
    if run.trace {
        tomo_obs::reset_journal();
    }
    let mut out = match run.workload.as_str() {
        "mc-fig7" => montecarlo::mc_fig7(run),
        "detect-wireline" => montecarlo::detect_wireline(run),
        "serve-ingest" => serve::serve_ingest(run),
        "serve-degraded" => serve::serve_degraded(run),
        other => Err(format!("unknown workload {other}")),
    }?;
    tomo_obs::set_tracing(false);
    out.set("peak_rss_mb", report::peak_rss_mb());
    if run.trace {
        let root = format!("bench.{}", run.workload);
        let (rows, unattributed) = report::layer_table(&root);
        out.set("trace.unattributed_frac", unattributed);
        // The Monte-Carlo workloads run every layer on the root span's
        // thread, so nearly all of their time must be attributed.
        if MONTE_CARLO.contains(&run.workload.as_str()) {
            out.check(unattributed <= MAX_UNATTRIBUTED, || {
                format!("unattributed_frac {unattributed:.4} exceeds {MAX_UNATTRIBUTED}")
            });
        }
        out.set(
            "trace.run_s",
            out.metrics.get("run_s").copied().unwrap_or(0.0),
        );
        let table = report::render_layer_table(&rows, unattributed);
        eprint!("{table}");
        std::fs::create_dir_all(&run.out)
            .map_err(|e| format!("create {}: {e}", run.out.display()))?;
        let stem = format!("{}-seed{}", run.workload, run.seed);
        let layers = run.out.join(format!("{stem}-layers.txt"));
        std::fs::write(&layers, table).map_err(|e| format!("write {}: {e}", layers.display()))?;
        let trace = run.out.join(format!("{stem}-trace.json"));
        let stats = tomo_obs::write_chrome_trace(&trace)
            .map_err(|e| format!("write {}: {e}", trace.display()))?;
        eprintln!(
            "trace written to {} ({} events, {} dropped)",
            trace.display(),
            stats.events,
            stats.dropped
        );
    }
    Ok(out)
}

/// Renders the result line: every metric of the run's kind, by name with
/// its unit.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The header line of a workload's run: its inputs and the machine.
fn header(run: &Run) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# workload={} seed={} seconds={} trace={} tiny={} cores={} threads={} profile={profile} revision={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.tiny,
        cores(),
        run.threads,
        revision()
    )
}

/// Runs one workload in this process and prints its `#` lines and result
/// line.
fn run_single(run: &Run) -> ExitCode {
    println!("{}", header(run));
    let outcome = match run_workload(run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", run.workload);
            return ExitCode::from(1);
        }
    };
    let workload = &run.workload;
    for v in &outcome.violations {
        println!("# oracle failed: {workload}: {v}");
    }
    println!(
        "# {workload}: attempted {} failed {} failed_frac {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let catalogue = if run.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {workload} {name} = {} {unit}", json_number(value));
        metrics.push((name.to_string(), value, unit));
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is that workload's peak, and prints one result line with
/// each metric prefixed by its workload.
fn run_all(run: &Run) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let catalogue = if run.trace { PER_LAYER } else { END_TO_END };
    for &workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&run.out)
            .stderr(std::process::Stdio::inherit());
        if run.tiny {
            child.arg("--tiny");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: {workload}: cannot start: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines
            .pop()
            .and_then(|last| serde_json::parse_value(last).ok())
            .filter(|r| r.get("metrics").is_some());
        for line in &lines {
            println!("{line}");
        }
        let Some(result) = result else {
            eprintln!(
                "perfbench: {workload}: no result line (exit {})",
                output.status
            );
            return ExitCode::from(1);
        };
        correct &= result.get("correct") == Some(&serde::Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0);
        failed += result
            .get("failed")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0);
        for &(name, unit) in catalogue {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(serde::Value::as_f64)
                .unwrap_or(0.0);
            metrics.push((format!("{workload}/{name}"), value, unit));
        }
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if run.workload == "all" {
        run_all(&run)
    } else {
        run_single(&run)
    }
}
