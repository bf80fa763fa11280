//! Smoke test of the benchmark itself at tiny sizes: every workload runs,
//! its oracles hold, every catalogued metric is printed with its unit, and
//! the traced run writes a Chrome trace and a layer table.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const WORKLOADS: &[&str] = &[
    "mc-fig7",
    "detect-wireline",
    "serve-ingest",
    "serve-degraded",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The metric names and units declared in `BENCHMARK.json` under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: &str, trace: bool, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the result line is JSON")
}

fn check_result(workload: &str, result: &Value, catalogue: &[(String, String)]) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0, "{workload}: nothing attempted");
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), catalogue.len(), "{workload}: metric count");
    for (name, unit) in catalogue {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(
            value.is_finite() && value >= 0.0,
            "{workload}: {name} = {value}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_oracles() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for &workload in WORKLOADS {
        let plain = run(workload, false, &out);
        check_result(workload, &plain, &end_to_end);
        for (name, _) in &end_to_end {
            let value = plain
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                value.and_then(Value::as_f64).is_some_and(|v| v > 0.0),
                "{workload}: end-to-end {name} must never read 0"
            );
        }

        let traced = run(workload, true, &out);
        check_result(workload, &traced, &per_layer);
        let trace = out.join(format!("{workload}-seed7-trace.json"));
        let text = std::fs::read_to_string(&trace).expect("the traced run writes a trace");
        assert!(text.contains("\"traceEvents\""), "{}", trace.display());
        assert!(
            text.contains(&format!("bench.{workload}")),
            "root span recorded"
        );
        assert!(out.join(format!("{workload}-seed7-layers.txt")).exists());
    }
}

#[test]
fn all_runs_every_workload_in_one_result_line() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke-all");
    let result = run("all", false, &out);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let end_to_end = declared("end_to_end");
    assert_eq!(metrics.len(), WORKLOADS.len() * end_to_end.len());
    for &workload in WORKLOADS {
        for (name, _) in &end_to_end {
            let key = format!("{workload}/{name}");
            let value = result
                .get("metrics")
                .and_then(|m| m.get(&key))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{key} = {value:?}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "mc-fig7"][..],
        &["--workload", "mc-fig7", "--seed", "1", "--trace", "2"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
