//! Tracing must be passive: running `tomo-sim` with `--trace-out` at any
//! thread count leaves the figure artifact byte-identical to an untraced
//! single-threaded run, and the per-trial provenance records are the
//! same set regardless of how trials were scheduled onto workers.

use std::path::PathBuf;
use std::process::Command;

fn tomo_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tomo-sim"))
}

struct TracedRun {
    artifact: Vec<u8>,
    trace: serde_json::Value,
}

fn run_traced(dir: &std::path::Path, threads: usize) -> TracedRun {
    let out_dir = dir.join(format!("t{threads}"));
    let trace_path = dir.join(format!("trace{threads}.json"));
    let out = tomo_sim()
        .args([
            "run",
            "fig7",
            "--quick",
            "--seed",
            "42",
            "--threads",
            &threads.to_string(),
            "--out",
            out_dir.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "threads={threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("trace written to"),
        "threads={threads}: no trace confirmation in stderr:\n{stderr}"
    );
    let artifact = std::fs::read(out_dir.join("fig7.json")).expect("artifact written");
    let trace =
        serde_json::parse_value(&std::fs::read_to_string(&trace_path).expect("trace written"))
            .expect("trace is valid JSON");
    TracedRun { artifact, trace }
}

fn events(trace: &serde_json::Value) -> &[serde_json::Value] {
    match trace.get("traceEvents") {
        Some(serde_json::Value::Array(items)) => items,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    }
}

/// Provenance identity of one trial, independent of scheduling: the
/// instant-event name carries `experiment` + trial index, args carry the
/// derived seed and outcome fields. Timestamps and tids are excluded.
fn provenance_set(trace: &serde_json::Value) -> Vec<String> {
    let mut rows: Vec<String> = events(trace)
        .iter()
        .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("i"))
        .map(|e| {
            let name = e.get("name").and_then(serde_json::Value::as_str).unwrap();
            let args = e.get("args").expect("provenance args");
            let field = |key: &str| {
                args.get(key)
                    .map_or_else(|| "-".to_string(), |v| serde_json::to_string(v).unwrap())
            };
            format!(
                "{name} seed={} degraded={} success={}",
                field("seed"),
                field("degraded"),
                field("success"),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn traced_runs_are_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("tomo_sim_trace_determinism");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // An untraced reference run: tracing must not change the artifact.
    let ref_dir = dir.join("untraced");
    let out = tomo_sim()
        .args(["run", "fig7", "--quick", "--seed", "42", "--threads", "1"])
        .args(["--out", ref_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let reference = std::fs::read(ref_dir.join("fig7.json")).unwrap();

    let runs: Vec<(usize, TracedRun)> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| (threads, run_traced(&dir, threads)))
        .collect();

    let baseline_provenance = provenance_set(&runs[0].1.trace);
    // fig7 --quick = 40 trials x 2 families.
    assert_eq!(baseline_provenance.len(), 80, "one record per trial");

    for (threads, run) in &runs {
        assert_eq!(
            run.artifact, reference,
            "threads={threads}: traced artifact differs from untraced reference"
        );
        assert_eq!(
            provenance_set(&run.trace),
            baseline_provenance,
            "threads={threads}: provenance set depends on scheduling"
        );
        // Every trial hangs off a real parent span (worker or root): no
        // orphaned provenance.
        let span_ids: Vec<String> = events(&run.trace)
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("span_id")))
            .map(|v| serde_json::to_string(v).unwrap())
            .collect();
        for event in events(&run.trace) {
            if event.get("ph").and_then(serde_json::Value::as_str) != Some("i") {
                continue;
            }
            let parent = event
                .get("args")
                .and_then(|a| a.get("parent_id"))
                .map(|v| serde_json::to_string(v).unwrap())
                .expect("provenance parent_id");
            assert!(
                parent == "0" || span_ids.contains(&parent),
                "threads={threads}: provenance parent {parent} has no span"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_out_path_with_parent_dirs_is_created() {
    let dir = std::env::temp_dir().join("tomo_sim_trace_mkdir");
    let _ = std::fs::remove_dir_all(&dir);
    let trace_path: PathBuf = dir.join("nested/deeper/trace.json");
    let out = tomo_sim()
        .args(["run", "fig2", "--seed", "42"])
        .args(["--trace-out", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace =
        serde_json::parse_value(&std::fs::read_to_string(&trace_path).unwrap()).expect("valid");
    // fig2 has no Monte-Carlo trials but the span tree is still present.
    assert!(!events(&trace).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
