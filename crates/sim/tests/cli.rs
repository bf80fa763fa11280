//! End-to-end tests of the `tomo-sim` command-line interface.

use std::process::Command;

fn tomo_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tomo-sim"))
}

#[test]
fn list_prints_every_experiment() {
    let out = tomo_sim().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "stealth-tax",
        "defense",
        "noise",
        "gap",
    ] {
        assert!(stdout.contains(name), "{name} missing from list");
    }
}

#[test]
fn run_fig4_prints_figure_and_writes_artifact() {
    let dir = std::env::temp_dir().join("tomo_sim_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = tomo_sim()
        .args(["run", "fig4", "--seed", "7", "--out", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Fig. 4"));
    assert!(stdout.contains("link 10"));
    let artifact = dir.join("fig4.json");
    assert!(artifact.exists(), "artifact not written");
    let json = std::fs::read_to_string(artifact).unwrap();
    assert!(json.contains("\"seed\": 7"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_flag_runs_fig9() {
    let out = tomo_sim()
        .args(["run", "fig9", "--seed", "3", "--quick"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Fig. 9"));
    assert!(stdout.contains("false alarms"));
}

#[test]
fn metrics_snapshot_captures_solver_and_figure_activity() {
    let dir = std::env::temp_dir().join("tomo_sim_metrics_test");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = dir.join("metrics.json");
    let out = tomo_sim()
        .args([
            "run",
            "fig4",
            "--quick",
            "--metrics",
            metrics.to_str().unwrap(),
            "--verbose",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // --verbose prints span timings to stderr.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("[span] sim.fig4"), "stderr:\n{stderr}");

    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).expect("snapshot written"))
            .expect("snapshot is valid JSON");
    // The simplex ran: nonzero pivot counter.
    let pivots = json
        .get("counters")
        .and_then(|c| c.get("lp.simplex.pivots"))
        .and_then(serde_json::Value::as_u64)
        .expect("lp.simplex.pivots present");
    assert!(pivots > 0, "expected nonzero pivots, got {pivots}");
    // The figure span recorded a positive wall-clock duration.
    let duration = json
        .get("spans")
        .and_then(|s| s.get("sim.fig4"))
        .and_then(|s| s.get("duration_ns"))
        .and_then(serde_json::Value::as_u64)
        .expect("sim.fig4 span present");
    assert!(duration > 0, "expected positive fig4 duration");
    // At least one histogram carries percentile summaries.
    let histograms = json
        .get("histograms")
        .and_then(serde_json::Value::as_object)
        .expect("histograms object");
    assert!(!histograms.is_empty(), "expected at least one histogram");
    for (_, h) in histograms {
        assert!(h.get("p50").is_some() && h.get("p99").is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_flag_reaches_placement() {
    // Each placement streams all its Yen calls through one executor
    // fan-out, so fig7 --quick makes 4 batches at any thread count: 2
    // placements and 2 trial maps. At --threads 1 every batch runs inline
    // (one par.worker.tasks sample per batch). Calls run past the stop
    // are dropped uncounted, so the placement counters and par.tasks do
    // not depend on the thread count.
    let dir = std::env::temp_dir().join("tomo_sim_threads_placement_test");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |threads: &str| -> serde_json::Value {
        let metrics = dir.join(format!("metrics-t{threads}.json"));
        let out = tomo_sim()
            .args(["run", "fig7", "--quick", "--seed", "42"])
            .args(["--threads", threads, "--metrics", metrics.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        serde_json::from_str(&std::fs::read_to_string(&metrics).expect("snapshot written"))
            .expect("snapshot is valid JSON")
    };
    let counter = |json: &serde_json::Value, name: &str| {
        json.get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("{name} present"))
    };
    let worker_samples = |json: &serde_json::Value| {
        json.get("histograms")
            .and_then(|h| h.get("par.worker.tasks"))
            .and_then(|h| h.get("count"))
            .and_then(serde_json::Value::as_u64)
            .expect("par.worker.tasks histogram present")
    };
    let placement = |json: &serde_json::Value| {
        ["pairs", "candidates", "rank_raises"]
            .map(|k| counter(json, &format!("core.placement.{k}")))
    };

    let serial = run("1");
    let pairs = counter(&serial, "core.placement.pairs");
    assert!(pairs > 0, "placement made no Yen calls");
    // fig7 --quick runs 2 x 40 trials; every other task is a placement pair.
    assert_eq!(counter(&serial, "par.tasks"), 80 + pairs);
    assert_eq!(counter(&serial, "par.batches"), 4);
    assert_eq!(worker_samples(&serial), 4);

    let parallel = run("2");
    assert_eq!(placement(&parallel), placement(&serial));
    assert_eq!(counter(&parallel, "par.tasks"), 80 + pairs);
    assert_eq!(counter(&parallel, "par.batches"), 4);
    assert!(worker_samples(&parallel) > 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_trailing_arguments_are_rejected() {
    let out = tomo_sim()
        .args(["run", "fig4", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag"), "stderr:\n{stderr}");

    let out = tomo_sim()
        .args(["list", "extra"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unexpected argument"), "stderr:\n{stderr}");
}

#[test]
fn bad_usage_fails_with_message() {
    let out = tomo_sim().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage"));

    let out = tomo_sim()
        .args(["run", "fig99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let out = tomo_sim()
        .args(["run", "fig4", "--seed", "not-a-number"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let out = tomo_sim().output().expect("binary runs");
    assert!(!out.status.success());
}
