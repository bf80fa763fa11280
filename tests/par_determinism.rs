//! Thread-count invariance of the parallel Monte-Carlo engine.
//!
//! Every trial derives its RNG stream from `(experiment_seed, trial_index)`
//! and results are merged in trial order, so the serialized artifact of any
//! experiment must be byte-identical no matter how many workers ran it —
//! including oversubscribed counts far above the machine's core count.

use scapegoat_tomography::fault::FaultSpec;
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::{chaos, fig7, fig9};

fn fig7_config() -> fig7::Fig7Config {
    fig7::Fig7Config {
        num_systems: 1,
        trials_per_system: 24,
        max_attackers: 3,
        bins: 5,
    }
}

fn fig9_config() -> fig9::Fig9Config {
    fig9::Fig9Config {
        trials: 12,
        ..fig9::Fig9Config::default()
    }
}

#[test]
fn fig7_artifact_is_byte_identical_across_thread_counts() {
    let config = fig7_config();
    let baseline = fig7::run(42, &config, &Executor::single_threaded()).unwrap();
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 3, 8] {
        let parallel = fig7::run(42, &config, &Executor::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            baseline_json,
            "fig7 artifact diverged at {threads} threads"
        );
    }
}

#[test]
fn fig9_artifact_is_byte_identical_across_thread_counts() {
    let config = fig9_config();
    let baseline = fig9::run(42, &config, &Executor::single_threaded()).unwrap();
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 8] {
        let parallel = fig9::run(42, &config, &Executor::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            baseline_json,
            "fig9 artifact diverged at {threads} threads"
        );
    }
}

/// The chaos sweep must stay byte-identical across thread counts even
/// with every fault kind firing: fault draws come from per-trial plan
/// streams, trial RNGs reseed per retry attempt, and solver sabotage is
/// armed thread-locally — none of it may leak across workers.
#[test]
fn chaos_artifact_is_byte_identical_across_thread_counts() {
    let spec = FaultSpec::parse(
        "loss=0.1,corrupt=0.05,stale=0.1,link_fail=0.05,lp_iter=0.1,lp_singular=0.05",
    )
    .unwrap();
    let config = chaos::ChaosConfig {
        trials_per_point: 16,
        scales: vec![0.0, 1.0, 2.0],
        ..chaos::ChaosConfig::default()
    };
    let baseline = chaos::run(42, &spec, &config, &Executor::single_threaded()).unwrap();
    assert!(baseline.totals.is_balanced());
    assert!(baseline.totals.injected > 0);
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 4] {
        let parallel = chaos::run(42, &spec, &config, &Executor::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            baseline_json,
            "chaos artifact diverged at {threads} threads"
        );
    }
}

/// `Executor::from_env` sizes the pool from `TOMO_THREADS`, and the
/// artifact it produces matches the sequential baseline. Values that are
/// not a positive integer fall back to the available parallelism.
///
/// This is the only test in this binary that writes the environment, and
/// every other test here passes its executor explicitly, so it cannot
/// race another test.
#[test]
fn executor_from_env_respects_tomo_threads() {
    let config = fig7_config();
    let baseline = fig7::run(7, &config, &Executor::single_threaded()).unwrap();
    let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let prior = std::env::var("TOMO_THREADS").ok();
    std::env::set_var("TOMO_THREADS", "5");
    let from_env = Executor::from_env();
    let fallbacks: Vec<(&str, usize)> = ["0", "abc"]
        .into_iter()
        .map(|bad| {
            std::env::set_var("TOMO_THREADS", bad);
            (bad, Executor::from_env().threads())
        })
        .collect();
    match prior {
        Some(v) => std::env::set_var("TOMO_THREADS", v),
        None => std::env::remove_var("TOMO_THREADS"),
    }

    assert_eq!(from_env.threads(), 5);
    let parallel = fig7::run(7, &config, &from_env).unwrap();
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
    );
    for (bad, threads) in fallbacks {
        assert_eq!(threads, fallback, "TOMO_THREADS={bad:?} must fall back");
    }
}
