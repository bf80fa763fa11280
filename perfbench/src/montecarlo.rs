//! The two Monte-Carlo workloads: the Fig. 7 sweep (`mc-fig7`) and the
//! Fig. 9 rational attacker with detection on one AS-scale wireline
//! system (`detect-wireline`).
//!
//! Both take the paths the figures take — the same configuration types,
//! one shared LP basis cache per experiment and the warm-started attack
//! strategies, and on Fig. 9 the residual tally's delta re-score — but
//! make each layer call from here, so that each can be timed on its own.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::cut::{analyze_cut, CutKind};
use tomo_attack::montecarlo::{chosen_victim_trial_detailed, ChosenVictimTrial, RatioBins};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::placement::{random_placement, PlacementConfig};
use tomo_core::{params, TomographySystem};
use tomo_detect::experiment::DetectionConfig;
use tomo_detect::{ConsistencyDetector, ResidualTally};
use tomo_graph::{isp, rgg, Graph, LinkId, NodeId};
use tomo_lp::{warm_enabled, WarmStart};
use tomo_par::{derive_seed, Executor};
use tomo_sim::fig7::{Fig7Config, Fig7Result, Fig7Series};
use tomo_sim::fig9::Fig9Config;
use tomo_sim::topologies::NetworkKind;

use crate::report::{layer, mean, median, ms_since, tail, Outcome};
use crate::Run;

/// The committed seed-42 Fig. 7 artifact the full-size sweep must
/// reproduce byte for byte.
const FIG7_ARTIFACT: &str = "artifacts/fig7.json";
const FIG7_ARTIFACT_SEED: u64 = 42;

/// Seed of the measurement systems both workloads run on (the committed
/// artifacts' seed). Topology and placement cost varies by 2x between
/// instances, so the workload seed varies only what is drawn per trial:
/// attackers, victims and delays.
const TOPOLOGY_SEED: u64 = 42;

/// Timings and counts of building one measurement system.
#[derive(Debug, Default)]
struct BuildStats {
    generate_ms: f64,
    placement_ms: f64,
    cache_ms: f64,
    paths: usize,
    monitors: usize,
}

impl BuildStats {
    fn total_s(&self) -> f64 {
        (self.generate_ms + self.placement_ms + self.cache_ms) / 1e3
    }
}

/// `tomo_sim::topologies::build_system` followed by the estimator-cache
/// warm-up, split at each layer boundary so each is timed. The seed-42
/// artifact oracle of `mc-fig7` pins it to the original.
fn build_system(kind: NetworkKind, seed: u64) -> Result<(TomographySystem, BuildStats), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stats = BuildStats::default();
    let start = Instant::now();
    let graph: Graph = layer("graph.generate", || match kind {
        NetworkKind::Wireline => isp::generate(&isp::IspConfig::default(), &mut rng),
        NetworkKind::Wireless => rgg::RggConfig::default()
            .generate(&mut rng)
            .map(|t| t.graph),
    })
    .map_err(|e| format!("{kind} topology: {e}"))?;
    stats.generate_ms = ms_since(start);

    let start = Instant::now();
    let system = layer("core.placement", || {
        random_placement(&graph, &PlacementConfig::default(), &mut rng)
    })
    .map_err(|e| format!("{kind} placement: {e}"))?;
    stats.placement_ms = ms_since(start);

    let start = Instant::now();
    layer("core.estimator_cache", || system.warm_estimator_cache())
        .map_err(|e| format!("{kind} estimator cache: {e}"))?;
    stats.cache_ms = ms_since(start);
    stats.paths = system.num_paths();
    stats.monitors = system.monitors().len();
    Ok((system, stats))
}

/// Reads an exact `tomo-obs` counter.
fn counter(name: &'static str) -> u64 {
    tomo_obs::counter(name).get()
}

/// LP work counted by the solver itself, as `(solves, pivots, iterations)`.
fn lp_counts() -> [u64; 3] {
    [
        counter("lp.simplex.solves"),
        counter("lp.simplex.pivots"),
        counter("lp.simplex.iterations"),
    ]
}

/// Records the LP work done since `before`, divided by `per`.
fn record_lp_delta(out: &mut Outcome, before: [u64; 3], per: f64) {
    let after = lp_counts();
    for (i, name) in ["lp.solves", "lp.pivots", "lp.iterations"]
        .into_iter()
        .enumerate()
    {
        out.set(name, (after[i] - before[i]) as f64 / per);
    }
}

/// Trial-phase accounting shared by both workloads.
#[derive(Debug, Default)]
struct TrialPhase {
    /// Wall time of each trial, µs.
    trial_us: Vec<f64>,
    /// Wall time of the executor maps, s.
    map_s: f64,
    /// Worker count of the executor.
    workers: usize,
}

impl TrialPhase {
    fn record(&self, out: &mut Outcome) {
        let busy_s: f64 = self.trial_us.iter().sum::<f64>() / 1e6;
        out.set("attack.trial_p50_us", median(&self.trial_us));
        out.set("attack.trial_p99_us", tail(&self.trial_us, 0.99));
        out.set(
            "par.busy_frac",
            busy_s / (self.map_s.max(1e-9) * self.workers as f64),
        );
        out.set(
            "attack.trials_per_s",
            self.trial_us.len() as f64 / self.map_s.max(1e-9),
        );
    }
}

/// Fig. 7's seed for instance `s` of `kind` under `master` (the
/// derivation `tomo_sim::fig7` makes inline).
fn instance_seed(master: u64, kind: NetworkKind, s: usize) -> u64 {
    master
        .wrapping_mul(1_000_003)
        .wrapping_add(s as u64)
        .wrapping_add(match kind {
            NetworkKind::Wireline => 0,
            NetworkKind::Wireless => 500_000,
        })
}

/// One full Fig. 7 sweep.
#[derive(Debug, Default)]
struct Fig7Pass {
    run_s: f64,
    setup_s: f64,
    builds: Vec<BuildStats>,
    phase: TrialPhase,
    attempted: u64,
    failed: u64,
    degenerate: u64,
    /// Perfect-cut trials whose attack LP was infeasible (Theorem 1 says
    /// there are none).
    perfect_cut_failures: u64,
    /// The wireline and wireless curves, in that order.
    series: Vec<Fig7Series>,
}

/// Runs the sweep `tomo_sim::fig7::run` runs: per family and instance a
/// system build, then the trials over `exec`, all sharing one LP basis
/// cache.
fn fig7_pass(run: &Run, config: &Fig7Config, exec: &Executor) -> Result<Fig7Pass, String> {
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let warm = warm_enabled().then(WarmStart::new);
    let mut pass = Fig7Pass {
        phase: TrialPhase {
            workers: exec.threads(),
            ..TrialPhase::default()
        },
        ..Fig7Pass::default()
    };
    let start = Instant::now();
    for kind in [NetworkKind::Wireline, NetworkKind::Wireless] {
        let mut records: Vec<ChosenVictimTrial> = Vec::new();
        for s in 0..config.num_systems {
            // Topologies and placements come from the fixed topology
            // seed; the attack draws from the workload seed. At the
            // artifact's seed both are the figure's own streams.
            let (system, build) = build_system(kind, instance_seed(TOPOLOGY_SEED, kind, s))?;
            pass.setup_s += build.total_s();
            pass.builds.push(build);

            let trial_seed = instance_seed(run.seed, kind, s) ^ 0xabcd_ef01;
            let map_start = Instant::now();
            let results = layer("par.map", || {
                exec.map(config.trials_per_system, |t| {
                    let start = Instant::now();
                    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(trial_seed, t as u64));
                    let k = rng.gen_range(1..=config.max_attackers.max(1));
                    let detail = layer("attack.trial", || {
                        chosen_victim_trial_detailed(
                            &system,
                            &scenario,
                            &delay_model,
                            k,
                            warm.as_ref(),
                            &mut rng,
                        )
                    });
                    (detail.map(|d| d.map(|d| d.trial)), ms_since(start) * 1e3)
                })
            });
            pass.phase.map_s += map_start.elapsed().as_secs_f64();
            for (result, us) in results {
                pass.attempted += 1;
                pass.phase.trial_us.push(us);
                match result {
                    Ok(Some(trial)) => {
                        if trial.perfect_cut && !trial.success {
                            pass.perfect_cut_failures += 1;
                        }
                        records.push(trial);
                    }
                    Ok(None) => pass.degenerate += 1,
                    Err(e) => {
                        pass.failed += 1;
                        eprintln!("mc-fig7: {kind} system {s}: trial failed: {e}");
                    }
                }
            }
        }
        pass.series.push(Fig7Series {
            kind: kind.to_string(),
            bins: RatioBins::from_trials(&records, config.bins),
            trials: records.len(),
        });
    }
    pass.run_s = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// Writes `pass` as the Fig. 7 artifact with `tomo_sim`'s writer and
/// compares it byte for byte with the committed one.
fn check_fig7_artifact(run: &Run, config: &Fig7Config, pass: &Fig7Pass) -> Result<bool, String> {
    let result = Fig7Result {
        seed: run.seed,
        config: *config,
        wireline: pass.series[0].clone(),
        wireless: pass.series[1].clone(),
    };
    let written = run.out.join(format!("fig7-seed{}.json", run.seed));
    tomo_sim::report::write_json(&result, &written).map_err(|e| e.to_string())?;
    let ours = std::fs::read(&written).map_err(|e| format!("read {}: {e}", written.display()))?;
    let committed =
        std::fs::read(FIG7_ARTIFACT).map_err(|e| format!("read {FIG7_ARTIFACT}: {e}"))?;
    Ok(ours == committed)
}

/// Fig. 7 sweeps per `mc-fig7` run: one sweep is the workload's unit of
/// work (about 10 s on 2 cores), and the median of three damps the
/// host's run-to-run noise.
const FIG7_PASSES: usize = 3;

/// `mc-fig7`: the Fig. 7 sweep with `Fig7Config::default()`,
/// [`FIG7_PASSES`] times.
pub fn mc_fig7(run: &Run) -> Result<Outcome, String> {
    let exec = Executor::new(run.threads);
    let (config, passes_n) = if run.tiny {
        let tiny = Fig7Config {
            num_systems: 1,
            trials_per_system: 24,
            ..Fig7Config::default()
        };
        (tiny, 1)
    } else {
        (Fig7Config::default(), FIG7_PASSES)
    };
    let mut out = Outcome::default();
    let lp_before = lp_counts();
    let root = format!("bench.{}", run.workload);
    let passes = (0..passes_n)
        .map(|_| layer(&root, || fig7_pass(run, &config, &exec)))
        .collect::<Result<Vec<_>, _>>()?;
    record_lp_delta(&mut out, lp_before, passes_n as f64);
    let first = &passes[0];

    // Oracles: Theorem 1 on every pass; identical bins on every pass;
    // byte identity with the committed artifact for the full-size sweep
    // at its seed.
    for (i, pass) in passes.iter().enumerate() {
        out.check(pass.perfect_cut_failures == 0, || {
            format!(
                "pass {i}: {} perfect-cut trials failed (Theorem 1)",
                pass.perfect_cut_failures
            )
        });
        out.check(
            pass.series
                .iter()
                .map(|s| &s.bins.successes)
                .eq(first.series.iter().map(|s| &s.bins.successes)),
            || format!("pass {i}: bins differ from pass 0 at the same seed"),
        );
    }
    if run.seed == FIG7_ARTIFACT_SEED && !run.tiny {
        let identical = check_fig7_artifact(run, &config, first)?;
        out.check(identical, || {
            format!("seed-42 artifact differs from {FIG7_ARTIFACT}")
        });
    }

    let mut phase = TrialPhase {
        workers: exec.threads(),
        ..TrialPhase::default()
    };
    for pass in &passes {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        phase.trial_us.extend_from_slice(&pass.phase.trial_us);
        phase.map_s += pass.phase.map_s;
    }
    phase.record(&mut out);
    let run_s: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    let setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    out.set("run_s", median(&run_s));
    out.set("setup_s", median(&setup_s));
    let builds: Vec<&BuildStats> = passes.iter().flat_map(|p| &p.builds).collect();
    record_builds(&mut out, &builds);
    let per_pass =
        |f: fn(&Fig7Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64 / passes_n as f64;
    out.set("attack.trials", per_pass(|p| p.attempted));
    out.set("attack.degenerate", per_pass(|p| p.degenerate));
    Ok(out)
}

fn record_builds(out: &mut Outcome, builds: &[&BuildStats]) {
    let per = |f: fn(&BuildStats) -> f64| builds.iter().map(|b| f(b)).collect::<Vec<_>>();
    out.set("graph.generate_ms", mean(&per(|b| b.generate_ms)));
    out.set("core.placement_ms", mean(&per(|b| b.placement_ms)));
    out.set("core.estimator_cache_ms", mean(&per(|b| b.cache_ms)));
    out.set("core.placement.paths", mean(&per(|b| b.paths as f64)));
    out.set("core.placement.monitors", mean(&per(|b| b.monitors as f64)));
}

/// `detect-wireline` trials per second of the run's budget. The trial
/// phase takes about 1.3 times the budget on 2 cores: like the three
/// sweeps of `mc-fig7`, a window of 20 s or more averages out much of
/// the host's drift, which a shorter one shows in full.
const DETECT_TRIALS_PER_SECOND: f64 = 2600.0;
/// Largest coalition exposure, in measurement paths, a `detect-wireline`
/// round draws. Stealthy LP time grows steeply and erratically with it:
/// rounds above this bound include single LPs of 4–14 s (and one that
/// exhausts the simplex iteration limit), which no fixed-length run can
/// sample steadily.
const DETECT_MAX_ATTACKED_PATHS: usize = 10;
/// System builds per `detect-wireline` run; `setup_s` is their median.
const DETECT_SETUPS: usize = 5;

/// Per-strategy tallies of one detection trial.
#[derive(Debug, Default, Clone)]
struct DetectTrial {
    /// Strategy call time, ms, per strategy (chosen victim, max damage,
    /// obfuscation).
    strategy_ms: [f64; 3],
    strategy_calls: [u32; 3],
    /// Successful attacks whose stealthy variant landed.
    stealthy: u32,
    /// Successful attacks: `(perfect cut, detected)`.
    attacks: Vec<(bool, bool)>,
    /// Whether the clean round raised an alarm.
    false_alarm: bool,
    /// Building the residual tally: the clean round's full inspection, µs.
    tally_us: f64,
    /// Re-scoring each successful attack from its manipulation, µs.
    rescore_us: Vec<f64>,
}

/// The rational attacker: the stealthy LP first, the plain LP when the
/// stealthy one is infeasible. Returns the outcome and whether the
/// stealthy LP produced it. (`tomo_detect`'s own copy is private.)
fn rational<F>(run: F) -> Result<(AttackOutcome, bool), AttackError>
where
    F: Fn(bool) -> Result<AttackOutcome, AttackError>,
{
    let stealthy = run(true)?;
    if stealthy.is_success() {
        return Ok((stealthy, true));
    }
    Ok((run(false)?, false))
}

/// The sampled world of one detection trial.
struct Round<'a> {
    system: &'a TomographySystem,
    detector: &'a ConsistencyDetector,
    attackers: AttackerSet,
    tally: ResidualTally,
}

impl Round<'_> {
    /// Launches strategy `index` as a rational attacker and files a
    /// successful attack with its cut kind and its re-scored verdict.
    fn attack(
        &self,
        trial: &mut DetectTrial,
        index: usize,
        name: &str,
        call: impl Fn(bool) -> Result<AttackOutcome, AttackError>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let result = layer(name, || rational(call));
        trial.strategy_ms[index] += ms_since(start);
        trial.strategy_calls[index] += 1;
        let (outcome, stealthy) = result.map_err(|e| format!("{name}: {e}"))?;
        let Some(success) = outcome.success() else {
            return Ok(());
        };
        trial.stealthy += u32::from(stealthy);
        let cut = analyze_cut(self.system, &self.attackers, &success.victims);
        let start = Instant::now();
        let verdict = layer("detect.rescore", || {
            self.tally
                .rescore(self.detector, self.system, &success.manipulation)
        })
        .map_err(|e| format!("rescore: {e}"))?;
        trial.rescore_us.push(ms_since(start) * 1e3);
        trial
            .attacks
            .push((cut.kind == CutKind::Perfect, verdict.detected));
        Ok(())
    }
}

/// One Fig. 9 round as `tomo_detect::experiment` runs it: fresh attackers
/// and delays, a clean round scored by a fresh residual tally, then all
/// three strategies, warm-started from the shared basis cache.
fn detect_trial(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    config: &DetectionConfig,
    lp_warm: Option<&WarmStart>,
    rng: &mut ChaCha8Rng,
) -> Result<DetectTrial, String> {
    let mut trial = DetectTrial::default();
    let mut nodes: Vec<NodeId> = system.graph().nodes().collect();
    // Coalitions sit on at most DETECT_MAX_ATTACKED_PATHS paths: redraw
    // (from the same stream) until one does.
    let attackers = loop {
        let (sampled, _) = nodes.partial_shuffle(rng, config.num_attackers.max(1));
        let attackers = AttackerSet::new(system, sampled.to_vec()).map_err(|e| e.to_string())?;
        if attackers.attacked_paths().len() <= DETECT_MAX_ATTACKED_PATHS {
            break attackers;
        }
    };
    let x = params::default_delay_model().sample(system.num_links(), rng);
    let y_clean = system.measure(&x).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let tally = layer("detect.tally", || {
        ResidualTally::new(detector, system, &y_clean)
    })
    .map_err(|e| format!("residual tally: {e}"))?;
    trial.tally_us = ms_since(start) * 1e3;
    trial.false_alarm = tally.base_verdict().detected;
    let free: Vec<LinkId> = (0..system.num_links())
        .map(LinkId)
        .filter(|&l| !attackers.controls_link(l))
        .collect();
    let victim = free.as_slice().choose(rng).copied();
    let round = Round {
        system,
        detector,
        attackers,
        tally,
    };
    let attackers = &round.attackers;
    let scenario = |evade: bool| config.scenario.with_evasion(evade);
    if let Some(victim) = victim {
        round.attack(&mut trial, 0, "attack.chosen_victim", |evade| {
            strategy::chosen_victim_warm(
                system,
                attackers,
                &scenario(evade),
                &x,
                &[victim],
                lp_warm,
            )
        })?;
    }
    round.attack(&mut trial, 1, "attack.max_damage", |evade| {
        strategy::max_damage_warm(system, attackers, &scenario(evade), &x, lp_warm)
    })?;
    round.attack(&mut trial, 2, "attack.obfuscation", |evade| {
        strategy::obfuscation_warm(
            system,
            attackers,
            &scenario(evade),
            &x,
            config.obfuscation_min_victims,
            lp_warm,
        )
    })?;
    Ok(trial)
}

/// `detect-wireline`: Fig. 9's rational attacker on one AS-scale
/// wireline system, a fixed seeded set of trials sized to the budget.
pub fn detect_wireline(run: &Run) -> Result<Outcome, String> {
    let exec = Executor::new(run.threads);
    let detector = ConsistencyDetector::recommended();
    let fig9 = Fig9Config::default();
    let config = DetectionConfig {
        trials: if run.tiny {
            4
        } else {
            (run.seconds * DETECT_TRIALS_PER_SECOND).round() as usize
        },
        num_attackers: fig9.num_attackers,
        scenario: AttackScenario::paper_defaults(),
        obfuscation_min_victims: fig9.obfuscation_min_victims,
    };
    let mut out = Outcome::default();
    let lp_before = lp_counts();
    let root = format!("bench.{}", run.workload);
    let root_span = tomo_obs::tracing_enabled().then(|| tomo_obs::span(&root));

    // Set up DETECT_SETUPS times and keep the last system; setup_s is
    // the median build.
    let mut builds = Vec::with_capacity(DETECT_SETUPS);
    let mut system = None;
    for _ in 0..DETECT_SETUPS {
        let (built, build) = build_system(NetworkKind::Wireline, TOPOLOGY_SEED)?;
        system = Some(built);
        builds.push(build);
    }
    let system = system.expect("DETECT_SETUPS > 0");
    let setup_s = median(&builds.iter().map(BuildStats::total_s).collect::<Vec<_>>());
    out.set("setup_s", setup_s);
    record_builds(&mut out, &builds.iter().collect::<Vec<_>>());

    // One basis cache for the whole experiment, as Fig. 9 shares it.
    let lp_warm = warm_enabled().then(WarmStart::new);
    let drive = Instant::now();
    let results = layer("par.map", || {
        exec.map(config.trials, |i| {
            let start = Instant::now();
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(run.seed, i as u64));
            let trial = layer("attack.trial", || {
                detect_trial(&system, &detector, &config, lp_warm.as_ref(), &mut rng)
            });
            (trial, ms_since(start) * 1e3)
        })
    });
    let map_s = drive.elapsed().as_secs_f64();
    let mut phase = TrialPhase {
        workers: exec.threads(),
        map_s,
        ..TrialPhase::default()
    };
    let mut trials: Vec<DetectTrial> = Vec::with_capacity(results.len());
    for (i, (result, us)) in results.into_iter().enumerate() {
        out.attempted += 1;
        phase.trial_us.push(us);
        match result {
            Ok(trial) => trials.push(trial),
            Err(e) => {
                out.failed += 1;
                eprintln!("detect-wireline: trial {i}: {e}");
            }
        }
    }
    drop(root_span);
    out.set("run_s", setup_s + drive.elapsed().as_secs_f64());
    record_lp_delta(&mut out, lp_before, 1.0);
    phase.record(&mut out);
    out.set("attack.trials", out.attempted as f64);

    // Theorem 3 with the recommended detector: perfect cuts are never
    // detected, imperfect cuts always are, clean rounds never alarm.
    let mut perfect = (0u64, 0u64);
    let mut imperfect = (0u64, 0u64);
    let mut false_alarms = 0u64;
    let mut strategy_ms = [0.0f64; 3];
    let mut strategy_calls = [0u32; 3];
    let mut stealthy = 0u32;
    let mut rescore_us = Vec::new();
    for t in &trials {
        false_alarms += u64::from(t.false_alarm);
        for &(is_perfect, detected) in &t.attacks {
            let cell = if is_perfect {
                &mut perfect
            } else {
                &mut imperfect
            };
            cell.0 += 1;
            cell.1 += u64::from(detected);
        }
        for i in 0..3 {
            strategy_ms[i] += t.strategy_ms[i];
            strategy_calls[i] += t.strategy_calls[i];
        }
        stealthy += t.stealthy;
        rescore_us.extend_from_slice(&t.rescore_us);
    }
    out.check(perfect.1 == 0, || {
        format!(
            "{} of {} perfect-cut attacks detected",
            perfect.1, perfect.0
        )
    });
    out.check(imperfect.1 == imperfect.0, || {
        format!(
            "{} of {} imperfect-cut attacks undetected",
            imperfect.0 - imperfect.1,
            imperfect.0
        )
    });
    out.check(false_alarms == 0, || {
        format!("{false_alarms} false alarms on clean rounds")
    });
    for (i, name) in [
        "attack.chosen_victim_ms",
        "attack.max_damage_ms",
        "attack.obfuscation_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, strategy_ms[i] / f64::from(strategy_calls[i].max(1)));
    }
    let successes = perfect.0 + imperfect.0;
    out.set(
        "attack.stealthy_success_frac",
        f64::from(stealthy) / successes.max(1) as f64,
    );
    let tally_us: Vec<f64> = trials.iter().map(|t| t.tally_us).collect();
    out.set("detect.inspect_us", mean(&tally_us));
    out.set("detect.rescore_us", mean(&rescore_us));
    Ok(out)
}
