//! `tomo-sim` — command-line runner for the paper's evaluation figures.
//!
//! ```text
//! tomo-sim run <fig2|fig4|fig5|fig6|fig7|fig8|fig9|stealth-tax|defense|noise|gap|chaos|serve-chaos|serve-load|scale|all> [--seed N] [--out DIR] [--quick] [--threads N] [--metrics FILE] [--verbose] [--faults SPEC]
//! tomo-sim list
//! ```
//!
//! Every run prints the figure's table/series to stdout; with `--out DIR`
//! it also writes a JSON artifact per figure. `--metrics FILE` writes a
//! JSON snapshot of all `tomo-obs` counters/histograms/span timings after
//! the run; `--verbose` prints nested span timings and a metrics summary
//! to stderr. `--threads N` sets the Monte-Carlo worker count (default:
//! the `TOMO_THREADS` env var, else available parallelism); results are
//! bit-identical for every thread count.

use std::path::PathBuf;
use std::process::ExitCode;

use tomo_par::Executor;
use tomo_sim::{
    ablation, chaos, defense, fig2, fig4, fig5, fig6, fig7, fig8, fig9, gap, noise, report, scale,
    serve_chaos, serve_load, SimError,
};

#[derive(Debug, PartialEq)]
struct Args {
    command: String,
    target: String,
    seed: u64,
    out: Option<PathBuf>,
    quick: bool,
    threads: Option<usize>,
    metrics: Option<PathBuf>,
    verbose: bool,
    faults: Option<String>,
    trace_out: Option<PathBuf>,
    serve_metrics: Option<u16>,
    max_links: Option<usize>,
}

impl Args {
    fn bare(command: &str) -> Args {
        Args {
            command: command.to_string(),
            target: String::new(),
            seed: 42,
            out: None,
            quick: false,
            threads: None,
            metrics: None,
            verbose: false,
            faults: None,
            trace_out: None,
            serve_metrics: None,
            max_links: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_args_from(&argv)
}

fn parse_args_from(argv: &[String]) -> Result<Args, String> {
    if argv.is_empty() {
        return Err(usage());
    }
    let command = argv[0].clone();
    if command == "list" {
        if let Some(extra) = argv.get(1) {
            return Err(format!("unexpected argument {extra:?}\n{}", usage()));
        }
        return Ok(Args::bare("list"));
    }
    if command != "run" {
        return Err(format!("unknown command {command:?}\n{}", usage()));
    }
    let target = argv
        .get(1)
        .cloned()
        .ok_or_else(|| format!("missing figure name\n{}", usage()))?;
    if target.starts_with('-') {
        return Err(format!("missing figure name\n{}", usage()));
    }
    let mut seed = 42u64;
    let mut out = None;
    let mut quick = false;
    let mut threads = None;
    let mut metrics = None;
    let mut verbose = false;
    let mut faults = None;
    let mut trace_out = None;
    let mut serve_metrics = None;
    let mut max_links = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => {
                let v = argv.get(i + 1).ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                i += 2;
            }
            "--out" => {
                let v = argv.get(i + 1).ok_or("--out needs a value")?;
                out = Some(PathBuf::from(v));
                i += 2;
            }
            "--metrics" => {
                let v = argv.get(i + 1).ok_or("--metrics needs a value")?;
                metrics = Some(PathBuf::from(v));
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--threads" => {
                let v = argv.get(i + 1).ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
                i += 2;
            }
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            "--faults" => {
                let v = argv.get(i + 1).ok_or("--faults needs a value")?;
                faults = Some(v.clone());
                i += 2;
            }
            "--trace-out" => {
                let v = argv.get(i + 1).ok_or("--trace-out needs a value")?;
                trace_out = Some(PathBuf::from(v));
                i += 2;
            }
            "--serve-metrics" => {
                let v = argv.get(i + 1).ok_or("--serve-metrics needs a port")?;
                serve_metrics = Some(v.parse().map_err(|_| format!("bad port {v:?}"))?);
                i += 2;
            }
            "--max-links" => {
                let v = argv.get(i + 1).ok_or("--max-links needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad link count {v:?}"))?;
                if n == 0 {
                    return Err("--max-links must be at least 1".to_string());
                }
                max_links = Some(n);
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if faults.is_some() && target != "chaos" && target != "serve-chaos" {
        return Err(format!(
            "--faults only applies to the chaos and serve-chaos targets\n{}",
            usage()
        ));
    }
    if max_links.is_some() && target != "scale" {
        return Err(format!(
            "--max-links only applies to the scale target\n{}",
            usage()
        ));
    }
    Ok(Args {
        command,
        target,
        seed,
        out,
        quick,
        threads,
        metrics,
        verbose,
        faults,
        trace_out,
        serve_metrics,
        max_links,
    })
}

fn usage() -> String {
    "usage:\n  tomo-sim run <fig2|fig4|fig5|fig6|fig7|fig8|fig9|stealth-tax|defense|noise|gap|chaos|serve-chaos|serve-load|scale|all> [--seed N] [--out DIR] [--quick] [--threads N] [--metrics FILE] [--verbose] [--faults SPEC] [--trace-out FILE] [--serve-metrics PORT] [--max-links N]\n  tomo-sim list\n\n--faults (chaos and serve-chaos) is a comma list of rates, e.g. \"loss=0.05,corrupt=0.01\";\nkeys: loss, corrupt, stale, link_fail, lp_iter, lp_singular, frame; \"off\" disables all\n(serve-chaos draws only the frame family).\n--max-links (scale only) caps the sweep's largest topology (default 10000).\n--trace-out enables span/provenance tracing and writes Chrome trace-event\nJSON (open at https://ui.perfetto.dev). --serve-metrics exposes Prometheus\ntext at http://127.0.0.1:PORT/metrics for the duration of the run."
        .to_string()
}

fn fig7_config(quick: bool) -> fig7::Fig7Config {
    if quick {
        fig7::Fig7Config {
            num_systems: 1,
            trials_per_system: 40,
            ..fig7::Fig7Config::default()
        }
    } else {
        fig7::Fig7Config::default()
    }
}

fn fig8_config(quick: bool) -> fig8::Fig8Config {
    if quick {
        fig8::Fig8Config {
            num_systems: 1,
            trials_per_system: 8,
            ..fig8::Fig8Config::default()
        }
    } else {
        fig8::Fig8Config::default()
    }
}

fn fig9_config(quick: bool) -> fig9::Fig9Config {
    if quick {
        fig9::Fig9Config {
            trials: 15,
            ..fig9::Fig9Config::default()
        }
    } else {
        fig9::Fig9Config::default()
    }
}

fn scale_config(quick: bool, max_links: Option<usize>) -> scale::ScaleConfig {
    let mut cfg = if quick {
        scale::ScaleConfig::quick()
    } else {
        scale::ScaleConfig::default()
    };
    if let Some(n) = max_links {
        cfg.max_links = n;
    }
    cfg
}

fn run_one(name: &str, args: &Args, exec: &Executor) -> Result<(), SimError> {
    let seed = args.seed;
    let artifact = |suffix: &str| args.out.as_ref().map(|d| d.join(suffix));
    match name {
        "fig2" => {
            let r = fig2::run(seed)?;
            println!("{}", fig2::render(&r));
            if let Some(p) = artifact("fig2.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig4" => {
            let r = fig4::run(seed)?;
            println!("{}", fig4::render(&r));
            if let Some(p) = artifact("fig4.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig5" => {
            let r = fig5::run(seed)?;
            println!("{}", fig5::render(&r));
            if let Some(p) = artifact("fig5.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig6" => {
            let r = fig6::run(seed)?;
            println!("{}", fig6::render(&r));
            if let Some(p) = artifact("fig6.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig7" => {
            let r = fig7::run(seed, &fig7_config(args.quick), exec)?;
            println!("{}", fig7::render(&r));
            if let Some(p) = artifact("fig7.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig8" => {
            let r = fig8::run(seed, &fig8_config(args.quick), exec)?;
            println!("{}", fig8::render(&r));
            if let Some(p) = artifact("fig8.json") {
                report::write_json(&r, &p)?;
            }
        }
        "fig9" => {
            let r = fig9::run(seed, &fig9_config(args.quick), exec)?;
            println!("{}", fig9::render(&r));
            if let Some(p) = artifact("fig9.json") {
                report::write_json(&r, &p)?;
            }
        }
        "gap" => {
            let draws = if args.quick { 8 } else { 30 };
            let r = gap::run_gap(seed, draws, exec)?;
            println!("{}", gap::render_gap(&r));
            if let Some(p) = artifact("gap.json") {
                report::write_json(&r, &p)?;
            }
        }
        "noise" => {
            let (trials, rounds) = if args.quick { (8, 8) } else { (30, 24) };
            let r =
                noise::run_noise_sweep(seed, &[0.0, 1.0, 4.0, 16.0, 64.0], trials, rounds, exec)?;
            println!("{}", noise::render_noise_sweep(&r));
            if let Some(p) = artifact("noise.json") {
                report::write_json(&r, &p)?;
            }
        }
        "defense" => {
            let (trials, placements) = if args.quick { (6, 3) } else { (25, 8) };
            let r = defense::run_defense(seed, trials, placements, exec)?;
            println!("{}", defense::render_defense(&r));
            if let Some(p) = artifact("defense.json") {
                report::write_json(&r, &p)?;
            }
        }
        "stealth-tax" => {
            let r = ablation::run_stealth_tax(seed, if args.quick { 3 } else { 10 }, exec)?;
            println!("{}", ablation::render_stealth_tax(&r));
            if let Some(p) = artifact("stealth_tax.json") {
                report::write_json(&r, &p)?;
            }
        }
        "chaos" => {
            let spec = tomo_fault::FaultSpec::parse(
                args.faults.as_deref().unwrap_or(chaos::DEFAULT_FAULTS),
            )?;
            let config = if args.quick {
                chaos::ChaosConfig::quick()
            } else {
                chaos::ChaosConfig::default()
            };
            let r = chaos::run(seed, &spec, &config, exec)?;
            println!("{}", chaos::render(&r));
            if !r.totals.is_balanced() {
                return Err(SimError(format!(
                    "chaos: fault ledger unbalanced: {:?}",
                    r.totals
                )));
            }
            if let Some(p) = artifact("chaos.json") {
                report::write_json(&r, &p)?;
            }
        }
        "serve-chaos" => {
            let spec = tomo_fault::FaultSpec::parse(
                args.faults
                    .as_deref()
                    .unwrap_or(serve_chaos::DEFAULT_FAULTS),
            )?;
            let config = if args.quick {
                serve_chaos::ServeChaosConfig::quick()
            } else {
                serve_chaos::ServeChaosConfig::default()
            };
            let r = serve_chaos::run(seed, &spec, &config)?;
            println!("{}", serve_chaos::render(&r));
            if !r.totals.is_balanced() {
                return Err(SimError(format!(
                    "serve-chaos: fault ledger unbalanced: {:?}",
                    r.totals
                )));
            }
            if let Some(p) = artifact("serve_chaos.json") {
                report::write_json(&r, &p)?;
            }
        }
        "serve-load" => {
            let config = if args.quick {
                serve_load::ServeLoadConfig::quick()
            } else {
                serve_load::ServeLoadConfig::default()
            };
            let r = serve_load::run(seed, &config)?;
            println!("{}", serve_load::render(&r));
            if let Some(p) = artifact("serve_load.json") {
                report::write_json(&r, &p)?;
            }
        }
        "scale" => {
            let r = scale::run(seed, &scale_config(args.quick, args.max_links))?;
            println!("{}", scale::render(&r));
            if let Some(p) = artifact("scale.json") {
                scale::write_artifact(&r, &p)?;
            }
        }
        other => return Err(SimError(format!("unknown figure {other:?}"))),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    tomo_obs::set_verbose(args.verbose);
    if args.command == "list" {
        println!(
            "fig2  strategy portraits on the Fig. 1 network\n\
             fig4  chosen-victim scapegoating on the Fig. 1 network\n\
             fig5  maximum-damage scapegoating on the Fig. 1 network\n\
             fig6  obfuscation on the Fig. 1 network\n\
             fig7  success probability vs attack presence ratio (wireline/wireless)\n\
             fig8  single-attacker success probabilities (wireline/wireless)\n\
             fig9  detection ratios per strategy and cut type\n\
             stealth-tax  ablation: damage given up for undetectability\n\
             defense  Section VI security-aware placement vs random\n\
             noise  detector robustness vs measurement noise\n\
             gap  Theorem 3 gap: consistency-only evasion rates\n\
             chaos  detection degradation under injected faults (--faults)\n\
             serve-chaos  live tomo-serve daemon: wire faults, kill/restart, SLO (--faults)\n\
             serve-load  many concurrent probe clients vs one daemon: throughput, tail, identity\n\
             scale  Rocketfuel-scale kernel sweep, 1k-50k links (--max-links)\n\
             all   everything above (figures only)"
        );
        return ExitCode::SUCCESS;
    }
    let exec = match args.threads {
        Some(n) => Executor::new(n),
        None => Executor::from_env(),
    };
    // Tracing is passive: it never perturbs results, only records them.
    if args.trace_out.is_some() {
        tomo_obs::set_tracing(true);
    }
    // Scrape endpoint for the duration of the run; the handle shuts the
    // server down when dropped at the end of main.
    let _metrics_server = match args.serve_metrics {
        Some(port) => match tomo_obs::HttpServer::bind(port)
            .and_then(|s| s.spawn_named(tomo_obs::metrics_handler(), "tomo-metrics"))
        {
            Ok(handle) => {
                eprintln!(
                    "serving Prometheus metrics at http://{}/metrics",
                    handle.local_addr()
                );
                Some(handle)
            }
            Err(e) => {
                eprintln!("serve-metrics: bind 127.0.0.1:{port}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let figures: Vec<&str> = if args.target == "all" {
        vec!["fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
    } else {
        vec![args.target.as_str()]
    };
    for f in figures {
        tomo_obs::info!("tomo-sim", "running {f} (seed {})", args.seed);
        if let Err(e) = run_one(f, &args, &exec) {
            eprintln!("{f}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
    }
    let snap = tomo_obs::snapshot();
    if args.verbose {
        eprint!("{}", report::metrics_summary(&snap));
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = snap.write_json(path) {
            eprintln!("metrics: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        match tomo_obs::write_chrome_trace(path) {
            Ok(stats) => eprintln!(
                "trace written to {} ({} events, {} dropped)",
                path.display(),
                stats.events,
                stats.dropped
            ),
            Err(e) => {
                eprintln!("trace: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn no_args_is_an_error() {
        assert!(parse_args_from(&[]).is_err());
    }

    #[test]
    fn list_parses_without_arguments() {
        let a = parse_args_from(&argv(&["list"])).unwrap();
        assert_eq!(a.command, "list");
    }

    #[test]
    fn list_rejects_trailing_arguments() {
        let err = parse_args_from(&argv(&["list", "fig4"])).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        assert!(parse_args_from(&argv(&["list", "--quick"])).is_err());
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = parse_args_from(&argv(&["bench"])).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn run_requires_a_figure_name() {
        assert!(parse_args_from(&argv(&["run"])).is_err());
        // A flag is not a figure name.
        assert!(parse_args_from(&argv(&["run", "--quick"])).is_err());
    }

    #[test]
    fn run_defaults() {
        let a = parse_args_from(&argv(&["run", "fig4"])).unwrap();
        assert_eq!(a.target, "fig4");
        assert_eq!(a.seed, 42);
        assert_eq!(a.out, None);
        assert!(!a.quick);
        assert_eq!(a.threads, None);
        assert_eq!(a.metrics, None);
        assert!(!a.verbose);
    }

    #[test]
    fn run_parses_all_flags() {
        let a = parse_args_from(&argv(&[
            "run",
            "fig7",
            "--seed",
            "7",
            "--out",
            "art",
            "--quick",
            "--threads",
            "4",
            "--metrics",
            "m.json",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, Some(PathBuf::from("art")));
        assert!(a.quick);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.metrics, Some(PathBuf::from("m.json")));
        assert!(a.verbose);
    }

    #[test]
    fn threads_flag_is_validated() {
        assert!(parse_args_from(&argv(&["run", "fig4", "--threads"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--threads", "0"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--threads", "two"])).is_err());
        let a = parse_args_from(&argv(&["run", "fig4", "--threads", "2"])).unwrap();
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn faults_flag_is_chaos_only() {
        let a = parse_args_from(&argv(&["run", "chaos", "--faults", "loss=0.1"])).unwrap();
        assert_eq!(a.faults, Some("loss=0.1".to_string()));
        let err = parse_args_from(&argv(&["run", "fig4", "--faults", "loss=0.1"])).unwrap_err();
        assert!(err.contains("chaos"), "{err}");
        let s = parse_args_from(&argv(&["run", "serve-chaos", "--faults", "frame=0.3"])).unwrap();
        assert_eq!(s.faults, Some("frame=0.3".to_string()));
        assert!(parse_args_from(&argv(&["run", "chaos", "--faults"])).is_err());
        // chaos without --faults uses the default mix.
        let d = parse_args_from(&argv(&["run", "chaos"])).unwrap();
        assert_eq!(d.faults, None);
    }

    #[test]
    fn serve_load_parses_and_rejects_faults() {
        let a = parse_args_from(&argv(&["run", "serve-load", "--quick", "--seed", "5"])).unwrap();
        assert_eq!(a.target, "serve-load");
        assert_eq!(a.seed, 5);
        assert!(a.quick);
        // The load sweep draws no wire faults; the flag stays chaos-only.
        let err =
            parse_args_from(&argv(&["run", "serve-load", "--faults", "frame=0.1"])).unwrap_err();
        assert!(err.contains("chaos"), "{err}");
    }

    #[test]
    fn max_links_flag_is_scale_only() {
        let a = parse_args_from(&argv(&["run", "scale", "--max-links", "5000"])).unwrap();
        assert_eq!(a.max_links, Some(5000));
        let err = parse_args_from(&argv(&["run", "fig4", "--max-links", "5000"])).unwrap_err();
        assert!(err.contains("scale"), "{err}");
        assert!(parse_args_from(&argv(&["run", "scale", "--max-links"])).is_err());
        assert!(parse_args_from(&argv(&["run", "scale", "--max-links", "0"])).is_err());
        assert!(parse_args_from(&argv(&["run", "scale", "--max-links", "many"])).is_err());
        // scale without --max-links keeps the config default.
        let d = parse_args_from(&argv(&["run", "scale"])).unwrap();
        assert_eq!(d.max_links, None);
    }

    #[test]
    fn scale_config_respects_quick_and_cap() {
        let quick = scale_config(true, None);
        assert_eq!(quick.sweep, vec![1_000]);
        let capped = scale_config(false, Some(2_000));
        assert_eq!(capped.max_links, 2_000);
        assert_eq!(capped.sweep, scale::ScaleConfig::default().sweep);
    }

    #[test]
    fn run_rejects_unknown_flags() {
        let err = parse_args_from(&argv(&["run", "fig4", "--fast"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // Trailing positional arguments are unknown flags too.
        assert!(parse_args_from(&argv(&["run", "fig4", "fig5"])).is_err());
    }

    #[test]
    fn value_flags_require_values() {
        assert!(parse_args_from(&argv(&["run", "fig4", "--seed"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--out"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--metrics"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--seed", "NaN"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig4", "--trace-out"])).is_err());
    }

    #[test]
    fn trace_out_flag_parses() {
        let a = parse_args_from(&argv(&["run", "fig7", "--trace-out", "t.json"])).unwrap();
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        let d = parse_args_from(&argv(&["run", "fig7"])).unwrap();
        assert_eq!(d.trace_out, None);
    }

    #[test]
    fn serve_metrics_run_flag_is_validated() {
        let a = parse_args_from(&argv(&["run", "fig7", "--serve-metrics", "9100"])).unwrap();
        assert_eq!(a.serve_metrics, Some(9100));
        assert!(parse_args_from(&argv(&["run", "fig7", "--serve-metrics"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig7", "--serve-metrics", "abc"])).is_err());
        assert!(parse_args_from(&argv(&["run", "fig7", "--serve-metrics", "99999"])).is_err());
    }
}
