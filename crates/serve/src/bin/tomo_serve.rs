//! The `tomo-serve` daemon binary.
//!
//! ```text
//! tomo-serve [--ingest-port N] [--http-port N] [--journal PATH]
//!            [--journal-sync] [--queue-capacity N]
//!            [--snapshot-every N] [--slo-ms F] [--max-secs F]
//!            [--topology FILE.cch] [--extra-paths N] [--paths-seed N]
//! tomo-serve bench [--batches N] [--slo-ms F]
//! ```
//!
//! The daemon prints its bound addresses (`ingest_addr=` / `http_addr=`)
//! on stdout so scripts using ephemeral ports can find it, then blocks
//! until `POST /shutdown` (or `--max-secs` elapses). Without
//! `--topology` it serves the fig. 1 toy system; with it, any
//! Rocketfuel `.cch` / edge-list topology (one one-hop path per link
//! plus `--extra-paths` seeded multi-hop paths). The `bench` subcommand
//! runs the ingest/query workload in-process and prints the
//! `BENCH_serve.json` payload on stdout.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tomo_core::fig1::fig1_system;
use tomo_detect::ConsistencyDetector;
use tomo_serve::bench::{self, BenchConfig};
use tomo_serve::{topology, ServeConfig, Server};

struct Options {
    config: ServeConfig,
    max_secs: Option<f64>,
    topology: Option<std::path::PathBuf>,
    extra_paths: usize,
    paths_seed: u64,
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut options = Options {
        config: ServeConfig::default(),
        max_secs: None,
        topology: None,
        extra_paths: 0,
        paths_seed: 42,
    };
    let mut args = argv.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ingest-port" => options.config.ingest_port = parse_flag(&mut args, arg)?,
            "--http-port" => options.config.http_port = parse_flag(&mut args, arg)?,
            "--journal" => {
                let path: String = parse_flag(&mut args, arg)?;
                options.config.journal_path = Some(path.into());
            }
            "--journal-sync" => options.config.journal_sync = true,
            "--queue-capacity" => options.config.queue_capacity = parse_flag(&mut args, arg)?,
            "--snapshot-every" => options.config.snapshot_every = parse_flag(&mut args, arg)?,
            "--topology" => {
                let path: String = parse_flag(&mut args, arg)?;
                options.topology = Some(path.into());
            }
            "--extra-paths" => options.extra_paths = parse_flag(&mut args, arg)?,
            "--paths-seed" => options.paths_seed = parse_flag(&mut args, arg)?,
            "--slo-ms" => options.config.slo_ms = parse_flag(&mut args, arg)?,
            "--max-secs" => options.max_secs = Some(parse_flag(&mut args, arg)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

fn run_bench(argv: &[String]) -> Result<(), String> {
    let mut config = BenchConfig::default();
    let mut args = argv.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batches" => config.batches = parse_flag(&mut args, arg)?,
            "--slo-ms" => config.slo_ms = parse_flag(&mut args, arg)?,
            other => return Err(format!("unknown bench flag {other:?}")),
        }
    }
    let report = bench::run(&config);
    println!("{}", report.to_json());
    Ok(())
}

fn run_daemon(options: Options) -> Result<(), String> {
    let system = match &options.topology {
        Some(path) => Arc::new(
            topology::load_system(path, options.extra_paths, options.paths_seed)
                .map_err(|e| format!("--topology: {e}"))?,
        ),
        None => Arc::new(fig1_system().map_err(|e| format!("fig1 system: {e}"))?),
    };
    println!(
        "system links={} paths={}",
        system.num_links(),
        system.num_paths()
    );
    let mut server = Server::start(system, ConsistencyDetector::recommended(), options.config)
        .map_err(|e| format!("daemon start failed: {e}"))?;
    println!("ingest_addr={}", server.ingest_addr());
    println!("http_addr={}", server.http_addr());
    println!("epoch={}", server.epoch());
    let _ = std::io::stdout().flush();
    let timeout = options
        .max_secs
        .map_or(Duration::from_secs(u64::MAX / 4), Duration::from_secs_f64);
    let requested = server.wait_for_shutdown_request(timeout);
    server.shutdown();
    let stats = server.engine_stats();
    println!(
        "shutdown reason={} applied={} deduped={} reordered={} quarantined={}",
        if requested { "requested" } else { "max-secs" },
        stats.applied,
        stats.deduped,
        stats.reordered,
        stats.quarantined,
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("bench") {
        run_bench(&argv[1..])
    } else {
        parse_options(&argv).and_then(run_daemon)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tomo-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
