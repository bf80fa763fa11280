//! Benches for the beyond-paper extensions: attacker localization, the
//! stealth-tax ablation, and the Section VI defense comparison.
//!
//! Each prints its result once (so `cargo bench` doubles as the report
//! generator), then times a reduced configuration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::strategy;
use tomo_bench::BENCH_SEED;
use tomo_core::params;
use tomo_detect::localize::localize;
use tomo_par::Executor;
use tomo_sim::topologies::{build_system, NetworkKind};
use tomo_sim::{ablation, defense};

fn bench_stealth_tax(c: &mut Criterion) {
    let exec = Executor::from_env();
    let result = ablation::run_stealth_tax(BENCH_SEED, 8, &exec).expect("ablation runs");
    println!("\n{}", ablation::render_stealth_tax(&result));

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.bench_function("stealth_tax_3_samples", |b| {
        b.iter(|| ablation::run_stealth_tax(black_box(BENCH_SEED), 3, &exec).expect("runs"));
    });
    group.finish();
}

fn bench_defense(c: &mut Criterion) {
    let exec = Executor::from_env();
    let result = defense::run_defense(BENCH_SEED, 20, 6, &exec).expect("defense runs");
    println!("\n{}", defense::render_defense(&result));

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.bench_function("defense_4_trials", |b| {
        b.iter(|| defense::run_defense(black_box(BENCH_SEED), 4, 3, &exec).expect("runs"));
    });
    group.finish();
}

fn bench_localization(c: &mut Criterion) {
    // Build one attacked instance, then time the localization sweep.
    let system =
        build_system(NetworkKind::Wireline, BENCH_SEED, &Executor::from_env()).expect("system");
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let x = params::default_delay_model().sample(system.num_links(), &mut rng);
    let mut nodes: Vec<_> = system.graph().nodes().collect();
    nodes.sort_by_key(|&n| system.paths_through_nodes(&[n]).len());
    let y_attacked = nodes
        .iter()
        .find_map(|&n| {
            let attackers = AttackerSet::new(&system, vec![n]).ok()?;
            let s =
                strategy::max_damage(&system, &attackers, &AttackScenario::paper_defaults(), &x)
                    .ok()?
                    .into_success()?;
            Some(&system.measure(&x).ok()? + &s.manipulation)
        })
        .expect("some node can attack");

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.bench_function("localize_full_sweep", |b| {
        b.iter(|| localize(black_box(&system), black_box(&y_attacked)).expect("runs"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stealth_tax,
    bench_defense,
    bench_localization
);
criterion_main!(benches);
