//! Ablation: random vs security-aware monitor placement (the paper's
//! Section VI proposal).
//!
//! Prints the exposure comparison (worst single-node presence ratio on
//! measurement paths — the quantity Theorem 2 ties to attack success),
//! then times both placement algorithms.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_core::placement::{
    max_internal_presence_ratio, random_placement, security_aware_placement, PlacementConfig,
};
use tomo_graph::isp;
use tomo_par::Executor;

fn bench_placement_ablation(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1221);
    let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
    let cfg = PlacementConfig::default();
    let exec = Executor::from_env();

    // Print the ablation table once.
    println!("\nSection VI ablation — worst internal presence ratio (lower = safer):");
    let mut random_sum = 0.0;
    let mut secure_sum = 0.0;
    const RUNS: usize = 5;
    for s in 0..RUNS as u64 {
        let mut r1 = ChaCha8Rng::seed_from_u64(100 + s);
        let rand_sys = random_placement(&g, &cfg, &mut r1).unwrap();
        let mut r2 = ChaCha8Rng::seed_from_u64(100 + s);
        let secure_sys = security_aware_placement(&g, &cfg, 6, &mut r2, &exec).unwrap();
        let (a, b) = (
            max_internal_presence_ratio(&rand_sys),
            max_internal_presence_ratio(&secure_sys),
        );
        random_sum += a;
        secure_sum += b;
        println!(
            "  seed {:>3}: random {:>5.1}%  security-aware {:>5.1}%",
            100 + s,
            a * 100.0,
            b * 100.0
        );
    }
    println!(
        "  mean:     random {:>5.1}%  security-aware {:>5.1}%",
        random_sum / RUNS as f64 * 100.0,
        secure_sum / RUNS as f64 * 100.0
    );

    let mut group = c.benchmark_group("placement_ablation");
    group.sample_size(10);
    group.bench_function("random_placement", |b| {
        b.iter(|| {
            let mut r = ChaCha8Rng::seed_from_u64(7);
            random_placement(black_box(&g), &cfg, &mut r).unwrap()
        });
    });
    group.bench_function("security_aware_placement_6_trials", |b| {
        b.iter(|| {
            let mut r = ChaCha8Rng::seed_from_u64(7);
            security_aware_placement(black_box(&g), &cfg, 6, &mut r, &exec).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_placement_ablation);
criterion_main!(benches);
