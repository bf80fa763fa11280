//! Dense vs CSR sparse kernels on the paper's experiment topologies.
//!
//! Measures the three products the tomography stack actually runs per
//! trial — `R x` (measurement), `Rᵀ y` (adjoint / consistency check),
//! and the Gram matrix `RᵀR` (system build) — on both substrates, so
//! the speedup claimed in DESIGN.md §5d is regenerable. Routing
//! matrices are 0/1 with a handful of nonzeros per row, so the CSR side
//! should win by roughly the density factor reported in
//! `linalg.sparse.density`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_core::TomographySystem;
use tomo_graph::isp;
use tomo_linalg::Vector;
use tomo_par::Executor;
use tomo_sim::topologies::{build_system, NetworkKind};

/// The largest ISP-like instance the generator produces comfortably:
/// roughly twice the default AS1221-like scale.
fn large_isp_system(seed: u64) -> TomographySystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = isp::IspConfig {
        backbone_nodes: 18,
        backbone_chords: 12,
        access_nodes: 140,
        multihoming_prob: 0.4,
    };
    let graph = isp::generate(&config, &mut rng).unwrap();
    tomo_core::placement::random_placement(
        &graph,
        &tomo_core::placement::PlacementConfig::default(),
        &mut rng,
    )
    .unwrap()
}

fn bench_system(c: &mut Criterion, label: &str, system: &TomographySystem) {
    let dense = &system.routing_csr().to_dense();
    let csr = system.routing_csr();
    let (rows, cols) = (dense.rows(), dense.cols());

    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let x = Vector::from(
        (0..cols)
            .map(|_| rng.gen_range(0.0..50.0))
            .collect::<Vec<_>>(),
    );
    let y = Vector::from(
        (0..rows)
            .map(|_| rng.gen_range(0.0..500.0))
            .collect::<Vec<_>>(),
    );

    let name = format!("sparse_kernels/{label}_{rows}x{cols}");
    let mut g = c.benchmark_group(&name);
    g.bench_function("mul_vec_dense", |b| {
        b.iter(|| dense.mul_vec(black_box(&x)).unwrap());
    });
    g.bench_function("mul_vec_csr", |b| {
        b.iter(|| csr.mul_vec(black_box(&x)).unwrap());
    });
    g.bench_function("mul_transpose_vec_dense", |b| {
        b.iter(|| dense.mul_transpose_vec(black_box(&y)).unwrap());
    });
    g.bench_function("mul_transpose_vec_csr", |b| {
        b.iter(|| csr.mul_transpose_vec(black_box(&y)).unwrap());
    });
    g.bench_function("gram_dense", |b| {
        b.iter(|| black_box(dense).gram());
    });
    g.bench_function("gram_csr", |b| {
        b.iter(|| black_box(csr).gram());
    });
    g.finish();
}

fn bench_sparse_kernels(c: &mut Criterion) {
    // The two fig. 7 families, exactly as the experiment builds them.
    let exec = Executor::from_env();
    let wireline = build_system(NetworkKind::Wireline, 42, &exec).unwrap();
    bench_system(c, "fig7_wireline", &wireline);
    let wireless = build_system(NetworkKind::Wireless, 42, &exec).unwrap();
    bench_system(c, "fig7_wireless", &wireless);
    // And the largest ISP instance, where sparsity pays the most.
    let large = large_isp_system(42);
    bench_system(c, "isp_large", &large);
}

criterion_group!(benches, bench_sparse_kernels);
criterion_main!(benches);
