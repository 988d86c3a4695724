//! Neural-network hot-loop cost: batched matrix-form RProp training and
//! forward pass, plus the linalg kernels they bottom out in.
//!
//! Batched-vs-scalar equivalence of the gradient, prediction and
//! 30-epoch training is pinned by `mlmodels::nn`'s unit tests. The
//! `matmul_tn` benchmarks force the backend through `simd::with_backend`
//! — the same thread-local override the linalg bit-identity proptests
//! use — so `matmul_tn_avx2` vs `matmul_tn_scalar` is the measured cost
//! of the AVX2 kernels against the verbatim scalar oracle on identical
//! inputs; before timing, the two are re-asserted bit-identical on this
//! benchmark's data or the bench aborts. `affine_nt` has one (scalar)
//! path on every backend.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use linalg::Matrix;
use mlmodels::nn::{Mlp, TrainAlgo, TrainConfig};
use std::hint::black_box;

const ROWS: usize = 150;
const COLS: usize = 24;
const HIDDEN: [usize; 1] = [16];
const EPOCHS: usize = 30;

fn design() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(ROWS, COLS, |i, j| {
        (((i * 7 + j * 13 + 5) % 29) as f64) / 29.0
    });
    let y: Vec<f64> = (0..ROWS)
        .map(|i| 0.2 + 0.5 * x[(i, 0)] + 0.25 * x[(i, 3)] * x[(i, 9)] - 0.15 * x[(i, 17)])
        .collect();
    (x, y)
}

fn rprop_config() -> TrainConfig {
    TrainConfig {
        algo: TrainAlgo::Rprop,
        epochs: EPOCHS,
        seed: 7,
        ..TrainConfig::default()
    }
}

/// Assert the AVX2 `matmul_tn` kernel is bit-identical to the scalar
/// oracle on this benchmark's shape, then return whether AVX2 is even
/// available (on non-x86 hosts the "avx2" bench silently measures
/// scalar, so we skip it instead of publishing a misleading number).
fn assert_kernel_equivalence(x: &Matrix) -> bool {
    let simd_mm = simd::with_backend(simd::Backend::Avx2, || x.matmul_tn(x));
    let scalar_mm = simd::with_backend(simd::Backend::Scalar, || x.matmul_tn(x));
    for (a, b) in simd_mm.as_slice().iter().zip(scalar_mm.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "matmul_tn kernels diverged");
    }
    simd::avx2_available()
}

fn bench_nn(c: &mut Criterion) {
    let (x, y) = design();
    let cfg = rprop_config();
    let mut trained = Mlp::new(COLS, &HIDDEN, cfg.seed);
    trained.try_train(&x, &y, &cfg).expect("training");

    let mut group = c.benchmark_group("nn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function(format!("rprop_{EPOCHS}ep_batched"), |b| {
        b.iter_batched(
            || Mlp::new(COLS, &HIDDEN, cfg.seed),
            |mut net| black_box(net.try_train(&x, &y, &cfg)),
            BatchSize::LargeInput,
        )
    });

    group.bench_function("predict_batched", |b| {
        b.iter(|| black_box(trained.predict(&x)))
    });

    // Linalg kernel microbenches: the gradient-shaped `matmul_tn` under
    // each backend, and the forward-pass `affine_nt`. The scalar rows
    // always run (they are the oracle everywhere); the avx2 row runs
    // only where the CPU has the instructions, so a missing
    // `kernel_matmul_tn_avx2` entry in BENCH_nn.json means "non-x86
    // runner", not "bench deleted".
    let w = Matrix::from_fn(HIDDEN[0], COLS, |i, j| {
        (((i * 11 + j * 3 + 1) % 17) as f64) / 17.0 - 0.5
    });
    let bias: Vec<f64> = (0..HIDDEN[0]).map(|o| 0.1 * o as f64 - 0.4).collect();
    let avx2 = assert_kernel_equivalence(&x);
    group.bench_function("kernel_matmul_tn_scalar", |b| {
        simd::with_backend(simd::Backend::Scalar, || {
            b.iter(|| black_box(x.matmul_tn(&x)))
        })
    });
    group.bench_function("kernel_affine_nt_scalar", |b| {
        b.iter(|| black_box(x.affine_nt(&w, &bias)))
    });
    if avx2 {
        group.bench_function("kernel_matmul_tn_avx2", |b| {
            simd::with_backend(simd::Backend::Avx2, || {
                b.iter(|| black_box(x.matmul_tn(&x)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
