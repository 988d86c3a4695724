//! Property tests pinning the SIMD kernel backend bit-identical to the
//! scalar oracle across shapes that exercise the remainder lanes:
//! dimensions that are not multiples of the 4-wide f64 vector, empty
//! matrices, and 1×1. Each case evaluates the same kernel under
//! `simd::with_backend` for both backends and compares raw f64 bits.
//!
//! On machines without AVX2 the override downgrades to scalar and the
//! comparisons are trivially true — the tests stay portable.

use linalg::matrix::{dot, Matrix};
use proptest::prelude::*;
use simd::{with_backend, Backend};

/// Shapes chosen to straddle the 4-lane vector width: 0, 1, lane-1,
/// lane, lane+1, and a couple of multi-vector sizes with remainders.
fn dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13])
}

/// Enough elements for any shape `dim()` can produce (13 * 13 = 169).
fn pool() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, 169usize)
}

fn shaped(rows: usize, cols: usize, pool: &[f64]) -> Matrix {
    Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, kernel: &str) {
    assert_eq!(a.rows(), b.rows(), "{kernel} rows");
    assert_eq!(a.cols(), b.cols(), "{kernel} cols");
    for i in 0..a.rows() {
        for (j, (x, y)) in a.row(i).iter().zip(b.row(i)).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{kernel} ({i}, {j}): scalar {x} vs simd {y}"
            );
        }
    }
}

proptest! {
    #[test]
    fn matmul_simd_bit_identical_to_scalar(
        m in dim(), k in dim(), n in dim(), da in pool(), db in pool(),
    ) {
        let a = shaped(m, k, &da);
        let b = shaped(k, n, &db);
        let s = with_backend(Backend::Scalar, || a.matmul(&b));
        let v = with_backend(Backend::Avx2, || a.matmul(&b));
        assert_bits_eq(&s, &v, "matmul");
    }

    #[test]
    fn matmul_tn_simd_bit_identical_to_scalar(
        k in dim(), m in dim(), n in dim(), da in pool(), db in pool(),
    ) {
        let at = shaped(k, m, &da);
        let b = shaped(k, n, &db);
        let s = with_backend(Backend::Scalar, || at.matmul_tn(&b));
        let v = with_backend(Backend::Avx2, || at.matmul_tn(&b));
        assert_bits_eq(&s, &v, "matmul_tn");
    }

    /// `affine_nt` has one path; under either backend it must equal the
    /// bias-first, k-ascending fold of the scalar network forward.
    #[test]
    fn affine_nt_matches_bias_first_fold_under_both_backends(
        m in dim(), k in dim(), o in dim(), da in pool(), dw in pool(), dbias in pool(),
    ) {
        let a = shaped(m, k, &da);
        let w = shaped(o, k, &dw);
        let bias = &dbias[..o];
        let fold = Matrix::from_fn(m, o, |i, out| {
            let mut s = bias[out];
            for j in 0..k {
                s += w[(out, j)] * a[(i, j)];
            }
            s
        });
        let s = with_backend(Backend::Scalar, || a.affine_nt(&w, bias));
        let v = with_backend(Backend::Avx2, || a.affine_nt(&w, bias));
        assert_bits_eq(&fold, &s, "affine_nt(scalar)");
        assert_bits_eq(&fold, &v, "affine_nt(avx2)");
    }

    #[test]
    fn matvec_and_dot_simd_bit_identical_to_scalar(
        m in dim(), k in dim(), da in pool(), dv in pool(),
    ) {
        let a = shaped(m, k, &da);
        let v = &dv[..k];
        let s = with_backend(Backend::Scalar, || a.matvec(v));
        let x = with_backend(Backend::Avx2, || a.matvec(v));
        prop_assert_eq!(s.len(), x.len());
        for (i, (p, q)) in s.iter().zip(&x).enumerate() {
            prop_assert_eq!(p.to_bits(), q.to_bits(), "matvec row {}", i);
        }
        if m > 0 {
            let row = a.row(0);
            let ds = with_backend(Backend::Scalar, || dot(row, v));
            let dx = with_backend(Backend::Avx2, || dot(row, v));
            prop_assert_eq!(ds.to_bits(), dx.to_bits(), "dot");
        }
    }

    /// Zeros in the left operand take the skip branch in matmul; sprinkle
    /// them explicitly so the sparsity short-circuit is exercised under
    /// both backends (it must behave identically, including for rows that
    /// become entirely zero).
    #[test]
    fn matmul_zero_skip_identical_under_simd(
        m in dim(), k in dim(), n in dim(),
        da in pool(), db in pool(),
        zero_every in 1usize..4,
    ) {
        let mut a = shaped(m, k, &da);
        let b = shaped(k, n, &db);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if (i + j) % zero_every == 0 {
                    a[(i, j)] = 0.0;
                }
            }
        }
        let s = with_backend(Backend::Scalar, || a.matmul(&b));
        let v = with_backend(Backend::Avx2, || a.matmul(&b));
        assert_bits_eq(&s, &v, "matmul(zero-skip)");
    }
}

#[test]
fn one_by_one_and_empty_shapes_bit_identical() {
    for (m, k, n) in [(1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 3, 2), (3, 1, 1)] {
        let a = Matrix::from_fn(m, k, |i, j| (i as f64 + 1.3) * (j as f64 - 0.7));
        let b = Matrix::from_fn(k, n, |i, j| (i as f64 - 2.1) * (j as f64 + 0.4));
        let s = with_backend(Backend::Scalar, || a.matmul(&b));
        let v = with_backend(Backend::Avx2, || a.matmul(&b));
        assert_eq!(s, v, "matmul {m}x{k}x{n}");
    }
}
