//! Portable SIMD shim for perfpredict's dense kernels.
//!
//! `linalg::matrix` routes its inner loops (`axpy`-structured matmul
//! rows and sequential dot reductions) through this crate. Two
//! backends exist:
//!
//! - [`Backend::Scalar`] — the original loops, verbatim. This is the
//!   bit-exactness oracle: every other backend must produce the same
//!   f64 bits.
//! - [`Backend::Avx2`] — x86_64 AVX2 via `std::arch`, selected at
//!   runtime only when the CPU reports the feature. The kernels use
//!   separate multiply and add (never FMA) and keep each output
//!   element's accumulation order identical to the scalar loop, so
//!   f64 results are bit-identical to the oracle.
//!
//! Selection order: a thread-local override installed by
//! [`with_backend`] (tests and benches compare both backends
//! in-process), then CPU detection: AVX2 when the CPU reports it
//! (`std` caches the detection). On non-x86_64 targets every path
//! resolves to `Scalar`.

use std::cell::Cell;

/// Which kernel implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The original scalar loops, verbatim — the bit-exactness oracle.
    Scalar,
    /// x86_64 AVX2 (`std::arch`), bit-identical to `Scalar` for f64.
    Avx2,
}

/// True when the running CPU can execute the AVX2 kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The fastest backend the running CPU supports.
fn detect() -> Backend {
    if avx2_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend kernels should use on the *calling* thread.
///
/// Callers that fan work out to other threads (rayon tiles, scoped
/// shards) must resolve this once on the submitting thread and capture
/// the value — worker threads do not inherit the thread-local override
/// installed by [`with_backend`].
pub fn backend() -> Backend {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(detect)
}

/// Run `f` with the backend forced to `b` on this thread, restoring
/// the previous override afterwards (even on panic). Forcing
/// [`Backend::Avx2`] on a CPU without AVX2 silently downgrades to
/// `Scalar` so tests stay portable.
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    let b = if b == Backend::Avx2 && !avx2_available() {
        Backend::Scalar
    } else {
        b
    };
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(b))));
    f()
}

/// `out[i] += s * a[i]` — the inner loop of every matmul/affine row.
///
/// Bit-identical across backends: each output element sees exactly one
/// `mul` then one `add`, in the same order as the scalar loop.
pub fn axpy(be: Backend, s: f64, a: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len());
    match be {
        Backend::Scalar => axpy_scalar(s, a, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_assert!(avx2_available());
            // SAFETY: Backend::Avx2 is only resolved (or forced via
            // with_backend) after is_x86_feature_detected!("avx2")
            // returned true on this process, so the target-feature
            // function may be called.
            unsafe { axpy_avx2(s, a, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => axpy_scalar(s, a, out),
    }
}

/// Sequential-order dot product: `sum_i a[i] * b[i]`, left to right.
///
/// Bit-identical across backends: the AVX2 path vectorizes only the
/// element-wise products; the summation stays a single sequential
/// chain, rounding each partial sum exactly like the scalar loop.
pub fn dot(be: Backend, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match be {
        Backend::Scalar => dot_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_assert!(avx2_available());
            // SAFETY: Backend::Avx2 implies the avx2 feature was
            // detected at runtime (see detect/with_backend), so
            // calling the target-feature function is permitted.
            unsafe { dot_avx2(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => dot_scalar(a, b),
    }
}

/// The original `linalg::matrix` inner loop, verbatim.
fn axpy_scalar(s: f64, a: &[f64], out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o += s * x;
    }
}

/// The original `linalg::matrix::dot`, verbatim.
fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// SAFETY: callers must have verified AVX2 support at runtime. All
/// loads/stores below are unaligned (`loadu`/`storeu`) within the
/// bounds of `a` and `out`: the chunk loop touches indices
/// `[0, 4 * (len / 4))` and the tail loop is safe indexing. `mul` then
/// `add` (no FMA) keeps per-element rounding identical to the scalar
/// loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(s: f64, a: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = out.len().min(a.len());
    let chunks = n / 4;
    let sv = _mm256_set1_pd(s);
    let ap = a.as_ptr();
    let op = out.as_mut_ptr();
    for c in 0..chunks {
        let at = ap.add(c * 4);
        let ot = op.add(c * 4);
        let prod = _mm256_mul_pd(sv, _mm256_loadu_pd(at));
        _mm256_storeu_pd(ot, _mm256_add_pd(_mm256_loadu_pd(ot), prod));
    }
    for i in chunks * 4..n {
        out[i] += s * a[i];
    }
}

/// SAFETY: callers must have verified AVX2 support at runtime. Loads
/// are unaligned and in-bounds (chunk loop covers `[0, 4 * (len / 4))`,
/// tail is safe indexing); the product vector is spilled to a local
/// array and reduced sequentially so every partial sum rounds exactly
/// like the scalar `sum()` chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    // std's `Sum for f64` folds from -0.0 (so all-zero sums keep their
    // sign); start the same way to stay bit-identical.
    let mut acc = -0.0f64;
    let mut prod = [0.0f64; 4];
    for c in 0..chunks {
        let pv = _mm256_mul_pd(
            _mm256_loadu_pd(ap.add(c * 4)),
            _mm256_loadu_pd(bp.add(c * 4)),
        );
        _mm256_storeu_pd(prod.as_mut_ptr(), pv);
        acc += prod[0];
        acc += prod[1];
        acc += prod[2];
        acc += prod[3];
    }
    for i in chunks * 4..n {
        acc += a[i] * b[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, base: f64) -> Vec<f64> {
        (0..n)
            .map(|i| base + i as f64 * 0.37 - (n as f64) / 3.0)
            .collect()
    }

    #[test]
    fn with_backend_forces_the_backend() {
        let inside = with_backend(Backend::Scalar, backend);
        assert_eq!(inside, Backend::Scalar);
        let forced = with_backend(Backend::Avx2, backend);
        if avx2_available() {
            assert_eq!(forced, Backend::Avx2);
        } else {
            assert_eq!(forced, Backend::Scalar, "downgrades without AVX2");
        }
    }

    #[test]
    fn override_restored_after_panic() {
        let before = backend();
        let caught = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(backend(), before, "override must unwind with the scope");
    }

    #[test]
    fn axpy_backends_bit_identical_across_remainder_lanes() {
        if !avx2_available() {
            return;
        }
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65] {
            let a = seq(n, 0.13);
            for s in [0.0, -0.0, 1.75, -3.25e-3, f64::INFINITY] {
                let mut scalar = seq(n, 42.0);
                let mut simd = scalar.clone();
                axpy(Backend::Scalar, s, &a, &mut scalar);
                axpy(Backend::Avx2, s, &a, &mut simd);
                for (i, (x, y)) in scalar.iter().zip(&simd).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} s={s} lane {i}");
                }
            }
        }
    }

    #[test]
    fn dot_backends_bit_identical_across_remainder_lanes() {
        if !avx2_available() {
            return;
        }
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100] {
            let a = seq(n, 0.77);
            let b = seq(n, -1.19);
            let s = dot(Backend::Scalar, &a, &b);
            let v = dot(Backend::Avx2, &a, &b);
            assert_eq!(s.to_bits(), v.to_bits(), "n={n}");
        }
    }
}
