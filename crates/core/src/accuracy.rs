//! Numerical-accuracy instrumentation (§2.2.3, §6).
//!
//! Fast algorithms trade numerical stability for speed; APA algorithms
//! additionally lose roughly half the significant digits per recursive
//! step. These helpers measure forward error against the classical
//! algorithm so the harness can reproduce those observations — in any
//! element type. The `_in` variants are generic (errors accumulate in
//! [`Scalar::Accum`], `f64` for both float types, so `f32` results are
//! measured rather than rounded away); the plain names keep their
//! historical `f64` signatures.

use crate::executor::Options;
use crate::planner::Planner;
use crate::workspace::Workspace;
use fmm_gemm::{naive_gemm, GemmScalar};
use fmm_matrix::{relative_error, DenseMatrix};
use fmm_tensor::Decomposition;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Relative forward error `‖C_fast − C_ref‖_F / ‖C_ref‖_F` of `steps`
/// recursive applications of `dec` on a random `n × n × n` problem,
/// computed in element type `T` (operands, classical reference and
/// fast multiply all in `T`).
///
/// # Panics
/// Panics when a coefficient of `dec` is not representable in `T`.
pub fn forward_error_in<T: GemmScalar>(
    dec: &Decomposition,
    steps: usize,
    opts: Options,
    n: usize,
    seed: u64,
) -> T::Accum {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = DenseMatrix::<T>::random(n, n, &mut rng);
    let b = DenseMatrix::<T>::random(n, n, &mut rng);
    let mut c_ref = DenseMatrix::<T>::zeros(n, n);
    naive_gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, c_ref.as_mut());
    let plan = Planner::new()
        .shape(n, n, n)
        .algorithm(dec)
        .steps(steps)
        .options(opts)
        .plan::<T>()
        .unwrap_or_else(|e| panic!("{e}"));
    let mut c_fast = DenseMatrix::<T>::zeros(n, n);
    plan.execute(&a, &b, &mut c_fast, &mut Workspace::for_plan(&plan));
    relative_error(&c_fast.as_ref(), &c_ref.as_ref())
}

/// Max relative error over `trials` random problems — a smoother
/// statistic for comparing algorithms' stability (§6).
pub fn max_rel_error_vs_classical_in<T: GemmScalar>(
    dec: &Decomposition,
    steps: usize,
    opts: Options,
    n: usize,
    trials: usize,
    seed: u64,
) -> T::Accum {
    (0..trials)
        .map(|t| forward_error_in::<T>(dec, steps, opts, n, seed.wrapping_add(t as u64)))
        .fold(<T::Accum as fmm_matrix::AccumScalar>::ZERO, |m, e| {
            if e > m {
                e
            } else {
                m
            }
        })
}

/// [`forward_error_in`] at the default element type (`f64`).
pub fn forward_error(dec: &Decomposition, steps: usize, opts: Options, n: usize, seed: u64) -> f64 {
    forward_error_in::<f64>(dec, steps, opts, n, seed)
}

/// [`max_rel_error_vs_classical_in`] at the default element type.
pub fn max_rel_error_vs_classical(
    dec: &Decomposition,
    steps: usize,
    opts: Options,
    n: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    max_rel_error_vs_classical_in::<f64>(dec, steps, opts, n, trials, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_tensor::compose::classical;

    #[test]
    fn classical_decomposition_error_is_roundoff() {
        let c = classical(2, 2, 2);
        let e = forward_error(&c, 2, Options::default(), 64, 1);
        assert!(e < 1e-13, "error {e}");
    }

    #[test]
    fn deeper_recursion_does_not_catastrophically_amplify() {
        let c = classical(2, 2, 2);
        let e = max_rel_error_vs_classical(&c, 3, Options::default(), 96, 3, 7);
        assert!(e < 1e-12, "error {e}");
    }

    #[test]
    fn f32_classical_error_is_f32_roundoff() {
        // Same §6-style measurement in single precision: round-off is
        // f32-sized — orders above the f64 figure, far below 1.
        let c = classical(2, 2, 2);
        let e = forward_error_in::<f32>(&c, 2, Options::default(), 64, 1);
        assert!(e > 1e-9, "f32 round-off should be visible: {e}");
        assert!(e < 1e-4, "but still small: {e}");
    }
}
