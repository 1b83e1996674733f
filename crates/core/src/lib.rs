//! The paper's framework: practical parallel fast matrix multiplication.
//!
//! This crate turns any verified tensor decomposition
//! ([`fmm_tensor::Decomposition`]) into a high-performance matrix
//! multiplication routine, reproducing the design space of Benson &
//! Ballard (PPoPP 2015):
//!
//! * recursion with **dynamic peeling** for arbitrary dimensions (§3.5);
//! * three **addition strategies** — pairwise, write-once, streaming
//!   (§3.2) — with optional greedy **common subexpression elimination**
//!   (§3.3, Table 3);
//! * the **singleton-column optimization**: columns of U/V with one
//!   non-zero pipe a scale through to the output combination instead of
//!   materializing a temporary (§3.1);
//! * three **parallel schemes** — DFS, BFS, HYBRID (§4) — implemented
//!   on scoped tasks over the in-tree work-stealing scheduler
//!   (`fmm-runtime`, reached through the rayon-compatible facade);
//!   [`ExecStatsSnapshot::tasks_stolen`] / `threads_used` expose the
//!   scheduler's behaviour so tests can assert stealing happens;
//! * **composed schedules** (different base case per recursion level),
//!   which is how the ⟨54,54,54⟩, ω ≈ 2.775 algorithm of §5.2 is built;
//! * the **effective GFLOPS** metric (Eq. 3) and forward-error
//!   instrumentation for APA and exact algorithms (§2.2.3, §6).
//!
//! # Plan once, execute many
//!
//! The framework's design space (depth × scheme × additions × CSE)
//! only pays off when resolved per machine and problem shape, so the
//! primary API separates the two phases FFTW-style:
//!
//! * [`Planner`] resolves the configuration — applying the §3.4 cutoff
//!   rule through a measured [`GemmProfile`], optionally auto-selecting
//!   the decomposition from a catalog — into an immutable [`Plan`]
//!   whose exact workspace layout is computed once per recursion
//!   depth.
//! * [`Plan::execute`] runs against a reusable [`Workspace`]: after
//!   the first call every S/T/M temporary is checked out of the same
//!   arena, so the hot path performs **zero heap allocation**
//!   (asserted by [`ExecStatsSnapshot::workspace_reused`]).
//! * [`Plan::execute_batch`] fans a batch of independent same-shape
//!   products out across rayon tasks, one workspace each.
//!
//! ```
//! use fmm_core::{Planner, Workspace};
//! use fmm_matrix::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dec = fmm_tensor::compose::classical(2, 2, 2); // any Decomposition works
//! let plan = Planner::new()
//!     .shape(100, 100, 100)
//!     .algorithm(&dec)
//!     // With a fast algorithm, .profile(GemmProfile::measure(..))
//!     // lets the §3.4 rule pick the depth for this machine; the
//!     // classical decomposition has zero speedup, so pin it here.
//!     .steps(2)
//!     .plan()
//!     .unwrap();
//! assert!(plan.workspace_len() > 0);
//! let mut ws = Workspace::for_plan(&plan);
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = Matrix::random(100, 100, &mut rng);
//! let b = Matrix::random(100, 100, &mut rng);
//! let mut c = Matrix::zeros(100, 100);
//! for _ in 0..3 {
//!     plan.execute(&a, &b, &mut c, &mut ws); // allocation-free after call 1
//! }
//! ```
//!
//! # Serve many: the engine
//!
//! On top of plan/execute sits [`FmmEngine`] ([`engine`]), the
//! concurrent multiply *service*: a long-lived object owning an
//! `fmm-runtime` thread pool, a bounded LRU plan cache (auto-planning
//! via `fmm_algo::candidates_for_shape` on a miss) and a workspace pool
//! that checks arenas in and out, so steady-state serving allocates
//! nothing. [`FmmEngine::multiply`] is the synchronous call,
//! [`FmmEngine::submit`] hands back a [`MultiplyHandle`] that joins a
//! detached pool job (with work-stealing help when the waiter is a pool
//! thread), and [`FmmEngine::submit_batch`] fans out mixed-shape
//! streams — the front door a server hands its request threads.
//!
//! `Planner` → `Plan` is the only way into the executor: the engine is
//! a cache of plans built from one `Planner` template, and [`Options`]
//! carries only the executor strategy, never the depth.
//!
//! # Element types
//!
//! Every layer here is generic over [`fmm_matrix::Scalar`] (through
//! the [`GemmScalar`] bound that adds the per-type packed microkernel),
//! with `f64` as the default type parameter everywhere: `Plan`,
//! `Workspace`, `FmmEngine` written without a parameter mean
//! exactly what they did before generics. `f32` is the second shipped
//! instantiation — `Planner::plan::<f32>()`,
//! `FmmEngine::<f32>::builder()` — with decomposition coefficients
//! injected once per level at plan time via
//! [`fmm_matrix::Scalar::from_coeff`]. That injection is fallible by
//! design ([`PlanError::UnrepresentableCoefficient`]): a future
//! non-field semiring backend (e.g. bit-packed GF(2)) rejects
//! fractional APA coefficients there instead of computing nonsense.
//! [`GemmProfile`] is measured on the f64 gemm; its §3.4 depth
//! recommendation is reused for every dtype (the performance *shape* —
//! ramp-up then plateau — is what the rule needs, and it transfers).

mod accuracy;
mod certificate;
pub mod codegen;
pub mod cutoff;
pub mod engine;
mod executor;
pub mod plan;
mod planner;
mod workspace;

pub use accuracy::{
    forward_error, forward_error_in, max_rel_error_vs_classical, max_rel_error_vs_classical_in,
};
pub use certificate::PlanCertificate;
pub use codegen::generate_rust;
pub use cutoff::GemmProfile;
pub use engine::{shape_class, EngineBuilder, EngineError, EngineStats, FmmEngine, MultiplyHandle};
pub use executor::{AdditionMethod, ExecStatsSnapshot, Options, Scheme};
pub use fmm_gemm::{classical_flops, effective_gflops, GemmScalar};
pub use plan::{cse_stats, CseStats};
pub use planner::{Plan, PlanError, Planner};
pub use workspace::Workspace;

use fmm_tensor::Decomposition;

/// Number of leaf (base-case) multiplications a uniform `L`-step run of
/// the algorithm performs on a divisible problem: `R^L`.
pub fn leaf_count(dec: &Decomposition, steps: usize) -> u64 {
    (dec.rank() as u64).pow(steps as u32)
}

/// Arithmetic-cost model: flops performed by `L` steps of `⟨m,k,n⟩`
/// rank-`R` recursion on a `P×Q×S` problem (divisible case), counting
/// base-case classical gemms and all additions. This is the recurrence
/// of §2.1 generalized to rectangular base cases.
pub fn flop_model(dec: &Decomposition, p: usize, q: usize, s: usize, steps: usize) -> f64 {
    if steps == 0 {
        return fmm_gemm::classical_flops(p, q, s);
    }
    let (m, k, n) = dec.base();
    let adds = dec.addition_count(1e-14) as f64;
    // additions operate on sub-blocks of sizes (p/m × q/k), (q/k × s/n),
    // (p/m × s/n) for the U, V, W sides respectively; approximate with
    // the dominant output-block size for the W side and input sizes
    // otherwise. An exact split is possible but the aggregate is what
    // the cost model needs.
    let sub_u = (p / m) as f64 * (q / k) as f64;
    let sub_v = (q / k) as f64 * (s / n) as f64;
    let sub_w = (p / m) as f64 * (s / n) as f64;
    let u_adds = dec.u.nnz(1e-14).saturating_sub(dec.rank()) as f64;
    let v_adds = dec.v.nnz(1e-14).saturating_sub(dec.rank()) as f64;
    let w_adds = adds - u_adds - v_adds;
    let add_flops = u_adds * sub_u + v_adds * sub_v + w_adds.max(0.0) * sub_w;
    dec.rank() as f64 * flop_model(dec, p / m, q / k, s / n, steps - 1) + add_flops
}

/// Strassen fixture shared by in-crate tests (codegen, planner,
/// cutoff and executor tests all reuse this single U/V/W literal).
#[cfg(test)]
pub(crate) fn codegen_fixture() -> Decomposition {
    let u = fmm_matrix::Matrix::from_rows(&[
        &[1., 0., 1., 0., 1., -1., 0.],
        &[0., 0., 0., 0., 1., 0., 1.],
        &[0., 1., 0., 0., 0., 1., 0.],
        &[1., 1., 0., 1., 0., 0., -1.],
    ]);
    let v = fmm_matrix::Matrix::from_rows(&[
        &[1., 1., 0., -1., 0., 1., 0.],
        &[0., 0., 1., 0., 0., 1., 0.],
        &[0., 0., 0., 1., 0., 0., 1.],
        &[1., 0., -1., 0., 1., 0., 1.],
    ]);
    let w = fmm_matrix::Matrix::from_rows(&[
        &[1., 0., 0., 1., -1., 0., 1.],
        &[0., 0., 1., 0., 1., 0., 0.],
        &[0., 1., 0., 1., 0., 0., 0.],
        &[1., -1., 1., 0., 0., 1., 0.],
    ]);
    Decomposition::new(2, 2, 2, u, v, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_gemm::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use fmm_tensor::compose::{classical, direct_sum_n, kron_compose};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strassen() -> Decomposition {
        codegen_fixture()
    }

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        c
    }

    /// `A · B` through a plan for `planner` at the operands' shape,
    /// into an output pre-filled with 123.0 so unwritten entries show.
    fn run(planner: Planner, a: &Matrix, b: &Matrix) -> Matrix {
        let plan = planner.shape(a.rows(), a.cols(), b.cols()).plan().unwrap();
        let mut c = Matrix::filled(a.rows(), b.cols(), 123.0);
        plan.execute(a, b, &mut c, &mut Workspace::for_plan(&plan));
        c
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        dec: &Decomposition,
        p: usize,
        q: usize,
        r: usize,
        steps: usize,
        opts: Options,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let want = reference(&a, &b);
        let planner = Planner::new().algorithm(dec).steps(steps).options(opts);
        let got = run(planner, &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(
            d < 1e-9 * q as f64,
            "mismatch {d} for {p}x{q}x{r} steps {steps} opts {opts:?}"
        );
    }

    #[test]
    fn strassen_one_step_exact_dims() {
        let s = strassen();
        s.verify(0.0).unwrap();
        check(&s, 64, 64, 64, 1, Options::default(), 1);
    }

    #[test]
    fn strassen_multi_step_and_peeling() {
        let s = strassen();
        for steps in 1..=3 {
            let opts = Options::default();
            check(&s, 97, 53, 71, steps, opts, 2); // odd sizes force peeling
            check(&s, 96, 96, 96, steps, opts, 3);
        }
    }

    #[test]
    fn all_addition_methods_agree() {
        let s = strassen();
        for additions in [
            AdditionMethod::Pairwise,
            AdditionMethod::WriteOnce,
            AdditionMethod::Streaming,
        ] {
            for cse in [false, true] {
                let opts = Options {
                    additions,
                    cse,
                    ..Options::default()
                };
                check(&s, 60, 60, 60, 2, opts, 4);
                check(&s, 59, 61, 67, 2, opts, 5);
            }
        }
    }

    #[test]
    fn rectangular_base_case_algorithms() {
        // ⟨2,2,3⟩ rank 11 via direct sum, and ⟨2,2,4⟩ rank 14 via
        // composition — the constructions behind Table 2.
        let s = strassen();
        let a223 = direct_sum_n(&s, &classical(2, 2, 1));
        let a224 = kron_compose(&s, &classical(1, 1, 2));
        for dec in [&a223, &a224] {
            dec.verify(1e-12).unwrap();
            for steps in 1..=2 {
                let opts = Options::default();
                check(dec, 48, 44, 60, steps, opts, 6);
                check(dec, 50, 45, 61, steps, opts, 7);
            }
        }
    }

    #[test]
    fn parallel_schemes_match_sequential() {
        let s = strassen();
        for scheme in [Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
            for additions in [
                AdditionMethod::Pairwise,
                AdditionMethod::WriteOnce,
                AdditionMethod::Streaming,
            ] {
                let opts = Options {
                    additions,
                    scheme,
                    ..Options::default()
                };
                check(&s, 80, 80, 80, 2, opts, 8);
                check(&s, 83, 77, 85, 2, opts, 9);
            }
        }
    }

    #[test]
    fn composed_schedule_multiplies_correctly() {
        // Mixed schedule: Strassen at level 0, ⟨2,2,3⟩ at level 1.
        let s = strassen();
        let a223 = direct_sum_n(&s, &classical(2, 2, 1));
        let sched = [&s, &a223];
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::random(4 * 13, 4 * 9, &mut rng);
        let b = Matrix::random(4 * 9, 6 * 7, &mut rng);
        let want = reference(&a, &b);
        let got = run(Planner::new().schedule(&sched), &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-10 * a.cols() as f64, "mismatch {d}");
    }

    #[test]
    fn zero_steps_is_plain_gemm() {
        let s = strassen();
        check(&s, 33, 45, 27, 0, Options::default(), 11);
    }

    #[test]
    fn tiny_problems_fall_back_to_gemm() {
        let s = strassen();
        // 1×1×1 and problems smaller than the base case.
        check(&s, 1, 1, 1, 1, Options::default(), 12);
        check(&s, 1, 5, 3, 2, Options::default(), 13);
    }

    #[test]
    fn leaf_count_and_flop_model() {
        let s = strassen();
        assert_eq!(leaf_count(&s, 2), 49);
        // One step of Strassen on N×N×N: 7·(2(N/2)³·... ) + 18·(N/2)²;
        // model must be below classical for large N and above for tiny N.
        let n = 4096;
        let fast = flop_model(&s, n, n, n, 3);
        let classical_cost = fmm_gemm::classical_flops(n, n, n);
        assert!(fast < classical_cost, "{fast} !< {classical_cost}");
        let small = flop_model(&s, 8, 8, 8, 2);
        let classical_small = fmm_gemm::classical_flops(8, 8, 8);
        assert!(small > 0.8 * classical_small);
    }

    #[test]
    fn execute_writes_over_existing_content() {
        // `run` starts every output filled with 123.0.
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(14);
        let a = Matrix::random(32, 32, &mut rng);
        let b = Matrix::random(32, 32, &mut rng);
        let want = reference(&a, &b);
        let c = run(Planner::new().algorithm(&s).steps(1), &a, &b);
        let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
        assert!(d < 1e-10);
    }
}
