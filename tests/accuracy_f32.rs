//! Single-precision accuracy and determinism integration tests.
//!
//! §6-style measurements at the `f32` instantiation of the stack: fast
//! algorithms stay within a modest factor of *f32* classical round-off
//! (the same qualitative picture as Fig. 8, six orders of magnitude up
//! from the f64 figures), and the executor's width-determinism
//! guarantee — disjoint per-task buffers, k-loop never split — holds
//! bitwise for f32 exactly as the f64 suite
//! (`tests/runtime_parallel.rs`) establishes for f64.

use fast_matmul::algo;
use fast_matmul::core::{forward_error_in, Options, Scheme};
use fast_matmul::matrix::{DenseMatrix, Scalar};
use fast_matmul::{Planner, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Matrix32 = DenseMatrix<f32>;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// §6 for f32: Strassen at 1–3 steps on the stability shapes of the
/// f64 suite. Exact algorithms lose a modest, depth-dependent factor
/// over classical — in f32 that means errors of order 1e-5..1e-3
/// (classical round-off is ~1e-6 at these sizes), never anything like
/// the APA blow-up.
#[test]
fn f32_strassen_error_stays_a_modest_factor_above_classical() {
    let strassen = algo::strassen();
    let classical = algo::classical(2, 2, 2);
    for steps in 1..=3usize {
        let opts = Options::default();
        let e_fast = forward_error_in::<f32>(&strassen, steps, opts, 192, 11);
        let e_classical = forward_error_in::<f32>(&classical.dec, steps, opts, 192, 11);
        // Classical round-off is a small multiple of the element
        // type's machine epsilon (growing ~√n); Strassen amplifies but
        // must stay within a few orders of magnitude, and both must
        // sit far above the f64 scale (proving we measured f32).
        let eps = <f32 as Scalar>::EPSILON;
        assert!(
            e_classical > eps / 100.0 && e_classical < 1e3 * eps,
            "steps {steps}: classical f32 error {e_classical:.2e} not O(eps = {eps:.2e})"
        );
        assert!(
            e_fast < 1e4 * e_classical.max(1e-16),
            "steps {steps}: Strassen f32 error {e_fast:.2e} vs classical {e_classical:.2e}"
        );
        assert!(
            e_fast < 1e-2,
            "steps {steps}: Strassen f32 error {e_fast:.2e} unusably large"
        );
    }
}

/// The f32/f64 cross-check: the same algorithm on the same (seeded)
/// workload must show an error roughly `f32::EPSILON / f64::EPSILON`
/// (≈ 5e8) times larger in single precision — i.e. the error is a
/// property of the dtype, not of the generic executor.
#[test]
fn f32_error_scale_sits_orders_above_f64() {
    let strassen = algo::strassen();
    let opts = Options::default();
    let e32 = forward_error_in::<f32>(&strassen, 2, opts, 128, 7);
    let e64 = forward_error_in::<f64>(&strassen, 2, opts, 128, 7);
    assert!(
        e32 > 1e4 * e64.max(1e-18),
        "f32 error {e32:.2e} should dwarf f64 error {e64:.2e}"
    );
}

fn run_f32_in_pool(
    threads: usize,
    scheme: Scheme,
    p: usize,
    q: usize,
    r: usize,
    seed: u64,
) -> Matrix32 {
    let plan = Planner::new()
        .shape(p, q, r)
        .algorithm(&algo::strassen())
        .steps(2)
        .options(Options {
            scheme,
            ..Options::default()
        })
        .plan::<f32>()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix32::random(p, q, &mut rng);
    let b = Matrix32::random(q, r, &mut rng);
    let mut c = Matrix32::zeros(p, r);
    let mut ws = Workspace::for_plan(&plan);
    pool(threads).install(|| plan.execute(&a, &b, &mut c, &mut ws));
    c
}

/// f32 twin of the f64 width-determinism smoke: every scheme must give
/// bit-identical results at pool widths 1, 2 and 4.
#[test]
fn f32_results_are_bitwise_identical_across_pool_widths() {
    for scheme in [Scheme::Bfs, Scheme::Hybrid, Scheme::Dfs] {
        let reference = run_f32_in_pool(1, scheme, 96, 96, 96, 42);
        for threads in [2, 4] {
            let got = run_f32_in_pool(threads, scheme, 96, 96, 96, 42);
            assert_eq!(
                got, reference,
                "{scheme:?} at {threads} workers diverged from 1 worker (f32)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// f32 stealing-determinism sweep (the acceptance-criteria twin of
    /// the f64 suite): random shapes and schemes executed at pool
    /// widths 1, 2 and 4 must agree bitwise.
    #[test]
    fn f32_parallel_schemes_are_width_deterministic(
        p in 8usize..80,
        q in 8usize..80,
        r in 8usize..80,
        seed in 0u64..1000,
        scheme in 0u8..3,
    ) {
        let scheme = match scheme {
            0 => Scheme::Bfs,
            1 => Scheme::Hybrid,
            _ => Scheme::Dfs,
        };
        let reference = run_f32_in_pool(1, scheme, p, q, r, seed);
        for threads in [2, 4] {
            let got = run_f32_in_pool(threads, scheme, p, q, r, seed);
            prop_assert!(
                got == reference,
                "{scheme:?} {p}x{q}x{r} seed {seed}: width {threads} diverged (f32)"
            );
        }
    }
}
