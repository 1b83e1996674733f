//! Work-stealing runtime integration tests at the executor level: the
//! BFS/HYBRID schemes must produce bit-identical results at every pool
//! width, report real steals when several workers participate, and
//! survive panicking tasks without leaking scheduler state.

use fast_matmul::algo;
use fast_matmul::core::{Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

fn run_in_pool(threads: usize, scheme: Scheme, p: usize, q: usize, r: usize, seed: u64) -> Matrix {
    let plan = Planner::new()
        .shape(p, q, r)
        .algorithm(&algo::strassen())
        .steps(2)
        .options(Options {
            scheme,
            ..Options::default()
        })
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, r, &mut rng);
    let mut c = Matrix::zeros(p, r);
    let mut ws = Workspace::for_plan(&plan);
    pool(threads).install(|| plan.execute(&a, &b, &mut c, &mut ws));
    c
}

/// The schedule assigns every output element a fixed evaluation order
/// (disjoint per-task buffers, k-loop never split), so which worker
/// executes which task must not change a single bit of the result.
#[test]
fn bfs_results_are_bitwise_identical_across_pool_widths() {
    for scheme in [Scheme::Bfs, Scheme::Hybrid, Scheme::Dfs] {
        let reference = run_in_pool(1, scheme, 96, 96, 96, 42);
        for threads in [2, 8] {
            let got = run_in_pool(threads, scheme, 96, 96, 96, 42);
            assert_eq!(
                got, reference,
                "{scheme:?} at {threads} workers diverged from 1 worker"
            );
        }
    }
}

#[test]
fn bfs_with_four_workers_reports_steals() {
    let plan = Planner::new()
        .shape(256, 256, 256)
        .algorithm(&algo::strassen())
        .steps(2)
        .options(Options {
            scheme: Scheme::Bfs,
            ..Options::default()
        })
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random(256, 256, &mut rng);
    let b = Matrix::random(256, 256, &mut rng);
    let mut c = Matrix::zeros(256, 256);
    let mut ws = Workspace::for_plan(&plan);
    let tp = pool(4);
    let mut total_stolen = 0u64;
    let mut threads_seen = 0u32;
    // A few attempts absorb scheduling jitter on small machines; with
    // 49 leaf tasks and 4 workers, steals and multi-thread execution
    // are effectively certain.
    for _ in 0..5 {
        let stats = tp.install(|| plan.execute_with_stats(&a, &b, &mut c, &mut ws));
        total_stolen += stats.tasks_stolen;
        threads_seen = threads_seen.max(stats.threads_used);
        if total_stolen > 0 && threads_seen >= 2 {
            break;
        }
    }
    assert!(
        total_stolen > 0,
        "a BFS plan on a 4-worker pool must show work stealing"
    );
    assert!(
        threads_seen >= 2,
        "stolen tasks must put gemms on more than one thread (saw {threads_seen})"
    );
}

#[test]
fn sequential_plans_report_no_parallelism() {
    let plan = Planner::new()
        .shape(64, 64, 64)
        .algorithm(&algo::strassen())
        .steps(1)
        .options(Options {
            scheme: Scheme::Sequential,
            ..Options::default()
        })
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let a = Matrix::random(64, 64, &mut rng);
    let b = Matrix::random(64, 64, &mut rng);
    let mut c = Matrix::zeros(64, 64);
    let mut ws = Workspace::for_plan(&plan);
    let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
    assert_eq!(
        stats.threads_used, 1,
        "sequential execution stays on one thread"
    );
}

/// A panicking task must neither deadlock the scope that spawned it nor
/// leak task accounting that would starve later executions.
#[test]
fn task_panic_does_not_poison_subsequent_executions() {
    let tp = pool(4);
    let plan = Planner::new()
        .shape(80, 80, 80)
        .algorithm(&algo::strassen())
        .steps(2)
        .options(Options {
            scheme: Scheme::Bfs,
            ..Options::default()
        })
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..3 {
        // Blow up a scope full of tasks inside the pool...
        let result = catch_unwind(AssertUnwindSafe(|| {
            tp.install(|| {
                rayon::scope(|s| {
                    for i in 0..16 {
                        s.spawn(move |_| {
                            if i % 2 == 0 {
                                panic!("induced task failure {i}");
                            }
                        });
                    }
                })
            })
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");

        // ...and immediately afterwards the pool must still run a full
        // BFS multiply to the correct answer.
        let a = Matrix::random(80, 80, &mut rng);
        let b = Matrix::random(80, 80, &mut rng);
        let mut c = Matrix::zeros(80, 80);
        let mut want = Matrix::zeros(80, 80);
        fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
        let mut ws = Workspace::for_plan(&plan);
        tp.install(|| plan.execute(&a, &b, &mut c, &mut ws));
        let d = fast_matmul::matrix::max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
        assert!(d < 1e-9, "round {round}: wrong result after panic ({d})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stealing determinism sweep: random shapes and schemes executed
    /// at 1, 2 and 8 workers must agree bitwise.
    #[test]
    fn parallel_schemes_are_width_deterministic(
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
        let reference = run_in_pool(1, scheme, p, q, r, seed);
        for threads in [2, 8] {
            let got = run_in_pool(threads, scheme, p, q, r, seed);
            prop_assert!(
                got == reference,
                "{scheme:?} {p}x{q}x{r} seed {seed}: width {threads} diverged"
            );
        }
    }
}
