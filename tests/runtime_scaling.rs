//! Release-mode scaling smoke: BFS on a 4-worker pool must beat a
//! 1-worker pool by a healthy margin on a large multiply — the §4
//! property the work-stealing runtime exists to deliver.
//!
//! The measurement is only meaningful with optimized code and ≥ 4
//! hardware threads, so the test self-skips (loudly) in debug builds
//! and on small containers. CI runs it on a release leg:
//! `cargo test --release --test runtime_scaling -- --nocapture`.

use fast_matmul::algo;
use fast_matmul::core::{Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn bfs_at_four_workers_beats_one_worker() {
    if cfg!(debug_assertions) {
        eprintln!("runtime_scaling: skipped (debug build; run with --release)");
        return;
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 4 {
        eprintln!("runtime_scaling: skipped ({hw} hardware threads < 4)");
        return;
    }

    let n = 1024;
    let plan = Planner::new()
        .shape(n, n, n)
        .algorithm(&algo::strassen())
        .steps(2)
        .options(Options {
            scheme: Scheme::Bfs,
            ..Options::default()
        })
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let mut c = Matrix::zeros(n, n);
    let mut ws = Workspace::for_plan(&plan);

    let mut measure = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        // Warm-up sizes the workspace and faults in the pages.
        pool.install(|| plan.execute(&a, &b, &mut c, &mut ws));
        pool.install(|| time_best_of(3, || plan.execute(&a, &b, &mut c, &mut ws)))
    };

    let t1 = measure(1);
    let t4 = measure(4);
    let speedup = t1 / t4;
    eprintln!(
        "runtime_scaling: {n}^3 BFS — 1 worker {t1:.3}s, 4 workers {t4:.3}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.5,
        "BFS at 4 workers must be >= 1.5x faster than 1 worker (got {speedup:.2}x: {t1:.3}s vs {t4:.3}s)"
    );
}
