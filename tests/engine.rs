//! Engine integration tests: the concurrent multiply service must be
//! bit-for-bit consistent with the plan/execute API it wraps, keep its
//! LRU plan cache and workspace pool honest, and serve correct results
//! for any shape at any pool width.
//!
//! These exercise the root-facade re-exports on purpose: everything is
//! imported from `fast_matmul::{...}` directly.

use fast_matmul::gemm::naive_gemm;
use fast_matmul::matrix::{max_abs_diff, Matrix};
use fast_matmul::{EngineError, FmmEngine, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn random_problem(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random(m, k, &mut rng),
        Matrix::random(k, n, &mut rng),
    )
}

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// The acceptance stress test: client OS threads hammer one engine
/// with a mixed-shape stream through both the sync (`multiply`) and
/// async (`submit` + `wait`) paths, and every single result must be
/// bitwise identical to the same cached `Plan` executed one-at-a-time
/// in a single-threaded pool. (The schedule fixes each output
/// element's evaluation order, so which worker ran what must not
/// change one bit — `tests/runtime_parallel.rs` establishes that for
/// one plan; this extends it across the serving layer.)
///
/// Engines with every builder default run the stream: 4 clients on 4
/// workers, then 1 and 2 clients on 2 workers, where the default is
/// the HYBRID scheme. Odd shapes up to 311 make the plans peel, and
/// enough rounds run that a scope task signalling into a returned
/// frame shows up as a diverged, panicked or stuck multiply.
#[test]
fn concurrent_mixed_shape_submits_match_sequential_plan_execute_bitwise() {
    let shapes = [
        (96, 96, 96),
        (64, 128, 32),
        (100, 80, 60),
        (33, 45, 27),
        (257, 129, 200),
        (129, 257, 65),
        (311, 97, 153),
    ];
    const STALL: Duration = Duration::from_secs(120);
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // (pool width, client threads, rounds per client). A lone client
    // leaves the scope owner nothing else to run, so it returns the
    // instant its last task finishes: the tightest race with that
    // task's wake-up, hence the most rounds.
    for (width, clients, rounds) in [(4, 4, 24), (2, 1, 300), (2, 2, 48)] {
        let engine = FmmEngine::builder().threads(width).build().unwrap();
        let mut problems: Vec<(Matrix, Matrix)> = Vec::new();
        let mut references: Vec<Matrix> = Vec::new();
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let (a, b) = random_problem(m, k, n, 100 + i as u64);
            // The *same* compiled plan the engine will serve from its
            // cache, executed sequentially.
            let plan = engine.plan_for(m, k, n).unwrap();
            let mut c = Matrix::zeros(m, n);
            let mut ws = Workspace::for_plan(&plan);
            single.install(|| plan.execute(&a, &b, &mut c, &mut ws));
            problems.push((a, b));
            references.push(c);
        }
        let problems = Arc::new(problems);
        let references = Arc::new(references);

        // Detached clients and a watchdog: a worker stuck forever must
        // fail the test, not hang it.
        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let engine = engine.clone();
                let problems = Arc::clone(&problems);
                let references = Arc::clone(&references);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let idx = (client + round) % problems.len();
                        let (a, b) = &problems[idx];
                        let got = if round % 2 == 0 {
                            engine.multiply(a, b).unwrap()
                        } else {
                            engine.submit(a.clone(), b.clone()).wait().unwrap()
                        };
                        assert_eq!(
                            got,
                            references[idx],
                            "width {width} client {client} round {round} shape {:?} \
                             diverged from sequential Plan::execute",
                            problems[idx].0.shape()
                        );
                    }
                    let _ = done_tx.send(());
                })
            })
            .collect();
        drop(done_tx);
        for _ in 0..clients {
            match done_rx.recv_timeout(STALL) {
                Ok(()) => {}
                // A client panicked; joining it below reports why.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!(
                        "width {width}: no client finished within {STALL:?}; the engine is stuck"
                    )
                }
            }
        }
        for handle in handles {
            handle.join().expect("client thread");
        }

        let stats = engine.stats();
        assert_eq!(stats.multiplies, (clients * rounds) as u64);
        assert_eq!(
            stats.plan_cache_misses,
            shapes.len() as u64,
            "each shape plans exactly once (plan_for warmed the cache)"
        );
        assert_eq!(stats.plan_cache_hits, (clients * rounds) as u64);
    }
}

/// Acceptance: steady-state serving is zero-alloc. After warm-up,
/// repeated multiplies on a cached shape must be all cache hits and all
/// workspace reuses, with no new arenas created.
#[test]
fn steady_state_serving_allocates_no_new_arenas() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let (a, b) = random_problem(96, 96, 96, 9);
    let mut c = Matrix::zeros(96, 96);
    engine.multiply_into(&a, &b, &mut c).unwrap(); // warm-up
    let warm = engine.stats();
    for _ in 0..10 {
        engine.multiply_into(&a, &b, &mut c).unwrap();
    }
    let steady = engine.stats();
    assert_eq!(
        steady.plan_cache_misses, warm.plan_cache_misses,
        "no re-planning after warm-up"
    );
    assert_eq!(steady.plan_cache_hits, warm.plan_cache_hits + 10);
    assert_eq!(
        steady.workspaces_created, warm.workspaces_created,
        "no new arenas after warm-up"
    );
    assert_eq!(
        steady.workspaces_reused,
        warm.workspaces_reused + 10,
        "every steady-state run reuses a pooled arena as-is"
    );
}

/// Acceptance: the f32 twin of the zero-alloc steady state. An
/// `FmmEngine<f32>` must show the exact same cache/arena discipline —
/// all hits, all workspace reuses, no new arenas — and its results must
/// match the f32 classical reference.
#[test]
fn f32_steady_state_serving_allocates_no_new_arenas() {
    use fast_matmul::matrix::DenseMatrix;
    let engine = FmmEngine::<f32>::builder().threads(2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let a = DenseMatrix::<f32>::random(96, 96, &mut rng);
    let b = DenseMatrix::<f32>::random(96, 96, &mut rng);
    let mut c = DenseMatrix::<f32>::zeros(96, 96);
    engine.multiply_into(&a, &b, &mut c).unwrap(); // warm-up
    let warm = engine.stats();
    for _ in 0..10 {
        engine.multiply_into(&a, &b, &mut c).unwrap();
    }
    let steady = engine.stats();
    assert_eq!(
        steady.plan_cache_misses, warm.plan_cache_misses,
        "no re-planning after warm-up (f32)"
    );
    assert_eq!(steady.plan_cache_hits, warm.plan_cache_hits + 10);
    assert_eq!(
        steady.workspaces_created, warm.workspaces_created,
        "no new arenas after warm-up (f32)"
    );
    assert_eq!(
        steady.workspaces_reused,
        warm.workspaces_reused + 10,
        "every steady-state run reuses a pooled arena as-is (f32)"
    );
    // Correctness of what was served, against the f32 naive oracle.
    let mut want = DenseMatrix::<f32>::zeros(96, 96);
    naive_gemm(1.0f32, a.as_ref(), b.as_ref(), 0.0f32, want.as_mut());
    let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
    assert!(d < 1e-3, "f32 served result off by {d}");
}

/// LRU semantics across shapes: a recently-hit plan survives an insert
/// beyond capacity; the least-recently-used one is evicted and must
/// re-plan on its next request.
#[test]
fn plan_cache_lru_eviction_and_reuse() {
    let engine = FmmEngine::builder()
        .threads(1)
        .cache_capacity(2)
        .build()
        .unwrap();
    let serve = |n: usize, seed: u64| {
        let (a, b) = random_problem(n, n, n, seed);
        engine.multiply(&a, &b).unwrap();
    };
    serve(32, 1); // miss → {32}
    serve(32, 2); // hit
    serve(40, 3); // miss → {32, 40}
    serve(32, 4); // hit: 32 most recent
    serve(48, 5); // miss → evicts 40, {32, 48}
    let s = engine.stats();
    assert_eq!(s.plan_cache_misses, 3);
    assert_eq!(s.plan_cache_hits, 2);
    assert_eq!(s.plan_cache_evictions, 1);
    assert_eq!(s.plans_cached, 2);

    serve(32, 6); // survived the eviction → hit
    assert_eq!(engine.stats().plan_cache_hits, 3);
    serve(40, 7); // was evicted → miss again
    let s = engine.stats();
    assert_eq!(s.plan_cache_misses, 4);
    assert!(s.plan_cache_evictions >= 2);
}

#[test]
fn submit_batch_of_mixed_shapes_is_correct_per_entry() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let shapes = [(48, 64, 32), (80, 80, 80), (32, 96, 48), (57, 41, 23)];
    let problems: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| random_problem(m, k, n, 200 + i as u64))
        .collect();
    let handles = engine.submit_batch(problems.clone());
    for ((a, b), handle) in problems.iter().zip(handles) {
        assert_eq!(a.shape().1, b.shape().0);
        let got = handle.wait().unwrap();
        let want = reference(a, b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-9 * a.cols() as f64, "batch entry diff {d}");
    }
}

/// Dropping the engine with submits in flight must not lose (or
/// poison) them: the detached jobs own the engine internals via `Arc`,
/// and the pool tolerates being dropped from its own worker.
#[test]
fn engine_dropped_with_submits_in_flight_still_delivers() {
    let engine = FmmEngine::builder().threads(2).build().unwrap();
    let (a, b) = random_problem(64, 64, 64, 5);
    let want = reference(&a, &b);
    let handles: Vec<_> = (0..4)
        .map(|_| engine.submit(a.clone(), b.clone()))
        .collect();
    drop(engine);
    for handle in handles {
        let got = handle.wait().unwrap();
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-9, "post-drop result diff {d}");
    }
}

#[test]
fn shape_errors_surface_through_both_paths() {
    let engine = FmmEngine::builder().threads(1).build().unwrap();
    let a = Matrix::zeros(8, 9);
    let b = Matrix::zeros(10, 7);
    assert!(matches!(
        engine.multiply(&a, &b),
        Err(EngineError::InnerDimMismatch {
            a_cols: 9,
            b_rows: 10
        })
    ));
    assert!(matches!(
        engine.submit(a, b).wait(),
        Err(EngineError::InnerDimMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweep shapes × pool widths: whatever the engine auto-plans for a
    /// shape, at any width, must match the classical reference.
    #[test]
    fn engine_matches_classical_over_shapes_and_widths(
        m in 1usize..100,
        k in 1usize..100,
        n in 1usize..100,
        width in 1usize..5,
        seed in 0u64..1000,
    ) {
        let engine = FmmEngine::builder().threads(width).build().unwrap();
        let (a, b) = random_problem(m, k, n, seed);
        let got = engine.multiply(&a, &b).unwrap();
        let want = reference(&a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        prop_assert!(d < 1e-10 * (k as f64 + 1.0), "diff {d} at {m}x{k}x{n} width {width}");
        // And a second serve of the same shape is a cache hit that
        // reuses the pooled arena.
        let again = engine.multiply(&a, &b).unwrap();
        prop_assert!(again == got, "repeat serve changed bits");
        let s = engine.stats();
        prop_assert!(s.plan_cache_hits >= 1, "second serve must hit the cache");
        prop_assert!(s.workspaces_reused >= 1, "second serve must reuse the arena");
    }
}
