//! Plan/execute integration tests: correctness of the Planner →
//! Plan → Workspace pipeline across shapes and schemes, the zero-alloc
//! reuse property the API exists for, auto-tuned depth selection
//! (§3.4), and the batched front door.

use fast_matmul::algo;
use fast_matmul::core::{AdditionMethod, GemmProfile, Options, Plan, Planner, Scheme, Workspace};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use fast_matmul::tensor::compose::classical;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

fn flat_profile() -> GemmProfile {
    GemmProfile::from_samples(vec![(64, 4.0), (4096, 4.0)])
}

/// Three consecutive executes on the *same* workspace, fresh random
/// operands each time — stale workspace contents from run `i` must not
/// leak into run `i + 1`.
fn check_three_executes(plan: &Plan, seed: u64, tol: f64) {
    let (p, q, r) = plan.shape();
    let mut ws = Workspace::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..3 {
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let mut c = Matrix::filled(p, r, f64::NAN); // output must be fully overwritten
        plan.execute(&a, &b, &mut c, &mut ws);
        let want = reference(&a, &b);
        let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
        assert!(
            d < tol,
            "trial {trial} on {p}x{q}x{r} {:?}: diff {d}",
            plan.options()
        );
    }
}

#[test]
fn reused_workspace_matches_reference_across_shapes_and_schemes() {
    let strassen = algo::strassen();
    for &(p, q, r) in &[(64, 64, 64), (97, 53, 71), (80, 96, 72)] {
        for scheme in [Scheme::Sequential, Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
            for additions in [
                AdditionMethod::Pairwise,
                AdditionMethod::WriteOnce,
                AdditionMethod::Streaming,
            ] {
                let plan = Planner::new()
                    .shape(p, q, r)
                    .algorithm(&strassen)
                    .steps(2)
                    .options(Options {
                        scheme,
                        additions,
                        ..Options::default()
                    })
                    .plan()
                    .unwrap();
                check_three_executes(&plan, 7, 1e-9 * q as f64);
            }
        }
    }
}

#[test]
fn repeated_executes_report_identical_workspace_and_reuse() {
    let strassen = algo::strassen();
    // The zero-alloc property must hold for the sequential scheme AND
    // the task-spawning BFS/HYBRID schemes, whose workspaces are
    // partitioned across rayon tasks.
    for scheme in [Scheme::Sequential, Scheme::Bfs, Scheme::Hybrid] {
        let plan = Planner::new()
            .shape(96, 96, 96)
            .algorithm(&strassen)
            .steps(2)
            .options(Options {
                scheme,
                ..Options::default()
            })
            .plan()
            .unwrap();
        let mut ws = Workspace::for_plan(&plan);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_bytes = None;
        for trial in 0..3 {
            let a = Matrix::random(96, 96, &mut rng);
            let b = Matrix::random(96, 96, &mut rng);
            let mut c = Matrix::zeros(96, 96);
            let len_before = ws.len();
            let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
            assert_eq!(
                stats.workspace_bytes,
                plan.workspace_bytes() as u64,
                "{scheme:?}: reported workspace must be the planned size"
            );
            if let Some(prev) = seen_bytes {
                assert_eq!(stats.workspace_bytes, prev, "{scheme:?}: footprint drifted");
            }
            seen_bytes = Some(stats.workspace_bytes);
            assert!(
                stats.workspace_reused,
                "{scheme:?} trial {trial}: pre-sized workspace must be reused, not grown"
            );
            assert_eq!(ws.len(), len_before, "{scheme:?}: no new temp buffers");
        }
    }
}

#[test]
fn planner_auto_depth_follows_the_cutoff_rule() {
    // Acceptance criteria: with a synthetic flat profile the planner
    // must recurse Strassen (positive per-step speedup) and keep the
    // classical ⟨2,2,2⟩ algorithm (zero speedup) at depth 0.
    let strassen_plan = Planner::new()
        .shape(1024, 1024, 1024)
        .algorithm(&algo::strassen())
        .profile(flat_profile())
        .plan::<f64>()
        .unwrap();
    assert!(strassen_plan.depth() > 0);

    let classical_plan: fast_matmul::Plan = Planner::new()
        .shape(1024, 1024, 1024)
        .algorithm(&classical(2, 2, 2))
        .profile(flat_profile())
        .plan()
        .unwrap();
    assert_eq!(classical_plan.depth(), 0);
    assert_eq!(classical_plan.workspace_len(), 0);
}

#[test]
fn auto_algorithm_over_the_catalog_picks_a_fast_candidate() {
    let cands: Vec<_> = algo::candidates_for_shape(512, 512, 512)
        .into_iter()
        .map(|a| a.dec)
        .collect();
    let plan = Planner::new()
        .shape(512, 512, 512)
        .auto_algorithm(&cands)
        .profile(flat_profile())
        .plan()
        .unwrap();
    assert!(
        plan.depth() > 0,
        "catalog has fast algorithms; must recurse"
    );
    check_three_executes(&plan, 21, 1e-8 * 512.0);
}

#[test]
fn saved_profile_replay_plans_like_the_original() {
    let profile = flat_profile();
    let replayed = GemmProfile::from_json(&profile.to_json()).unwrap();
    let strassen = algo::strassen();
    let direct = Planner::new()
        .shape(256, 256, 256)
        .algorithm(&strassen)
        .profile(profile)
        .plan::<f64>()
        .unwrap();
    let saved = Planner::new()
        .shape(256, 256, 256)
        .algorithm(&strassen)
        .profile(replayed)
        .plan::<f64>()
        .unwrap();
    assert_eq!(direct.depth(), saved.depth());
    assert_eq!(direct.workspace_len(), saved.workspace_len());
}

#[test]
fn execute_batch_runs_independent_problems() {
    let plan = Planner::new()
        .shape(48, 36, 52)
        .algorithm(&algo::strassen())
        .steps(2)
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let problems: Vec<(Matrix, Matrix)> = (0..6)
        .map(|_| {
            (
                Matrix::random(48, 36, &mut rng),
                Matrix::random(36, 52, &mut rng),
            )
        })
        .collect();
    let batch: Vec<(&Matrix, &Matrix)> = problems.iter().map(|(a, b)| (a, b)).collect();
    let outs = plan.execute_batch(&batch);
    for (i, ((a, b), c)) in problems.iter().zip(&outs).enumerate() {
        let want = reference(a, b);
        let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
        assert!(d < 1e-9, "batch entry {i}: diff {d}");
    }

    // Repeated batches into retained outputs/workspaces allocate
    // nothing new: workspace lengths must not change.
    let mut outs = outs;
    let mut workspaces: Vec<Workspace> = batch.iter().map(|_| Workspace::for_plan(&plan)).collect();
    plan.execute_batch_into(&batch, &mut outs, &mut workspaces);
    let lens: Vec<usize> = workspaces.iter().map(|w| w.len()).collect();
    plan.execute_batch_into(&batch, &mut outs, &mut workspaces);
    assert_eq!(lens, workspaces.iter().map(|w| w.len()).collect::<Vec<_>>());
    for ((a, b), c) in problems.iter().zip(&outs) {
        let want = reference(a, b);
        assert!(max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes/schemes/strategies: a plan plus a reused workspace
    /// must match the naive reference for 3 consecutive executes on the
    /// same workspace (catches stale-buffer bugs).
    #[test]
    fn plan_with_reused_workspace_equals_classical(
        p in 1usize..100,
        q in 1usize..100,
        r in 1usize..100,
        seed in 0u64..1000,
        steps in 0usize..3,
        scheme in 0u8..4,
        additions in 0u8..3,
    ) {
        let scheme = match scheme {
            0 => Scheme::Sequential,
            1 => Scheme::Dfs,
            2 => Scheme::Bfs,
            _ => Scheme::Hybrid,
        };
        let additions = match additions {
            0 => AdditionMethod::Pairwise,
            1 => AdditionMethod::WriteOnce,
            _ => AdditionMethod::Streaming,
        };
        let plan = Planner::new()
            .shape(p, q, r)
            .algorithm(&algo::strassen())
            .steps(steps)
            .options(Options {
                scheme,
                additions,
                ..Options::default()
            })
            .plan()
            .unwrap();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let a = Matrix::random(p, q, &mut rng);
            let b = Matrix::random(q, r, &mut rng);
            let mut c = Matrix::zeros(p, r);
            plan.execute(&a, &b, &mut c, &mut ws);
            let want = reference(&a, &b);
            let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
            prop_assert!(d < 1e-10 * (q as f64 + 1.0), "diff {d}");
        }
    }
}
