//! Plan-certificate audits: `Plan::certificate()` statically re-derives
//! what a plan will do, and these tests pin it against the two ground
//! truths available at runtime — the executor's gemm-for-gemm
//! statistics and the planner's workspace sizing — across schemes,
//! ragged shapes, and composed schedules.

use fast_matmul::algo;
use fast_matmul::core::{Options, Planner, Workspace};
use fast_matmul::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use fast_matmul::core::Scheme;

/// Plan, execute, and assert the certificate predicted the run exactly.
fn check(
    dec: &fast_matmul::tensor::Decomposition,
    shape: (usize, usize, usize),
    steps: usize,
    opts: Options,
) {
    let (m, k, n) = shape;
    let plan = Planner::new()
        .shape(m, k, n)
        .algorithm(dec)
        .steps(steps)
        .options(opts)
        .plan::<f64>()
        .unwrap();
    let cert = plan.certificate();
    assert_eq!(cert.shape, shape);
    assert_eq!(cert.depth, plan.depth());
    assert_eq!(
        cert.workspace_len,
        plan.workspace_len(),
        "certificate workspace disagrees with the planner for {shape:?} / {opts:?}"
    );

    let mut rng = StdRng::seed_from_u64(11);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    let mut c = Matrix::zeros(m, n);
    let mut ws = Workspace::for_plan(&plan);
    let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
    assert_eq!(
        stats.base_gemms, cert.base_gemms,
        "base gemms for {shape:?} / {opts:?}"
    );
    assert_eq!(
        stats.peel_gemms, cert.peel_gemms,
        "peel gemms for {shape:?} / {opts:?}"
    );
    assert_eq!(
        stats.temp_elements, cert.temp_elements,
        "temp elements for {shape:?} / {opts:?}"
    );
}

#[test]
fn certificate_predicts_execution_across_schemes_and_borders() {
    let strassen = algo::strassen();
    for scheme in [Scheme::Sequential, Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
        for shape in [(64, 64, 64), (65, 63, 61), (37, 41, 29)] {
            let opts = Options {
                scheme,
                ..Options::default()
            };
            check(&strassen, shape, 2, opts);
        }
    }
}

#[test]
fn certificate_matches_rectangular_bases() {
    for name in ["<4,2,4>", "<3,3,3>", "<4,4,2>"] {
        let alg = algo::by_name(name).unwrap();
        for shape in [(48, 48, 48), (50, 49, 47)] {
            check(&alg.dec, shape, 1, Options::default());
        }
    }
}

#[test]
fn certificate_composed_rank_and_flops_on_divisible_problems() {
    // On an evenly divisible problem the tree never collapses: the
    // base-gemm count is exactly the composed rank, there are no peel
    // gemms, and the flop count is the closed-form fast-algorithm one.
    let strassen = algo::strassen();
    let plan = Planner::new()
        .shape(64, 64, 64)
        .algorithm(&strassen)
        .steps(3)
        .plan::<f64>()
        .unwrap();
    let cert = plan.certificate();
    assert_eq!(cert.composed_rank, 343);
    assert_eq!(cert.base_gemms, 343);
    assert_eq!(cert.peel_gemms, 0);
    // 343 leaves of 8×8×8 classical gemms.
    assert_eq!(cert.gemm_flops, 343 * 2 * 8 * 8 * 8);
}

#[test]
fn certificate_covers_composed_schedules() {
    let sched = algo::schedule_54();
    let refs: Vec<&fast_matmul::tensor::Decomposition> = sched.iter().collect();
    let plan = Planner::new()
        .shape(54, 54, 54)
        .schedule(&refs)
        .steps(sched.len())
        .plan::<f64>()
        .unwrap();
    let cert = plan.certificate();
    let expect: u64 = sched.iter().map(|d| d.rank() as u64).product();
    assert_eq!(cert.composed_rank, expect);
    assert_eq!(cert.base_gemms, expect);
    assert_eq!(cert.workspace_len, plan.workspace_len());

    let mut rng = StdRng::seed_from_u64(12);
    let a = Matrix::random(54, 54, &mut rng);
    let b = Matrix::random(54, 54, &mut rng);
    let mut c = Matrix::zeros(54, 54);
    let mut ws = Workspace::for_plan(&plan);
    let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
    assert_eq!(stats.base_gemms, cert.base_gemms);
    assert_eq!(stats.temp_elements, cert.temp_elements);
}

#[test]
fn depth_zero_plans_certify_as_one_classical_gemm() {
    let strassen = algo::strassen();
    let plan = Planner::new()
        .shape(33, 17, 9)
        .algorithm(&strassen)
        .steps(0)
        .plan::<f64>()
        .unwrap();
    let cert = plan.certificate();
    assert_eq!(cert.base_gemms, 1);
    assert_eq!(cert.peel_gemms, 0);
    assert_eq!(cert.temp_elements, 0);
    assert_eq!(cert.gemm_flops, 2 * 33 * 17 * 9);
    assert_eq!(cert.workspace_len, plan.workspace_len());
}
