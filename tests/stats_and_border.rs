//! Execution-statistics and border-handling integration tests: the
//! `R^L` leaf-count law, the §4.2 memory-footprint factor, and the
//! dynamic-peeling fix-up count (§3.5).

use fast_matmul::algo;
use fast_matmul::core::{ExecStatsSnapshot, Planner, Workspace};
use fast_matmul::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `C = A · B` through a plan for `planner` at the operands' shape,
/// returning the run's statistics.
fn run(planner: Planner, a: &Matrix, b: &Matrix, c: &mut Matrix) -> ExecStatsSnapshot {
    let plan = planner.shape(a.rows(), a.cols(), b.cols()).plan().unwrap();
    plan.execute_with_stats(a, b, c, &mut Workspace::for_plan(&plan))
}

#[test]
fn leaf_count_is_rank_to_the_steps_on_divisible_problems() {
    let strassen = algo::strassen();
    for steps in 1..=3usize {
        let n = 8 * 16; // divisible by 2^steps for steps ≤ 3
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let mut c = Matrix::zeros(n, n);
        let stats = run(
            Planner::new().algorithm(&strassen).steps(steps),
            &a,
            &b,
            &mut c,
        );
        assert_eq!(stats.base_gemms, 7u64.pow(steps as u32));
        assert_eq!(stats.peel_gemms, 0, "divisible sizes never peel");
    }
}

#[test]
fn peel_gemms_appear_on_ragged_sizes() {
    let strassen = algo::strassen();
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(65, 65, &mut rng);
    let b = Matrix::random(65, 65, &mut rng);
    let mut c = Matrix::zeros(65, 65);
    let stats = run(Planner::new().algorithm(&strassen).steps(1), &a, &b, &mut c);
    assert_eq!(stats.base_gemms, 7);
    // all three dims ragged ⇒ all four quadrant fix-ups, 7 thin gemms
    assert_eq!(stats.peel_gemms, 7);
}

#[test]
fn memory_footprint_matches_section_4_2_factor() {
    // One step of ⟨M,K,N⟩ rank R on a P×Q×S problem stores R temporaries
    // of size (P/M)·(S/N) for the M_r — a factor R/(M·N) more than C —
    // plus the S_r/T_r temporaries.
    let a424 = algo::by_name("<4,2,4>").unwrap().dec;
    let (m, _, n) = a424.base();
    let rank = a424.rank() as u64;
    let (p, q, s) = (64, 64, 64);
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::random(p, q, &mut rng);
    let b = Matrix::random(q, s, &mut rng);
    let mut c = Matrix::zeros(p, s);
    let stats = run(Planner::new().algorithm(&a424).steps(1), &a, &b, &mut c);
    let m_r_elems = rank * (p as u64 / m as u64) * (s as u64 / n as u64);
    assert!(
        stats.temp_elements >= m_r_elems,
        "must account for at least the M_r storage"
    );
    let c_elems = (p * s) as u64;
    assert!(
        stats.temp_elements >= c_elems * rank / (m as u64 * n as u64),
        "the R/(MN) memory factor of §4.2"
    );
}

#[test]
fn composed_schedule_leaf_count_is_product_of_ranks() {
    let sched = algo::schedule_54();
    let refs: Vec<&fast_matmul::tensor::Decomposition> = sched.iter().collect();
    let expect: u64 = sched.iter().map(|d| d.rank() as u64).product();
    let n = 54;
    let mut rng = StdRng::seed_from_u64(6);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let mut c = Matrix::zeros(n, n);
    let stats = run(Planner::new().schedule(&refs), &a, &b, &mut c);
    assert_eq!(stats.base_gemms, expect);
}
