//! Compile and validate the committed output of the code generator
//! (§3.1). `tests/generated/strassen_gen.rs` is produced by
//! `fmm_core::generate_rust(&strassen(), "strassen_generated", false)`;
//! the drift test regenerates it and compares strings, so any change to
//! the generator or the catalog entry is caught here.

use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod generated {
    include!("generated/strassen_gen.rs");
}

#[test]
fn generated_strassen_matches_reference() {
    let mut rng = StdRng::seed_from_u64(1);
    for (p, q, r) in [(64, 64, 64), (97, 53, 71), (128, 96, 80)] {
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let mut want = Matrix::zeros(p, r);
        fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, want.as_mut());
        for steps in 0..=2usize {
            let mut got = Matrix::zeros(p, r);
            generated::strassen_generated(a.as_ref(), b.as_ref(), got.as_mut(), steps);
            let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
            assert!(d < 1e-10 * q as f64, "steps {steps}: diff {d}");
        }
    }
}

#[test]
fn generated_source_is_current() {
    let committed = include_str!("generated/strassen_gen.rs");
    let fresh = fast_matmul::core::generate_rust(
        &fast_matmul::algo::strassen(),
        "strassen_generated",
        false,
    );
    assert_eq!(
        committed, fresh,
        "generator output drifted; regenerate tests/generated/strassen_gen.rs"
    );
}

#[test]
fn generated_strassen_agrees_with_executor() {
    let strassen = fast_matmul::algo::strassen();
    let plan = fast_matmul::Planner::new()
        .shape(90, 110, 70)
        .algorithm(&strassen)
        .steps(2)
        .plan()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(90, 110, &mut rng);
    let b = Matrix::random(110, 70, &mut rng);
    let mut via_executor = Matrix::zeros(90, 70);
    plan.execute(
        &a,
        &b,
        &mut via_executor,
        &mut fast_matmul::Workspace::for_plan(&plan),
    );
    let mut via_generated = Matrix::zeros(90, 70);
    generated::strassen_generated(a.as_ref(), b.as_ref(), via_generated.as_mut(), 2);
    let d = max_abs_diff(&via_executor.as_ref(), &via_generated.as_ref()).unwrap();
    assert!(d < 1e-10 * 110.0, "diff {d}");
}
