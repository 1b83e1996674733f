//! Domain application: linear least squares via the normal equations.
//!
//! The paper's introduction motivates fast algorithms with rectangular
//! products, which "occur more frequently in practice" than square
//! ones. Fitting a linear model `min ‖X·β − y‖` with a tall, skinny
//! design matrix `X (n × d)` needs exactly the paper's two rectangular
//! shapes:
//!
//! * the Gram matrix `G = Xᵀ·X` is a `d × n × d` product — the
//!   "outer-product" shape where ⟨4,2,4⟩-style algorithms shine;
//! * the prediction `X·β̂` is tall-and-skinny.
//!
//! This example builds a synthetic regression problem, forms the Gram
//! matrix with a shape-matched fast algorithm, solves the normal
//! equations, and checks the recovered coefficients.
//!
//! Run with: `cargo run --release --example least_squares`

use fast_matmul::algo;
use fast_matmul::core::{effective_gflops, Planner, Workspace};
use fast_matmul::matrix::Matrix;
use fast_matmul::tensor::linalg::cholesky_solve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let (n, d) = (1536, 384); // tall design matrix
    let mut rng = StdRng::seed_from_u64(7);
    let x = Matrix::random(n, d, &mut rng);
    let beta_true = Matrix::from_fn(d, 1, |i, _| ((i % 7) as f64 - 3.0) / 3.0);
    // y = X·β + small noise
    let mut y = fast_matmul::gemm::matmul(&x, &beta_true);
    for v in y.as_mut_slice() {
        *v += 1e-8 * rng.gen_range(-1.0..1.0);
    }

    // Gram matrix G = Xᵀ·X: a d × n × d outer-product-shaped multiply.
    let xt = x.transpose();
    let gram_alg = algo::by_name("<4,2,4>").expect("catalog");
    let plan = Planner::new()
        .shape(d, n, d)
        .algorithm(&gram_alg.dec)
        .steps(2)
        .plan()
        .unwrap();
    let mut ws = Workspace::for_plan(&plan);
    let mut g_fast = Matrix::zeros(d, d);

    let t0 = Instant::now();
    plan.execute(&xt, &x, &mut g_fast, &mut ws);
    let fast_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let g_ref = fast_matmul::gemm::matmul(&xt, &x);
    let ref_secs = t0.elapsed().as_secs_f64();

    let gram_err = fast_matmul::matrix::relative_error(&g_fast.as_ref(), &g_ref.as_ref());
    println!("Gram matrix XᵀX ({d} × {n} × {d}):");
    println!(
        "  classical: {ref_secs:.3}s = {:.2} effective GFLOPS",
        effective_gflops(d, n, d, ref_secs)
    );
    println!(
        "  <4,2,4>  : {fast_secs:.3}s = {:.2} effective GFLOPS  (relative error {gram_err:.1e})",
        effective_gflops(d, n, d, fast_secs)
    );
    assert!(gram_err < 1e-10);

    // Solve G·β = Xᵀy and check recovery.
    let xty = fast_matmul::gemm::matmul(&xt, &y);
    let beta_hat = cholesky_solve(&g_fast, &xty).expect("SPD Gram matrix");
    let coeff_err = fast_matmul::matrix::relative_error(&beta_hat.as_ref(), &beta_true.as_ref());
    println!("normal equations solved: coefficient error {coeff_err:.2e}");
    assert!(
        coeff_err < 1e-6,
        "least-squares recovery failed: {coeff_err:.2e}"
    );
    println!("recovered {d}-dimensional model through a fast-matmul Gram matrix ✓");
}
