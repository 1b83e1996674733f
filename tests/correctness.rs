//! Cross-crate integration: every catalog algorithm, every addition
//! strategy, every parallel scheme — all must agree with the naive
//! reference multiplication, including on dimensions that force
//! dynamic peeling at every level.

use fast_matmul::algo;
use fast_matmul::core::{AdditionMethod, Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// `A · B` through a plan of `steps` levels of `dec` with `opts`.
fn multiply(
    dec: &fast_matmul::tensor::Decomposition,
    steps: usize,
    opts: Options,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let plan = Planner::new()
        .shape(a.rows(), a.cols(), b.cols())
        .algorithm(dec)
        .steps(steps)
        .options(opts)
        .plan()
        .unwrap();
    let mut c = Matrix::zeros(a.rows(), b.cols());
    plan.execute(a, b, &mut c, &mut Workspace::for_plan(&plan));
    c
}

#[allow(clippy::too_many_arguments)]
fn check(
    dec: &fast_matmul::tensor::Decomposition,
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
    let got = multiply(dec, steps, opts, &a, &b);
    let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
    assert!(
        d < 1e-9 * q as f64,
        "mismatch {d:.3e} at {p}x{q}x{r} with {steps} steps, {opts:?}"
    );
}

#[test]
fn every_catalog_algorithm_multiplies_correctly() {
    for alg in algo::catalog() {
        let (m, k, n) = alg.dec.base();
        // A size divisible twice plus a ragged size.
        let p = m * m * 4 + 3;
        let q = k * k * 4 + 1;
        let r = n * n * 4 + 2;
        for steps in [1usize, 2] {
            check(
                &alg.dec,
                p,
                q,
                r,
                steps,
                Options::default(),
                1000 + steps as u64,
            );
        }
    }
}

#[test]
fn strategy_matrix_full_cross_product() {
    let strassen = algo::by_name("strassen").unwrap().dec;
    for additions in [
        AdditionMethod::Pairwise,
        AdditionMethod::WriteOnce,
        AdditionMethod::Streaming,
    ] {
        for cse in [false, true] {
            for scheme in [Scheme::Sequential, Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
                // Ragged in every dimension, so both levels peel.
                for (p, q, r) in [(101, 67, 89), (63, 65, 67), (100, 50, 75), (31, 97, 41)] {
                    let opts = Options {
                        additions,
                        cse,
                        scheme,
                    };
                    check(&strassen, p, q, r, 2, opts, 7);
                }
            }
        }
    }
}

#[test]
fn cse_on_catalog_algorithms_changes_nothing() {
    // CSE must be a pure evaluation-plan optimization.
    for name in ["<3,3,3>", "<4,2,4>", "<4,3,3>", "<2,3,3>"] {
        let alg = algo::by_name(name).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = alg.dec.base();
        let (p, q, r) = (m * 20, k * 20, n * 20);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let plain = multiply(
            &alg.dec,
            1,
            Options {
                cse: false,
                ..Options::default()
            },
            &a,
            &b,
        );
        let with_cse = multiply(
            &alg.dec,
            1,
            Options {
                cse: true,
                ..Options::default()
            },
            &a,
            &b,
        );
        let d = max_abs_diff(&plain.as_ref(), &with_cse.as_ref()).unwrap();
        assert!(d < 1e-10, "{name}: CSE changed the result by {d:.2e}");
    }
}

#[test]
fn deep_recursion_on_divisible_sizes() {
    let strassen = algo::by_name("strassen").unwrap().dec;
    check(&strassen, 256, 256, 256, 5, Options::default(), 13);
}

#[test]
fn extreme_aspect_ratios() {
    let a424 = algo::by_name("<4,2,4>").unwrap().dec;
    check(&a424, 400, 16, 400, 1, Options::default(), 17); // outer product
    let a433 = algo::by_name("<4,3,3>").unwrap().dec;
    check(&a433, 500, 27, 27, 1, Options::default(), 19); // tall and skinny
    let strassen = algo::by_name("strassen").unwrap().dec;
    check(&strassen, 8, 512, 8, 1, Options::default(), 23); // inner product shape
}

#[test]
fn one_dimensional_degenerate_cases() {
    let strassen = algo::by_name("strassen").unwrap().dec;
    for (p, q, r) in [(1, 64, 64), (64, 1, 64), (64, 64, 1), (1, 1, 1)] {
        check(&strassen, p, q, r, 2, Options::default(), 29);
    }
}
