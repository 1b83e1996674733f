//! Property-based tests over the whole stack: random shapes, seeds,
//! strategies and algorithms must always reproduce the classical
//! product; transformation laws must preserve exactness.

use fast_matmul::algo;
use fast_matmul::core::{AdditionMethod, Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::{max_abs_diff, Matrix};
use fast_matmul::tensor::compose::{classical, direct_sum_n, kron_compose};
use fast_matmul::tensor::transform::{permute_to, scale_columns};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    fast_matmul::gemm::naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// `A · B` through a plan of `steps` Strassen levels with `opts`.
fn strassen_multiply(steps: usize, opts: Options, a: &Matrix, b: &Matrix) -> Matrix {
    let plan = Planner::new()
        .shape(a.rows(), a.cols(), b.cols())
        .algorithm(&algo::strassen())
        .steps(steps)
        .options(opts)
        .plan()
        .unwrap();
    let mut c = Matrix::zeros(a.rows(), b.cols());
    plan.execute(a, b, &mut c, &mut Workspace::for_plan(&plan));
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_equals_classical_on_random_shapes(
        p in 1usize..120,
        q in 1usize..120,
        r in 1usize..120,
        seed in 0u64..1000,
        steps in 0usize..3,
        additions in 0u8..3,
    ) {
        let additions = match additions {
            0 => AdditionMethod::Pairwise,
            1 => AdditionMethod::WriteOnce,
            _ => AdditionMethod::Streaming,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(p, q, &mut rng);
        let b = Matrix::random(q, r, &mut rng);
        let want = reference(&a, &b);
        let got = strassen_multiply(steps, Options { additions, ..Options::default() }, &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        prop_assert!(d < 1e-10 * (q as f64 + 1.0), "diff {d}");
    }

    #[test]
    fn parallel_schemes_bitwise_match_each_other_logically(
        seed in 0u64..500,
        additions in 0u8..3,
        cse in 0u8..2,
        alg in 0u8..2,
    ) {
        let additions = match additions {
            0 => AdditionMethod::Pairwise,
            1 => AdditionMethod::WriteOnce,
            _ => AdditionMethod::Streaming,
        };
        let cse = cse == 1;
        let dec = algo::by_name(if alg == 0 { "strassen" } else { "<3,3,3>" }).unwrap().dec;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(70, 66, &mut rng);
        let b = Matrix::random(66, 74, &mut rng);
        // Every scheme's product, executed twice on one plan and
        // workspace; all must equal Sequential's first product bitwise.
        let mut products = Vec::new();
        for scheme in [Scheme::Sequential, Scheme::Dfs, Scheme::Bfs, Scheme::Hybrid] {
            let plan = Planner::new()
                .shape(70, 66, 74)
                .algorithm(&dec)
                .steps(2)
                .options(Options { additions, cse, scheme })
                .plan()
                .unwrap();
            let mut ws = Workspace::new();
            for run in 0..2 {
                let mut c = Matrix::zeros(70, 74);
                plan.execute(&a, &b, &mut c, &mut ws);
                products.push((scheme, run, c));
            }
        }
        let want = reference(&a, &b);
        let d = max_abs_diff(&want.as_ref(), &products[0].2.as_ref()).unwrap();
        prop_assert!(d < 1e-10 * 67.0, "diff {d}");
        let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let first = bits(&products[0].2);
        for (scheme, run, c) in &products[1..] {
            prop_assert!(
                bits(c) == first,
                "{scheme:?} run {run} differs from Sequential ({additions:?}, cse {cse})"
            );
        }
    }

    #[test]
    fn composition_rank_and_dims_laws(
        m1 in 1usize..3, k1 in 1usize..3, n1 in 1usize..3,
        m2 in 1usize..3, k2 in 1usize..3, n2 in 1usize..3,
    ) {
        let a = classical(m1, k1, n1);
        let b = classical(m2, k2, n2);
        let c = kron_compose(&a, &b);
        prop_assert_eq!(c.base(), (m1 * m2, k1 * k2, n1 * n2));
        prop_assert_eq!(c.rank(), a.rank() * b.rank());
        prop_assert!(c.verify(1e-12).is_ok());
    }

    #[test]
    fn direct_sum_law(
        m in 1usize..4, k in 1usize..4, n1 in 1usize..4, n2 in 1usize..4,
    ) {
        let a = classical(m, k, n1);
        let b = classical(m, k, n2);
        let c = direct_sum_n(&a, &b);
        prop_assert_eq!(c.base(), (m, k, n1 + n2));
        prop_assert_eq!(c.rank(), a.rank() + b.rank());
        prop_assert!(c.verify(1e-12).is_ok());
    }

    #[test]
    fn permutations_preserve_exactness_and_rank(
        m in 1usize..4, k in 1usize..4, n in 1usize..4,
        which in 0usize..6,
    ) {
        let base = classical(m, k, n);
        let mut dims = [m, k, n];
        dims.sort_unstable();
        let targets = [
            (dims[0], dims[1], dims[2]),
            (dims[0], dims[2], dims[1]),
            (dims[1], dims[0], dims[2]),
            (dims[1], dims[2], dims[0]),
            (dims[2], dims[0], dims[1]),
            (dims[2], dims[1], dims[0]),
        ];
        let t = targets[which];
        let p = permute_to(&base, t).expect("same multiset");
        prop_assert_eq!(p.base(), t);
        prop_assert_eq!(p.rank(), base.rank());
        prop_assert!(p.verify(1e-12).is_ok());
    }

    #[test]
    fn column_scaling_preserves_algorithm(scale in 0.25f64..4.0) {
        let s = algo::strassen();
        let r = s.rank();
        let dx = vec![scale; r];
        let dy = vec![2.0; r];
        let dz: Vec<f64> = dx.iter().zip(&dy).map(|(x, y)| 1.0 / (x * y)).collect();
        let t = scale_columns(&s, &dx, &dy, &dz);
        prop_assert!(t.verify(1e-8).is_ok());
    }

    #[test]
    fn peeling_covers_every_size_near_multiples(
        base_n in 1usize..5,
        delta in 0usize..10,
    ) {
        // sizes straddling multiples of 2^steps
        let n = base_n * 16 + delta;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let want = reference(&a, &b);
        let got = strassen_multiply(3, Options::default(), &a, &b);
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        prop_assert!(d < 1e-10 * (n as f64 + 1.0));
    }
}
