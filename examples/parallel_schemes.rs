//! The three parallel schemes of §4 side by side: DFS (parallel leaf
//! gemms), BFS (task per recursive multiply), and HYBRID (BFS for the
//! load-balanced bulk, DFS for the `R^L mod P` remainder).
//!
//! Run with: `cargo run --release --example parallel_schemes`

use fast_matmul::algo;
use fast_matmul::core::{effective_gflops, Options, Planner, Scheme, Workspace};
use fast_matmul::matrix::{relative_error, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let n = 1024;
    let threads = std::thread::available_parallelism().map_or(2, |t| t.get());
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let c_ref = fast_matmul::gemm::matmul(&a, &b);

    let strassen = algo::by_name("strassen").unwrap();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();

    println!("Strassen, {n}×{n}×{n}, {threads} threads, 2 recursive steps\n");
    println!("with 2 steps of ⟨2,2,2⟩ there are 7² = 49 leaf multiplies; HYBRID runs");
    println!(
        "49 − (49 mod {threads}) = {} as BFS tasks and the rest with all threads\n",
        49 - 49 % threads
    );
    for (name, scheme) in [
        ("sequential", Scheme::Sequential),
        ("DFS", Scheme::Dfs),
        ("BFS", Scheme::Bfs),
        ("HYBRID", Scheme::Hybrid),
    ] {
        let plan = Planner::new()
            .shape(n, n, n)
            .algorithm(&strassen.dec)
            .steps(2)
            .options(Options {
                scheme,
                ..Options::default()
            })
            .plan()
            .unwrap();
        let mut ws = Workspace::for_plan(&plan);
        let mut c = Matrix::zeros(n, n);
        let t0 = Instant::now();
        pool.install(|| plan.execute(&a, &b, &mut c, &mut ws));
        let secs = t0.elapsed().as_secs_f64();
        let err = relative_error(&c.as_ref(), &c_ref.as_ref());
        assert!(err < 1e-10, "{name}: wrong result (err {err:.1e})");
        println!(
            "{name:<11} {secs:>7.3}s  {:>6.2} effective GFLOPS",
            effective_gflops(n, n, n, secs)
        );
    }
}
