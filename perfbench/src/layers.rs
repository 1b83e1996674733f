//! Per-layer probes: each layer timed from outside, through its public
//! functions, on the operands of the workload's own problems.

use crate::drive::EngineOf;
use crate::workload::{Elem, Problem, Shape};
use fmm_core::{FmmEngine, GemmProfile, Workspace};
use fmm_matrix::{kernels, DenseMatrix};
use fmm_runtime::ThreadPool;
use fmm_serve::wire::encode_matrix;
use fmm_serve::Frame;
use std::time::Instant;

/// Median seconds of `f` over at least `min_reps` calls, adding calls
/// while the total stays under `budget_s` (at most 41). One untimed
/// warm-up call first.
pub fn median_time(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || (start.elapsed().as_secs_f64() < budget_s && times.len() < 41) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    crate::report::median(&mut times)
}

/// Base case of the recursion a plan settled on, recovered from its
/// certificate: the catalog candidate whose rank raised to the plan's
/// depth is the composed rank. `None` for a classical (depth-0) plan.
fn base_case(shape: &Shape, depth: usize, composed_rank: u64) -> Option<(usize, usize, usize)> {
    if depth == 0 {
        return None;
    }
    fmm_algo::candidates_for_shape(shape.m, shape.k, shape.n)
        .into_iter()
        .find(|a| (a.dec.rank() as u64).pow(depth as u32) == composed_rank)
        .map(|a| a.dec.base())
}

/// Leaf gemm shape of a plan (the floor of each dimension over the
/// base case to the depth; peeling handles the remainders).
pub fn leaf_shape(shape: &Shape, depth: usize, composed_rank: u64) -> (usize, usize, usize) {
    match base_case(shape, depth, composed_rank) {
        None => (shape.m, shape.k, shape.n),
        Some((bm, bk, bn)) => {
            let pow = |b: usize| b.pow(depth as u32);
            (shape.m / pow(bm), shape.k / pow(bk), shape.n / pow(bn))
        }
    }
}

/// Block of A the top-level S operands are formed at.
fn top_block(shape: &Shape, depth: usize, composed_rank: u64) -> (usize, usize) {
    match base_case(shape, depth, composed_rank) {
        None => (shape.m, shape.k),
        Some((bm, bk, _)) => (shape.m / bm, shape.k / bk),
    }
}

/// Everything measured for one distinct problem.
#[derive(Clone, Debug, Default)]
pub struct ProblemProbe {
    pub label: String,
    pub flops: f64,
    pub depth: usize,
    pub base_gemms: u64,
    pub workspace_bytes: usize,
    pub execute_s: f64,
    pub multiply_s: f64,
    /// Median of `multiply` minus `execute` over alternating calls.
    pub overhead_s: f64,
    pub classical_s: f64,
    pub threads_used: f64,
    pub steals: f64,
    pub leaf: (usize, usize, usize),
    pub leaf_s: f64,
    pub leaf_bytes: f64,
    pub predicted_s: f64,
    pub st_elems: usize,
    pub add_s: f64,
    pub copy_s: f64,
    pub elem_size: usize,
    pub encode_s: f64,
    pub decode_s: f64,
    pub frame_bytes: usize,
}

fn flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Probe one problem on `engine` (warm), with `pool` the engine's width.
pub fn probe_problem<T: EngineOf>(
    engine: &FmmEngine<T>,
    pool: &ThreadPool,
    p: &Problem<T>,
    budget_s: f64,
) -> ProblemProbe {
    let s = p.shape;
    let size = std::mem::size_of::<T>();
    let plan = engine
        .plan_for(s.m, s.k, s.n)
        .expect("plan for a served shape");
    let cert = plan.certificate();
    let mut c = DenseMatrix::<T>::zeros(s.m, s.n);
    let mut ws = Workspace::for_plan(&plan);

    // `execute` and `multiply` alternate, so drift in machine speed
    // cancels out of their difference, the engine's overhead.
    let multiply = || std::hint::black_box(engine.multiply(&p.a, &p.b).expect("engine multiply"));
    pool.install(|| plan.execute(&p.a, &p.b, &mut c, &mut ws));
    multiply();
    let (mut execute, mut served) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while execute.len() < 2
        || (start.elapsed().as_secs_f64() < 2.0 * budget_s && execute.len() < 41)
    {
        let t = Instant::now();
        pool.install(|| plan.execute(&p.a, &p.b, &mut c, &mut ws));
        execute.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        multiply();
        served.push(t.elapsed().as_secs_f64());
    }
    let mut overhead: Vec<f64> = served.iter().zip(&execute).map(|(m, e)| m - e).collect();
    let snap = pool.install(|| plan.execute_with_stats(&p.a, &p.b, &mut c, &mut ws));
    let classical_s = median_time(2, budget_s, || {
        pool.install(|| fmm_gemm::par_gemm(T::ONE, p.a.as_ref(), p.b.as_ref(), T::ZERO, c.as_mut()))
    });

    // Leaf gemm, one thread, at the plan's leaf shape.
    let leaf = leaf_shape(&s, cert.depth, cert.composed_rank);
    let (lm, lk, ln) = leaf;
    let la = p.a.block(0, 0, lm, lk);
    let lb = p.b.block(0, 0, lk, ln);
    let mut lc = DenseMatrix::<T>::zeros(lm, ln);
    let leaf_s = median_time(3, budget_s / 2.0, || {
        fmm_gemm::gemm(T::ONE, la, lb, T::ZERO, lc.as_mut())
    });

    // S/T formation: a two-term write-once combination, and a copy, at
    // the top-level block size.
    let (bm, bk) = top_block(&s, cert.depth, cert.composed_rank);
    let x = p.a.block(0, 0, bm, bk);
    let y = p.a.block(s.m - bm, s.k - bk, bm, bk);
    let mut dst = DenseMatrix::<T>::zeros(bm, bk);
    let add_s = median_time(5, budget_s / 4.0, || {
        kernels::lincomb(dst.as_mut(), T::ZERO, &[(T::ONE, x), (T::ONE, y)])
    });
    let copy_s = median_time(5, budget_s / 4.0, || kernels::copy(dst.as_mut(), x));

    // Wire frames of this problem: the request and its reply.
    let req = Frame::MultiplyReq {
        id: 1,
        dtype: T::DTYPE,
        m: s.m as u32,
        k: s.k as u32,
        n: s.n as u32,
        a: encode_matrix(&p.a),
        b: encode_matrix(&p.b),
    };
    let ok = Frame::MultiplyOk {
        id: 1,
        dtype: T::DTYPE,
        m: s.m as u32,
        n: s.n as u32,
        c: encode_matrix(&p.expected),
    };
    let frames = [req, ok];
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_s = median_time(3, budget_s / 4.0, || {
        for f in &frames {
            std::hint::black_box(f.encode());
        }
    });
    let decode_s = median_time(3, budget_s / 4.0, || {
        for bytes in &encoded {
            std::hint::black_box(Frame::decode(bytes).expect("decode own frame"));
        }
    });

    ProblemProbe {
        label: s.label(),
        flops: s.flops(),
        depth: cert.depth,
        base_gemms: cert.base_gemms,
        workspace_bytes: plan.workspace_bytes(),
        execute_s: crate::report::median(&mut execute),
        multiply_s: crate::report::median(&mut served),
        overhead_s: crate::report::median(&mut overhead),
        classical_s,
        threads_used: snap.threads_used as f64,
        steals: snap.tasks_stolen as f64,
        leaf,
        leaf_s,
        leaf_bytes: ((lm * lk + lk * ln + lm * ln) * size) as f64,
        predicted_s: 0.0,
        st_elems: bm * bk,
        add_s,
        copy_s,
        elem_size: size,
        encode_s,
        decode_s,
        frame_bytes: encoded.iter().map(Vec::len).sum(),
    }
}

/// Fill in `predicted_s` for every probe: base gemms × the leaf time a
/// same-run `GemmProfile` gives at the leaf's equivalent square size,
/// spread over `width` workers. The profile is measured per dtype at
/// exactly the sizes the plans use.
pub fn model(probes: &mut [ProblemProbe], shapes: &[Shape], width: usize) {
    let n_eq =
        |l: (usize, usize, usize)| ((l.0 * l.1 * l.2) as f64).cbrt().round().max(1.0) as usize;
    for dtype in [crate::workload::Dtype::F64, crate::workload::Dtype::F32] {
        let idx: Vec<usize> = (0..probes.len())
            .filter(|&i| shapes[i].dtype == dtype)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mut sizes: Vec<usize> = idx.iter().map(|&i| n_eq(probes[i].leaf)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let profile = match dtype {
            crate::workload::Dtype::F64 => GemmProfile::measure(&sizes),
            crate::workload::Dtype::F32 => square_profile::<f32>(&sizes),
        };
        for &i in &idx {
            let p = &mut probes[i];
            let (m, k, n) = p.leaf;
            let leaf_s = flops(m, k, n) / (profile.gflops_at(n_eq(p.leaf)) * 1e9);
            p.predicted_s = p.base_gemms as f64 * leaf_s / width as f64;
        }
    }
}

/// `GemmProfile::measure` for a dtype it does not cover: best of three
/// sequential square gemms per size, after a warm-up.
fn square_profile<T: Elem>(sizes: &[usize]) -> GemmProfile {
    let samples = sizes
        .iter()
        .map(|&n| {
            let a = DenseMatrix::<T>::from_fn(n, n, |i, j| {
                T::from_f64(((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5)
            });
            let mut c = DenseMatrix::<T>::zeros(n, n);
            let mut run = || fmm_gemm::gemm(T::ONE, a.as_ref(), a.as_ref(), T::ZERO, c.as_mut());
            run();
            let best = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    run();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            (n, flops(n, n, n) / best * 1e-9)
        })
        .collect();
    GemmProfile::from_samples(samples)
}

/// Median single-thread time of the leaf gemms of `shapes` as `engine`
/// would plan them, in microseconds, averaged over shapes.
pub fn small_leaf_us(engine: &FmmEngine<f64>, shapes: &[Shape]) -> f64 {
    let mut total = 0.0;
    for s in shapes {
        let plan = engine.plan_for(s.m, s.k, s.n).expect("plan small shape");
        let cert = plan.certificate();
        let (m, k, n) = leaf_shape(s, cert.depth, cert.composed_rank);
        let a = DenseMatrix::<f64>::from_fn(m, k, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let b = DenseMatrix::<f64>::from_fn(k, n, |i, j| ((3 * i + j) % 7) as f64 - 3.0);
        let mut c = DenseMatrix::<f64>::zeros(m, n);
        total += median_time(5, 0.05, || {
            fmm_gemm::gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut())
        });
    }
    total / shapes.len().max(1) as f64 * 1e6
}

/// Hidden subcommand of the fault-count child process.
pub const FAULTS_ARG: &str = "__faults";

/// The allocation proxy: minor page faults per warm `Plan::execute` and
/// per warm `FmmEngine::multiply`, averaged over the workload's
/// problems. It runs in a child process started with
/// [`crate::sys::MMAP_THRESHOLD`], so every large allocation is a fresh
/// mapping whose touched pages fault (with the default, adaptive
/// threshold freed blocks are reused and the count hides them).
pub fn faults_in_child(workload: crate::spec::Workload, seed: u64) -> (f64, f64) {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .args([FAULTS_ARG, workload.name(), &seed.to_string()])
        .env(crate::sys::MMAP_THRESHOLD.0, crate::sys::MMAP_THRESHOLD.1)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the fault-count child");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|f| f.parse::<f64>().ok());
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(e), Some(m)) => (e, m),
        _ => (f64::NAN, f64::NAN),
    }
}

fn faults_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let before = crate::sys::minor_faults();
    for _ in 0..reps {
        f();
    }
    (crate::sys::minor_faults() - before) as f64 / reps as f64
}

fn faults_of<T: EngineOf>(engine: &FmmEngine<T>, pool: &ThreadPool, p: &Problem<T>) -> (f64, f64) {
    let s = p.shape;
    let plan = engine
        .plan_for(s.m, s.k, s.n)
        .expect("plan for a workload shape");
    let mut c = DenseMatrix::<T>::zeros(s.m, s.n);
    let mut ws = Workspace::for_plan(&plan);
    let mut execute = || pool.install(|| plan.execute(&p.a, &p.b, &mut c, &mut ws));
    execute();
    let per_execute = faults_per_call(1, execute);
    let multiply = || {
        std::hint::black_box(engine.multiply(&p.a, &p.b).expect("engine multiply"));
    };
    multiply();
    (per_execute, faults_per_call(1, multiply))
}

/// Body of the fault-count child: `__faults <workload> <seed>`; prints
/// `<faults per execute> <faults per multiply>`.
pub fn faults_child(argv: &[String]) {
    let workload = argv
        .first()
        .and_then(|w| crate::spec::Workload::from_name(w))
        .expect("workload name");
    let seed: u64 = argv.get(1).and_then(|s| s.parse().ok()).expect("seed");
    let plan = crate::workload::plan(workload, seed);
    let set = crate::workload::ProblemSet::generate(&plan.shapes, seed, false);
    let width = if workload == crate::spec::Workload::FleetRpc {
        1
    } else {
        2
    };
    let engines = crate::drive::Engines::build(&set, width);
    let pool = fmm_runtime::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("fault-count pool");
    let counts: Vec<(f64, f64)> = (0..set.len())
        .map(|i| match set.get(i) {
            crate::workload::ProblemRef::F64(p) => faults_of(f64::engine(&engines), &pool, p),
            crate::workload::ProblemRef::F32(p) => faults_of(f32::engine(&engines), &pool, p),
        })
        .collect();
    let n = counts.len() as f64;
    println!(
        "{} {}",
        counts.iter().map(|c| c.0).sum::<f64>() / n,
        counts.iter().map(|c| c.1).sum::<f64>() / n
    );
}
