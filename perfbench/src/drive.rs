//! The front doors the workloads drive — `FmmEngine` in process, and
//! `ServeClient` → router → shard process — and the closed loop that
//! drives them.

use crate::spec::Workload;
use crate::workload::{Dtype, Elem, Problem, ProblemRef, ProblemSet};
use fmm_core::{FmmEngine, Options, Scheme};
use fmm_matrix::DenseMatrix;
use fmm_serve::{start_router, RouterConfig, RunningRouter, ServeClient, ShardLauncher, ShardSpec};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One request as a client saw it. Times are on the `fmm-trace` clock
/// so they line up with the program's own spans.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub idx: usize,
    pub t0: u64,
    pub t1: u64,
    pub ok: bool,
}

impl Sample {
    pub fn seconds(&self) -> f64 {
        (self.t1 - self.t0) as f64 * 1e-9
    }
}

/// One pass of a client through its cycle: the samples it produced
/// and its duration net of result checking.
#[derive(Clone, Debug)]
pub struct Cycle {
    pub samples: std::ops::Range<usize>,
    pub seconds: f64,
}

#[derive(Clone)]
pub struct LoopOutcome {
    pub samples: Vec<Sample>,
    /// Per client, its cycles in order.
    pub cycles: Vec<Vec<Cycle>>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl LoopOutcome {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Closed loop: one thread per cycle, each sending its next request
/// only after the previous reply, and repeating its cycle until
/// `seconds` have passed (the cycle in progress is finished, so every
/// run serves whole cycles). `connect(c)` builds client `c`'s request
/// function before the clock starts; that function times the call and
/// returns the sample plus the nanoseconds spent checking the result.
pub fn closed_loop<C, F>(cycles: &[Vec<usize>], seconds: f64, connect: C) -> LoopOutcome
where
    C: Fn(usize) -> F + Sync,
    F: FnMut(usize) -> (Sample, u64),
{
    let barrier = Barrier::new(cycles.len());
    // Per client: its samples and, per pass, (net ns, end time).
    type ClientRun = (Vec<Sample>, Vec<(u64, u64)>);
    let per_client: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = cycles
            .iter()
            .enumerate()
            .map(|(c, cycle)| {
                let (barrier, connect) = (&barrier, &connect);
                s.spawn(move || {
                    let mut serve = connect(c);
                    barrier.wait();
                    let start = fmm_trace::now_ns();
                    let deadline = start + (seconds * 1e9) as u64;
                    let mut samples = Vec::new();
                    let mut passes = Vec::new();
                    loop {
                        let pass_start = fmm_trace::now_ns();
                        let mut check_ns = 0;
                        for &i in cycle {
                            let (sample, check) = serve(i);
                            samples.push(sample);
                            check_ns += check;
                        }
                        let now = fmm_trace::now_ns();
                        passes.push((now - pass_start - check_ns, now));
                        if now >= deadline {
                            break;
                        }
                    }
                    (samples, passes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut outcome = LoopOutcome {
        samples: Vec::new(),
        cycles: Vec::new(),
        start_ns: u64::MAX,
        end_ns: 0,
    };
    for ((samples, passes), cycle) in per_client.into_iter().zip(cycles) {
        let base = outcome.samples.len();
        outcome.start_ns = outcome
            .start_ns
            .min(samples.first().map_or(u64::MAX, |s| s.t0));
        outcome.end_ns = outcome.end_ns.max(passes.last().map_or(0, |p| p.1));
        outcome.cycles.push(
            passes
                .iter()
                .enumerate()
                .map(|(j, &(net, _))| Cycle {
                    samples: base + j * cycle.len()..base + (j + 1) * cycle.len(),
                    seconds: net as f64 * 1e-9,
                })
                .collect(),
        );
        outcome.samples.extend(samples);
    }
    outcome
}

/// Times `call` and checks its product. A call error fails the sample.
pub fn timed<T, E>(
    idx: usize,
    call: impl FnOnce() -> Result<DenseMatrix<T>, E>,
    check: impl FnOnce(&DenseMatrix<T>) -> bool,
) -> (Sample, u64) {
    let t0 = fmm_trace::now_ns();
    let result = call();
    let t1 = fmm_trace::now_ns();
    let ok = result.as_ref().is_ok_and(check);
    (Sample { idx, t0, t1, ok }, fmm_trace::now_ns() - t1)
}

/// The in-process front door: one engine per dtype the workload uses.
pub struct Engines {
    pub f64: Option<FmmEngine<f64>>,
    pub f32: Option<FmmEngine<f32>>,
}

pub trait EngineOf: Elem {
    fn engine(e: &Engines) -> &FmmEngine<Self>;
}

impl EngineOf for f64 {
    fn engine(e: &Engines) -> &FmmEngine<f64> {
        e.f64.as_ref().expect("workload has an f64 engine")
    }
}

impl EngineOf for f32 {
    fn engine(e: &Engines) -> &FmmEngine<f32> {
        e.f32.as_ref().expect("workload has an f32 engine")
    }
}

/// Executor options of the timed engines: the builder defaults, except
/// that a multi-worker engine runs the DFS scheme. The default there,
/// HYBRID (like BFS), returns wrong products, panics, crashes the
/// process or hangs on this code base, so a timed loop on it could not
/// finish. [`default_engine_check`] runs the defaults in traced runs
/// and reports their failures as `engine.default_fail_frac`.
pub fn options(threads: usize) -> Options {
    Options {
        scheme: if threads > 1 {
            Scheme::Dfs
        } else {
            Scheme::Sequential
        },
        ..Options::default()
    }
}

impl Engines {
    /// The timed engines, with [`options`].
    pub fn build(set: &ProblemSet, threads: usize) -> Engines {
        Engines::assemble(set, threads, Some(options(threads)))
    }

    /// Engines as a user gets them, with every builder default.
    pub fn defaults(set: &ProblemSet, threads: usize) -> Engines {
        Engines::assemble(set, threads, None)
    }

    fn assemble(set: &ProblemSet, threads: usize, options: Option<Options>) -> Engines {
        let has = |d: Dtype| set.shapes.iter().any(|s| s.dtype == d);
        Engines {
            f64: has(Dtype::F64).then(|| engine(threads, options)),
            f32: has(Dtype::F32).then(|| engine(threads, options)),
        }
    }

    fn one<T: EngineOf>(&self, idx: usize, p: &Problem<T>) -> (Sample, u64) {
        // A panic inside the engine fails this request, not the run.
        let call = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                T::engine(self).multiply(&p.a, &p.b)
            }))
            .map_err(|_| ())
            .and_then(|r| r.map_err(|_| ()))
        };
        timed(idx, call, |c| p.within_tolerance(c))
    }

    pub fn serve(&self, set: &ProblemSet, idx: usize) -> (Sample, u64) {
        match set.get(idx) {
            ProblemRef::F64(p) => self.one(idx, p),
            ProblemRef::F32(p) => self.one(idx, p),
        }
    }
}

fn engine<T: Elem>(threads: usize, options: Option<Options>) -> FmmEngine<T> {
    let builder = FmmEngine::<T>::builder().threads(threads);
    match options {
        Some(o) => builder.options(o),
        None => builder,
    }
    .build()
    .expect("engine")
}

/// Hidden subcommand of the default-engine check child.
pub const CHECK_ARG: &str = "__default_engines";

/// Requests the default-engine check sends, per workload: a fixed
/// number of passes over the distinct problems, about three seconds
/// of work. `None` where the timed engines already are the defaults.
fn check_passes(w: Workload) -> Option<usize> {
    match w {
        Workload::GemmBound => Some(2),
        Workload::EngineMixed => Some(20),
        Workload::FleetRpc => None,
    }
}

/// Body of the check child: `__default_engines <workload> <seed>`.
/// One client sends every problem in turn to 2-worker engines with the
/// builder defaults, `check_passes` times, and prints `1` or `0` per
/// checked product as it goes.
pub fn check_child(argv: &[String]) {
    let w = argv
        .first()
        .and_then(|w| Workload::from_name(w))
        .expect("workload name");
    let seed: u64 = argv.get(1).and_then(|s| s.parse().ok()).expect("seed");
    let plan = crate::workload::plan(w, seed);
    let set = ProblemSet::generate(&plan.shapes, seed, true);
    let engines = Engines::defaults(&set, 2);
    let mut out = std::io::stdout().lock();
    for _ in 0..check_passes(w).unwrap_or(0) {
        for i in 0..set.len() {
            let ok = engines.serve(&set, i).0.ok;
            writeln!(out, "{}", u8::from(ok))
                .and_then(|_| out.flush())
                .expect("report to parent");
        }
    }
}

/// What the default-engine check saw.
#[derive(Default)]
pub struct Check {
    pub attempted: usize,
    pub failed: usize,
    /// How the child ended when it did not finish: a crash or a hang.
    pub abort: Option<String>,
}

/// Run the workload's problems on engines with the builder defaults
/// (HYBRID on two workers), in a child process so that a crash or hang
/// there counts as a failed product instead of ending the run.
pub fn default_engine_check(w: Workload, seed: u64, patience_s: f64) -> Check {
    let Some(passes) = check_passes(w) else {
        return Check::default();
    };
    let planned = passes * crate::workload::plan(w, seed).shapes.len();
    let mut child = Command::new(std::env::current_exe().expect("own executable"));
    child.args([CHECK_ARG, w.name(), &seed.to_string()]);
    supervise(child, planned, patience_s)
}

/// Run `cmd`, which prints `1` or `0` per checked product, `planned`
/// in all. A product that does not come within `patience_s` (twice
/// that for the first, after set-up) counts as failed and ends the
/// check, as does a crash before the last one.
fn supervise(mut cmd: Command, planned: usize, patience_s: f64) -> Check {
    let mut check = Check::default();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("start the check");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line.trim() == "1").is_err() {
                break;
            }
        }
    });
    let mut wait = Duration::from_secs_f64(patience_s * 2.0);
    // After the last answer, only the child's exit is awaited.
    loop {
        match rx.recv_timeout(wait) {
            Ok(ok) => {
                check.attempted += 1;
                check.failed += usize::from(!ok);
                wait = Duration::from_secs_f64(patience_s);
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                check.abort = Some(format!("hung: nothing within {patience_s} s"));
                break;
            }
        }
    }
    let status = child.wait().expect("reap the check");
    reader.join().expect("check reader");
    if check.abort.is_none() && !status.success() {
        check.abort = Some(format!("exited with {status}"));
    }
    match &mut check.abort {
        // The request in flight when the child stopped.
        Some(_) if check.attempted < planned => {
            check.attempted += 1;
            check.failed += 1;
        }
        Some(how) => how.push_str(" after its last answer"),
        None => {}
    }
    check
}

/// Where runs keep their records, sockets and trace files: short and
/// relative when run from the repository root, since Unix socket paths
/// are limited to about 100 bytes.
pub fn results_dir() -> PathBuf {
    if Path::new("perfbench/Cargo.toml").exists() {
        PathBuf::from("perfbench/results")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
    }
}

/// A fresh directory for this run's sockets and trace files.
pub fn run_dir(tag: &str) -> PathBuf {
    let dir = results_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create run directory");
    dir
}

/// The serving front door: an in-process router over one shard process
/// with a 1-worker engine.
pub struct Fleet {
    pub router: RunningRouter,
    /// The shard processes this fleet spawned (other fleets of the same
    /// run may still be alive).
    shards: Vec<u32>,
}

impl Fleet {
    pub fn start(dir: &Path) -> Fleet {
        let spec = ShardSpec {
            socket: dir.join("shard.sock"),
            threads: 1,
            max_inflight: 8,
        };
        let cfg = RouterConfig::new(dir.join("router.sock"), ShardLauncher::SelfExec, vec![spec]);
        let before = crate::sys::child_pids();
        let router = start_router(cfg).expect("start router and shard");
        let shards = crate::sys::child_pids()
            .into_iter()
            .filter(|pid| !before.contains(pid))
            .collect();
        Fleet { router, shards }
    }

    pub fn connect(&self) -> ServeClient {
        ServeClient::connect(self.router.socket()).expect("connect to router")
    }

    /// One round trip, checked bit for bit against `expected` when
    /// that is an engine product, else under the dtype tolerance.
    pub fn serve(
        client: &mut ServeClient,
        set: &ProblemSet,
        idx: usize,
        bitwise: bool,
    ) -> (Sample, u64) {
        match set.get(idx) {
            ProblemRef::F64(p) => {
                timed(idx, || client.multiply(&p.a, &p.b), |c| p.check(c, bitwise))
            }
            ProblemRef::F32(p) => {
                timed(idx, || client.multiply(&p.a, &p.b), |c| p.check(c, bitwise))
            }
        }
    }

    /// Peak resident memory of this fleet's shard, in MB (read before it
    /// exits).
    pub fn shard_peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .filter_map(|&pid| crate::sys::peak_rss_mb_of(pid))
            .sum()
    }

    /// Restart the shard's peak resident size from its current size.
    pub fn reset_shard_peak_rss(&self) {
        for &pid in &self.shards {
            crate::sys::reset_peak_rss(Some(pid));
        }
    }

    /// Drain and reap the shard. Its final trace file, if any, stays in
    /// the fleet's directory.
    pub fn shutdown(self) {
        self.router.shutdown();
    }
}

/// Either front door, ready to serve.
pub enum Server {
    Engines(Engines),
    Fleet(Fleet),
}

/// Build the front door and serve every distinct problem once; returns
/// the server and the seconds that took, plus the problems whose set-up
/// product failed.
pub fn set_up(set: &ProblemSet, fleet_dir: Option<&Path>) -> (Server, f64, Vec<usize>) {
    let t = Instant::now();
    let mut failed = Vec::new();
    let server = match fleet_dir {
        None => {
            let engines = Engines::build(set, 2);
            for i in 0..set.len() {
                if !engines.serve(set, i).0.ok {
                    failed.push(i);
                }
            }
            Server::Engines(engines)
        }
        Some(dir) => {
            let fleet = Fleet::start(dir);
            let mut client = fleet.connect();
            for i in 0..set.len() {
                if !Fleet::serve(&mut client, set, i, true).0.ok {
                    failed.push(i);
                }
            }
            Server::Fleet(fleet)
        }
    };
    (server, t.elapsed().as_secs_f64(), failed)
}

impl Server {
    /// Run the workload's closed loop against this server.
    pub fn run(&self, set: &ProblemSet, cycles: &[Vec<usize>], seconds: f64) -> LoopOutcome {
        match self {
            Server::Engines(engines) => {
                closed_loop(cycles, seconds, |_| move |i| engines.serve(set, i))
            }
            Server::Fleet(fleet) => closed_loop(cycles, seconds, |_| {
                let mut client = fleet.connect();
                move |i| Fleet::serve(&mut client, set, i, true)
            }),
        }
    }

    pub fn shutdown(self) {
        if let Server::Fleet(fleet) = self {
            fleet.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Shape;

    #[test]
    fn a_corrupted_product_is_counted_as_a_failure() {
        let shapes = [
            Shape {
                m: 24,
                k: 17,
                n: 9,
                dtype: Dtype::F64,
            },
            Shape {
                m: 8,
                k: 31,
                n: 12,
                dtype: Dtype::F32,
            },
        ];
        let set = ProblemSet::generate(&shapes, 5, true);
        let cycles = vec![vec![0, 1], vec![1, 0]];
        let outcome = closed_loop(&cycles, 0.0, |client| {
            let set = &set;
            let mut served = 0;
            move |i| {
                served += 1;
                // Client 1 corrupts its second product.
                let corrupt = client == 1 && served == 2;
                match set.get(i) {
                    ProblemRef::F64(p) => timed(
                        i,
                        || {
                            let mut c = fmm_gemm::matmul(&p.a, &p.b);
                            if corrupt {
                                c.as_mut_slice()[0] += 0.5;
                            }
                            Ok::<_, ()>(c)
                        },
                        |c| p.within_tolerance(c),
                    ),
                    ProblemRef::F32(p) => timed(
                        i,
                        || {
                            let mut c = fmm_gemm::matmul(&p.a, &p.b);
                            if corrupt {
                                c.as_mut_slice()[3] += 0.5;
                            }
                            Ok::<_, ()>(c)
                        },
                        |c| p.within_tolerance(c),
                    ),
                }
            }
        });
        assert_eq!(outcome.samples.len(), 4);
        assert_eq!(outcome.failed(), 1);
        let bad = outcome.samples.iter().find(|s| !s.ok).expect("one failure");
        assert_eq!(bad.idx, 0);
    }

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    #[test]
    fn a_crashed_or_hung_check_fails_the_request_in_flight() {
        let done = supervise(sh("echo 1; echo 0; echo 1"), 3, 5.0);
        assert_eq!((done.attempted, done.failed, done.abort), (3, 1, None));
        let crashed = supervise(sh("echo 1; kill -SEGV $$"), 3, 5.0);
        assert_eq!((crashed.attempted, crashed.failed), (2, 1));
        assert!(crashed.abort.expect("crash noted").contains("exited"));
        let hung = supervise(sh("echo 1; exec sleep 5"), 3, 0.2);
        assert_eq!((hung.attempted, hung.failed), (2, 1));
        assert!(hung.abort.expect("hang noted").starts_with("hung"));
        // Stuck after its last answer: every product came, none failed.
        let stuck = supervise(sh("echo 1; echo 1; exec sleep 5"), 2, 0.2);
        assert_eq!((stuck.attempted, stuck.failed), (2, 0));
        assert!(stuck
            .abort
            .expect("hang noted")
            .ends_with("after its last answer"));
    }

    #[test]
    fn engine_results_pass_the_check() {
        let shapes = [Shape {
            m: 130,
            k: 97,
            n: 141,
            dtype: Dtype::F64,
        }];
        let set = ProblemSet::generate(&shapes, 9, true);
        let engines = Engines::build(&set, 2);
        let (sample, _) = engines.serve(&set, 0);
        assert!(sample.ok);
    }
}
