//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <gemm-bound|engine-mixed|fleet-rpc> --seed N --seconds S --trace <0|1> [--out FILE]
//! perfbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run generates the workload's inputs from the seed, sets up the
//! front door (and times that, several times, as `setup_s`), drives a
//! closed loop for `S` seconds, checks every product, and prints a
//! report followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Every run also
//! appends its full record (machine fingerprint, tail latency, per
//! problem probes, findings) to `perfbench/results/runs.jsonl` or
//! `--out`.
//!
//! Compare mode reads two such files, pairs their runs in order per
//! workload, and applies the paired-runs rule of `report::verdict`.
//! Collect the two files by alternating parent and change builds over
//! at least ten seeds.

mod drive;
mod layers;
mod report;
mod spec;
mod sys;
mod trace;
mod workload;

use drive::{closed_loop, EngineOf, Engines, Fleet, LoopOutcome, Server};
use fmm_trace::{SpanKind, TraceSink};
use report::{num, obj, s};
use serde::Value;
use spec::Workload;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use workload::{Dtype, Problem, ProblemRef, ProblemSet};

const USAGE: &str = "usage: perfbench --workload <gemm-bound|engine-mixed|fleet-rpc> --seed N \
--seconds S --trace <0|1> [--out FILE]\n       perfbench compare PARENT.jsonl CHANGE.jsonl";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(v > 0.0 && v <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    // The fleet re-executes this binary as its shard process.
    fmm_serve::maybe_run_shard_worker();
    // A panic inside the program fails one request and is counted; one
    // line per panic is enough to say where.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: caught panic: {info}")
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(layers::FAULTS_ARG) {
        layers::faults_child(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some(MEMORY_ARG) {
        memory_child(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some(drive::CHECK_ARG) {
        drive::check_child(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&argv[1..]));
    }
    match parse(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn compare(argv: &[String]) -> i32 {
    let [parent, change] = argv else {
        eprintln!("{USAGE}");
        return 2;
    };
    match report::compare(parent, change, &spec::benchmark()) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("compare: {e}");
            1
        }
    }
}

/// Replace each problem's classical reference by `engine`'s product,
/// which fleet results must then equal bit for bit. The engine product
/// itself must pass the tolerance check.
fn engine_reference<T: EngineOf>(engines: &Engines, problems: &mut [Problem<T>]) -> bool {
    let mut ok = true;
    for p in problems {
        match T::engine(engines).multiply(&p.a, &p.b) {
            Ok(c) if p.within_tolerance(&c) => p.expected = c,
            _ => ok = false,
        }
    }
    ok
}

/// The workload's problems with their references. Fleet products must
/// equal an in-process engine's bit for bit, so on fleet-rpc the
/// reference is that engine's product (it has one worker, like the
/// shard's) and the engine is returned too.
fn problems(
    w: Workload,
    shapes: &[workload::Shape],
    seed: u64,
    notes: &mut Notes,
) -> (ProblemSet, Option<Engines>) {
    let mut set = ProblemSet::generate(shapes, seed, true);
    let local = (w == Workload::FleetRpc).then(|| {
        let e = Engines::build(&set, 1);
        notes.incorrect |=
            !(engine_reference(&e, &mut set.f64s) & engine_reference(&e, &mut set.f32s));
        e
    });
    (set, local)
}

/// Hidden subcommand of the memory child.
const MEMORY_ARG: &str = "__memory";

/// Seconds the memory child serves the workload.
const MEMORY_SECONDS: f64 = 3.0;

/// Peak resident memory of the workload while it serves, in MB: this
/// process's and, on fleet-rpc, its shard's. It is read in a child
/// process that sets up the workload's front door and runs its closed
/// loop for [`MEMORY_SECONDS`], started with [`sys::MMAP_THRESHOLD`]:
/// with glibc's adaptive threshold the figure follows what the
/// allocator keeps of freed blocks, and on engine-mixed it then fell
/// on about 88 MB or 110 MB at random. The child's products are
/// checked and counted like the run's own.
fn peak_rss_in_child(w: Workload, seed: u64, notes: &mut Notes) -> f64 {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .args([MEMORY_ARG, w.name(), &seed.to_string()])
        .env(sys::MMAP_THRESHOLD.0, sys::MMAP_THRESHOLD.1)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the memory child");
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = text
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    match (out.status.success(), fields.as_slice()) {
        (true, &[rss, shard, attempted, failed]) => {
            notes.attempted += attempted as usize;
            notes.failed += failed as usize;
            if failed > 0.0 {
                notes
                    .lines
                    .push(format!("FAILED: {failed} request(s) in the memory child"));
            }
            if w == Workload::FleetRpc {
                notes.extra.push(("shard_peak_rss_mb", num(shard)));
            }
            rss + shard
        }
        _ => {
            notes.incorrect = true;
            notes.lines.push(format!(
                "FAILED: the memory child ended with {}",
                out.status
            ));
            f64::NAN
        }
    }
}

/// Body of the memory child: `__memory <workload> <seed>`; prints
/// `<peak MB> <shard peak MB> <attempted> <failed>`.
fn memory_child(argv: &[String]) {
    let w = argv
        .first()
        .and_then(|w| Workload::from_name(w))
        .expect("workload name");
    let seed: u64 = argv.get(1).and_then(|s| s.parse().ok()).expect("seed");
    let plan = workload::plan(w, seed);
    let mut notes = Notes::default();
    let (set, local) = problems(w, &plan.shapes, seed, &mut notes);
    drop(local);
    let dir = drive::run_dir(&format!("{}-memory", w.name()));
    let fleet_dir = (w == Workload::FleetRpc).then(|| dir.join("s0"));
    let (server, _, setup_failed) = drive::set_up(&set, fleet_dir.as_deref());
    // Peak memory while serving: set-up and reference products excluded.
    sys::reset_peak_rss(None);
    if let Server::Fleet(f) = &server {
        f.reset_shard_peak_rss();
    }
    let outcome = server.run(&set, &plan.cycles, MEMORY_SECONDS);
    let rss = sys::peak_rss_mb();
    let shard = match &server {
        Server::Fleet(f) => f.shard_peak_rss_mb(),
        Server::Engines(_) => 0.0,
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let attempted = set.len() + outcome.samples.len();
    let failed = setup_failed.len() + outcome.failed() + usize::from(notes.incorrect);
    println!("{rss} {shard} {attempted} {failed}");
}

/// Everything a run reports besides the metrics.
#[derive(Default)]
struct Notes {
    /// A reference product was wrong.
    incorrect: bool,
    attempted: usize,
    failed: usize,
    extra: Vec<(&'static str, Value)>,
    lines: Vec<String>,
    /// Array sizes of the traced run's addition and copy probes.
    bandwidth_elems: Vec<usize>,
}

fn run(args: &Args) {
    let w = args.workload;
    let dir = drive::run_dir(w.name());
    let plan = workload::plan(w, args.seed);
    let mut notes = Notes::default();
    let (set, local) = problems(w, &plan.shapes, args.seed, &mut notes);
    let fleet_dir = |tag: &str| (w == Workload::FleetRpc).then(|| dir.join(tag));

    let metrics = if args.trace {
        traced(args, &set, &plan.cycles, local.as_ref(), &dir, &mut notes)
    } else {
        untraced(args, &set, &plan.cycles, &fleet_dir, &mut notes)
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Exactly the metrics BENCHMARK.json lists for this mode, in order.
    let listed = spec::metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    assert!(
        metrics
            .iter()
            .map(|m| m.0)
            .eq(listed.iter().map(|m| m.0.as_str())),
        "the metrics measured differ from those BENCHMARK.json lists"
    );
    let mut printed = Vec::new();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for ((name, value), (_, unit)) in metrics.iter().zip(&listed) {
        let unit = unit.as_str();
        let target = spec::TARGETS
            .iter()
            .find(|t| t.0 == *name)
            .map(|t| format!("  (should move {} on {})", t.1, t.2.name()))
            .unwrap_or_default();
        println!("  {name:<30} {value:>14.6} {unit}{target}");
        printed.push((*name, obj(vec![("value", num(*value)), ("unit", s(unit))])));
    }
    for line in &notes.lines {
        println!("  {line}");
    }
    let fail_frac = notes.failed as f64 / notes.attempted.max(1) as f64;
    println!(
        "  fail_frac = {fail_frac} ({} of {} attempted)",
        notes.failed, notes.attempted
    );
    let correct =
        !notes.incorrect && notes.failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());

    let fingerprint: Vec<(&str, Value)> = sys::fingerprint(&notes.bandwidth_elems)
        .into_iter()
        .map(|(k, v)| (k, s(v)))
        .collect();
    for (k, v) in &fingerprint {
        if let Value::Str(v) = v {
            println!("  machine.{k} = {v}");
        }
    }
    let metrics_value = Value::Object(
        printed
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let mut record = vec![
        ("workload", s(w.name())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(correct)),
        ("attempted", num(notes.attempted as f64)),
        ("failed", num(notes.failed as f64)),
        ("fail_frac", num(fail_frac)),
        ("metrics", metrics_value.clone()),
        ("fingerprint", obj(fingerprint)),
    ];
    record.append(&mut notes.extra);
    append_record(args.out.as_deref(), &report::to_json(&obj(record)));

    println!(
        "{}",
        report::to_json(&obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", num(notes.attempted as f64)),
            ("failed", num(notes.failed as f64)),
            ("metrics", metrics_value),
        ]))
    );
}

fn append_record(out: Option<&Path>, line: &str) {
    let path = out
        .map(Path::to_path_buf)
        .unwrap_or_else(|| drive::results_dir().join("runs.jsonl"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!("could not append the run record to {}: {e}", path.display());
    }
}

/// Count the set-up's one request per problem, and name each failure.
fn note_setup_failures(failed: &[usize], set: &ProblemSet, notes: &mut Notes) {
    notes.attempted += set.len();
    notes.failed += failed.len();
    for &i in failed {
        notes
            .lines
            .push(format!("FAILED at set-up: {}", set.shapes[i].label()));
    }
}

/// Name each shape that failed, with its count.
fn note_failures(outcome: &LoopOutcome, set: &ProblemSet, notes: &mut Notes) {
    let mut by_shape: BTreeMap<String, usize> = BTreeMap::new();
    for s in outcome.samples.iter().filter(|s| !s.ok) {
        *by_shape.entry(set.shapes[s.idx].label()).or_default() += 1;
    }
    for (shape, count) in by_shape {
        notes
            .lines
            .push(format!("FAILED: {count} request(s) at {shape}"));
    }
}

/// Completed work per second, latency and tail of one closed loop.
struct LoopStats {
    eff_gflops: f64,
    mps: f64,
    p50_ms: f64,
    p99_ms: Option<f64>,
    samples: usize,
}

/// Rates are per client: the median over the client's passes through
/// its cycle of correct work over the pass's time net of result
/// checking, summed over the concurrent clients. The median keeps a
/// burst of load from elsewhere on a shared host out of the figure.
/// Latencies are the raw client-side samples of correct products.
fn loop_stats(outcome: &LoopOutcome, set: &ProblemSet) -> LoopStats {
    let mut eff_gflops = 0.0;
    let mut mps = 0.0;
    for cycles in &outcome.cycles {
        let (mut flops_rates, mut count_rates): (Vec<f64>, Vec<f64>) = cycles
            .iter()
            .map(|c| {
                let ok = outcome.samples[c.samples.clone()].iter().filter(|s| s.ok);
                let (flops, count) = ok.fold((0.0, 0.0), |(f, n), s| {
                    (f + set.shapes[s.idx].flops(), n + 1.0)
                });
                (flops / c.seconds, count / c.seconds)
            })
            .unzip();
        if !cycles.is_empty() {
            eff_gflops += report::median(&mut flops_rates) / 1e9;
            mps += report::median(&mut count_rates);
        }
    }
    let mut lat: Vec<f64> = outcome
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.seconds() * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    LoopStats {
        eff_gflops,
        mps,
        p50_ms: if n == 0 {
            f64::NAN
        } else {
            report::median(&mut lat)
        },
        // Reported only with at least ten samples beyond the 99th
        // percentile.
        p99_ms: (n >= 1000).then(|| fmm_trace::percentile_sorted(&lat, 0.99)),
        samples: n,
    }
}

fn untraced(
    args: &Args,
    set: &ProblemSet,
    cycles: &[Vec<usize>],
    fleet_dir: &dyn Fn(&str) -> Option<PathBuf>,
    notes: &mut Notes,
) -> Vec<(&'static str, f64)> {
    // Set up from scratch several times; the last set-up serves the run.
    let reps = 5;
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for r in 0..reps {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let (s, secs, failed) = drive::set_up(set, fleet_dir(&format!("s{r}")).as_deref());
        note_setup_failures(&failed, set, notes);
        setup.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let outcome = server.run(set, cycles, args.seconds);
    server.shutdown();
    let rss = peak_rss_in_child(args.workload, args.seed, notes);

    let st = loop_stats(&outcome, set);
    notes.attempted += outcome.samples.len();
    notes.failed += outcome.failed();
    note_failures(&outcome, set, notes);
    match st.p99_ms {
        Some(p99) => {
            notes
                .lines
                .push(format!("p99_ms = {p99:.6} ms ({} samples)", st.samples));
            notes.extra.push(("p99_ms", num(p99)));
        }
        None => notes.lines.push(format!(
            "p99_ms not reported: {} samples, fewer than ten beyond the 99th percentile",
            st.samples
        )),
    }
    notes.extra.push(("samples", num(st.samples as f64)));
    notes.extra.push((
        "setup_s_all",
        Value::Array(setup.iter().map(|&x| num(x)).collect()),
    ));
    vec![
        ("eff_gflops", st.eff_gflops),
        ("mps", st.mps),
        ("p50_ms", st.p50_ms),
        ("setup_s", report::median(&mut setup)),
        ("peak_rss_mb", rss),
    ]
}

/// Share of failed products from engines with every builder default
/// (HYBRID on two workers), which the timed engines do not use; see
/// [`drive::options`]. Reported apart from the run's own requests and
/// `correct`, which cover the timed engines. 0 on fleet-rpc, whose
/// one-worker shard already runs the defaults in the timed loop.
fn default_engine_failures(w: Workload, seed: u64, notes: &mut Notes) -> f64 {
    let check = drive::default_engine_check(w, seed, 5.0);
    if check.attempted == 0 {
        return 0.0;
    }
    notes.lines.push(format!(
        "default engines (HYBRID, one client): {} of {} products failed{}",
        check.failed,
        check.attempted,
        check
            .abort
            .as_ref()
            .map_or(String::new(), |a| format!("; the check {a}"))
    ));
    notes
        .extra
        .push(("check_attempted", num(check.attempted as f64)));
    notes.extra.push(("check_failed", num(check.failed as f64)));
    check.failed as f64 / check.attempted as f64
}

/// A traced session against a fresh fleet: shard spans through
/// `FMM_TRACE_DIR`, router spans in process.
struct FleetSession {
    outcome: LoopOutcome,
    stats: fmm_serve::FleetStats,
    /// Problems whose warm-up request failed.
    setup_failed: Vec<usize>,
    shard_rss_mb: f64,
    shard_tracks: Vec<trace::Track>,
    local_tracks: Vec<trace::Track>,
}

fn fleet_session(
    set: &ProblemSet,
    cycles: &[Vec<usize>],
    seconds: f64,
    dir: &Path,
    bitwise: bool,
) -> FleetSession {
    std::fs::create_dir_all(dir).expect("create trace directory");
    // The shard picks the directory up at start-up.
    std::env::set_var("FMM_TRACE_DIR", dir);
    let fleet = Fleet::start(dir);
    std::env::remove_var("FMM_TRACE_DIR");
    let setup_failed = {
        let mut client = fleet.connect();
        (0..set.len())
            .filter(|&i| !Fleet::serve(&mut client, set, i, bitwise).0.ok)
            .collect()
    };
    // The shard's peak while this session serves, not at its set-up.
    fleet.reset_shard_peak_rss();
    fmm_trace::reset();
    fmm_trace::set_enabled(true);
    let outcome = closed_loop(cycles, seconds, |_| {
        let mut client = fleet.connect();
        move |i| Fleet::serve(&mut client, set, i, bitwise)
    });
    fmm_trace::set_enabled(false);
    let local_tracks = trace::from_sink(&TraceSink::collect());
    let stats = fleet.router.fleet_stats();
    let shard_rss_mb = fleet.shard_peak_rss_mb();
    fleet.shutdown();
    FleetSession {
        outcome,
        stats,
        setup_failed,
        shard_rss_mb,
        shard_tracks: trace::from_shard_files(dir),
        local_tracks,
    }
}

/// Median call time of `serve` after a warm-up: three calls, or one
/// when a call takes over 0.1 s.
fn median_sample(mut serve: impl FnMut() -> drive::Sample) -> f64 {
    let first = serve().seconds();
    let reps = if first > 0.1 { 1 } else { 3 };
    let mut t: Vec<f64> = (0..reps).map(|_| serve().seconds()).collect();
    report::median(&mut t)
}

fn engine_ratios(stats: &[fmm_core::EngineStats]) -> (f64, f64) {
    let sum = |f: fn(&fmm_core::EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let hits = sum(|s| s.plan_cache_hits);
    let misses = sum(|s| s.plan_cache_misses);
    let mults = sum(|s| s.multiplies);
    (
        hits / (hits + misses).max(1.0),
        sum(|s| s.workspaces_reused) / mults.max(1.0),
    )
}

fn traced(
    args: &Args,
    set: &ProblemSet,
    cycles: &[Vec<usize>],
    local: Option<&Engines>,
    dir: &Path,
    notes: &mut Notes,
) -> Vec<(&'static str, f64)> {
    let w = args.workload;
    let is_fleet = w == Workload::FleetRpc;
    let half = args.seconds / 2.0;
    let (server, _, failed) = drive::set_up(set, is_fleet.then(|| dir.join("s0")).as_deref());
    note_setup_failures(&failed, set, notes);

    // Through the workload's own front door: untraced quarters before
    // and after the traced half, so that drift in machine speed cancels
    // out of the tracing overhead.
    let a1 = server.run(set, cycles, half / 2.0);
    let width = if is_fleet { 1 } else { 2 };
    let dtype_group = |idx: usize| (set.shapes[idx].dtype == Dtype::F32) as u8;
    let (b, shares, engine_tracks, engine_stats, serve) = match &server {
        Server::Engines(engines) => {
            fmm_trace::reset();
            fmm_trace::set_enabled(true);
            let b = server.run(set, cycles, half);
            fmm_trace::set_enabled(false);
            let tracks = trace::from_sink(&TraceSink::collect());
            let busy: Vec<(u8, u64, u64)> = b
                .samples
                .iter()
                .map(|s| (dtype_group(s.idx), s.t0, s.t1))
                .collect();
            let shares = trace::shares(&tracks, &busy, (b.start_ns, b.end_ns), width);
            let mut stats = Vec::new();
            stats.extend(engines.f64.as_ref().map(|e| e.stats()));
            stats.extend(engines.f32.as_ref().map(|e| e.stats()));
            // The serving layer on this workload's problems: one client,
            // every distinct problem once after a warm cycle.
            let all: Vec<Vec<usize>> = vec![(0..set.len()).collect()];
            let serve = fleet_session(set, &all, 0.0, &dir.join("probe"), false);
            (b, shares, tracks, stats, serve)
        }
        Server::Fleet(_) => {
            let session = fleet_session(set, cycles, half, &dir.join("traced"), true);
            let busy: Vec<(u8, u64, u64)> = session
                .shard_tracks
                .iter()
                .flat_map(|t| &t.recs)
                .filter(|r| r.0 == SpanKind::RpcExecute)
                .map(|r| (0, r.1, r.2))
                .collect();
            let o = &session.outcome;
            let shares = trace::shares(&session.shard_tracks, &busy, (o.start_ns, o.end_ns), width);
            let stats: Vec<fmm_core::EngineStats> = session
                .stats
                .slots
                .iter()
                .filter_map(|s| s.report.as_ref())
                .flat_map(|r| [r.engine_f64.clone(), r.engine_f32.clone()])
                .collect();
            (o.clone(), shares, Vec::new(), stats, session)
        }
    };
    note_setup_failures(&serve.setup_failed, set, notes);
    let engine_tracks = if is_fleet {
        &serve.shard_tracks
    } else {
        &engine_tracks
    };
    let (cache_hit_ratio, workspace_reuse_ratio) = engine_ratios(&engine_stats);
    // Span means and medians cover the timed loops only, not set-up.
    let window = (b.start_ns, b.end_ns);
    let serve_window = (serve.outcome.start_ns, serve.outcome.end_ns);
    let a2 = server.run(set, cycles, half / 2.0);
    let (st_a1, st_a2) = (loop_stats(&a1, set), loop_stats(&a2, set));
    let untraced_mps = (st_a1.mps + st_a2.mps) / 2.0;
    let st_b = loop_stats(&b, set);
    notes.attempted +=
        a1.samples.len() + a2.samples.len() + b.samples.len() + serve.outcome.samples.len();
    notes.failed += a1.failed() + a2.failed() + b.failed() + serve.outcome.failed();

    // Probes, untraced, on the engines that served the workload (the
    // one-worker reference engine for the fleet).
    let engines = match (&server, local) {
        (Server::Engines(e), _) => e,
        (_, Some(e)) => e,
        _ => unreachable!("the fleet workload builds a local engine"),
    };
    let pool = fmm_runtime::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("probe pool");
    let budget = 0.3;
    let mut probes: Vec<layers::ProblemProbe> = (0..set.len())
        .map(|i| match set.get(i) {
            ProblemRef::F64(p) => layers::probe_problem(f64::engine(engines), &pool, p, budget),
            ProblemRef::F32(p) => layers::probe_problem(f32::engine(engines), &pool, p, budget),
        })
        .collect();
    layers::model(&mut probes, &set.shapes, width);
    let faults = layers::faults_in_child(w, args.seed);

    // Client round trip against an in-process one-worker engine (the
    // shard's configuration) on the same problem.
    let one_worker;
    let local1 = match local {
        Some(e) => e,
        None => {
            one_worker = Engines::build(set, 1);
            &one_worker
        }
    };
    let mut overheads = Vec::new();
    for i in 0..set.len() {
        let mut rtt: Vec<f64> = serve
            .outcome
            .samples
            .iter()
            .filter(|s| s.idx == i)
            .map(|s| s.seconds())
            .collect();
        if rtt.is_empty() {
            continue;
        }
        let local_s = median_sample(|| local1.serve(set, i).0);
        overheads.push(report::median(&mut rtt) - local_s);
    }
    let bytes_per_req = {
        let samples = &b.samples;
        let total: f64 = samples
            .iter()
            .map(|s| probes[s.idx].frame_bytes as f64)
            .sum();
        total / samples.len().max(1) as f64
    };
    // Leaf gemms of the engine-mixed problems, as its engine plans them.
    let small_us = {
        let mixed = workload::plan(Workload::EngineMixed, args.seed);
        let engine = fmm_core::FmmEngine::<f64>::builder()
            .threads(2)
            .options(drive::options(2))
            .build()
            .expect("engine-mixed engine");
        layers::small_leaf_us(&engine, &mixed.shapes)
    };
    server.shutdown();
    let default_fail_frac = default_engine_failures(w, args.seed, notes);

    let sum = |f: fn(&layers::ProblemProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let mean = |f: fn(&layers::ProblemProbe) -> f64| sum(f) / probes.len() as f64;
    let leaf_flops = |p: &layers::ProblemProbe| 2.0 * (p.leaf.0 * p.leaf.1 * p.leaf.2) as f64;
    let add_bytes = sum(|p| (3 * p.st_elems * p.elem_size) as f64);
    let copy_bytes = sum(|p| (2 * p.st_elems * p.elem_size) as f64);
    let add_gbs = add_bytes / sum(|p| p.add_s) / 1e9;
    let copy_gbs = copy_bytes / sum(|p| p.copy_s) / 1e9;
    let retries = serve.stats.router.retries as f64;
    let busy_rejections: f64 = serve
        .stats
        .slots
        .iter()
        .filter_map(|s| s.report.as_ref())
        .map(|r| r.rejected_busy as f64)
        .sum();

    for p in &probes {
        if p.execute_s > p.classical_s {
            notes.lines.push(format!(
                "finding: planner picked a plan slower than classical par_gemm at {}: execute {:.3} ms vs classical {:.3} ms (depth {})",
                p.label,
                p.execute_s * 1e3,
                p.classical_s * 1e3,
                p.depth
            ));
        }
    }
    notes.lines.push(format!(
        "traced run: {} untraced + {} traced requests; worker-time shares over {:.3} busy seconds",
        st_a1.samples + st_a2.samples,
        st_b.samples,
        shares.busy_s
    ));
    notes.bandwidth_elems = probes.iter().map(|p| p.st_elems).collect();
    notes.extra.push((
        "problems",
        Value::Array(
            probes
                .iter()
                .map(|p| {
                    obj(vec![
                        ("shape", s(p.label.clone())),
                        ("depth", num(p.depth as f64)),
                        ("base_gemms", num(p.base_gemms as f64)),
                        ("leaf", s(format!("{}x{}x{}", p.leaf.0, p.leaf.1, p.leaf.2))),
                        ("execute_ms", num(p.execute_s * 1e3)),
                        ("predicted_ms", num(p.predicted_s * 1e3)),
                        ("classical_ms", num(p.classical_s * 1e3)),
                        ("multiply_ms", num(p.multiply_s * 1e3)),
                    ])
                })
                .collect(),
        ),
    ));

    let metrics: Vec<(&'static str, f64)> = vec![
        (
            "gemm.leaf_gflops",
            probes.iter().map(leaf_flops).sum::<f64>() / sum(|p| p.leaf_s) / 1e9,
        ),
        ("gemm.small_us", small_us),
        (
            "gemm.classical_gflops",
            sum(|p| p.flops) / sum(|p| p.classical_s) / 1e9,
        ),
        (
            "gemm.ops_per_byte",
            probes.iter().map(leaf_flops).sum::<f64>() / sum(|p| p.leaf_bytes),
        ),
        ("matrix.add_gbs", add_gbs),
        ("matrix.copy_gbs", copy_gbs),
        ("matrix.add_frac_copy", add_gbs / copy_gbs),
        ("core.execute_ms", mean(|p| p.execute_s) * 1e3),
        ("core.gemm_share", shares.gemm),
        ("core.additions_share", shares.additions),
        ("core.combine_share", shares.combine),
        ("core.unaccounted_share", shares.unaccounted),
        (
            "core.depth",
            probes.iter().map(|p| p.depth as f64).fold(0.0, f64::max),
        ),
        ("core.base_gemms", sum(|p| p.base_gemms as f64)),
        (
            "core.workspace_mb",
            probes
                .iter()
                .map(|p| p.workspace_bytes as f64 / 1e6)
                .fold(0.0, f64::max),
        ),
        ("core.minflt_per_execute", faults.0),
        (
            "core.speedup_vs_classical",
            sum(|p| p.classical_s) / sum(|p| p.execute_s),
        ),
        (
            "core.model_ratio",
            sum(|p| p.predicted_s) / sum(|p| p.execute_s),
        ),
        // Median over problems: on large ones run-to-run noise swamps
        // the engine's few microseconds.
        (
            "engine.overhead_us",
            report::median(&mut probes.iter().map(|p| p.overhead_s).collect::<Vec<_>>()) * 1e6,
        ),
        (
            "engine.plan_lookup_us",
            trace::median_us(engine_tracks, SpanKind::PlanLookup, window),
        ),
        (
            "engine.checkout_us",
            trace::median_us(engine_tracks, SpanKind::WorkspaceCheckout, window),
        ),
        ("engine.cache_hit_ratio", cache_hit_ratio),
        ("engine.workspace_reuse_ratio", workspace_reuse_ratio),
        ("engine.minflt_per_multiply", faults.1),
        ("runtime.steals_per_mult", mean(|p| p.steals)),
        ("runtime.threads_used", mean(|p| p.threads_used)),
        ("runtime.park_share", shares.park),
        (
            "serve.encode_gbs",
            sum(|p| p.frame_bytes as f64) / sum(|p| p.encode_s) / 1e9,
        ),
        (
            "serve.decode_gbs",
            sum(|p| p.frame_bytes as f64) / sum(|p| p.decode_s) / 1e9,
        ),
        (
            "serve.rpc_overhead_us",
            overheads.iter().sum::<f64>() / overheads.len().max(1) as f64 * 1e6,
        ),
        (
            "serve.rpc_decode_us",
            trace::mean_us(&serve.shard_tracks, SpanKind::RpcDecode, serve_window),
        ),
        (
            "serve.rpc_encode_us",
            trace::mean_us(&serve.shard_tracks, SpanKind::RpcEncode, serve_window),
        ),
        (
            "serve.router_forward_us",
            trace::mean_us(&serve.local_tracks, SpanKind::RouterForward, serve_window),
        ),
        ("serve.retries", retries),
        ("serve.busy_rejections", busy_rejections),
        ("serve.bytes_per_req", bytes_per_req),
        ("serve.shard_peak_rss_mb", serve.shard_rss_mb),
        ("trace.overhead_frac", untraced_mps / st_b.mps - 1.0),
        ("engine.default_fail_frac", default_fail_frac),
    ];
    metrics
}
