//! [`FmmEngine`]: a long-lived concurrent multiply service.
//!
//! The paper's framework pays off when setup cost is amortized across
//! many multiplies. [`crate::Planner`]/[`crate::Plan`] amortize per
//! *plan*, but every caller still hand-manages plans and workspaces,
//! and [`crate::Plan::execute_batch`] only covers same-shape batches.
//! The engine is the serve-many front door on top of them — the
//! FFTW-wisdom / runtime-dispatch shape that turns a planning library
//! into a service:
//!
//! * it owns an `fmm-runtime` thread pool, so every multiply — sync or
//!   submitted — runs at a fixed, configured width regardless of which
//!   client thread asked;
//! * a bounded **LRU plan cache** keyed by shape holds the [`Plan`]s
//!   of one [`Planner`] template (strategy, depth rule, algorithm and
//!   pool width are fixed when the engine is built). A miss plans
//!   `template.clone().shape(m, k, n)`, auto-selecting through
//!   [`fmm_algo::candidates_for_shape`] when no algorithm was set, so
//!   the first request for a shape pays for planning and every later
//!   one reuses the resolved plan;
//! * a **workspace pool** checks [`Workspace`] arenas in and out around
//!   each execution, so steady-state serving performs no arena
//!   allocation (asserted by [`EngineStats::workspaces_reused`]);
//! * [`FmmEngine::submit`] is the asynchronous path: operands move into
//!   a detached pool job and a [`MultiplyHandle`] joins it later —
//!   with work-stealing help from the caller when the caller is itself
//!   a pool worker ([`fmm_runtime::JobHandle`]);
//! * [`FmmEngine::submit_batch`] fans a mixed-shape stream out, one
//!   handle per product — each shape planned (or cache-hit)
//!   independently, unlike the same-shape-only
//!   [`crate::Plan::execute_batch`].
//!
//! The engine is cheap to clone (`Arc` inside) and `Send + Sync`:
//! share one per process and hit it from as many client threads as you
//! like.

use crate::cutoff::GemmProfile;
use crate::executor::{ExecStatsSnapshot, Options, Scheme};
use crate::planner::{Plan, PlanError, Planner};
use crate::workspace::Workspace;
use fmm_gemm::GemmScalar;
use fmm_matrix::DenseMatrix;
use fmm_runtime::{JobHandle, ThreadPool, ThreadPoolBuilder};
use fmm_tensor::Decomposition;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why the engine could not serve (or be built).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `A.cols() != B.rows()`.
    InnerDimMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// The caller-provided output has the wrong shape.
    OutputShape {
        /// Shape the product requires.
        expected: (usize, usize),
        /// Shape the caller passed.
        got: (usize, usize),
    },
    /// Planning failed for this shape/configuration.
    Plan(PlanError),
    /// The engine's thread pool could not be built.
    Pool(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InnerDimMismatch { a_cols, b_rows } => {
                write!(
                    f,
                    "inner dimension mismatch: A has {a_cols} cols, B has {b_rows} rows"
                )
            }
            EngineError::OutputShape { expected, got } => write!(
                f,
                "output shape {got:?} does not match the product shape {expected:?}"
            ),
            EngineError::Plan(e) => write!(f, "planning failed: {e}"),
            EngineError::Pool(msg) => write!(f, "engine thread pool: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

/// Builder for [`FmmEngine`]. All knobs optional; the defaults give a
/// hardware-width pool (honoring `FMM_THREADS`), catalog auto-planning
/// at depth chosen by the §3.4 rule, and the HYBRID scheme when the
/// pool has more than one worker.
///
/// The element-type parameter (default `f64`) fixes the dtype every
/// plan of the built engine executes in; `FmmEngine::<f32>::builder()`
/// configures a single-precision engine.
pub struct EngineBuilder<T = f64> {
    threads: Option<usize>,
    cache_capacity: usize,
    /// Strategy from [`EngineBuilder::options`]; when unset, `build`
    /// picks the width-dependent default scheme.
    options: Option<Options>,
    /// Depth, profile and algorithm for every plan; `build` adds the
    /// strategy.
    template: Planner,
    _dtype: std::marker::PhantomData<T>,
}

impl<T: GemmScalar> Default for EngineBuilder<T> {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl<T: GemmScalar> EngineBuilder<T> {
    /// A builder with the engine defaults.
    #[must_use]
    pub fn new() -> Self {
        EngineBuilder {
            threads: None,
            cache_capacity: 64,
            options: None,
            template: Planner::new(),
            _dtype: std::marker::PhantomData,
        }
    }

    /// Pool width; `0` (and the default) means `FMM_THREADS` or the
    /// hardware thread count ([`fmm_runtime::default_num_threads`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Plan-cache bound (LRU eviction beyond it; default 64, min 1).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Executor strategy (additions, CSE, scheme). Default: write-once
    /// additions, Sequential scheme at width 1 and HYBRID otherwise.
    #[must_use]
    pub fn options(mut self, options: Options) -> Self {
        self.options = Some(options);
        self
    }

    /// Pin the recursion depth for every plan, overriding the profile
    /// rule.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.template = self.template.steps(steps);
        self
    }

    /// Machine profile driving the §3.4 depth rule and candidate
    /// auto-selection.
    #[must_use]
    pub fn profile(mut self, profile: GemmProfile) -> Self {
        self.template = self.template.profile(profile);
        self
    }

    /// Use one fixed decomposition for every shape instead of the
    /// catalog.
    #[must_use]
    pub fn algorithm(mut self, dec: &Decomposition) -> Self {
        self.template = self.template.algorithm(dec);
        self
    }

    /// Use a fixed composed schedule (§5.2) for every shape; its length
    /// is the recursion depth.
    #[must_use]
    pub fn schedule(mut self, schedule: &[Decomposition]) -> Self {
        let levels: Vec<&Decomposition> = schedule.iter().collect();
        self.template = self.template.schedule(&levels);
        self
    }

    /// Spawn the pool and assemble the engine.
    pub fn build(self) -> Result<FmmEngine<T>, EngineError> {
        let width = self
            .threads
            .unwrap_or_else(fmm_runtime::default_num_threads)
            .max(1);
        let pool = ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .map_err(|e| EngineError::Pool(e.to_string()))?;
        let options = self.options.unwrap_or(Options {
            scheme: if width == 1 {
                Scheme::Sequential
            } else {
                Scheme::Hybrid
            },
            ..Options::default()
        });
        Ok(FmmEngine {
            inner: Arc::new(EngineInner {
                pool,
                width,
                template: self.template.options(options),
                cache: Mutex::new(PlanCache::new(self.cache_capacity)),
                workspaces: Mutex::new(Vec::new()),
                counters: Counters::default(),
                hists: fmm_trace::HistogramSet::new(),
            }),
        })
    }
}

/// Problem shape `(m, k, n)`: the key of one cached plan. Everything
/// else that determines a plan is fixed when the engine is built.
type Shape = (usize, usize, usize);

/// Bounded LRU: a map from shape to `(plan, last-use tick)`. Capacities
/// are small (tens of shapes), so eviction scans for the minimum tick
/// instead of maintaining a linked list.
struct PlanCache<T> {
    capacity: usize,
    tick: u64,
    map: HashMap<Shape, (Arc<Plan<T>>, u64)>,
}

impl<T: GemmScalar> PlanCache<T> {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &Shape) -> Option<Arc<Plan<T>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.1 = tick;
            Arc::clone(&entry.0)
        })
    }

    /// Insert and evict least-recently-used entries beyond capacity,
    /// returning how many were evicted.
    fn insert(&mut self, key: Shape, plan: Arc<Plan<T>>) -> u64 {
        self.tick += 1;
        self.map.insert(key, (plan, self.tick));
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| *k)
                .expect("over-capacity cache is non-empty");
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Monotonic service counters behind [`FmmEngine::stats`].
#[derive(Default)]
struct Counters {
    multiplies: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    workspaces_created: AtomicU64,
    workspaces_reused: AtomicU64,
    base_gemms: AtomicU64,
    peel_gemms: AtomicU64,
    tasks_stolen: AtomicU64,
}

/// Point-in-time service statistics: the engine-level counters (plan
/// cache, workspace pool) plus the [`ExecStatsSnapshot`] fields worth
/// aggregating across runs (`base_gemms`, `peel_gemms`,
/// `tasks_stolen`). All counters are monotonic since engine creation;
/// diff two snapshots to attribute activity to a region.
///
/// Serializable ([`EngineStats::to_json`]/[`EngineStats::from_json`])
/// so a serving process can report its counters over an RPC and a
/// router can aggregate them fleet-wide.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Pool width the engine executes at.
    pub threads: usize,
    /// Completed multiplies (sync and submitted).
    pub multiplies: u64,
    /// Requests served from the plan cache.
    pub plan_cache_hits: u64,
    /// Requests that had to plan (first sight of a key, or after its
    /// eviction).
    pub plan_cache_misses: u64,
    /// Plans evicted by the LRU bound.
    pub plan_cache_evictions: u64,
    /// Plans currently cached.
    pub plans_cached: usize,
    /// Workspace arenas ever allocated by the pool.
    pub workspaces_created: u64,
    /// Executions whose checked-out arena already had sufficient
    /// capacity — i.e. runs that performed **no** arena allocation.
    pub workspaces_reused: u64,
    /// Idle arenas currently pooled.
    pub workspaces_pooled: usize,
    /// Aggregate base-case gemm count across all served multiplies.
    pub base_gemms: u64,
    /// Aggregate dynamic-peeling fix-up gemm count.
    pub peel_gemms: u64,
    /// Aggregate work-stealing events observed while serving. The
    /// underlying counter is process-wide, so concurrent engines (or
    /// concurrent requests) can inflate each other's share; treat it as
    /// evidence of stealing, not an exact attribution.
    pub tasks_stolen: u64,
    /// Per-`"<shape-class>/<dtype>"` request latency histograms
    /// (nanoseconds, whole [`FmmEngine::multiply`] serve path),
    /// recorded unconditionally — independent of the `fmm-trace` span
    /// gate. Cumulative like every other counter here: diff two
    /// snapshots ([`fmm_trace::Histogram::saturating_diff`]) to get a
    /// window, merge rows ([`fmm_trace::merge_rows`]) to aggregate
    /// engines fleet-wide. Quantiles carry the
    /// [`fmm_trace::RELATIVE_ERROR_BOUND`] relative error bound.
    pub latency: Vec<fmm_trace::HistogramRow>,
}

impl EngineStats {
    /// Serialize as pretty-printed JSON — the form a shard reports over
    /// the fmm-serve stats RPC.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("stats serialization is infallible")
    }

    /// Parse a snapshot previously produced by [`EngineStats::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

struct EngineInner<T> {
    pool: ThreadPool,
    width: usize,
    /// Every cached plan is this planner plus a shape.
    template: Planner,
    cache: Mutex<PlanCache<T>>,
    /// Idle arenas, at most `2 × width + 2`; excess arenas returned at
    /// check-in are dropped instead of pooled.
    workspaces: Mutex<Vec<Workspace<T>>>,
    counters: Counters,
    hists: fmm_trace::HistogramSet,
}

impl<T: GemmScalar> EngineInner<T> {
    /// Cached plan for a shape, planning on miss. Planning runs outside
    /// the cache lock, so a concurrent first request for the same shape
    /// may plan twice (both misses counted); the later insert wins.
    fn plan_for(&self, m: usize, k: usize, n: usize) -> Result<Arc<Plan<T>>, EngineError> {
        let key = (m, k, n);
        if let Some(plan) = self.cache.lock().unwrap().get(&key) {
            self.counters
                .plan_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        self.counters
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(self.build_plan(m, k, n)?);
        let evicted = self.cache.lock().unwrap().insert(key, Arc::clone(&plan));
        if evicted > 0 {
            self.counters
                .plan_cache_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(plan)
    }

    fn build_plan(&self, m: usize, k: usize, n: usize) -> Result<Plan<T>, EngineError> {
        let mut planner = self.template.clone().shape(m, k, n);
        if !self.template.has_algorithm() {
            let candidates: Vec<Decomposition> = fmm_algo::candidates_for_shape(m, k, n)
                .into_iter()
                .map(|a| a.dec)
                .collect();
            planner = planner.auto_algorithm(&candidates);
        }
        Ok(planner.plan::<T>()?)
    }

    fn checkout_workspace(&self) -> Workspace<T> {
        if let Some(ws) = self.workspaces.lock().unwrap().pop() {
            return ws;
        }
        self.counters
            .workspaces_created
            .fetch_add(1, Ordering::Relaxed);
        Workspace::new()
    }

    fn checkin_workspace(&self, ws: Workspace<T>) {
        let mut pool = self.workspaces.lock().unwrap();
        if pool.len() < 2 * self.width + 2 {
            pool.push(ws);
        }
    }

    /// The one serving path every public multiply goes through: plan
    /// (cached), check a workspace out, execute on the engine pool,
    /// account, check the workspace back in.
    fn serve(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
    ) -> Result<ExecStatsSnapshot, EngineError> {
        let (m, ka) = a.shape();
        let (kb, n) = b.shape();
        if ka != kb {
            return Err(EngineError::InnerDimMismatch {
                a_cols: ka,
                b_rows: kb,
            });
        }
        if c.shape() != (m, n) {
            return Err(EngineError::OutputShape {
                expected: (m, n),
                got: c.shape(),
            });
        }
        // One clock read starts both the always-on latency histogram
        // and (when the trace gate is up) the request span.
        let t_req = fmm_trace::now_ns();
        let trace = fmm_trace::enabled();
        let t_span = fmm_trace::now_if(trace);
        let plan = self.plan_for(m, ka, n)?;
        fmm_trace::span_end(fmm_trace::SpanKind::PlanLookup, t_span, 0);
        let t_span = fmm_trace::now_if(trace);
        let mut ws = self.checkout_workspace();
        fmm_trace::span_end(fmm_trace::SpanKind::WorkspaceCheckout, t_span, 0);
        // `install` is a no-op indirection when we're already on one of
        // this pool's workers (the submit path).
        let snap = self
            .pool
            .install(|| plan.execute_with_stats(a, b, c, &mut ws));
        self.checkin_workspace(ws);
        self.hists.record(
            &format!("{}/{}", shape_class(m, ka, n), T::NAME),
            fmm_trace::now_ns().saturating_sub(t_req),
        );
        if trace {
            fmm_trace::span_end(fmm_trace::SpanKind::Request, t_req, (m * ka * n) as u64);
        }
        let cs = &self.counters;
        cs.multiplies.fetch_add(1, Ordering::Relaxed);
        if snap.workspace_reused {
            cs.workspaces_reused.fetch_add(1, Ordering::Relaxed);
        }
        cs.base_gemms.fetch_add(snap.base_gemms, Ordering::Relaxed);
        cs.peel_gemms.fetch_add(snap.peel_gemms, Ordering::Relaxed);
        cs.tasks_stolen
            .fetch_add(snap.tasks_stolen, Ordering::Relaxed);
        Ok(snap)
    }
}

/// A long-lived fast-matmul service: thread pool + plan cache +
/// workspace pool behind one clonable, `Send + Sync` front door. See
/// the [module docs](self) for the design.
///
/// ```
/// use fmm_core::FmmEngine;
/// use fmm_matrix::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let engine = FmmEngine::builder().threads(2).build().unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = Matrix::random(64, 64, &mut rng);
/// let b = Matrix::random(64, 64, &mut rng);
///
/// // Synchronous: plan on first sight of the shape, cached after.
/// let c1 = engine.multiply(&a, &b).unwrap();
///
/// // Asynchronous: operands move into a pool job; join later.
/// let handle = engine.submit(a.clone(), b.clone());
/// let c2 = handle.wait().unwrap();
/// assert_eq!(c1, c2);
///
/// let stats = engine.stats();
/// assert_eq!(stats.multiplies, 2);
/// assert_eq!(stats.plan_cache_hits, 1); // second multiply reused the plan
/// ```
pub struct FmmEngine<T = f64> {
    inner: Arc<EngineInner<T>>,
}

impl<T> Clone for FmmEngine<T> {
    fn clone(&self) -> Self {
        FmmEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: GemmScalar> std::fmt::Debug for FmmEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FmmEngine")
            .field("dtype", &T::NAME)
            .field("threads", &self.inner.width)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T: GemmScalar> FmmEngine<T> {
    /// Start configuring an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder<T> {
        EngineBuilder::new()
    }

    /// An engine with all defaults (hardware-width pool, catalog
    /// auto-planning).
    pub fn new() -> Result<FmmEngine<T>, EngineError> {
        EngineBuilder::new().build()
    }

    /// Pool width this engine executes at.
    pub fn threads(&self) -> usize {
        self.inner.width
    }

    /// `A · B` into a fresh output matrix (synchronous).
    pub fn multiply(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> Result<DenseMatrix<T>, EngineError> {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        self.inner.serve(a, b, &mut c)?;
        Ok(c)
    }

    /// `C = A · B` into a caller-provided output: with the plan cached
    /// and the workspace pool warm, this path allocates nothing.
    pub fn multiply_into(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
    ) -> Result<(), EngineError> {
        self.inner.serve(a, b, c).map(|_| ())
    }

    /// As [`FmmEngine::multiply_into`], returning this run's
    /// [`ExecStatsSnapshot`] (workspace footprint, leaf counts,
    /// steals).
    pub fn multiply_with_stats(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
    ) -> Result<ExecStatsSnapshot, EngineError> {
        self.inner.serve(a, b, c)
    }

    /// Asynchronous submit: move the operands into a detached job on
    /// the engine pool and return at once. Shape errors surface from
    /// [`MultiplyHandle::wait`], not here.
    pub fn submit(&self, a: DenseMatrix<T>, b: DenseMatrix<T>) -> MultiplyHandle<T> {
        let inner = Arc::clone(&self.inner);
        let handle = self.inner.pool.spawn(move || {
            let mut c = DenseMatrix::zeros(a.rows(), b.cols());
            inner.serve(&a, &b, &mut c).map(|_| c)
        });
        MultiplyHandle { handle }
    }

    /// Submit a mixed-shape stream: one detached job and one handle per
    /// `(Aᵢ, Bᵢ)` product. Each shape is planned (or served from the
    /// cache) independently, so unlike
    /// [`crate::Plan::execute_batch`] the batch need not be uniform.
    pub fn submit_batch(
        &self,
        batch: impl IntoIterator<Item = (DenseMatrix<T>, DenseMatrix<T>)>,
    ) -> Vec<MultiplyHandle<T>> {
        batch.into_iter().map(|(a, b)| self.submit(a, b)).collect()
    }

    /// The cached (planning on miss) [`Plan`] the engine would execute
    /// for a `m × k × n` problem — for callers that want to inspect it
    /// or run [`Plan::execute`] themselves against the same compiled
    /// plan.
    pub fn plan_for(&self, m: usize, k: usize, n: usize) -> Result<Arc<Plan<T>>, EngineError> {
        self.inner.plan_for(m, k, n)
    }

    /// Point-in-time service statistics.
    pub fn stats(&self) -> EngineStats {
        let cs = &self.inner.counters;
        EngineStats {
            threads: self.inner.width,
            multiplies: cs.multiplies.load(Ordering::Relaxed),
            plan_cache_hits: cs.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: cs.plan_cache_misses.load(Ordering::Relaxed),
            plan_cache_evictions: cs.plan_cache_evictions.load(Ordering::Relaxed),
            plans_cached: self.inner.cache.lock().unwrap().map.len(),
            workspaces_created: cs.workspaces_created.load(Ordering::Relaxed),
            workspaces_reused: cs.workspaces_reused.load(Ordering::Relaxed),
            workspaces_pooled: self.inner.workspaces.lock().unwrap().len(),
            base_gemms: cs.base_gemms.load(Ordering::Relaxed),
            peel_gemms: cs.peel_gemms.load(Ordering::Relaxed),
            tasks_stolen: cs.tasks_stolen.load(Ordering::Relaxed),
            latency: self.inner.hists.snapshot(),
        }
    }
}

/// Coarse shape class a request is histogrammed under: the power-of-two
/// band of the largest dimension. Shapes in one class share a plan
/// family and a latency regime, so per-class histograms separate the
/// fleet's small-product tail from its large-product tail without
/// per-shape cardinality.
pub fn shape_class(m: usize, k: usize, n: usize) -> &'static str {
    match m.max(k).max(n) {
        0..=64 => "p0-64",
        65..=128 => "p65-128",
        129..=256 => "p129-256",
        257..=512 => "p257-512",
        513..=1024 => "p513-1024",
        _ => "p1025+",
    }
}

/// Join handle of one submitted multiply. [`MultiplyHandle::wait`]
/// blocks until the product is ready; a waiting engine-pool worker
/// helps execute pool work instead of blocking (see
/// [`fmm_runtime::JobHandle`]).
pub struct MultiplyHandle<T = f64> {
    handle: JobHandle<Result<DenseMatrix<T>, EngineError>>,
}

impl<T: GemmScalar> MultiplyHandle<T> {
    /// Has the multiply finished?
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// Join: block until the product is ready and return it (or the
    /// shape/planning error the job hit).
    pub fn wait(self) -> Result<DenseMatrix<T>, EngineError> {
        self.handle.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_gemm::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        c
    }

    fn random_problem(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::random(m, k, &mut rng),
            Matrix::random(k, n, &mut rng),
        )
    }

    #[test]
    fn multiply_matches_reference_and_caches_the_plan() {
        let engine = FmmEngine::builder().threads(1).build().unwrap();
        let (a, b) = random_problem(48, 48, 48, 1);
        let c1 = engine.multiply(&a, &b).unwrap();
        let c2 = engine.multiply(&a, &b).unwrap();
        assert_eq!(c1, c2, "repeat serve must be deterministic");
        let want = reference(&a, &b);
        let d = max_abs_diff(&want.as_ref(), &c1.as_ref()).unwrap();
        assert!(d < 1e-9, "diff {d}");
        let s = engine.stats();
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.plan_cache_hits, 1);
        assert_eq!(s.plans_cached, 1);
        assert_eq!(s.multiplies, 2);
    }

    #[test]
    fn workspace_pool_reuses_after_warmup() {
        let engine = FmmEngine::builder().threads(1).build().unwrap();
        let (a, b) = random_problem(40, 40, 40, 2);
        let mut c = Matrix::zeros(40, 40);
        engine.multiply_into(&a, &b, &mut c).unwrap(); // warm-up sizes the arena
        for _ in 0..5 {
            engine.multiply_into(&a, &b, &mut c).unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.workspaces_created, 1, "one arena serves a serial client");
        assert_eq!(s.workspaces_reused, 5, "every post-warm-up run reuses it");
        assert_eq!(s.workspaces_pooled, 1);
    }

    #[test]
    fn lru_cache_evicts_the_least_recently_used_plan() {
        let engine = FmmEngine::builder()
            .threads(1)
            .cache_capacity(2)
            .build()
            .unwrap();
        let serve = |n: usize, seed: u64| {
            let (a, b) = random_problem(n, n, n, seed);
            engine.multiply(&a, &b).unwrap();
        };
        serve(16, 1); // miss: cache {16}
        serve(20, 2); // miss: cache {16, 20}
        serve(16, 3); // hit: 16 becomes most recent
        serve(24, 4); // miss: evicts 20 (LRU), cache {16, 24}
        serve(16, 5); // hit: still cached
        serve(20, 6); // miss again: was evicted
        let s = engine.stats();
        assert_eq!(s.plan_cache_misses, 4);
        assert_eq!(s.plan_cache_hits, 2);
        assert!(s.plan_cache_evictions >= 2, "20 evicted, then 16 or 24");
        assert_eq!(s.plans_cached, 2);
    }

    #[test]
    fn shape_errors_are_reported_not_panicked() {
        let engine = FmmEngine::builder().threads(1).build().unwrap();
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(6, 3);
        assert_eq!(
            engine.multiply(&a, &b).unwrap_err(),
            EngineError::InnerDimMismatch {
                a_cols: 5,
                b_rows: 6
            }
        );
        let b_ok = Matrix::zeros(5, 3);
        let mut c_bad = Matrix::zeros(4, 4);
        assert_eq!(
            engine.multiply_into(&a, &b_ok, &mut c_bad).unwrap_err(),
            EngineError::OutputShape {
                expected: (4, 3),
                got: (4, 4)
            }
        );
        // The async path reports through the handle.
        let err = engine.submit(a, b).wait().unwrap_err();
        assert!(matches!(err, EngineError::InnerDimMismatch { .. }));
    }

    #[test]
    fn fixed_schedule_engine_plans_the_schedule_depth() {
        let engine = FmmEngine::builder()
            .threads(1)
            .schedule(&[crate::codegen_fixture(), crate::codegen_fixture()])
            .build()
            .unwrap();
        let plan = engine.plan_for(32, 32, 32).unwrap();
        assert_eq!(plan.depth(), 2);
        let (a, b) = random_problem(32, 32, 32, 7);
        let want = reference(&a, &b);
        let got = engine.multiply(&a, &b).unwrap();
        let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
        assert!(d < 1e-9, "diff {d}");
    }

    #[test]
    fn engine_stats_json_roundtrip() {
        let engine = FmmEngine::builder().threads(2).build().unwrap();
        let (a, b) = random_problem(32, 32, 32, 11);
        engine.multiply(&a, &b).unwrap();
        engine.multiply(&a, &b).unwrap();
        let stats = engine.stats();
        let text = stats.to_json();
        let back = EngineStats::from_json(&text).expect("round-trip");
        assert_eq!(stats, back);
        // Malformed and field-dropped inputs are rejected, not
        // zero-filled: a router must never aggregate a half-parsed
        // shard report.
        assert!(EngineStats::from_json("not json").is_err());
        assert!(EngineStats::from_json("{\"threads\": 2}").is_err());
        let truncated = text.replace("\"multiplies\"", "\"multiplies_renamed\"");
        assert!(EngineStats::from_json(&truncated).is_err());
    }

    #[test]
    fn submit_batch_serves_mixed_shapes() {
        let engine = FmmEngine::builder().threads(2).build().unwrap();
        let shapes = [(24, 32, 16), (40, 40, 40), (16, 48, 24)];
        let problems: Vec<(Matrix, Matrix)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| random_problem(m, k, n, 10 + i as u64))
            .collect();
        let handles = engine.submit_batch(problems.clone());
        for ((a, b), handle) in problems.iter().zip(handles) {
            let got = handle.wait().unwrap();
            let want = reference(a, b);
            let d = max_abs_diff(&want.as_ref(), &got.as_ref()).unwrap();
            assert!(d < 1e-9, "diff {d}");
        }
        assert_eq!(engine.stats().multiplies, 3);
    }
}
