//! The recursive fast-matrix-multiplication executor.
//!
//! Given a schedule of verified decompositions (one per recursion
//! level — a uniform algorithm is a schedule of `L` copies; the
//! composed ⟨54,54,54⟩ algorithm of §5.2 is a schedule of three
//! different ones), the executor:
//!
//! 1. splits off dynamic-peeling strips so arbitrary dimensions work
//!    (§3.5),
//! 2. forms the `S_r`/`T_r` linear combinations with the configured
//!    addition strategy (§3.2) and optional CSE temporaries (§3.3),
//!    piping singleton-column scales through to the output combination
//!    instead of materializing a temporary (§3.1),
//! 3. recursively multiplies `M_r = S_r · T_r`, switching among
//!    sequential, DFS, BFS and HYBRID parallel schemes (§4), and
//! 4. combines the `M_r` into `C` with the rows of `W`.
//!
//! The whole recursion is generic over the element type
//! ([`fmm_gemm::GemmScalar`]): decomposition coefficients are injected
//! into the scalar once per level at plan time
//! ([`Scalar::from_coeff`]), so the hot path never converts.
//!
//! # Memory model
//!
//! The executor never allocates temporaries itself: every S/T/M buffer,
//! every CSE temporary, and the padding copies are carved out of a flat
//! `&mut [T]` workspace whose exact size is computed by walking the
//! recursion tree once ([`required_workspace`]). The [`crate::Plan`] API
//! computes that size at plan time and reuses a [`crate::Workspace`]
//! across executes (zero allocation on the hot path). Under the
//! BFS/HYBRID schemes each spawned task receives a disjoint slice of the
//! workspace, which makes the §4.2 memory growth factor explicit in
//! [`crate::Plan::workspace_len`].

use crate::plan::{output_plan, side_plan, SidePlan, Var};
use fmm_gemm::{gemm, par_gemm, GemmScalar};
use fmm_matrix::kernels;
use fmm_matrix::partition::{Grid, PeelSplit};
use fmm_matrix::{MatMut, MatRef, Scalar};
use fmm_tensor::Decomposition;

/// How the bandwidth-bound addition chains are evaluated (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdditionMethod {
    /// One `daxpy`-style pass per chain term.
    Pairwise,
    /// Each destination entry written exactly once (the paper's
    /// best-performing variant).
    #[default]
    WriteOnce,
    /// Each source block read once; all dependent temporaries updated
    /// while it streams through cache.
    Streaming,
}

/// How non-divisible dimensions are handled (§3.5).
///
/// The paper chooses dynamic peeling to limit memory and keep code
/// generation simple; padding is the classical alternative it compares
/// against in the discussion, implemented here for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BorderHandling {
    /// Fix up remainder strips with thin classical products at every
    /// recursion level (the paper's choice).
    #[default]
    DynamicPeeling,
    /// Zero-pad the operands up front so every level divides exactly,
    /// then copy the result back. Simpler, but costs extra memory and
    /// bandwidth proportional to the padding.
    Padding,
}

/// Shared-memory parallelization scheme (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// Single-threaded recursion, sequential base-case gemm.
    #[default]
    Sequential,
    /// Depth-first: recursion is sequential, every base-case gemm and
    /// every addition uses all threads (§4.1).
    Dfs,
    /// Breadth-first: each recursive multiply is an independent task
    /// with sequential leaf gemms; per-level joins are the taskwait
    /// barriers (§4.2).
    Bfs,
    /// BFS for the first `R^L − (R^L mod P)` leaves, all-threads DFS
    /// for the remainder (§4.3). The runtime's work stealing supplies
    /// the "no oversubscription" guarantee the paper builds with
    /// OpenMP locks: an idle worker steals a pending BFS task instead
    /// of a new thread being created.
    Hybrid,
}

impl Scheme {
    /// True when recursive children run as independent tasks whose
    /// workspaces must be disjoint (BFS/HYBRID); Sequential/DFS run
    /// children one at a time and share a single child region.
    pub(crate) fn concurrent_children(self) -> bool {
        matches!(self, Scheme::Bfs | Scheme::Hybrid)
    }
}

/// Executor strategy: how each level's additions are evaluated, the
/// parallel scheme and the remainder handling. Recursion depth is not
/// part of it; [`crate::Planner`] decides that per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Options {
    /// Addition-chain evaluation strategy.
    pub additions: AdditionMethod,
    /// Apply greedy length-2 common subexpression elimination.
    pub cse: bool,
    /// Parallel scheme.
    pub scheme: Scheme,
    /// Remainder handling for non-divisible dimensions.
    pub border: BorderHandling,
}

/// Execution statistics collected by
/// [`crate::Plan::execute_with_stats`] and returned as an
/// [`ExecStatsSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct ExecStats {
    /// Base-case gemm calls (the "active multiplications").
    pub base_gemms: std::sync::atomic::AtomicU64,
    /// Classical fix-up products issued by dynamic peeling.
    pub peel_gemms: std::sync::atomic::AtomicU64,
    /// Total scalar elements checked out of the workspace for S/T/M
    /// temporaries and padding copies.
    pub temp_elements: std::sync::atomic::AtomicU64,
    /// Bitmask of pool workers that executed at least one gemm during
    /// this run (bit 63 stands for any non-worker thread). Feeds
    /// [`ExecStatsSnapshot::threads_used`].
    pub thread_mask: std::sync::atomic::AtomicU64,
}

/// Execution statistics of one [`crate::Plan::execute_with_stats`]
/// run: used by the tests to verify the `R^L` leaf count and by the
/// memory discussion of §4.2. Serializable
/// ([`ExecStatsSnapshot::to_json`]/[`ExecStatsSnapshot::from_json`])
/// so per-run execution statistics can cross a process boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecStatsSnapshot {
    /// Base-case gemm calls.
    pub base_gemms: u64,
    /// Peel fix-up gemm calls.
    pub peel_gemms: u64,
    /// Total temporary scalar elements checked out of the workspace.
    pub temp_elements: u64,
    /// Size in bytes of the workspace this execution ran in.
    pub workspace_bytes: u64,
    /// True when the execution reused an existing workspace buffer
    /// without growing it — i.e. the run performed no temp allocation.
    pub workspace_reused: bool,
    /// Number of distinct threads that executed at least one gemm of
    /// this run — direct evidence of how many workers participated.
    /// Exact for pools up to 63 workers; wider pools alias into 63
    /// index buckets (plus one for non-worker threads), making this a
    /// lower bound there.
    pub threads_used: u32,
    /// Work-stealing events (tasks taken from another worker's deque)
    /// observed across the runtime while this run executed. `> 0` under
    /// BFS/HYBRID with several workers means the scheduler actually
    /// balanced load; always 0 for Sequential. Process-wide counter
    /// diff, so concurrent executions can inflate each other's count.
    pub tasks_stolen: u64,
}

impl ExecStatsSnapshot {
    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parse a snapshot previously produced by
    /// [`ExecStatsSnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl ExecStats {
    pub(crate) fn snapshot(
        &self,
        workspace_bytes: u64,
        workspace_reused: bool,
        tasks_stolen: u64,
    ) -> ExecStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        ExecStatsSnapshot {
            base_gemms: self.base_gemms.load(Relaxed),
            peel_gemms: self.peel_gemms.load(Relaxed),
            temp_elements: self.temp_elements.load(Relaxed),
            workspace_bytes,
            workspace_reused,
            threads_used: self.thread_mask.load(Relaxed).count_ones(),
            tasks_stolen,
        }
    }
}

/// One side's addition chains with coefficients already injected into
/// the target scalar type (the typed twin of [`SidePlan`]).
pub(crate) struct TypedSide<T> {
    pub(crate) temps: Vec<Vec<(Var, T)>>,
    pub(crate) chains: Vec<Vec<(Var, T)>>,
    pub(crate) passthrough: Vec<Option<(usize, T)>>,
}

fn typed_chain<T: Scalar>(chain: &[(Var, f64)]) -> Result<Vec<(Var, T)>, f64> {
    chain
        .iter()
        .map(|&(v, c)| T::from_coeff(c).map(|tc| (v, tc)).ok_or(c))
        .collect()
}

impl<T: Scalar> TypedSide<T> {
    fn try_from(plan: &SidePlan) -> Result<Self, f64> {
        Ok(TypedSide {
            temps: plan
                .temps
                .iter()
                .map(|t| typed_chain(t))
                .collect::<Result<_, _>>()?,
            chains: plan
                .chains
                .iter()
                .map(|c| typed_chain(c))
                .collect::<Result<_, _>>()?,
            passthrough: plan
                .passthrough
                .iter()
                .map(|p| match p {
                    Some((b, c)) => T::from_coeff(*c).map(|tc| Some((*b, tc))).ok_or(*c),
                    None => Ok(None),
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Pre-computed per-level plan, with coefficients in the element type.
pub(crate) struct LevelPlan<T> {
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
    uplan: TypedSide<T>,
    vplan: TypedSide<T>,
    wplan: Vec<Vec<(usize, T)>>,
    pub(crate) rank: usize,
}

impl<T: Scalar> LevelPlan<T> {
    /// Build the level plan, injecting every coefficient through
    /// [`Scalar::from_coeff`]. `Err` carries the first coefficient the
    /// scalar type rejected — impossible for the float types, the
    /// designed failure mode for non-field semirings.
    pub(crate) fn try_new(dec: &Decomposition, cse: bool) -> Result<Self, f64> {
        const TOL: f64 = 1e-14;
        let wplan = output_plan(&dec.w, TOL)
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, c)| T::from_coeff(c).map(|tc| (r, tc)).ok_or(c))
                    .collect::<Result<Vec<_>, f64>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(LevelPlan {
            m: dec.m,
            k: dec.k,
            n: dec.n,
            uplan: TypedSide::try_from(&side_plan(&dec.u, cse, TOL))?,
            vplan: TypedSide::try_from(&side_plan(&dec.v, cse, TOL))?,
            wplan,
            rank: dec.rank(),
        })
    }

    /// Number of U-side CSE temporaries (certificate audit).
    pub(crate) fn u_temp_count(&self) -> usize {
        self.uplan.temps.len()
    }

    /// Number of V-side CSE temporaries (certificate audit).
    pub(crate) fn v_temp_count(&self) -> usize {
        self.vplan.temps.len()
    }

    /// Whether multiplication `r` reads its S/T operand directly from a
    /// source block (passthrough) instead of a workspace temporary.
    pub(crate) fn passthrough(&self, r: usize) -> (bool, bool) {
        (
            self.uplan.passthrough[r].is_some(),
            self.vplan.passthrough[r].is_some(),
        )
    }
}

/// Workspace layout of one recursion node, derived from the node's
/// problem dimensions. The same arithmetic drives both plan-time sizing
/// ([`required_workspace`]) and runtime carving, so the two can never
/// disagree.
struct NodeLayout {
    peel: PeelSplit,
    /// Elements of one S_r temporary (`(p1/m) · (q1/k)`).
    s_size: usize,
    /// Elements of one T_r temporary (`(q1/k) · (r1/n)`).
    t_size: usize,
    /// Elements of one M_r product (`(p1/m) · (r1/n)`).
    m_size: usize,
    /// U-side CSE temporary region.
    ut_len: usize,
    /// V-side CSE temporary region.
    vt_len: usize,
    /// All `rank` M_r products.
    ms_len: usize,
    /// All non-passthrough S_r/T_r operands.
    st_len: usize,
    /// Workspace of one recursive child.
    child_len: usize,
    /// Total child region: `rank · child_len` when children run as
    /// concurrent tasks (BFS/HYBRID), `child_len` when they run one at
    /// a time (Sequential/DFS).
    children_len: usize,
}

impl NodeLayout {
    /// Layout for a node at `depth` on a `p × q × r` problem, or `None`
    /// when the node degenerates to a single base-case gemm (recursion
    /// exhausted or core empty) and needs no workspace.
    fn at<T: Scalar>(
        levels: &[LevelPlan<T>],
        depth: usize,
        scheme: Scheme,
        p: usize,
        q: usize,
        r: usize,
    ) -> Option<Self> {
        let lp = levels.get(depth)?;
        let peel = PeelSplit::new(p, q, r, lp.m, lp.k, lp.n);
        if peel.core_is_empty() {
            return None;
        }
        let (cp, cq, cr) = (peel.p1 / lp.m, peel.q1 / lp.k, peel.r1 / lp.n);
        let s_size = cp * cq;
        let t_size = cq * cr;
        let m_size = cp * cr;
        let st_len = (0..lp.rank)
            .map(|i| {
                let s = if lp.uplan.passthrough[i].is_none() {
                    s_size
                } else {
                    0
                };
                let t = if lp.vplan.passthrough[i].is_none() {
                    t_size
                } else {
                    0
                };
                s + t
            })
            .sum();
        let child_len = node_workspace(levels, depth + 1, scheme, cp, cq, cr);
        let children_len = if scheme.concurrent_children() {
            lp.rank * child_len
        } else {
            child_len
        };
        Some(NodeLayout {
            peel,
            s_size,
            t_size,
            m_size,
            ut_len: lp.uplan.temps.len() * s_size,
            vt_len: lp.vplan.temps.len() * t_size,
            ms_len: lp.rank * m_size,
            st_len,
            child_len,
            children_len,
        })
    }

    fn total(&self) -> usize {
        self.ut_len + self.vt_len + self.ms_len + self.st_len + self.children_len
    }
}

/// Workspace elements needed by the subtree rooted at `depth`.
fn node_workspace<T: Scalar>(
    levels: &[LevelPlan<T>],
    depth: usize,
    scheme: Scheme,
    p: usize,
    q: usize,
    r: usize,
) -> usize {
    NodeLayout::at(levels, depth, scheme, p, q, r).map_or(0, |l| l.total())
}

/// Exact workspace size (in scalar elements) a `p × q × r` execution of
/// this schedule requires, including padding copies when
/// [`BorderHandling::Padding`] is selected. One walk of the recursion
/// tree; this is what [`crate::Plan::workspace_len`] precomputes.
pub(crate) fn required_workspace<T: Scalar>(
    levels: &[LevelPlan<T>],
    opts: &Options,
    p: usize,
    q: usize,
    r: usize,
) -> usize {
    if opts.border == BorderHandling::Padding && !levels.is_empty() {
        let (pp, qq, rr) = padded_dims(levels, p, q, r);
        if (pp, qq, rr) != (p, q, r) {
            return pp * qq
                + qq * rr
                + pp * rr
                + node_workspace(levels, 0, opts.scheme, pp, qq, rr);
        }
    }
    node_workspace(levels, 0, opts.scheme, p, q, r)
}

/// Dimensions after zero-padding each axis to the full per-level
/// product so no recursion level ever peels.
fn padded_dims<T>(levels: &[LevelPlan<T>], p: usize, q: usize, r: usize) -> (usize, usize, usize) {
    let mprod: usize = levels.iter().map(|l| l.m).product();
    let kprod: usize = levels.iter().map(|l| l.k).product();
    let nprod: usize = levels.iter().map(|l| l.n).product();
    (
        p.div_ceil(mprod) * mprod,
        q.div_ceil(kprod) * kprod,
        r.div_ceil(nprod) * nprod,
    )
}

/// Run the schedule inside `ws`, which must hold at least
/// [`required_workspace`] elements: the body of
/// [`crate::Plan::execute`], which passes its reused
/// [`crate::Workspace`].
pub(crate) fn execute_on<T: GemmScalar>(
    levels: &[LevelPlan<T>],
    opts: &Options,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    stats: Option<&ExecStats>,
    ws: &mut [T],
) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "output cols mismatch");
    let total_leaves: u64 = levels.iter().map(|l| l.rank as u64).product();
    let threads = rayon::current_num_threads() as u64;
    let threshold = match opts.scheme {
        Scheme::Hybrid => total_leaves - (total_leaves % threads.max(1)),
        _ => u64::MAX,
    };
    let ctx = Ctx {
        levels,
        additions: opts.additions,
        scheme: opts.scheme,
        threshold,
        stats,
        // The tracing gate is read once per execute and carried as a
        // plain bool so recursion leaves never touch the atomic.
        trace: fmm_trace::enabled(),
    };
    if opts.border == BorderHandling::Padding && !levels.is_empty() {
        // Pad each dimension to the full per-level product so no
        // recursion level ever peels.
        let (p, q, r) = (a.rows(), a.cols(), b.cols());
        let (pp, qq, rr) = padded_dims(levels, p, q, r);
        if (pp, qq, rr) != (p, q, r) {
            ctx.count(|s| &s.temp_elements, (pp * qq + qq * rr + pp * rr) as u64);
            let (abuf, rest) = ws.split_at_mut(pp * qq);
            let (bbuf, rest) = rest.split_at_mut(qq * rr);
            let (cbuf, rest) = rest.split_at_mut(pp * rr);
            // The workspace may hold stale values from a previous
            // execute; the pad frame must be exact zeros.
            abuf.fill(T::ZERO);
            bbuf.fill(T::ZERO);
            kernels::copy(
                MatMut::from_slice(abuf, pp, qq, qq).into_block(0, 0, p, q),
                a,
            );
            kernels::copy(
                MatMut::from_slice(bbuf, qq, rr, rr).into_block(0, 0, q, r),
                b,
            );
            run_node(
                &ctx,
                0,
                0,
                MatRef::from_slice(abuf, pp, qq, qq),
                MatRef::from_slice(bbuf, qq, rr, rr),
                MatMut::from_slice(cbuf, pp, rr, rr),
                rest,
            );
            kernels::copy(
                c.reborrow(),
                MatRef::from_slice(cbuf, pp, rr, rr).block(0, 0, p, r),
            );
            return;
        }
    }
    run_node(&ctx, 0, 0, a, b, c, ws);
}

struct Ctx<'p, T> {
    levels: &'p [LevelPlan<T>],
    additions: AdditionMethod,
    scheme: Scheme,
    threshold: u64,
    stats: Option<&'p ExecStats>,
    trace: bool,
}

impl<T> Ctx<'_, T> {
    fn count(&self, field: impl Fn(&ExecStats) -> &std::sync::atomic::AtomicU64, amount: u64) {
        if let Some(stats) = self.stats {
            field(stats).fetch_add(amount, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Record which thread is doing compute: pool worker `i` sets bit
    /// `i` (mod 63), non-worker threads set bit 63.
    fn mark_thread(&self) {
        if let Some(stats) = self.stats {
            let bit = match fmm_runtime::worker_index() {
                Some(i) => i as u64 % 63,
                None => 63,
            };
            stats
                .thread_mask
                .fetch_or(1 << bit, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl<T: GemmScalar> Ctx<'_, T> {
    /// Leaves under one child of a node at `depth`.
    fn leaves_below(&self, depth: usize) -> u64 {
        self.levels[depth + 1..]
            .iter()
            .map(|l| l.rank as u64)
            .product()
    }

    /// Should additions at this depth use all threads?
    fn par_adds(&self, depth: usize) -> bool {
        match self.scheme {
            Scheme::Sequential => false,
            Scheme::Dfs => true,
            // BFS/HYBRID: only the top level runs outside tasks.
            Scheme::Bfs | Scheme::Hybrid => depth == 0,
        }
    }

    /// Base-case gemm for the leaf with global index `leaf`.
    fn leaf_gemm(
        &self,
        leaf: u64,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        self.count(|s| &s.base_gemms, 1);
        self.mark_thread();
        let flops = (a.rows() * a.cols() * b.cols()) as u64;
        let t_span = fmm_trace::now_if(self.trace);
        match self.scheme {
            Scheme::Sequential | Scheme::Bfs => gemm(alpha, a, b, beta, c),
            Scheme::Dfs => par_gemm(alpha, a, b, beta, c),
            Scheme::Hybrid => {
                if leaf >= self.threshold {
                    par_gemm(alpha, a, b, beta, c)
                } else {
                    gemm(alpha, a, b, beta, c)
                }
            }
        }
        fmm_trace::span_end(fmm_trace::SpanKind::BaseGemm, t_span, flops);
    }

    /// Gemm used for peel strips at `depth`.
    fn strip_gemm(
        &self,
        depth: usize,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        self.count(|s| &s.peel_gemms, 1);
        self.mark_thread();
        let flops = (a.rows() * a.cols() * b.cols()) as u64;
        let t_span = fmm_trace::now_if(self.trace);
        let par = match self.scheme {
            Scheme::Sequential => false,
            Scheme::Dfs => true,
            Scheme::Bfs | Scheme::Hybrid => depth == 0,
        };
        if par {
            par_gemm(alpha, a, b, beta, c)
        } else {
            gemm(alpha, a, b, beta, c)
        }
        fmm_trace::span_end(fmm_trace::SpanKind::PeelGemm, t_span, flops);
    }
}

/// Recursive driver: peel, then run the fast step on the divisible core.
fn run_node<T: GemmScalar>(
    ctx: &Ctx<'_, T>,
    depth: usize,
    leaf_lo: u64,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
) {
    let (p, q, r) = (a.rows(), a.cols(), b.cols());
    let Some(layout) = NodeLayout::at(ctx.levels, depth, ctx.scheme, p, q, r) else {
        // Recursion exhausted, or the core is smaller than the base
        // case: one classical product.
        ctx.leaf_gemm(leaf_lo, T::ONE, a, b, T::ZERO, c);
        return;
    };
    let peel = layout.peel;
    let (p1, q1, r1) = (peel.p1, peel.q1, peel.r1);
    let (dp, dq, dr) = (peel.dp, peel.dq, peel.dr);

    let a11 = a.block(0, 0, p1, q1);
    let b11 = b.block(0, 0, q1, r1);

    // Fast multiplication on the divisible core, then the thin
    // dynamic-peeling fix-up products (§3.5). Sequential mutable
    // reborrows of C keep exclusive access sound.
    fast_step(
        ctx,
        depth,
        leaf_lo,
        a11,
        b11,
        c.reborrow().into_block(0, 0, p1, r1),
        &layout,
        ws,
    );

    if dq > 0 {
        // C11 += A12·B21
        let a12 = a.block(0, q1, p1, dq);
        let b21 = b.block(q1, 0, dq, r1);
        ctx.strip_gemm(
            depth,
            T::ONE,
            a12,
            b21,
            T::ONE,
            c.reborrow().into_block(0, 0, p1, r1),
        );
    }
    if dr > 0 {
        // C12 = A11·B12 + A12·B22
        let b12 = b.block(0, r1, q1, dr);
        ctx.strip_gemm(
            depth,
            T::ONE,
            a11,
            b12,
            T::ZERO,
            c.reborrow().into_block(0, r1, p1, dr),
        );
        if dq > 0 {
            let a12 = a.block(0, q1, p1, dq);
            let b22 = b.block(q1, r1, dq, dr);
            ctx.strip_gemm(
                depth,
                T::ONE,
                a12,
                b22,
                T::ONE,
                c.reborrow().into_block(0, r1, p1, dr),
            );
        }
    }
    if dp > 0 {
        // C21 = A21·B11 + A22·B21
        let a21 = a.block(p1, 0, dp, q1);
        ctx.strip_gemm(
            depth,
            T::ONE,
            a21,
            b11,
            T::ZERO,
            c.reborrow().into_block(p1, 0, dp, r1),
        );
        if dq > 0 {
            let a22 = a.block(p1, q1, dp, dq);
            let b21 = b.block(q1, 0, dq, r1);
            ctx.strip_gemm(
                depth,
                T::ONE,
                a22,
                b21,
                T::ONE,
                c.reborrow().into_block(p1, 0, dp, r1),
            );
        }
    }
    if dp > 0 && dr > 0 {
        // C22 = A21·B12 + A22·B22
        let a21 = a.block(p1, 0, dp, q1);
        let b12 = b.block(0, r1, q1, dr);
        ctx.strip_gemm(
            depth,
            T::ONE,
            a21,
            b12,
            T::ZERO,
            c.reborrow().into_block(p1, r1, dp, dr),
        );
        if dq > 0 {
            let a22 = a.block(p1, q1, dp, dq);
            let b22 = b.block(q1, r1, dq, dr);
            ctx.strip_gemm(
                depth,
                T::ONE,
                a22,
                b22,
                T::ONE,
                c.reborrow().into_block(p1, r1, dp, dr),
            );
        }
    }
}

/// Evaluate the CSE temporaries of one side into workspace slices
/// carved from `buf`, returning a read view of each in evaluation
/// order (a temp may reference earlier temps).
fn eval_temps<'w, T: Scalar>(
    temps: &[Vec<(Var, T)>],
    grid: &Grid,
    src: &MatRef<'w, T>,
    par: bool,
    buf: &'w mut [T],
) -> Vec<MatRef<'w, T>> {
    let size = grid.rs * grid.cs;
    let mut done: Vec<MatRef<'w, T>> = Vec::with_capacity(temps.len());
    let mut rest = buf;
    for def in temps {
        let (cur, tail) = rest.split_at_mut(size);
        rest = tail;
        {
            let terms: Vec<(T, MatRef<'_, T>)> = def
                .iter()
                .map(|&(v, coef)| match v {
                    Var::Block(bi) => (coef, grid.block(src, bi / grid.bc, bi % grid.bc)),
                    Var::Temp(t) => (coef, done[t]),
                })
                .collect();
            let out = MatMut::from_slice(&mut cur[..], grid.rs, grid.cs, grid.cs);
            if par {
                kernels::par_lincomb(out, T::ZERO, &terms);
            } else {
                kernels::lincomb(out, T::ZERO, &terms);
            }
        }
        done.push(MatRef::from_slice(cur, grid.rs, grid.cs, grid.cs));
    }
    done
}

/// Carve the per-multiplication S/T buffers out of the node's operand
/// region: one `s_size`/`t_size` slice per non-passthrough chain,
/// `None` where the singleton-column optimization (§3.1) borrows the
/// source block directly.
#[allow(clippy::type_complexity)]
fn carve_st<'w, T: Scalar>(
    lp: &LevelPlan<T>,
    layout: &NodeLayout,
    st: &'w mut [T],
) -> (Vec<Option<&'w mut [T]>>, Vec<Option<&'w mut [T]>>) {
    let mut s: Vec<Option<&'w mut [T]>> = Vec::with_capacity(lp.rank);
    let mut t: Vec<Option<&'w mut [T]>> = Vec::with_capacity(lp.rank);
    let mut rest = st;
    for i in 0..lp.rank {
        if lp.uplan.passthrough[i].is_none() {
            let (cur, tail) = rest.split_at_mut(layout.s_size);
            rest = tail;
            s.push(Some(cur));
        } else {
            s.push(None);
        }
        if lp.vplan.passthrough[i].is_none() {
            let (cur, tail) = rest.split_at_mut(layout.t_size);
            rest = tail;
            t.push(Some(cur));
        } else {
            t.push(None);
        }
    }
    (s, t)
}

/// Form one operand (`S_r` or `T_r`) with the write-once or pairwise
/// strategy, returning `(view, scale)` — a borrowed scaled source block
/// for singleton columns (§3.1) or a view of `buf` after evaluating the
/// chain into it.
#[allow(clippy::too_many_arguments)]
fn form_operand<'x, T: Scalar>(
    plan: &TypedSide<T>,
    r: usize,
    grid: &Grid,
    src: &MatRef<'x, T>,
    temps: &[MatRef<'x, T>],
    method: AdditionMethod,
    par: bool,
    buf: Option<&'x mut [T]>,
) -> (MatRef<'x, T>, T) {
    if let Some((bi, scale)) = plan.passthrough[r] {
        return (grid.block(src, bi / grid.bc, bi % grid.bc), scale);
    }
    let buf = buf.expect("non-passthrough operand requires a workspace buffer");
    let chain = &plan.chains[r];
    let terms: Vec<(T, MatRef<'_, T>)> = chain
        .iter()
        .map(|&(v, coef)| match v {
            Var::Block(bi) => (coef, grid.block(src, bi / grid.bc, bi % grid.bc)),
            Var::Temp(t) => (coef, temps[t]),
        })
        .collect();
    {
        let mut out = MatMut::from_slice(&mut buf[..], grid.rs, grid.cs, grid.cs);
        match method {
            AdditionMethod::Pairwise => {
                // daxpy-chain: initial scaled copy then one axpy per term.
                let (c0, s0) = terms[0];
                if par {
                    kernels::par_copy(out.reborrow(), s0);
                    if c0 != T::ONE {
                        kernels::scale(out.reborrow(), c0);
                    }
                    for &(cf, sv) in &terms[1..] {
                        kernels::par_axpy(out.reborrow(), cf, sv);
                    }
                } else {
                    kernels::copy_scaled(out.reborrow(), c0, s0);
                    for &(cf, sv) in &terms[1..] {
                        kernels::axpy(out.reborrow(), cf, sv);
                    }
                }
            }
            AdditionMethod::WriteOnce | AdditionMethod::Streaming => {
                if par {
                    kernels::par_lincomb(out, T::ZERO, &terms);
                } else {
                    kernels::lincomb(out, T::ZERO, &terms);
                }
            }
        }
    }
    (MatRef::from_slice(buf, grid.rs, grid.cs, grid.cs), T::ONE)
}

/// Form all operands of one side with the streaming strategy: zero all
/// workspace temporaries, then stream each source block once, updating
/// every chain that references it.
fn form_side_streaming<'x, T: Scalar>(
    plan: &TypedSide<T>,
    grid: &Grid,
    src: &MatRef<'x, T>,
    temps: &[MatRef<'x, T>],
    par: bool,
    bufs: Vec<Option<&'x mut [T]>>,
) -> Vec<(MatRef<'x, T>, T)> {
    // The workspace may hold stale values; streaming accumulates, so
    // every owned destination starts from exact zero.
    let mut owned: Vec<Option<&'x mut [T]>> = bufs;
    for buf in owned.iter_mut().flatten() {
        buf.fill(T::ZERO);
    }

    // Reverse index: variable → [(chain, coef)], chains ascending so
    // disjoint mutable access can be split off in order.
    let mut by_var: std::collections::HashMap<Var, Vec<(usize, T)>> =
        std::collections::HashMap::new();
    for (r, chain) in plan.chains.iter().enumerate() {
        if plan.passthrough[r].is_some() {
            continue;
        }
        for &(v, coef) in chain {
            by_var.entry(v).or_default().push((r, coef));
        }
    }

    for (&var, targets) in by_var.iter() {
        let srcview = match var {
            Var::Block(bi) => grid.block(src, bi / grid.bc, bi % grid.bc),
            Var::Temp(t) => temps[t],
        };
        let mut targets: Vec<(usize, T)> = targets.clone();
        targets.sort_unstable_by_key(|&(r, _)| r);
        // Split disjoint mutable views off `owned` in ascending chain
        // order (each chain references a variable at most once).
        let mut refs: Vec<(T, MatMut<'_, T>)> = Vec::with_capacity(targets.len());
        let mut rest: &mut [Option<&'x mut [T]>] = &mut owned;
        let mut base = 0;
        for &(r, coef) in &targets {
            let (_, tail) = rest.split_at_mut(r - base);
            let (item, tail) = tail.split_at_mut(1);
            let buf = item[0]
                .as_mut()
                .expect("streaming target must have a workspace buffer");
            refs.push((coef, MatMut::from_slice(buf, grid.rs, grid.cs, grid.cs)));
            rest = tail;
            base = r + 1;
        }
        if par {
            kernels::par_stream_update(&mut refs, srcview);
        } else {
            kernels::stream_update(&mut refs, srcview);
        }
    }

    owned
        .into_iter()
        .enumerate()
        .map(|(r, o)| match o {
            Some(buf) => (MatRef::from_slice(buf, grid.rs, grid.cs, grid.cs), T::ONE),
            None => {
                let (bi, scale) = plan.passthrough[r].unwrap();
                (grid.block(src, bi / grid.bc, bi % grid.bc), scale)
            }
        })
        .collect()
}

/// One fast recursive step on a divisible core problem, entirely inside
/// the `ws` region described by `layout`.
#[allow(clippy::too_many_arguments)]
fn fast_step<T: GemmScalar>(
    ctx: &Ctx<'_, T>,
    depth: usize,
    leaf_lo: u64,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    layout: &NodeLayout,
    ws: &mut [T],
) {
    let lp = &ctx.levels[depth];
    let ga = Grid::new(a.rows(), a.cols(), lp.m, lp.k);
    let gb = Grid::new(b.rows(), b.cols(), lp.k, lp.n);
    let rank = lp.rank;
    let par = ctx.par_adds(depth);
    let leaves_per_child = ctx.leaves_below(depth);

    let (ut_buf, rest) = ws.split_at_mut(layout.ut_len);
    let (vt_buf, rest) = rest.split_at_mut(layout.vt_len);
    let (ms_buf, rest) = rest.split_at_mut(layout.ms_len);
    let (st_buf, child_buf) = rest.split_at_mut(layout.st_len);

    // CSE temporaries are shared across all chains of a side.
    let t_span =
        fmm_trace::now_if(ctx.trace && !(lp.uplan.temps.is_empty() && lp.vplan.temps.is_empty()));
    let utemps = eval_temps(&lp.uplan.temps, &ga, &a, par, ut_buf);
    let vtemps = eval_temps(&lp.vplan.temps, &gb, &b, par, vt_buf);
    fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, depth as u64);

    // Per-multiplication S/T buffers.
    let (mut sbufs, mut tbufs) = carve_st(lp, layout, st_buf);

    // M_r storage.
    let (sub_rows, sub_cols) = (ga.rs, gb.cs);
    ctx.count(|s| &s.temp_elements, layout.ms_len as u64);
    // Scales piped from singleton S/T columns into the W combination.
    let mut scales = vec![T::ONE; rank];

    let sequentialish = !ctx.scheme.concurrent_children();

    match ctx.additions {
        AdditionMethod::Streaming => {
            let t_span = fmm_trace::now_if(ctx.trace);
            let ss =
                form_side_streaming(&lp.uplan, &ga, &a, &utemps, par, std::mem::take(&mut sbufs));
            let ts =
                form_side_streaming(&lp.vplan, &gb, &b, &vtemps, par, std::mem::take(&mut tbufs));
            fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, depth as u64);
            for r in 0..rank {
                scales[r] = ss[r].1 * ts[r].1;
            }
            if sequentialish {
                for (r, m_chunk) in ms_buf.chunks_mut(layout.m_size).enumerate() {
                    let m = MatMut::from_slice(m_chunk, sub_rows, sub_cols, sub_cols);
                    run_node(
                        ctx,
                        depth + 1,
                        leaf_lo + r as u64 * leaves_per_child,
                        ss[r].0,
                        ts[r].0,
                        m,
                        &mut child_buf[..layout.child_len],
                    );
                }
            } else {
                rayon::scope(|scope| {
                    let kids = child_chunks(child_buf, layout.child_len, rank);
                    for ((r, m_chunk), kid) in
                        ms_buf.chunks_mut(layout.m_size).enumerate().zip(kids)
                    {
                        let (sv, tv) = (ss[r].0, ts[r].0);
                        scope.spawn(move |_| {
                            let m = MatMut::from_slice(m_chunk, sub_rows, sub_cols, sub_cols);
                            run_node(
                                ctx,
                                depth + 1,
                                leaf_lo + r as u64 * leaves_per_child,
                                sv,
                                tv,
                                m,
                                kid,
                            );
                        });
                    }
                });
            }
        }
        AdditionMethod::WriteOnce | AdditionMethod::Pairwise => {
            if sequentialish {
                for (r, m_chunk) in ms_buf.chunks_mut(layout.m_size).enumerate() {
                    let t_span = fmm_trace::now_if(ctx.trace);
                    let (sv, su) = form_operand(
                        &lp.uplan,
                        r,
                        &ga,
                        &a,
                        &utemps,
                        ctx.additions,
                        par,
                        sbufs[r].take(),
                    );
                    let (tv, tu) = form_operand(
                        &lp.vplan,
                        r,
                        &gb,
                        &b,
                        &vtemps,
                        ctx.additions,
                        par,
                        tbufs[r].take(),
                    );
                    fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, r as u64);
                    scales[r] = su * tu;
                    let m = MatMut::from_slice(m_chunk, sub_rows, sub_cols, sub_cols);
                    run_node(
                        ctx,
                        depth + 1,
                        leaf_lo + r as u64 * leaves_per_child,
                        sv,
                        tv,
                        m,
                        &mut child_buf[..layout.child_len],
                    );
                }
            } else {
                // Each task writes its singleton-scale product into a
                // disjoint one-element chunk of `scales` — same
                // disjointness argument as the M_r chunks.
                rayon::scope(|scope| {
                    let kids = child_chunks(child_buf, layout.child_len, rank);
                    for ((((r, m_chunk), kid), sbuf), (tbuf, slot)) in ms_buf
                        .chunks_mut(layout.m_size)
                        .enumerate()
                        .zip(kids)
                        .zip(sbufs)
                        .zip(tbufs.into_iter().zip(scales.chunks_mut(1)))
                    {
                        let utemps = &utemps;
                        let vtemps = &vtemps;
                        scope.spawn(move |_| {
                            // S/T formation is part of the task (§4.2),
                            // hence sequential additions here.
                            let t_span = fmm_trace::now_if(ctx.trace);
                            let (sv, su) = form_operand(
                                &lp.uplan,
                                r,
                                &ga,
                                &a,
                                utemps,
                                ctx.additions,
                                false,
                                sbuf,
                            );
                            let (tv, tu) = form_operand(
                                &lp.vplan,
                                r,
                                &gb,
                                &b,
                                vtemps,
                                ctx.additions,
                                false,
                                tbuf,
                            );
                            fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, r as u64);
                            slot[0] = su * tu;
                            let m = MatMut::from_slice(m_chunk, sub_rows, sub_cols, sub_cols);
                            run_node(
                                ctx,
                                depth + 1,
                                leaf_lo + r as u64 * leaves_per_child,
                                sv,
                                tv,
                                m,
                                kid,
                            );
                        });
                    }
                });
            }
        }
    }

    // Combine: C_ij = Σ_r w_ijr · scale_r · M_r.
    let ms: Vec<MatRef<'_, T>> = ms_buf
        .chunks(layout.m_size)
        .map(|chunk| MatRef::from_slice(chunk, sub_rows, sub_cols, sub_cols))
        .collect();
    let t_span = fmm_trace::now_if(ctx.trace);
    combine_outputs(ctx, lp, &ms, &scales, c, par);
    fmm_trace::span_end(fmm_trace::SpanKind::Combine, t_span, depth as u64);
}

/// Disjoint per-child workspace regions for concurrent (BFS/HYBRID)
/// tasks; empty slices when the children are leaves.
fn child_chunks<T>(child_buf: &mut [T], child_len: usize, rank: usize) -> Vec<&mut [T]> {
    if child_len == 0 {
        (0..rank).map(|_| Default::default()).collect()
    } else {
        child_buf.chunks_mut(child_len).take(rank).collect()
    }
}

/// Evaluate the W-side plan into the output blocks.
fn combine_outputs<T: Scalar>(
    ctx: &Ctx<'_, T>,
    lp: &LevelPlan<T>,
    ms: &[MatRef<'_, T>],
    scales: &[T],
    c: MatMut<'_, T>,
    par: bool,
) {
    let gc = Grid::new(c.rows(), c.cols(), lp.m, lp.n);
    let mut cblocks = gc.blocks_mut(c);
    match ctx.additions {
        AdditionMethod::WriteOnce => {
            for (ij, cb) in cblocks.iter_mut().enumerate() {
                let terms: Vec<(T, MatRef<'_, T>)> = lp.wplan[ij]
                    .iter()
                    .map(|&(r, coef)| (coef * scales[r], ms[r]))
                    .collect();
                if par {
                    kernels::par_lincomb(cb.reborrow(), T::ZERO, &terms);
                } else {
                    kernels::lincomb(cb.reborrow(), T::ZERO, &terms);
                }
            }
        }
        AdditionMethod::Pairwise => {
            for (ij, cb) in cblocks.iter_mut().enumerate() {
                let chain = &lp.wplan[ij];
                if chain.is_empty() {
                    cb.fill(T::ZERO);
                    continue;
                }
                let (r0, c0) = chain[0];
                if par {
                    kernels::par_copy(cb.reborrow(), ms[r0]);
                    if c0 * scales[r0] != T::ONE {
                        kernels::scale(cb.reborrow(), c0 * scales[r0]);
                    }
                    for &(r, coef) in &chain[1..] {
                        kernels::par_axpy(cb.reborrow(), coef * scales[r], ms[r]);
                    }
                } else {
                    kernels::copy_scaled(cb.reborrow(), c0 * scales[r0], ms[r0]);
                    for &(r, coef) in &chain[1..] {
                        kernels::axpy(cb.reborrow(), coef * scales[r], ms[r]);
                    }
                }
            }
        }
        AdditionMethod::Streaming => {
            for cb in cblocks.iter_mut() {
                cb.fill(T::ZERO);
            }
            // Read each M_r once, updating every output block that uses it.
            for (r, m) in ms.iter().enumerate() {
                let mut refs: Vec<(T, MatMut<'_, T>)> = Vec::new();
                for (ij, cb) in cblocks.iter_mut().enumerate() {
                    if let Some(&(_, coef)) = lp.wplan[ij].iter().find(|&&(rr, _)| rr == r) {
                        refs.push((coef * scales[r], cb.reborrow()));
                    }
                }
                if par {
                    kernels::par_stream_update(&mut refs, *m);
                } else {
                    kernels::stream_update(&mut refs, *m);
                }
            }
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::ExecStatsSnapshot;

    #[test]
    fn exec_stats_snapshot_json_roundtrip() {
        let snap = ExecStatsSnapshot {
            base_gemms: 49,
            peel_gemms: 3,
            temp_elements: 12_345,
            workspace_bytes: 8 * 12_345,
            workspace_reused: true,
            threads_used: 4,
            tasks_stolen: 17,
        };
        let back = ExecStatsSnapshot::from_json(&snap.to_json()).expect("round-trip");
        assert_eq!(snap, back);
        assert!(ExecStatsSnapshot::from_json("[]").is_err());
        assert!(ExecStatsSnapshot::from_json("{\"base_gemms\": 1}").is_err());
    }
}
