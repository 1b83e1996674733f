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
//! The executor never allocates temporaries itself: every S/T/M buffer
//! and every CSE temporary is carved out of a flat `&mut [T]` workspace.
//! Every node at one recursion depth has the same dimensions (the root
//! core, then that divided by the base case at each level; peel strips
//! never recurse), so [`crate::Planner`] builds one [`NodeLayout`] per
//! non-leaf depth at plan time and the executor only reads them. The
//! root layout's total is [`crate::Plan::workspace_len`]; a reused
//! [`crate::Workspace`] makes the hot path allocation-free. Under the
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

/// What a [`Scheme`] fixes for one execute.
struct SchemeKnobs {
    /// A leaf gemm runs with all threads iff its global leaf index is
    /// at least this.
    threshold: u64,
    /// Additions and strip gemms at `depth` use all threads iff
    /// `depth < par_depth`.
    par_depth: usize,
    /// Children run as concurrent tasks with disjoint workspaces.
    concurrent: bool,
}

impl Scheme {
    /// The scheme as three values, for a recursion with `leaves` leaves
    /// on a pool of `threads` workers.
    fn knobs(self, leaves: u64, threads: u64) -> SchemeKnobs {
        let (threshold, par_depth, concurrent) = match self {
            Scheme::Sequential => (u64::MAX, 0, false),
            Scheme::Dfs => (0, usize::MAX, false),
            // Only the top level runs outside tasks.
            Scheme::Bfs => (u64::MAX, 1, true),
            Scheme::Hybrid => (leaves - leaves % threads.max(1), 1, true),
        };
        SchemeKnobs {
            threshold,
            par_depth,
            concurrent,
        }
    }

    /// True when recursive children run as independent tasks whose
    /// workspaces must be disjoint (BFS/HYBRID); Sequential/DFS run
    /// children one at a time and share a single child region.
    pub(crate) fn concurrent_children(self) -> bool {
        self.knobs(0, 1).concurrent
    }
}

/// Executor strategy: how each level's additions are evaluated and the
/// parallel scheme. Recursion depth is not part of it;
/// [`crate::Planner`] decides that per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Options {
    /// Addition-chain evaluation strategy.
    pub additions: AdditionMethod,
    /// Apply greedy length-2 common subexpression elimination.
    pub cse: bool,
    /// Parallel scheme.
    pub scheme: Scheme,
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
    /// Total scalar elements of the M_r product buffers checked out of
    /// the workspace.
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
    /// Total scalar elements of the M_r product buffers checked out of
    /// the workspace.
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
    /// Streaming reverse index: every variable a non-passthrough chain
    /// reads, in ascending [`Var`] order (blocks, then temps), with the
    /// `(chain, coef)` pairs that read it in ascending chain order. The
    /// fixed order keeps streamed sums reproducible.
    by_var: Vec<(Var, Vec<(usize, T)>)>,
}

fn typed_chain<T: Scalar>(chain: &[(Var, f64)]) -> Result<Vec<(Var, T)>, f64> {
    chain
        .iter()
        .map(|&(v, c)| T::from_coeff(c).map(|tc| (v, tc)).ok_or(c))
        .collect()
}

impl<T: Scalar> TypedSide<T> {
    fn try_from(plan: &SidePlan) -> Result<Self, f64> {
        let chains: Vec<Vec<(Var, T)>> = plan
            .chains
            .iter()
            .map(|c| typed_chain(c))
            .collect::<Result<_, _>>()?;
        let mut by_var: std::collections::BTreeMap<Var, Vec<(usize, T)>> = Default::default();
        for (r, chain) in chains.iter().enumerate() {
            if plan.passthrough[r].is_none() {
                for &(v, coef) in chain {
                    by_var.entry(v).or_default().push((r, coef));
                }
            }
        }
        Ok(TypedSide {
            temps: plan
                .temps
                .iter()
                .map(|t| typed_chain(t))
                .collect::<Result<_, _>>()?,
            chains,
            passthrough: plan
                .passthrough
                .iter()
                .map(|p| match p {
                    Some((b, c)) => T::from_coeff(*c).map(|tc| Some((*b, tc))).ok_or(*c),
                    None => Ok(None),
                })
                .collect::<Result<_, _>>()?,
            by_var: by_var.into_iter().collect(),
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
    /// One chain per output block `C_ij`: `[(r, coef)]`.
    wplan: Vec<Vec<(usize, T)>>,
    /// The W side transposed for streaming: `by_m[r] = [(ij, coef)]`,
    /// output blocks ascending.
    by_m: Vec<Vec<(usize, T)>>,
    pub(crate) rank: usize,
}

impl<T: Scalar> LevelPlan<T> {
    /// Build the level plan, injecting every coefficient through
    /// [`Scalar::from_coeff`]. `Err` carries the first coefficient the
    /// scalar type rejected — impossible for the float types, the
    /// designed failure mode for non-field semirings.
    pub(crate) fn try_new(dec: &Decomposition, cse: bool) -> Result<Self, f64> {
        const TOL: f64 = 1e-14;
        let wplan: Vec<Vec<(usize, T)>> = output_plan(&dec.w, TOL)
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(r, c)| T::from_coeff(c).map(|tc| (r, tc)).ok_or(c))
                    .collect::<Result<Vec<_>, f64>>()
            })
            .collect::<Result<_, _>>()?;
        let mut by_m = vec![Vec::new(); dec.rank()];
        for (ij, row) in wplan.iter().enumerate() {
            for &(r, coef) in row {
                by_m[r].push((ij, coef));
            }
        }
        Ok(LevelPlan {
            m: dec.m,
            k: dec.k,
            n: dec.n,
            uplan: TypedSide::try_from(&side_plan(&dec.u, cse, TOL))?,
            vplan: TypedSide::try_from(&side_plan(&dec.v, cse, TOL))?,
            wplan,
            by_m,
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

/// Workspace layout shared by every node at one recursion depth, built
/// once at plan time by [`NodeLayout::for_plan`].
pub(crate) struct NodeLayout {
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
    /// Leaves under one child (HYBRID numbers leaves globally).
    leaves_per_child: u64,
}

impl NodeLayout {
    /// One layout per non-leaf depth of a `shape` execution of
    /// `levels`: the list stops at the recursion's end or at the first
    /// depth whose core is smaller than the base case, below which
    /// every node is a single base-case gemm.
    pub(crate) fn for_plan<T: Scalar>(
        levels: &[LevelPlan<T>],
        scheme: Scheme,
        shape: (usize, usize, usize),
    ) -> Vec<NodeLayout> {
        let (mut p, mut q, mut r) = shape;
        let mut layouts = Vec::new();
        for (depth, lp) in levels.iter().enumerate() {
            let peel = PeelSplit::new(p, q, r, lp.m, lp.k, lp.n);
            if peel.core_is_empty() {
                break;
            }
            (p, q, r) = (peel.p1 / lp.m, peel.q1 / lp.k, peel.r1 / lp.n);
            let (s_size, t_size, m_size) = (p * q, q * r, p * r);
            let st_len = (0..lp.rank)
                .map(|i| {
                    let (u_pass, v_pass) = lp.passthrough(i);
                    (if u_pass { 0 } else { s_size }) + (if v_pass { 0 } else { t_size })
                })
                .sum();
            layouts.push(NodeLayout {
                peel,
                s_size,
                t_size,
                m_size,
                ut_len: lp.u_temp_count() * s_size,
                vt_len: lp.v_temp_count() * t_size,
                ms_len: lp.rank * m_size,
                st_len,
                child_len: 0,
                children_len: 0,
                leaves_per_child: levels[depth + 1..].iter().map(|l| l.rank as u64).product(),
            });
        }
        // Child regions nest, so size them from the deepest level up.
        let depth_count = layouts.len();
        let mut child_len = 0;
        for (layout, lp) in layouts.iter_mut().zip(&levels[..depth_count]).rev() {
            layout.child_len = child_len;
            layout.children_len = if scheme.concurrent_children() {
                lp.rank * child_len
            } else {
                child_len
            };
            child_len = layout.total();
        }
        layouts
    }

    /// Workspace elements of one node at this depth and its subtree.
    pub(crate) fn total(&self) -> usize {
        self.ut_len + self.vt_len + self.ms_len + self.st_len + self.children_len
    }
}

/// Run `plan` inside `ws`, which must hold at least
/// [`crate::Plan::workspace_len`] elements: the body of
/// [`crate::Plan::execute`], which passes its reused
/// [`crate::Workspace`].
pub(crate) fn execute_on<T: GemmScalar>(
    plan: &crate::Plan<T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    stats: Option<&ExecStats>,
    ws: &mut [T],
) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "output rows mismatch");
    assert_eq!(c.cols(), b.cols(), "output cols mismatch");
    let leaves: u64 = plan.levels.iter().map(|l| l.rank as u64).product();
    let knobs = plan
        .opts
        .scheme
        .knobs(leaves, rayon::current_num_threads() as u64);
    let ctx = Ctx {
        levels: &plan.levels,
        layouts: &plan.layouts,
        additions: plan.opts.additions,
        knobs,
        stats,
        // The tracing gate is read once per execute and carried as a
        // plain bool so recursion leaves never touch the atomic.
        trace: fmm_trace::enabled(),
    };
    run_node(&ctx, 0, 0, a, b, c, ws);
}

struct Ctx<'p, T> {
    levels: &'p [LevelPlan<T>],
    layouts: &'p [NodeLayout],
    additions: AdditionMethod,
    knobs: SchemeKnobs,
    stats: Option<&'p ExecStats>,
    trace: bool,
}

/// Selects the [`ExecStats`] counter a gemm increments.
type Counter = fn(&ExecStats) -> &std::sync::atomic::AtomicU64;

impl<T> Ctx<'_, T> {
    fn count(&self, field: Counter, amount: u64) {
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
    /// `c = a·b + beta·c` with all threads when `par`: one counted,
    /// traced gemm (a base-case leaf or a peel strip).
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        counter: Counter,
        kind: fmm_trace::SpanKind,
        par: bool,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        self.count(counter, 1);
        self.mark_thread();
        let flops = (a.rows() * a.cols() * b.cols()) as u64;
        let t_span = fmm_trace::now_if(self.trace);
        if par {
            par_gemm(T::ONE, a, b, beta, c)
        } else {
            gemm(T::ONE, a, b, beta, c)
        }
        fmm_trace::span_end(kind, t_span, flops);
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
    let Some(layout) = ctx.layouts.get(depth) else {
        // Recursion exhausted, or the core is smaller than the base
        // case: one classical product.
        let par = leaf_lo >= ctx.knobs.threshold;
        let kind = fmm_trace::SpanKind::BaseGemm;
        ctx.gemm(|s| &s.base_gemms, kind, par, a, b, T::ZERO, c);
        return;
    };
    let PeelSplit {
        p1,
        q1,
        r1,
        dp,
        dq,
        dr,
    } = layout.peel;
    debug_assert_eq!((a.rows(), a.cols(), b.cols()), (p1 + dp, q1 + dq, r1 + dr));

    // Fast multiplication on the divisible core, then the thin
    // dynamic-peeling fix-up products (§3.5). Sequential mutable
    // reborrows of C keep exclusive access sound.
    let core = c.reborrow().into_block(0, 0, p1, r1);
    fast_step(
        ctx,
        depth,
        leaf_lo,
        a.block(0, 0, p1, q1),
        b.block(0, 0, q1, r1),
        core,
        layout,
        ws,
    );

    // C_ij = Σ_k A_ik·B_kj over the 2×2×2 block split, skipping the core
    // product and empty strips: C11 += A12·B21, C12 = A11·B12 + A12·B22,
    // C21 = A21·B11 + A22·B21, C22 = A21·B12 + A22·B22.
    let par = depth < ctx.knobs.par_depth;
    let kind = fmm_trace::SpanKind::PeelGemm;
    let rows = [(0, p1), (p1, dp)];
    let inner = [(0, q1), (q1, dq)];
    let cols = [(0, r1), (r1, dr)];
    for (i, &(i0, ni)) in rows.iter().enumerate() {
        for (j, &(j0, nj)) in cols.iter().enumerate() {
            for (k, &(k0, nk)) in inner.iter().enumerate() {
                if ni == 0 || nj == 0 || nk == 0 || (i, j, k) == (0, 0, 0) {
                    continue;
                }
                let beta = if k == 0 { T::ZERO } else { T::ONE };
                ctx.gemm(
                    |s| &s.peel_gemms,
                    kind,
                    par,
                    a.block(i0, k0, ni, nk),
                    b.block(k0, j0, nk, nj),
                    beta,
                    c.reborrow().into_block(i0, j0, ni, nj),
                );
            }
        }
    }
}

/// Block `v` of a chain: an operand sub-block of `src` or a CSE
/// temporary.
fn var_block<'x, T: Scalar>(
    grid: &Grid,
    src: &MatRef<'x, T>,
    temps: &[MatRef<'x, T>],
    v: Var,
) -> MatRef<'x, T> {
    match v {
        Var::Block(bi) => grid.block(src, bi / grid.bc, bi % grid.bc),
        Var::Temp(t) => temps[t],
    }
}

/// `out = Σ coef·block` over `terms` with the pairwise (one `daxpy`
/// pass per term) or write-once (one pass over `out`) strategy; the
/// streaming strategy writes single chains once, like write-once.
fn eval_chain<T: Scalar>(
    mut out: MatMut<'_, T>,
    terms: &[(T, MatRef<'_, T>)],
    method: AdditionMethod,
    par: bool,
) {
    match (method, terms.split_first()) {
        (AdditionMethod::Pairwise, Some((&(c0, s0), rest))) => {
            if par {
                kernels::par_copy(out.reborrow(), s0);
                if c0 != T::ONE {
                    kernels::scale(out.reborrow(), c0);
                }
                for &(cf, sv) in rest {
                    kernels::par_axpy(out.reborrow(), cf, sv);
                }
            } else {
                kernels::copy_scaled(out.reborrow(), c0, s0);
                for &(cf, sv) in rest {
                    kernels::axpy(out.reborrow(), cf, sv);
                }
            }
        }
        _ if par => kernels::par_lincomb(out, T::ZERO, terms),
        _ => kernels::lincomb(out, T::ZERO, terms),
    }
}

/// `dst ← dst + coef·src` for every `(coef, dst)` target, reading `src`
/// once (§3.2, streaming).
fn stream<T: Scalar>(targets: &mut [(T, MatMut<'_, T>)], src: MatRef<'_, T>, par: bool) {
    if par {
        kernels::par_stream_update(targets, src);
    } else {
        kernels::stream_update(targets, src);
    }
}

/// Disjoint mutable borrows `(coef, &mut items[i])` for the `(i, coef)`
/// pairs of `targets`, whose indices must be strictly ascending.
fn pick_mut<'s, X, T: Copy>(items: &'s mut [X], targets: &[(usize, T)]) -> Vec<(T, &'s mut X)> {
    let mut picked = Vec::with_capacity(targets.len());
    let mut rest = items;
    let mut base = 0;
    for &(i, coef) in targets {
        let (item, tail) = std::mem::take(&mut rest)[i - base..]
            .split_first_mut()
            .expect("target index in range");
        picked.push((coef, item));
        rest = tail;
        base = i + 1;
    }
    picked
}

/// Evaluate the CSE temporaries of one side into workspace slices
/// carved from `buf`, returning a read view of each in evaluation
/// order (a temp may reference earlier temps).
fn eval_temps<'w, T: Scalar>(
    temps: &[Vec<(Var, T)>],
    grid: &Grid,
    src: &MatRef<'w, T>,
    method: AdditionMethod,
    par: bool,
    buf: &'w mut [T],
) -> Vec<MatRef<'w, T>> {
    let size = grid.rs * grid.cs;
    let mut done: Vec<MatRef<'w, T>> = Vec::with_capacity(temps.len());
    let mut rest = buf;
    for def in temps {
        let (cur, tail) = rest.split_at_mut(size);
        rest = tail;
        let terms: Vec<(T, MatRef<'_, T>)> = def
            .iter()
            .map(|&(v, coef)| (coef, var_block(grid, src, &done, v)))
            .collect();
        let out = MatMut::from_slice(&mut cur[..], grid.rs, grid.cs, grid.cs);
        eval_chain(out, &terms, method, par);
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

/// The `S_r` or `T_r` operand of child `r`: already formed (streaming
/// forms a whole side up front), or still to be formed by the child
/// into its workspace buffer (`None` for a passthrough).
enum Operand<'x, T> {
    Formed(MatRef<'x, T>, T),
    Pending(Option<&'x mut [T]>),
}

impl<'x, T: Scalar> Operand<'x, T> {
    /// `(view, scale)` of the operand: a borrowed scaled source block
    /// for singleton columns (§3.1), or a view of the buffer after
    /// evaluating chain `r` into it.
    #[allow(clippy::too_many_arguments)]
    fn form(
        self,
        plan: &TypedSide<T>,
        r: usize,
        grid: &Grid,
        src: &MatRef<'x, T>,
        temps: &[MatRef<'x, T>],
        method: AdditionMethod,
        par: bool,
    ) -> (MatRef<'x, T>, T) {
        let buf = match self {
            Operand::Formed(view, scale) => return (view, scale),
            Operand::Pending(buf) => buf,
        };
        if let Some((bi, scale)) = plan.passthrough[r] {
            return (var_block(grid, src, temps, Var::Block(bi)), scale);
        }
        let buf = buf.expect("non-passthrough operand requires a workspace buffer");
        let terms: Vec<(T, MatRef<'_, T>)> = plan.chains[r]
            .iter()
            .map(|&(v, coef)| (coef, var_block(grid, src, temps, v)))
            .collect();
        eval_chain(
            MatMut::from_slice(&mut buf[..], grid.rs, grid.cs, grid.cs),
            &terms,
            method,
            par,
        );
        (MatRef::from_slice(buf, grid.rs, grid.cs, grid.cs), T::ONE)
    }
}

/// Form all operands of one side with the streaming strategy: zero all
/// workspace temporaries, then stream each source block once, updating
/// every chain that references it, in the plan's fixed variable order.
fn form_side_streaming<'x, T: Scalar>(
    plan: &TypedSide<T>,
    grid: &Grid,
    src: &MatRef<'x, T>,
    temps: &[MatRef<'x, T>],
    par: bool,
    mut bufs: Vec<Option<&'x mut [T]>>,
) -> Vec<Operand<'x, T>> {
    // The workspace may hold stale values; streaming accumulates, so
    // every owned destination starts from exact zero.
    for buf in bufs.iter_mut().flatten() {
        buf.fill(T::ZERO);
    }
    for &(var, ref targets) in &plan.by_var {
        let mut refs: Vec<(T, MatMut<'_, T>)> = pick_mut(&mut bufs, targets)
            .into_iter()
            .map(|(coef, buf)| {
                let buf = buf
                    .as_mut()
                    .expect("streaming target must have a workspace buffer");
                (coef, MatMut::from_slice(buf, grid.rs, grid.cs, grid.cs))
            })
            .collect();
        stream(&mut refs, var_block(grid, src, temps, var), par);
    }
    bufs.into_iter()
        .map(|buf| match buf {
            Some(buf) => {
                Operand::Formed(MatRef::from_slice(buf, grid.rs, grid.cs, grid.cs), T::ONE)
            }
            // Passthroughs are borrowed by the child as usual.
            None => Operand::Pending(None),
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
    let par = depth < ctx.knobs.par_depth;
    let concurrent = ctx.knobs.concurrent;
    let method = ctx.additions;

    let (ut_buf, rest) = ws.split_at_mut(layout.ut_len);
    let (vt_buf, rest) = rest.split_at_mut(layout.vt_len);
    let (ms_buf, rest) = rest.split_at_mut(layout.ms_len);
    let (st_buf, child_buf) = rest.split_at_mut(layout.st_len);

    // CSE temporaries are shared across all chains of a side.
    let t_span =
        fmm_trace::now_if(ctx.trace && !(lp.uplan.temps.is_empty() && lp.vplan.temps.is_empty()));
    let utemps = eval_temps(&lp.uplan.temps, &ga, &a, method, par, ut_buf);
    let vtemps = eval_temps(&lp.vplan.temps, &gb, &b, method, par, vt_buf);
    fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, depth as u64);

    // Per-multiplication S/T operands: streaming forms each side in one
    // pass up front; the other methods leave forming to each child.
    let (sbufs, tbufs) = carve_st(lp, layout, st_buf);
    let per_child_adds = method != AdditionMethod::Streaming;
    let (s_ops, t_ops) = if per_child_adds {
        (
            sbufs.into_iter().map(Operand::Pending).collect(),
            tbufs.into_iter().map(Operand::Pending).collect(),
        )
    } else {
        let t_span = fmm_trace::now_if(ctx.trace);
        let ss = form_side_streaming(&lp.uplan, &ga, &a, &utemps, par, sbufs);
        let ts = form_side_streaming(&lp.vplan, &gb, &b, &vtemps, par, tbufs);
        fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, depth as u64);
        (ss, ts)
    };

    // M_r storage.
    let (sub_rows, sub_cols) = (ga.rs, gb.cs);
    ctx.count(|s| &s.temp_elements, layout.ms_len as u64);
    // Scales piped from singleton S/T columns into the W combination.
    let mut scales = vec![T::ONE; lp.rank];

    // Child r: form S_r/T_r (unless streamed), recurse into M_r, and
    // return the product of the singleton scales. Inside a BFS/HYBRID
    // task the additions are part of the task, hence sequential (§4.2).
    let child_par = par && !concurrent;
    let child = |r: usize, s: Operand<'_, T>, t: Operand<'_, T>, m: &mut [T], kid: &mut [T]| {
        let t_span = fmm_trace::now_if(ctx.trace && per_child_adds);
        let (sv, su) = s.form(&lp.uplan, r, &ga, &a, &utemps, method, child_par);
        let (tv, tu) = t.form(&lp.vplan, r, &gb, &b, &vtemps, method, child_par);
        fmm_trace::span_end(fmm_trace::SpanKind::Additions, t_span, r as u64);
        let m = MatMut::from_slice(m, sub_rows, sub_cols, sub_cols);
        let leaf = leaf_lo + r as u64 * layout.leaves_per_child;
        run_node(ctx, depth + 1, leaf, sv, tv, m, kid);
        su * tu
    };
    let work = ms_buf
        .chunks_mut(layout.m_size)
        .zip(s_ops.into_iter().zip(t_ops))
        .zip(scales.iter_mut())
        .enumerate();
    if concurrent {
        let child = &child;
        let kids = child_chunks(child_buf, layout.child_len, lp.rank);
        rayon::scope(|scope| {
            for ((r, ((m, (s, t)), scale)), kid) in work.zip(kids) {
                scope.spawn(move |_| *scale = child(r, s, t, m, kid));
            }
        });
    } else {
        for (r, ((m, (s, t)), scale)) in work {
            *scale = child(r, s, t, m, &mut child_buf[..layout.child_len]);
        }
    }

    // Combine: C_ij = Σ_r w_ijr · scale_r · M_r.
    let ms: Vec<MatRef<'_, T>> = ms_buf
        .chunks(layout.m_size)
        .map(|chunk| MatRef::from_slice(chunk, sub_rows, sub_cols, sub_cols))
        .collect();
    let t_span = fmm_trace::now_if(ctx.trace);
    combine_outputs(lp, &ms, &scales, c, method, par);
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
    lp: &LevelPlan<T>,
    ms: &[MatRef<'_, T>],
    scales: &[T],
    c: MatMut<'_, T>,
    method: AdditionMethod,
    par: bool,
) {
    let gc = Grid::new(c.rows(), c.cols(), lp.m, lp.n);
    let mut cblocks = gc.blocks_mut(c);
    if method == AdditionMethod::Streaming {
        for cb in cblocks.iter_mut() {
            cb.fill(T::ZERO);
        }
        // Read each M_r once, updating every output block that uses it.
        for (r, targets) in lp.by_m.iter().enumerate() {
            let mut refs: Vec<(T, MatMut<'_, T>)> = pick_mut(&mut cblocks, targets)
                .into_iter()
                .map(|(coef, cb)| (coef * scales[r], cb.reborrow()))
                .collect();
            stream(&mut refs, ms[r], par);
        }
        return;
    }
    for (cb, chain) in cblocks.into_iter().zip(&lp.wplan) {
        let terms: Vec<(T, MatRef<'_, T>)> = chain
            .iter()
            .map(|&(r, coef)| (coef * scales[r], ms[r]))
            .collect();
        eval_chain(cb, &terms, method, par);
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
