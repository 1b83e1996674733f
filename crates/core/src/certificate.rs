//! Static plan audits: re-derive what a plan will do from its
//! recursion tree and cross-check the planner's precomputed values.
//!
//! [`PlanCertificate`] is computed by walking the level schedule the
//! same way the executor recurses — peel split per level, one classical
//! gemm per exhausted leaf, §3.5 fix-up strips per peeled node — but in
//! a *second, independent implementation* of the arithmetic: the
//! executor carves its workspace from per-depth `NodeLayout`s built at
//! plan time, the certificate re-derives every region size from the
//! level metadata alone. `Planner::plan` cross-checks the two with a `debug_assert`,
//! so a divergence between sizing and execution is caught at plan time
//! rather than as a slice-carving panic (or silent corruption) mid
//! multiply.

use crate::executor::{LevelPlan, Scheme};
use fmm_matrix::partition::PeelSplit;
use fmm_matrix::Scalar;

/// Statically derived facts about a [`crate::Plan`].
///
/// All counts are exact for the plan's shape and options — the
/// executor's runtime statistics ([`crate::ExecStatsSnapshot`]) must
/// match them gemm for gemm, which the integration tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCertificate {
    /// Problem shape the plan was built for.
    pub shape: (usize, usize, usize),
    /// Recursion depth (number of fast levels).
    pub depth: usize,
    /// Product of the per-level ranks: the leaf count of an unpeeled
    /// recursion tree (Π_l R_l).
    pub composed_rank: u64,
    /// Exact number of classical base-case gemms the executor will
    /// issue. Equals `composed_rank` when every level divides evenly;
    /// smaller when empty cores collapse subtrees into single gemms.
    pub base_gemms: u64,
    /// Exact number of §3.5 dynamic-peeling fix-up gemms.
    pub peel_gemms: u64,
    /// Workspace temporaries the executor will account: the elements
    /// of every M_r product buffer.
    pub temp_elements: u64,
    /// Exact workspace footprint in scalar elements — must equal
    /// [`crate::Plan::workspace_len`].
    pub workspace_len: usize,
    /// Multiply–add flops (`2·p·q·r` per gemm) summed over every
    /// base-case and peel gemm. Linear-combination work (the O(n²)
    /// additions) is excluded: it depends on the addition method and is
    /// asymptotically dominated.
    pub gemm_flops: u64,
}

/// Counts accumulated by one subtree walk.
#[derive(Clone, Copy, Default)]
struct Counts {
    base_gemms: u64,
    peel_gemms: u64,
    temp_elements: u64,
    gemm_flops: u64,
    workspace: usize,
}

impl Counts {
    fn leaf(p: usize, q: usize, r: usize) -> Counts {
        Counts {
            base_gemms: 1,
            gemm_flops: 2 * (p * q * r) as u64,
            ..Counts::default()
        }
    }

    fn strip(&mut self, p: usize, q: usize, r: usize) {
        self.peel_gemms += 1;
        self.gemm_flops += 2 * (p * q * r) as u64;
    }
}

/// Walk the subtree rooted at `depth` for a `p × q × r` problem.
fn walk<T: Scalar>(
    levels: &[LevelPlan<T>],
    scheme: Scheme,
    depth: usize,
    p: usize,
    q: usize,
    r: usize,
) -> Counts {
    let Some(lp) = levels.get(depth) else {
        return Counts::leaf(p, q, r);
    };
    let peel = PeelSplit::new(p, q, r, lp.m, lp.k, lp.n);
    if peel.core_is_empty() {
        return Counts::leaf(p, q, r);
    }
    let (p1, q1, r1) = (peel.p1, peel.q1, peel.r1);
    let (dp, dq, dr) = (peel.dp, peel.dq, peel.dr);
    let (cp, cq, cr) = (p1 / lp.m, q1 / lp.k, r1 / lp.n);
    let rank = lp.rank as u64;

    let child = walk(levels, scheme, depth + 1, cp, cq, cr);
    let mut acc = Counts {
        base_gemms: rank * child.base_gemms,
        peel_gemms: rank * child.peel_gemms,
        temp_elements: rank * child.temp_elements + (lp.rank * cp * cr) as u64,
        gemm_flops: rank * child.gemm_flops,
        workspace: 0,
    };

    // Fix-up strips in run_node order: C11 += A12·B21, C12, C21, C22.
    if dq > 0 {
        acc.strip(p1, dq, r1);
    }
    if dr > 0 {
        acc.strip(p1, q1, dr);
        if dq > 0 {
            acc.strip(p1, dq, dr);
        }
    }
    if dp > 0 {
        acc.strip(dp, q1, r1);
        if dq > 0 {
            acc.strip(dp, dq, r1);
        }
    }
    if dp > 0 && dr > 0 {
        acc.strip(dp, q1, dr);
        if dq > 0 {
            acc.strip(dp, dq, dr);
        }
    }

    // Workspace regions of this node, re-derived from level metadata:
    // CSE temporaries, per-multiplication S/T operands (skipping
    // passthroughs), the rank M_r products, and the child region —
    // replicated per child when children run concurrently.
    let (s_size, t_size, m_size) = (cp * cq, cq * cr, cp * cr);
    let ut_len = lp.u_temp_count() * s_size;
    let vt_len = lp.v_temp_count() * t_size;
    let st_len: usize = (0..lp.rank)
        .map(|i| {
            let (u_pass, v_pass) = lp.passthrough(i);
            (if u_pass { 0 } else { s_size }) + (if v_pass { 0 } else { t_size })
        })
        .sum();
    let children = if scheme.concurrent_children() {
        lp.rank * child.workspace
    } else {
        child.workspace
    };
    acc.workspace = ut_len + vt_len + lp.rank * m_size + st_len + children;
    acc
}

/// Compute the certificate for a level schedule on `shape` under
/// `scheme`. This is the backing implementation of
/// [`crate::Plan::certificate`].
pub(crate) fn derive_certificate<T: Scalar>(
    levels: &[LevelPlan<T>],
    scheme: Scheme,
    shape: (usize, usize, usize),
) -> PlanCertificate {
    let (p, q, r) = shape;
    let counts = walk(levels, scheme, 0, p, q, r);
    PlanCertificate {
        shape,
        depth: levels.len(),
        composed_rank: levels.iter().map(|l| l.rank as u64).product(),
        base_gemms: counts.base_gemms,
        peel_gemms: counts.peel_gemms,
        temp_elements: counts.temp_elements,
        workspace_len: counts.workspace,
        gemm_flops: counts.gemm_flops,
    }
}
