//! Seeded flip-graph exploration: parallel random walks with greedy
//! reductions, visited-set dedup, plateau kicks, and restarts.
//!
//! Each walker is an independent random walk over [`IntScheme`] states,
//! deterministic given `(seed, walker index)`:
//!
//! * start from the classical scheme and apply a random [`flip`] per
//!   step (rejection-sampling term pairs that share a factor up to
//!   sign);
//! * after every flip, apply reductions greedily
//!   ([`flip::reduce_touching`]) — the only way rank drops;
//! * a plateau move that lands on an already-visited canonical form
//!   ([`IntScheme::canonical_hash`]) is undone and re-drawn (up to a
//!   small cap, so a fully explored neighborhood cannot livelock the
//!   walk);
//! * after `kick_after` steps without a rank drop, a random [`split`](crate::flip::split)
//!   (rank +1) kicks the walk out of its current flip component,
//!   bounded by `headroom` above the attempt's best rank;
//! * after `restart_after` steps without improving the attempt's best
//!   rank, the walk restarts from the classical scheme on a fresh
//!   stretch of the same RNG stream.
//!
//! Walkers run in parallel on the `fmm-runtime` work-stealing pool.
//! Reproducibility across pool widths and scheduling orders is exact:
//! no walker's outcome depends on any other walker's *progress* — the
//! only cross-walker channel is a monotone "lowest walker index that
//! reached the goal" register, and a walker may abort early only when
//! a *lower-indexed* walker has already reached the goal, in which case
//! the aborting walker can never be the selected result. The selected
//! scheme is therefore a pure function of `(seed, options)`.

use crate::flip::{self, FlipMove, Slot};
use crate::scheme::IntScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tuning knobs for a flip-graph exploration run.
#[derive(Clone, Debug)]
pub struct FlipOptions {
    /// Master seed; walker `w` derives its stream from `(seed, w)`.
    pub seed: u64,
    /// Stop a walker once its scheme's rank is ≤ this.
    pub goal: usize,
    /// Number of parallel walkers.
    pub walkers: usize,
    /// Per-walker step budget (flip attempts across all restarts).
    pub max_steps: u64,
    /// Steps without improving the attempt's best rank before the
    /// walker restarts from the classical scheme.
    pub restart_after: u64,
    /// Steps without a rank drop before a split kick is attempted.
    pub kick_after: u64,
    /// How far above the attempt's best rank kicks may climb.
    pub headroom: usize,
    /// Reject moves that push any factor entry above this bound.
    pub coeff_limit: i32,
    /// Stop inserting into the visited set beyond this many entries
    /// (the walk continues; dedup just stops growing).
    pub visited_cap: usize,
    /// Start (and restart) the walk from this scheme instead of the
    /// classical one. Warm starts from a known low-rank scheme are how
    /// the flip-graph literature descends below what cold walks reach
    /// — e.g. hunting ⟨3,3,3⟩:23 from the rank-24 direct sum
    /// ⟨1,3,3⟩ ⊕ ⟨2,3,3⟩ instead of the rank-27 classical start. Must
    /// match the explored base dimensions.
    pub start: Option<IntScheme>,
}

impl Default for FlipOptions {
    fn default() -> Self {
        // The recipe that discovers ⟨2,3,3⟩:15 from classical on this
        // move set: ±1 coefficients keep every factor in the share-rich
        // sparse regime (limit 2 walks stall one rank higher), frequent
        // kicks with iterated-local-search restarts hop basins without
        // abandoning low-rank incumbents.
        FlipOptions {
            seed: 0,
            goal: 0,
            walkers: 4,
            max_steps: 2_000_000,
            restart_after: 300_000,
            kick_after: 200,
            headroom: 3,
            coeff_limit: 1,
            visited_cap: 1 << 21,
            start: None,
        }
    }
}

/// Outcome of one walker's walk.
#[derive(Clone, Debug)]
pub struct WalkerOutcome {
    /// Best (lowest-rank) valid scheme the walker saw.
    pub best: IntScheme,
    /// Whether `best.rank() <= goal`.
    pub reached_goal: bool,
    /// Flip attempts consumed.
    pub steps: u64,
    /// Restarts taken.
    pub restarts: u64,
    /// Plateau moves undone because their canonical form was already
    /// visited.
    pub revisits: u64,
    /// True when the walker stopped early because a lower-indexed
    /// walker had already reached the goal.
    pub aborted: bool,
}

/// Result of [`explore`]: the deterministically selected best scheme
/// plus provenance for reproduction.
#[derive(Clone, Debug)]
pub struct FlipReport {
    /// The selected scheme (lowest rank; ties broken by walker index).
    pub best: IntScheme,
    /// `best.rank() <= goal`.
    pub reached_goal: bool,
    /// Index of the walker that produced `best`.
    pub walker: usize,
    /// That walker's consumed steps.
    pub steps: u64,
    /// That walker's restarts.
    pub restarts: u64,
    /// That walker's visited-set dedup hits.
    pub revisits: u64,
}

/// How many consecutive visited-state rejections a walker tolerates
/// before accepting a revisit anyway (prevents livelock in a fully
/// explored flip component).
const REVISIT_CAP: u32 = 24;

/// How many sampled flip-edge orientations to try before declaring
/// the state frozen (every draw rejected by the coefficient bound).
const FLIP_DRAWS: u32 = 512;

/// Steps between polls of the cross-walker early-stop register.
const POLL_MASK: u64 = 0xfff;

fn walker_rng(seed: u64, walker: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ (walker as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x5851_f42d_4c95_7f2d),
    )
}

/// Try a random split; on success, return the index of the term that
/// was split (its twin sits at the new last index).
fn random_split(rng: &mut StdRng, scheme: &mut IntScheme, limit: i32) -> Option<usize> {
    for _ in 0..32 {
        let r = rng.gen_range(0..scheme.rank());
        let slot = Slot::ALL[rng.gen_range(0..3usize)];
        let len = match slot {
            Slot::A => scheme.m * scheme.k,
            Slot::B => scheme.k * scheme.n,
            Slot::C => scheme.m * scheme.n,
        };
        // Sparse split vectors (one or two ±1 entries): dense splits
        // push the walk into generic factors that share nothing with
        // anyone, starving the flip graph of edges. Sparsity is where
        // the collisions — and the literature's target schemes — live.
        let mut d = vec![0i32; len];
        d[rng.gen_range(0..len)] = if rng.gen_bool(0.5) { 1 } else { -1 };
        if rng.gen_bool(0.25) {
            d[rng.gen_range(0..len)] = if rng.gen_bool(0.5) { 1 } else { -1 };
        }
        if flip::split(scheme, r, slot, &d, limit) {
            return Some(r);
        }
    }
    None
}

/// Plus-transition kick: split a random term, then force a flip
/// *through one of the two split halves* before re-reducing. The split
/// alone is useless — its halves still share two slots, so a bare
/// reduction would merge them straight back; the interposed flip is
/// what carries the walk into a different flip component (possibly one
/// rank up). Returns false (scheme unchanged up to a re-merge) when no
/// split or no escaping flip applies.
fn kick(rng: &mut StdRng, scheme: &mut IntScheme, limit: i32) -> bool {
    let Some(r) = random_split(rng, scheme, limit) else {
        return false;
    };
    let twin = scheme.rank() - 1;
    for _ in 0..64 {
        let pivot = if rng.gen_bool(0.5) { r } else { twin };
        let mut other = rng.gen_range(0..scheme.rank() - 1);
        if other >= pivot {
            other += 1;
        }
        let (p, q) = if rng.gen_bool(0.5) {
            (pivot, other)
        } else {
            (other, pivot)
        };
        let mv = FlipMove {
            r: p,
            s: q,
            slot: Slot::ALL[rng.gen_range(0..3usize)],
            variant: rng.gen_bool(0.5),
            negate: rng.gen_bool(0.5),
        };
        if flip::apply_flip(scheme, mv, limit).is_some() {
            flip::reduce_touching(scheme, limit, &[p, q, r, twin]);
            return true;
        }
    }
    // No flip applied: fold the split back (the halves still share two
    // slots, so this merges them) and report failure.
    flip::reduce_touching(scheme, limit, &[r, twin]);
    false
}

/// One walker's full deterministic walk. `min_reacher` carries the
/// lowest walker index that has reached the goal so far (for early
/// abort of walkers that can no longer be selected).
fn walk(
    m: usize,
    k: usize,
    n: usize,
    walker: usize,
    opts: &FlipOptions,
    min_reacher: &AtomicUsize,
) -> WalkerOutcome {
    let mut rng = walker_rng(opts.seed, walker);
    let fresh = |visited: &mut HashSet<u64>| {
        visited.clear();
        let mut s = match &opts.start {
            Some(start) => start.clone(),
            None => IntScheme::classical(m, k, n),
        };
        flip::reduce_all(&mut s, opts.coeff_limit);
        visited.insert(s.canonical_hash());
        s
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut cur = fresh(&mut visited);
    let mut best = cur.clone();
    let mut attempt_best = cur.rank();
    let mut steps = 0u64;
    let mut restarts = 0u64;
    let mut revisits = 0u64;
    let mut since_improve = 0u64;
    let mut since_drop = 0u64;
    let mut revisit_streak = 0u32;
    let mut aborted = false;
    let stats = std::env::var_os("FMM_FLIP_STATS").is_some();
    let mut kicks = 0u64;
    let mut freezes = 0u64;
    // Descent-oracle dirty set: `None` = a full pair scan is due;
    // `Some(terms)` = only flips involving these terms can have become
    // reducing since the last scan (empty ⇒ the scan is a no-op).
    // Restricted scans miss descents where the changed term is only
    // the passive merge partner, so a full scan is forced periodically.
    let mut dirty: Option<Vec<usize>> = None;
    let mut since_full = 0u32;
    const FULL_SCAN_PERIOD: u32 = 1024;

    while steps < opts.max_steps && best.rank() > opts.goal {
        if stats && steps.is_multiple_of(100_000) && steps > 0 {
            eprintln!(
                "[w{walker}] step {steps}: rank {} attempt_best {attempt_best} best {} visited {} kicks {kicks} freezes {freezes} revisits {revisits}",
                cur.rank(),
                best.rank(),
                visited.len()
            );
        }
        if steps & POLL_MASK == 0 && min_reacher.load(Ordering::Relaxed) < walker {
            aborted = true;
            break;
        }
        steps += 1;
        since_improve += 1;
        since_drop += 1;

        if since_improve > opts.restart_after {
            restarts += 1;
            // Iterated local search: odd restarts re-launch from the
            // best scheme found so far (the RNG has advanced, so the
            // trajectory out of it is new), even restarts go back to
            // classical for diversification. Pure classical restarts
            // throw away hard-won low-rank incumbents; pure best
            // restarts over-exploit one basin.
            if restarts % 2 == 1 {
                visited.clear();
                cur = best.clone();
                visited.insert(cur.canonical_hash());
            } else {
                cur = fresh(&mut visited);
            }
            attempt_best = cur.rank();
            since_improve = 0;
            since_drop = 0;
            dirty = None;
            continue;
        }
        if since_drop > opts.kick_after && cur.rank() < attempt_best + opts.headroom {
            let kicked = kick(&mut rng, &mut cur, opts.coeff_limit);
            // Even a failed kick splits and re-merges, which may permute
            // terms; either way the oracle must rescan from scratch.
            dirty = None;
            if kicked {
                kicks += 1;
                since_drop = 0;
                if visited.len() < opts.visited_cap {
                    visited.insert(cur.canonical_hash());
                }
                continue;
            }
        }

        // Descent first: if any single flip enables a reduction
        // somewhere in the scheme, take it deterministically. The
        // random walk below only has to carry the scheme *between*
        // descent opportunities, not find them by luck.
        since_full += 1;
        if since_full >= FULL_SCAN_PERIOD {
            dirty = None;
        }
        if dirty.is_none() {
            since_full = 0;
        }
        let found = flip::find_reducing_flip_among(&cur, opts.coeff_limit, dirty.as_deref());
        if found.is_none() {
            // Current state is covered: nothing dirty until it changes.
            dirty = Some(Vec::new());
        }
        if let Some(mv) = found {
            if let Some(undo) = flip::apply_flip(&mut cur, mv, opts.coeff_limit) {
                let removed = flip::reduce_touching(&mut cur, opts.coeff_limit, &[mv.r, mv.s]);
                dirty = None;
                if removed > 0 {
                    since_drop = 0;
                    revisit_streak = 0;
                    if visited.len() < opts.visited_cap {
                        visited.insert(cur.canonical_hash());
                    }
                    if cur.rank() < attempt_best {
                        attempt_best = cur.rank();
                        since_improve = 0;
                    }
                    if cur.rank() < best.rank() {
                        best = cur.clone();
                        debug_assert!(best.is_valid());
                        if best.rank() <= opts.goal {
                            min_reacher.fetch_min(walker, Ordering::Relaxed);
                        }
                    }
                    continue;
                }
                // Oracle misfire (should not happen): revert, and do
                // not rescan this state — the oracle would just find
                // the same move again and spin.
                flip::undo_flip(&mut cur, undo);
                dirty = Some(Vec::new());
            }
        }

        // Sample uniformly over the applicable flip *edges* (term
        // pairs sharing a factor in some slot) rather than blind
        // (r, s, slot) draws — at sparse low-rank states almost all
        // blind draws share nothing, and it is exactly those states
        // where the walk needs to keep moving. An orientation may
        // still be rejected by the coefficient bound, hence the retry.
        let pairs = flip::share_pairs(&cur);
        let mut applied = None;
        for _ in 0..FLIP_DRAWS {
            if pairs.is_empty() {
                break;
            }
            let (p, q, slot) = pairs[rng.gen_range(0..pairs.len())];
            let (r, s) = if rng.gen_bool(0.5) { (p, q) } else { (q, p) };
            let mv = FlipMove {
                r,
                s,
                slot,
                variant: rng.gen_bool(0.5),
                negate: rng.gen_bool(0.5),
            };
            if let Some(undo) = flip::apply_flip(&mut cur, mv, opts.coeff_limit) {
                applied = Some((mv, undo));
                break;
            }
        }
        let Some((mv, undo)) = applied else {
            // No in-bound flip exists: the component is frozen. Kick
            // out if headroom allows; only when even that fails does
            // the walker burn a restart.
            freezes += 1;
            if cur.rank() < attempt_best + opts.headroom
                && kick(&mut rng, &mut cur, opts.coeff_limit)
            {
                kicks += 1;
                since_drop = 0;
                continue;
            }
            since_improve = opts.restart_after;
            continue;
        };

        let removed = flip::reduce_touching(&mut cur, opts.coeff_limit, &[mv.r, mv.s]);
        if removed == 0 {
            // Sparsity bias: flips tend to densify factors over ℤ, and
            // dense generic factors share nothing with anyone, starving
            // the walk of both flips and reductions. Keep the walk in
            // the share-rich sparse regime: accept denser states only
            // with probability 1/(1+Δnnz).
            let before = undo.r.1.nnz() + undo.s.1.nnz();
            let after = cur.terms[mv.r].nnz() + cur.terms[mv.s].nnz();
            if after > before && rng.gen_range(0..after - before + 1) != 0 {
                flip::undo_flip(&mut cur, undo);
                continue;
            }
            // Plateau move: dedup against the visited set.
            let h = cur.canonical_hash();
            if visited.contains(&h) {
                revisits += 1;
                if revisit_streak < REVISIT_CAP {
                    revisit_streak += 1;
                    flip::undo_flip(&mut cur, undo);
                    continue;
                }
            }
            revisit_streak = 0;
            if visited.len() < opts.visited_cap {
                visited.insert(h);
            }
            dirty = Some(vec![mv.r, mv.s]);
            continue;
        }

        // Rank dropped.
        dirty = None;
        since_drop = 0;
        revisit_streak = 0;
        if visited.len() < opts.visited_cap {
            visited.insert(cur.canonical_hash());
        }
        if cur.rank() < attempt_best {
            attempt_best = cur.rank();
            since_improve = 0;
        }
        if cur.rank() < best.rank() {
            best = cur.clone();
            debug_assert!(best.is_valid());
            if best.rank() <= opts.goal {
                min_reacher.fetch_min(walker, Ordering::Relaxed);
            }
        }
    }

    WalkerOutcome {
        reached_goal: best.rank() <= opts.goal,
        best,
        steps,
        restarts,
        revisits,
        aborted,
    }
}

/// Run `opts.walkers` parallel walkers over the `⟨m,k,n⟩` flip graph
/// and deterministically select the best outcome: the lowest rank,
/// ties broken by lowest walker index (see the module docs for why the
/// early-abort channel cannot perturb this selection).
///
/// The returned scheme is always a valid ℤ decomposition of the matmul
/// tensor — walkers only ever hold valid states — but callers emitting
/// it into the catalog must still pass it through
/// [`fmm_verify::certify_exact`]; see `discover-flip`.
pub fn explore(m: usize, k: usize, n: usize, opts: &FlipOptions) -> FlipReport {
    assert!(opts.walkers > 0, "at least one walker");
    assert!(opts.goal >= 1, "goal rank must be positive");
    let min_reacher = AtomicUsize::new(usize::MAX);
    let mut outcomes: Vec<Option<WalkerOutcome>> = (0..opts.walkers).map(|_| None).collect();
    fmm_runtime::scope(|s| {
        for (walker, slot) in outcomes.iter_mut().enumerate() {
            let min_reacher = &min_reacher;
            s.spawn(move |_| {
                *slot = Some(walk(m, k, n, walker, opts, min_reacher));
            });
        }
    });
    let outcomes: Vec<WalkerOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
    let pick = outcomes
        .iter()
        .enumerate()
        .min_by_key(|(i, o)| (o.best.rank(), *i))
        .map(|(i, _)| i)
        .expect("walkers > 0");
    let o = outcomes[pick].clone();
    FlipReport {
        best: o.best,
        reached_goal: o.reached_goal,
        walker: pick,
        steps: o.steps,
        restarts: o.restarts,
        revisits: o.revisits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_verify::Certify;

    fn quick_opts(goal: usize, seed: u64) -> FlipOptions {
        FlipOptions {
            seed,
            goal,
            walkers: 2,
            max_steps: 60_000,
            restart_after: 20_000,
            ..FlipOptions::default()
        }
    }

    #[test]
    fn rediscovers_strassen_rank_7_from_classical() {
        let report = explore(2, 2, 2, &quick_opts(7, 1));
        assert!(report.reached_goal, "best rank {}", report.best.rank());
        assert_eq!(report.best.rank(), 7);
        assert!(report.best.is_valid());
        report.best.to_decomposition().certify().unwrap();
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let a = explore(2, 2, 2, &quick_opts(7, 42));
        let b = explore(2, 2, 2, &quick_opts(7, 42));
        assert_eq!(a.best, b.best);
        assert_eq!(
            (a.walker, a.steps, a.restarts),
            (b.walker, b.steps, b.restarts)
        );
        let c = explore(2, 2, 2, &quick_opts(7, 43));
        // A different seed walks a different path (the schemes may tie
        // at rank 7, but the trajectories differ).
        assert!(c.reached_goal);
        assert!(a.steps != c.steps || a.best != c.best);
    }

    #[test]
    fn unreachable_goal_reports_best_effort() {
        // Rank 1 for ⟨2,2,2⟩ does not exist: the walk must terminate at
        // its budget with a valid best-effort scheme.
        let opts = FlipOptions {
            seed: 7,
            goal: 1,
            walkers: 1,
            max_steps: 3_000,
            restart_after: 1_000,
            ..FlipOptions::default()
        };
        let report = explore(2, 2, 2, &opts);
        assert!(!report.reached_goal);
        assert!(report.best.is_valid());
        assert!(report.best.rank() <= 8);
    }
}
