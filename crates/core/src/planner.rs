//! Plan/execute separation for fast matrix multiplication.
//!
//! The paper's central practical lesson (§3.4, §4) is that a fast
//! algorithm only pays when the recursion depth, parallel scheme and
//! addition strategy are chosen *for the machine and the problem
//! shape*. [`Planner`] is where those choices are made — once, up
//! front, optionally driven by a measured [`GemmProfile`] and a catalog
//! of candidate decompositions — and [`Plan`] is the immutable result:
//! per-level addition plans plus the exact workspace layout of every
//! recursion depth, computed once at plan time.
//! Executing a plan against a reusable [`Workspace`] then allocates
//! nothing (the FFTW plan/execute and BLIS preallocated-packing-buffer
//! discipline), which is what makes the batched front door
//! [`Plan::execute_batch`] cheap enough to serve many small multiplies.

use crate::certificate::PlanCertificate;
use crate::cutoff::GemmProfile;
use crate::executor::{execute_on, ExecStats, ExecStatsSnapshot, LevelPlan, NodeLayout, Options};
use crate::workspace::Workspace;
use fmm_gemm::GemmScalar;
use fmm_matrix::DenseMatrix;
use fmm_tensor::Decomposition;

/// Why [`Planner::plan`] could not produce a [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No problem shape was given ([`Planner::shape`] is mandatory —
    /// the workspace footprint depends on it).
    MissingShape,
    /// No algorithm, schedule, or auto-selection catalog was given.
    MissingAlgorithm,
    /// [`Planner::auto_algorithm`] received an empty candidate list.
    EmptyCatalog,
    /// An explicit [`Planner::steps`] conflicts with the schedule
    /// length, which is authoritative for schedules.
    StepsConflict {
        /// The schedule length.
        schedule_len: usize,
        /// The conflicting explicit steps value.
        steps: usize,
    },
    /// A decomposition coefficient is not representable in the target
    /// element type ([`fmm_matrix::Scalar::from_coeff`] returned `None`). Cannot
    /// happen for the float types; this is the designed rejection path
    /// for non-field semiring backends fed fractional APA coefficients.
    UnrepresentableCoefficient {
        /// The offending coefficient, as stored in the `.alg` data.
        value: f64,
        /// The scheme it came from, e.g. `"<3,2,2> rank 10"` — APA
        /// catalogs mix exact and border schemes, so the failing one
        /// must be named for the error to be self-diagnosing.
        scheme: String,
        /// The element type that rejected it.
        dtype: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MissingShape => write!(f, "Planner::shape(m, k, n) was not called"),
            PlanError::MissingAlgorithm => write!(
                f,
                "no algorithm given: call algorithm(), schedule() or auto_algorithm()"
            ),
            PlanError::EmptyCatalog => write!(f, "auto_algorithm received an empty candidate list"),
            PlanError::StepsConflict {
                schedule_len,
                steps,
            } => write!(
                f,
                "steps({steps}) conflicts with schedule length {schedule_len}; \
                 the schedule length is authoritative"
            ),
            PlanError::UnrepresentableCoefficient {
                value,
                scheme,
                dtype,
            } => write!(
                f,
                "coefficient {value} of scheme {scheme} is not representable in {dtype}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Cap on the profile-recommended recursion depth.
const MAX_STEPS: usize = 4;

#[derive(Clone)]
enum AlgChoice {
    None,
    /// One decomposition applied uniformly for the chosen depth.
    Single(Decomposition),
    /// One decomposition per recursion level; the length is the depth.
    Schedule(Vec<Decomposition>),
    /// Pick the best of these candidates for the shape and profile.
    Auto(Vec<Decomposition>),
}

/// Builder that turns machine and problem knowledge into a [`Plan`].
///
/// With a real fast algorithm (e.g. `fmm_algo::strassen()`), pass a
/// measured [`GemmProfile`] via [`Planner::profile`] and let the §3.4
/// rule pick the depth; here an explicit depth keeps the example
/// self-contained (the classical decomposition has zero speedup, so
/// the rule would — correctly — plan depth 0 for it):
///
/// ```
/// use fmm_core::{Planner, Workspace};
/// use fmm_matrix::Matrix;
///
/// let dec = fmm_tensor::compose::classical(2, 2, 2); // any Decomposition
/// let plan = Planner::new()
///     .shape(128, 128, 128)
///     .algorithm(&dec)
///     .steps(2) // or .profile(GemmProfile::measure(..)) to auto-pick
///     .plan()
///     .unwrap();
/// assert_eq!(plan.depth(), 2);
/// assert!(plan.workspace_len() > 0);
/// let mut ws = Workspace::for_plan(&plan);
/// let a = Matrix::identity(128);
/// let b = Matrix::identity(128);
/// let mut c = Matrix::zeros(128, 128);
/// plan.execute(&a, &b, &mut c, &mut ws); // plan once, execute many
/// ```
///
/// A configured planner without a shape is a reusable template:
/// [`crate::FmmEngine`] keeps one and plans `template.clone().shape(..)`
/// for every new problem shape.
#[derive(Clone)]
pub struct Planner {
    shape: Option<(usize, usize, usize)>,
    alg: AlgChoice,
    steps: Option<usize>,
    profile: Option<GemmProfile>,
    opts: Options,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner with the executor defaults ([`Options::default`]:
    /// write-once additions, sequential scheme, no CSE).
    #[must_use]
    pub fn new() -> Self {
        Planner {
            shape: None,
            alg: AlgChoice::None,
            steps: None,
            profile: None,
            opts: Options::default(),
        }
    }

    /// Problem shape `C(m×n) = A(m×k) · B(k×n)`. Mandatory: the plan's
    /// workspace footprint is exact for this shape.
    #[must_use]
    pub fn shape(mut self, m: usize, k: usize, n: usize) -> Self {
        self.shape = Some((m, k, n));
        self
    }

    /// Use one decomposition uniformly. Depth comes from
    /// [`Planner::steps`] when set, otherwise from
    /// [`GemmProfile::recommended_steps`] when a profile is present,
    /// otherwise 1.
    #[must_use]
    pub fn algorithm(mut self, dec: &Decomposition) -> Self {
        self.alg = AlgChoice::Single(dec.clone());
        self
    }

    /// Use a composed schedule: one decomposition per recursion level
    /// (§5.2). The schedule length is the depth.
    #[must_use]
    pub fn schedule(mut self, schedule: &[&Decomposition]) -> Self {
        self.alg = AlgChoice::Schedule(schedule.iter().map(|d| (*d).clone()).collect());
        self
    }

    /// Pick the best candidate for this shape: for each candidate the
    /// planner computes the recursion depth the §3.4 cutoff rule
    /// approves (via the profile when present) and scores it by its
    /// compounded per-step multiplication speedup
    /// `(1 + speedup)^steps`. A flat profile therefore sends Strassen
    /// to full depth while the classical algorithm (zero speedup) plans
    /// depth 0. Use `fmm_algo::candidates_for_shape` to get a
    /// shape-ranked candidate list from the catalog.
    #[must_use]
    pub fn auto_algorithm(mut self, candidates: &[Decomposition]) -> Self {
        self.alg = AlgChoice::Auto(candidates.to_vec());
        self
    }

    /// Replay a measured (or saved — see [`GemmProfile::from_json`])
    /// machine profile; drives the §3.4 depth rule and auto-selection.
    #[must_use]
    pub fn profile(mut self, profile: GemmProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Explicit recursion depth, overriding the profile-recommended
    /// depth. With [`Planner::schedule`] it must be 0 or equal to the
    /// schedule length.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Executor strategy: additions (§3.2), CSE (§3.3) and parallel
    /// scheme (§4). BFS/HYBRID plans reserve
    /// disjoint workspace for every concurrent task, making the §4.2
    /// memory factor visible in [`Plan::workspace_len`].
    #[must_use]
    pub fn options(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Whether an algorithm, schedule or candidate list was set.
    pub(crate) fn has_algorithm(&self) -> bool {
        !matches!(self.alg, AlgChoice::None)
    }

    /// Depth the cutoff rule recommends for `dec` on this problem: the
    /// binding dimension is the smallest one.
    fn recommended_depth(&self, dec: &Decomposition, shape: (usize, usize, usize)) -> usize {
        let eff = shape.0.min(shape.1).min(shape.2);
        match &self.profile {
            Some(profile) => profile.recommended_steps(dec, eff, MAX_STEPS),
            None => usize::from(dec.speedup_per_step() > 0.0),
        }
    }

    /// Resolve the configuration into an immutable [`Plan`].
    ///
    /// Generic over the element type the plan will execute in; `T`
    /// defaults to `f64` through [`Plan`]'s own default parameter and
    /// is normally inferred from the matrices later passed to
    /// [`Plan::execute`]. Request single precision explicitly with
    /// `planner.plan::<f32>()`.
    pub fn plan<T: GemmScalar>(self) -> Result<Plan<T>, PlanError> {
        let shape = self.shape.ok_or(PlanError::MissingShape)?;
        let schedule: Vec<Decomposition> = match &self.alg {
            AlgChoice::None => return Err(PlanError::MissingAlgorithm),
            AlgChoice::Single(dec) => {
                let steps = self
                    .steps
                    .unwrap_or_else(|| self.recommended_depth(dec, shape));
                vec![dec.clone(); steps]
            }
            AlgChoice::Schedule(s) => {
                if let Some(steps) = self.steps {
                    if steps != 0 && steps != s.len() {
                        return Err(PlanError::StepsConflict {
                            schedule_len: s.len(),
                            steps,
                        });
                    }
                }
                s.clone()
            }
            AlgChoice::Auto(cands) => {
                if cands.is_empty() {
                    return Err(PlanError::EmptyCatalog);
                }
                let mut best: Option<(f64, &Decomposition, usize)> = None;
                for dec in cands {
                    let steps = self
                        .steps
                        .unwrap_or_else(|| self.recommended_depth(dec, shape));
                    let score = (1.0 + dec.speedup_per_step()).powi(steps as i32);
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, dec, steps));
                    }
                }
                let (_, dec, steps) = best.expect("candidates are non-empty");
                vec![dec.clone(); steps]
            }
        };
        let opts = self.opts;
        let levels: Vec<LevelPlan<T>> = schedule
            .iter()
            .map(|d| {
                LevelPlan::try_new(d, opts.cse).map_err(|value| {
                    PlanError::UnrepresentableCoefficient {
                        value,
                        scheme: format!("<{},{},{}> rank {}", d.m, d.k, d.n, d.rank()),
                        dtype: T::NAME,
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        let layouts = NodeLayout::for_plan(&levels, opts.scheme, shape);
        let plan = Plan {
            levels,
            layouts,
            opts,
            shape,
        };
        // Audit: the certificate re-derives the workspace footprint
        // from the recursion tree independently of the executor's
        // NodeLayout arithmetic; any disagreement is a sizing bug.
        debug_assert_eq!(
            plan.certificate().workspace_len,
            plan.workspace_len(),
            "plan certificate disagrees with precomputed workspace"
        );
        Ok(plan)
    }
}

/// An immutable, shape-specialized execution plan: per-level addition
/// plans (coefficients pre-injected into the element type) plus one
/// workspace layout per recursion depth.
/// Produced by [`Planner::plan`]; executed repeatedly against a
/// [`Workspace`] with zero per-call allocation. `Plan` (no parameter)
/// is a `Plan<f64>`.
pub struct Plan<T = f64> {
    pub(crate) levels: Vec<LevelPlan<T>>,
    /// One layout per non-leaf recursion depth.
    pub(crate) layouts: Vec<NodeLayout>,
    pub(crate) opts: Options,
    shape: (usize, usize, usize),
}

impl<T: GemmScalar> Plan<T> {
    /// The `(m, k, n)` problem shape this plan is specialized for.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Recursion depth the planner settled on.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The executor strategy this plan runs with.
    pub fn options(&self) -> Options {
        self.opts
    }

    /// Exact workspace requirement in scalar elements: every S/T/M
    /// buffer and CSE temporary of the recursion tree, summed with
    /// per-task reservations under BFS/HYBRID.
    pub fn workspace_len(&self) -> usize {
        self.layouts.first().map_or(0, NodeLayout::total)
    }

    /// [`Plan::workspace_len`] in bytes (of this plan's element type).
    pub fn workspace_bytes(&self) -> usize {
        self.workspace_len() * std::mem::size_of::<T>()
    }

    /// Statically re-derive this plan's composed rank, gemm counts,
    /// flop count and exact workspace footprint from the recursion
    /// tree — an independent audit of the planner's precomputed values
    /// (cross-checked with a `debug_assert` at plan time) and an exact
    /// prediction of the executor's runtime statistics.
    pub fn certificate(&self) -> PlanCertificate {
        crate::certificate::derive_certificate(&self.levels, self.opts.scheme, self.shape)
    }

    /// `C = A · B`. After the first call on a given `workspace`,
    /// repeated calls allocate nothing.
    ///
    /// # Panics
    /// Panics when the operand shapes differ from [`Plan::shape`].
    pub fn execute(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
    ) {
        self.exec(a, b, c, workspace, None);
    }

    /// As [`Plan::execute`], additionally returning execution
    /// statistics including the workspace footprint and whether the
    /// workspace buffer was reused without growing.
    pub fn execute_with_stats(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
    ) -> ExecStatsSnapshot {
        let stats = ExecStats::default();
        let steals_before = fmm_runtime::steal_count();
        let reused = self.exec(a, b, c, workspace, Some(&stats));
        let tasks_stolen = fmm_runtime::steal_count() - steals_before;
        stats.snapshot(self.workspace_bytes() as u64, reused, tasks_stolen)
    }

    fn exec(
        &self,
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        c: &mut DenseMatrix<T>,
        workspace: &mut Workspace<T>,
        stats: Option<&ExecStats>,
    ) -> bool {
        let (m, k, n) = self.shape;
        assert_eq!(a.shape(), (m, k), "A shape differs from the planned shape");
        assert_eq!(b.shape(), (k, n), "B shape differs from the planned shape");
        assert_eq!(c.shape(), (m, n), "C shape differs from the planned shape");
        let (buf, reused) = workspace.checkout(self.workspace_len());
        execute_on(self, a.as_ref(), b.as_ref(), c.as_mut(), stats, buf);
        reused
    }

    /// Batched front door: run every `(Aᵢ, Bᵢ)` product of the batch in
    /// parallel — one task per problem, sharing nothing but the plan,
    /// load-balanced across the current pool by the work-stealing
    /// runtime (`rayon::current_num_threads` wide; run inside
    /// `ThreadPool::install` or set `FMM_THREADS` to control it) — and
    /// return the fresh outputs. All problems must have the planned
    /// shape. For allocation-free repeated batches, keep the outputs
    /// and workspaces and use [`Plan::execute_batch_into`].
    pub fn execute_batch(
        &self,
        batch: &[(&DenseMatrix<T>, &DenseMatrix<T>)],
    ) -> Vec<DenseMatrix<T>> {
        let (m, _, n) = self.shape;
        let mut outs: Vec<DenseMatrix<T>> =
            batch.iter().map(|_| DenseMatrix::zeros(m, n)).collect();
        let mut workspaces: Vec<Workspace<T>> =
            batch.iter().map(|_| Workspace::for_plan(self)).collect();
        self.execute_batch_into(batch, &mut outs, &mut workspaces);
        outs
    }

    /// As [`Plan::execute_batch`], writing into caller-provided outputs
    /// and workspaces (one per problem) so repeated batches allocate
    /// nothing.
    ///
    /// # Panics
    /// Panics when the three slices differ in length or any problem
    /// differs from the planned shape.
    pub fn execute_batch_into(
        &self,
        batch: &[(&DenseMatrix<T>, &DenseMatrix<T>)],
        outs: &mut [DenseMatrix<T>],
        workspaces: &mut [Workspace<T>],
    ) {
        assert_eq!(batch.len(), outs.len(), "one output per batch problem");
        assert_eq!(
            batch.len(),
            workspaces.len(),
            "one workspace per batch problem"
        );
        rayon::scope(|scope| {
            for ((&(a, b), c), ws) in batch.iter().zip(outs.iter_mut()).zip(workspaces.iter_mut()) {
                scope.spawn(move |_| self.execute(a, b, c, ws));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_gemm::naive_gemm;
    use fmm_matrix::{max_abs_diff, Matrix};
    use fmm_tensor::compose::classical;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strassen() -> Decomposition {
        crate::codegen_fixture()
    }

    fn flat_profile() -> GemmProfile {
        GemmProfile::from_samples(vec![(64, 4.0), (4096, 4.0)])
    }

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        naive_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        c
    }

    #[test]
    fn flat_profile_plans_deep_strassen_and_shallow_classical() {
        let plan = Planner::new()
            .shape(512, 512, 512)
            .algorithm(&strassen())
            .profile(flat_profile())
            .plan::<f64>()
            .unwrap();
        assert!(plan.depth() > 0, "flat profile must recurse Strassen");

        let plan = Planner::new()
            .shape(512, 512, 512)
            .algorithm(&classical(2, 2, 2))
            .profile(flat_profile())
            .plan::<f64>()
            .unwrap();
        assert_eq!(plan.depth(), 0, "classical has no speedup, never pays");
    }

    #[test]
    fn auto_algorithm_prefers_the_faster_candidate() {
        let cands = vec![classical(2, 2, 2), strassen()];
        let plan = Planner::new()
            .shape(256, 256, 256)
            .auto_algorithm(&cands)
            .profile(flat_profile())
            .plan::<f64>()
            .unwrap();
        assert!(plan.depth() > 0);
    }

    #[test]
    fn plan_errors_are_reported() {
        assert_eq!(
            Planner::new().algorithm(&strassen()).plan::<f64>().err(),
            Some(PlanError::MissingShape)
        );
        assert_eq!(
            Planner::new().shape(8, 8, 8).plan::<f64>().err(),
            Some(PlanError::MissingAlgorithm)
        );
        assert_eq!(
            Planner::new()
                .shape(8, 8, 8)
                .auto_algorithm(&[])
                .plan::<f64>()
                .err(),
            Some(PlanError::EmptyCatalog)
        );
        let s = strassen();
        let sched = [&s, &s];
        assert_eq!(
            Planner::new()
                .shape(8, 8, 8)
                .schedule(&sched)
                .steps(3)
                .plan::<f64>()
                .err(),
            Some(PlanError::StepsConflict {
                schedule_len: 2,
                steps: 3
            })
        );
        // steps == 0 and steps == len are both accepted for schedules.
        assert_eq!(
            Planner::new()
                .shape(8, 8, 8)
                .schedule(&sched)
                .steps(0)
                .plan::<f64>()
                .unwrap()
                .depth(),
            2
        );
    }

    #[test]
    fn execute_matches_reference_and_reuses_workspace() {
        let plan = Planner::new()
            .shape(96, 96, 96)
            .algorithm(&strassen())
            .steps(2)
            .plan()
            .unwrap();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut last_bytes = None;
        for trial in 0..3 {
            let a = Matrix::random(96, 96, &mut rng);
            let b = Matrix::random(96, 96, &mut rng);
            let mut c = Matrix::zeros(96, 96);
            let stats = plan.execute_with_stats(&a, &b, &mut c, &mut ws);
            let want = reference(&a, &b);
            let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
            assert!(d < 1e-9, "trial {trial}: diff {d}");
            assert_eq!(stats.workspace_bytes, plan.workspace_bytes() as u64);
            if let Some(prev) = last_bytes {
                assert_eq!(stats.workspace_bytes, prev);
            }
            last_bytes = Some(stats.workspace_bytes);
            assert_eq!(stats.workspace_reused, trial > 0);
        }
    }

    #[test]
    fn batch_matches_reference_per_problem() {
        let plan = Planner::new()
            .shape(40, 40, 40)
            .algorithm(&strassen())
            .steps(1)
            .plan()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let problems: Vec<(Matrix, Matrix)> = (0..5)
            .map(|_| {
                (
                    Matrix::random(40, 40, &mut rng),
                    Matrix::random(40, 40, &mut rng),
                )
            })
            .collect();
        let batch: Vec<(&Matrix, &Matrix)> = problems.iter().map(|(a, b)| (a, b)).collect();
        let outs = plan.execute_batch(&batch);
        assert_eq!(outs.len(), 5);
        for ((a, b), c) in problems.iter().zip(&outs) {
            let want = reference(a, b);
            let d = max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap();
            assert!(d < 1e-9, "batch entry diff {d}");
        }
    }

    #[test]
    fn zero_depth_plan_is_plain_gemm() {
        let plan = Planner::new()
            .shape(33, 21, 17)
            .algorithm(&strassen())
            .steps(0)
            .plan()
            .unwrap();
        assert_eq!(plan.workspace_len(), 0);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(33, 21, &mut rng);
        let b = Matrix::random(21, 17, &mut rng);
        let mut c = Matrix::zeros(33, 17);
        let mut ws = Workspace::new();
        plan.execute(&a, &b, &mut c, &mut ws);
        let want = reference(&a, &b);
        assert!(max_abs_diff(&want.as_ref(), &c.as_ref()).unwrap() < 1e-10);
    }
}
