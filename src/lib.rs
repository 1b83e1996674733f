//! Facade crate: re-exports the full fast-matmul workspace API.
//!
//! # Quickstart: plan once, execute many
//!
//! The primary entry point is the plan/execute API of [`core`]
//! (`fmm-core`): a [`core::Planner`] resolves the algorithm, recursion
//! depth (§3.4 cutoff rule, optionally from a measured
//! [`core::GemmProfile`]), parallel scheme and addition strategy into
//! an immutable [`core::Plan`], and executing the plan against a
//! reusable [`core::Workspace`] allocates nothing after the first call:
//!
//! ```
//! use fast_matmul::algo;
//! use fast_matmul::core::{GemmProfile, Planner, Workspace};
//! use fast_matmul::matrix::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Plan: pick depth for this machine profile and problem shape.
//! let profile = GemmProfile::from_samples(vec![(64, 4.0), (4096, 4.0)]);
//! let plan = Planner::new()
//!     .shape(256, 256, 256)
//!     .algorithm(&algo::strassen())
//!     .profile(profile)
//!     .plan()
//!     .unwrap();
//!
//! // Execute: repeated multiplies reuse one workspace, zero alloc.
//! let mut ws = Workspace::for_plan(&plan);
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = Matrix::random(256, 256, &mut rng);
//! let b = Matrix::random(256, 256, &mut rng);
//! let mut c = Matrix::zeros(256, 256);
//! for _ in 0..3 {
//!     plan.execute(&a, &b, &mut c, &mut ws);
//! }
//!
//! // Batched front door: independent same-shape products in parallel.
//! let outs = plan.execute_batch(&[(&a, &b), (&b, &a)]);
//! assert_eq!(outs.len(), 2);
//! ```
//!
//! Let the planner choose the algorithm too, ranked for the problem
//! shape by [`algo::candidates_for_shape`]:
//!
//! ```no_run
//! use fast_matmul::{algo, core::{GemmProfile, Planner}};
//! let cands: Vec<_> = algo::candidates_for_shape(2000, 100, 2000)
//!     .into_iter()
//!     .map(|a| a.dec)
//!     .collect();
//! let plan = Planner::new()
//!     .shape(2000, 100, 2000)
//!     .auto_algorithm(&cands)
//!     .profile(GemmProfile::measure(&[128, 256, 512, 1024]))
//!     .plan::<f64>() // or ::<f32> — see "Element types" below
//!     .unwrap();
//! ```
//!
//! `Planner` → `Plan` is the one way into the executor; [`Options`]
//! holds only the strategy (additions, CSE, scheme), and the
//! depth comes from `Planner::steps`, a schedule or the profile.
//!
//! # Element types
//!
//! The stack is generic over [`matrix::Scalar`] with `f64` defaults
//! throughout ([`matrix::Matrix`] is `DenseMatrix<f64>`; `Plan`,
//! `Workspace`, `FmmEngine` default their parameter), and `f32` ships
//! as a second instantiation — `FmmEngine::<f32>::builder()`,
//! `Planner::plan::<f32>()`, `DenseMatrix::<f32>` — doubling SIMD
//! width and halving memory traffic on the hot path. See the README's
//! "Element types" section for the migration note (existing code
//! changes nothing) and the GF(2)/semiring extension point.
//!
//! # Serving: the engine
//!
//! For long-lived processes that multiply *many* shapes from many
//! threads, [`FmmEngine`] wraps the whole lifecycle — a work-stealing
//! thread pool, an LRU plan cache that auto-plans new shapes from the
//! catalog, and a workspace pool, so steady-state serving allocates
//! nothing. Submit synchronously or get a handle back:
//!
//! ```
//! use fast_matmul::FmmEngine;
//! use fast_matmul::matrix::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let engine = FmmEngine::builder().threads(2).build().unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = Matrix::random(96, 96, &mut rng);
//! let b = Matrix::random(96, 96, &mut rng);
//!
//! let c = engine.multiply(&a, &b).unwrap();          // sync
//! let handle = engine.submit(a.clone(), b.clone());  // async
//! assert_eq!(handle.wait().unwrap(), c);
//! assert_eq!(engine.stats().plan_cache_hits, 1);
//! ```
//!
//! # Serving across processes: the fleet
//!
//! [`serve`] (`fmm-serve`) scales the engine past one process: shard
//! binaries each hosting an engine behind a Unix socket, a router that
//! hashes shapes onto shards (plan caches stay hot), retries
//! interrupted work onto siblings and respawns dead shards, and a
//! [`serve::ServeClient`] speaking the length-prefixed wire protocol.
//! See the README's "Serving tier" section and
//! `examples/serving_fleet.rs`.
//!
//! # Observability
//!
//! [`trace`] (`fmm-trace`) instruments the whole stack: every engine
//! keeps always-on log-bucketed latency histograms per shape class and
//! dtype (`EngineStats::latency`, merged fleet-wide into
//! `serve::FleetStats`), and `trace::set_enabled(true)` turns on span
//! recording — plan lookups, workspace checkouts, additions, base-case
//! gemms, steals/parks, RPC phases — exportable as Chrome/Perfetto
//! trace JSON or a textual per-worker timeline. See the README's
//! "Observability" section.
//!
//! The high-level types are re-exported at the root — `use
//! fast_matmul::{FmmEngine, Planner, Plan, Workspace, Options}` — so
//! typical users never need the `fast_matmul::core::...` paths.
pub use fmm_algo as algo;
pub use fmm_core as core;
pub use fmm_gemm as gemm;
pub use fmm_gf2 as gf2;
pub use fmm_matrix as matrix;
pub use fmm_search as search;
pub use fmm_serve as serve;
pub use fmm_tensor as tensor;
pub use fmm_trace as trace;
pub use fmm_verify as verify;

pub use fmm_core::{
    EngineBuilder, EngineError, EngineStats, FmmEngine, GemmProfile, MultiplyHandle, Options, Plan,
    PlanCertificate, PlanError, Planner, Workspace,
};
