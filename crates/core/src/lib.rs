//! # qp-progress — query progress estimation with worst-case analysis
//!
//! The core of the reproduction of *"When Can We Trust Progress Estimators
//! for SQL Queries?"* (Chaudhuri, Kaushik, Ramamurthy; SIGMOD 2005).
//!
//! Progress is defined under the **GetNext model** (Section 2.2): after a
//! prefix `s` of the query's getnext sequence, `progress(s) = |s| /
//! total(Q)`. A progress estimator sees the plan, the database statistics,
//! and the execution feedback so far — nothing else — and must estimate
//! that fraction.
//!
//! ## The tool-kit
//!
//! | Estimator | Definition | Guarantee |
//! |-----------|------------|-----------|
//! | [`estimators::Dne`] | fraction of the driver node consumed, weighted across pipelines | exact in expectation under random input order (Thm 3); ratio ≤ c after 50% under a c-predictive order (Prop 2) |
//! | [`estimators::Pmax`] | `Curr / LB` | never underestimates (Prop 4); ratio ≤ μ (Thm 5) |
//! | [`estimators::Safe`] | `Curr / √(LB·UB)` | ratio ≤ √(UB/LB); **worst-case optimal** (Thm 6) |
//! | [`estimators::EstTotal`] | `Curr / Σ optimizer estimates` | none (the baseline the paper argues against) |
//! | [`estimators::DneClamped`] | `dne` clamped into `[Curr/UB, Curr/LB]` | inherits the scan-based bound of Property 6 |
//! | [`estimators::DneRefined`] | `dne` with reference \[5\]'s runtime estimate refinement | corrects downstream estimates as inputs finish |
//! | [`estimators::Hybrid`] | `safe`, switching to `pmax` when observed μ̂ is small | heuristic (Section 6.4 — Thms 7/8 show no *provable* switch exists) |
//! | [`feedback::FeedbackEstimator`] | `Curr / (μ_prior · Σ leaf cards)`, clamped to the proven interval | §6.4 inter-query feedback, implemented |
//! | [`bytes_model::BytesPmax`] / [`bytes_model::BytesSafe`] | the same formulas under reference \[13\]'s bytes-processed model | same guarantees, byte-weighted |
//!
//! `LB`/`UB` are run-time bounds on `total(Q)` maintained by
//! [`bounds::BoundsTracker`] per Section 5.1: exact cardinalities at scan
//! leaves, rows-produced-so-far as lower bounds everywhere, linearity for
//! σ/π/γ and linear (e.g. key–FK) joins, histogram boundaries for range
//! scans, and finalization as operators exhaust.
//!
//! [`monitor::ProgressMonitor`] plugs all of this into the executor as an
//! observer: at each checkpoint — every `stride` getnext calls, at the
//! first batch boundary past the mark, and whenever an operator becomes
//! exhausted — it reads the executor's per-node counters and snapshots
//! every estimator; [`metrics`] scores the recorded traces (ratio error, absolute
//! error, the (τ, δ) threshold requirement of Section 2.5); [`analysis`]
//! contains the order-predictiveness machinery of Section 4.2 (Theorems 3
//! and 4); and [`adversary`] constructs the twin instances of Example 1
//! that defeat *every* estimator (Theorem 1).

pub mod adversary;
pub mod analysis;
pub mod bounds;
pub mod bytes_model;
pub mod estimators;
pub mod feedback;
pub mod metrics;
pub mod model;
pub mod monitor;
pub mod shared;

pub use bounds::BoundsTracker;
pub use bytes_model::{BytesPmax, BytesSafe, RowWidths};
pub use estimators::{
    estimator_by_name, parse_suite, Dne, DneClamped, DneRefined, Ensemble, EnsembleStats, EstTotal,
    EstimatorContext, Hybrid, Pmax, ProgressEstimator, Safe, Trivial, ENSEMBLE_MEMBERS,
    ESTIMATOR_NAMES,
};
pub use feedback::{FeedbackEstimator, FeedbackStore, PlanSignature};
pub use metrics::{score_checkpoints, threshold_requirement_holds, ErrorStats, PointScore};
pub use model::{mu_from_counts, PlanMeta};
pub use monitor::{ProgressMonitor, ProgressTrace, Snapshot};
pub use shared::{clamp_snapshot, Health, ProgressCell, ProgressReading, RegimeFlags, Trust};
