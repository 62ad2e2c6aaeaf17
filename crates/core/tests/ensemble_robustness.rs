//! Seeded robustness properties for the ensemble estimator.
//!
//! Three guarantees the ensemble ships with, checked across many random
//! workloads (seeded join queries with varying skew and input order)
//! rather than one hand-picked trace:
//!
//! 1. **Trust is monotone within a run.** Once a fault episode degrades
//!    the stream, later calm checkpoints never un-degrade it
//!    (`Ok → Degraded → Fallback`, never backwards).
//! 2. **Fallback is byte-identical to bare `safe`.** From the first
//!    `fallback` checkpoint on, the ensemble column equals the safe
//!    column bitwise — both against the safe member riding in the same
//!    run and against a separate run of bare `safe` over the same query
//!    and fault plan. The fallback is a delegation, not an imitation.
//! 3. **Property 4 clamping holds at every checkpoint.** The ensemble's
//!    estimate always lies inside the feasible envelope
//!    `[Curr/UB, min(1, Curr/LB)]`, faulted or not — a combination of
//!    sound members must not escape the bounds its members honour.
//!
//! Every property drives full queries through the regime-probed monitor
//! entry point — the same path the service and the `repro -- ensemble`
//! matrix use — with `qp-testkit` fault plans and seeded data.

use qp_exec::estimate::annotate;
use qp_exec::expr::{AggExpr, Expr};
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_exec::{FaultKind, FaultPlan, RunControls};
use qp_obs::QueryObs;
use qp_progress::estimators::{Ensemble, EnsembleStats, Safe};
use qp_progress::monitor::{ProgressMonitor, ProgressTrace};
use qp_progress::{ProgressEstimator, RegimeFlags, Trust};
use qp_stats::DbStats;
use qp_storage::{ColumnType, Database, Schema, Value};
use qp_testkit::rng::TestRng;
use qp_testkit::{prop_assert, prop_assert_eq, prop_check};
use std::sync::Arc;
use std::time::Duration;

const DIM_ROWS: u64 = 60;
const FACT_ROWS: u64 = 1_200;

/// Builds a two-table join workload whose foreign-key distribution and
/// input order are decided by `(seed, skew, order)` — the same axes the
/// `repro -- ensemble` matrix sweeps, shrunk to proptest size.
fn seeded_db(seed: u64, skew: u8, order: u8) -> Database {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut fks: Vec<i64> = (0..FACT_ROWS)
        .map(|_| match skew {
            // Uniform probes.
            0 => rng.u64_below(DIM_ROWS) as i64,
            // Mild skew: min of two uniform draws leans low.
            1 => rng.u64_below(DIM_ROWS).min(rng.u64_below(DIM_ROWS)) as i64,
            // Heavy skew: ~80% of probes hit key 0.
            _ => {
                if rng.random_bool(0.8) {
                    0
                } else {
                    rng.u64_below(DIM_ROWS) as i64
                }
            }
        })
        .collect();
    match order {
        0 => rng.shuffle(&mut fks),
        1 => fks.sort_unstable(),                   // skewed keys first
        _ => fks.sort_unstable_by(|a, b| b.cmp(a)), // skewed keys last
    }

    let mut db = Database::new();
    db.create_table_with_rows(
        "dim",
        Schema::of(&[("k", ColumnType::Int), ("w", ColumnType::Int)]),
        (0..DIM_ROWS as i64).map(|k| vec![Value::Int(k), Value::Int(k * 7)]),
    )
    .unwrap();
    db.create_index("dim_pk", "dim", &["k"], true).unwrap();
    db.create_table_with_rows(
        "fact",
        Schema::of(&[("fk", ColumnType::Int), ("v", ColumnType::Int)]),
        fks.into_iter()
            .enumerate()
            .map(|(i, fk)| vec![Value::Int(fk), Value::Int(i as i64)]),
    )
    .unwrap();
    db
}

/// `fact ⋈INL dim_pk`, aggregated and sorted — a multi-operator plan so
/// the clamp property sees bounds from more than one node class.
fn join_plan(db: &Database) -> Plan {
    let fact = PlanBuilder::scan(db, "fact").expect("fact");
    let fk = fact.col("fk").expect("fk");
    let j = fact
        .inl_join(db, "dim", "dim_pk", vec![fk], JoinType::Inner, true, None)
        .expect("dim_pk");
    let (k, v) = (j.col("k").expect("k"), j.col("v").expect("v"));
    j.hash_aggregate(vec![k], vec![(AggExpr::sum(Expr::Col(v)), "s")])
        .sort(vec![(1, false)])
        .build()
}

/// Runs `plan` under the given estimator suite, with an optional seeded
/// fault plan wired to the same FAULT regime probe the service installs.
fn run_suite(
    plan: &Plan,
    db: &Database,
    stats: &DbStats,
    estimators: Vec<Box<dyn ProgressEstimator>>,
    fault_at: Option<u64>,
) -> ProgressTrace {
    let faults =
        fault_at.map(|at| FaultPlan::single(at, FaultKind::Delay(Duration::from_micros(10))));
    let obs = faults
        .as_ref()
        .map(|_| QueryObs::new(0, plan.op_labels(), false, None));
    let controls = RunControls {
        faults,
        obs: obs.clone(),
        ..RunControls::default()
    };
    let mut monitor = ProgressMonitor::for_plan(plan, Some(stats), estimators, Some(8));
    if let Some(obs) = obs {
        monitor.set_regime_probe(Box::new(move || {
            if obs.snapshot().iter().any(|n| n.faults > 0) {
                RegimeFlags::FAULT
            } else {
                0
            }
        }));
    }
    let (_, trace) = monitor
        .run(plan, db, controls)
        .expect("property query runs to completion");
    trace
}

/// The suite under test: the ensemble (fed by `shared`) next to its
/// `safe` member, so every snapshot carries both columns.
fn ensemble_suite(shared: &Arc<EnsembleStats>) -> Vec<Box<dyn ProgressEstimator>> {
    vec![
        Box::new(Ensemble::with_stats(Arc::clone(shared))),
        Box::new(Safe),
    ]
}

prop_check! {
    cases = 24,
    /// Guarantee 1: trust never moves backwards, and a fault episode
    /// actually lands (the monotonicity claim must not pass vacuously).
    fn trust_is_monotone_within_a_fault_episode(
        seed in 0u64..1_000_000,
        skew in 0u8..3,
        order in 0u8..3,
        fault_at in 5u64..1_000,
    ) {
        let db = seeded_db(seed, skew, order);
        let stats = DbStats::build(&db);
        let mut plan = join_plan(&db);
        annotate(&mut plan, &stats);

        let shared = Arc::new(EnsembleStats::new());
        // A clean run first: its trace seeds the online error stats, and
        // its trust must be monotone too (spread can degrade it, nothing
        // may un-degrade it).
        let clean = run_suite(&plan, &db, &stats, ensemble_suite(&shared), None);
        shared.record_trace(&clean);
        let faulted = run_suite(&plan, &db, &stats, ensemble_suite(&shared), Some(fault_at));

        for (label, trace) in [("clean", &clean), ("faulted", &faulted)] {
            let trusts: Vec<Trust> = trace.snapshots().iter().map(|s| s.trust).collect();
            for w in trusts.windows(2) {
                prop_assert!(
                    w[0] <= w[1],
                    "{label} run: trust regressed {} -> {}", w[0], w[1]
                );
            }
        }
        prop_assert!(
            clean.snapshots().iter().all(|s| s.trust != Trust::Fallback),
            "clean run must never reach fallback"
        );
        prop_assert_eq!(
            faulted.snapshots().last().map(|s| s.trust),
            Some(Trust::Fallback),
            "seeded fault at getnext {} never tripped the probe", fault_at
        );
    }

    /// Guarantee 2: from fallback onset the ensemble column is bitwise
    /// equal to safe — both the in-run member and a separate bare run.
    fn fallback_is_byte_identical_to_bare_safe(
        seed in 0u64..1_000_000,
        skew in 0u8..3,
        order in 0u8..3,
        fault_at in 5u64..1_000,
    ) {
        let db = seeded_db(seed, skew, order);
        let stats = DbStats::build(&db);
        let mut plan = join_plan(&db);
        annotate(&mut plan, &stats);

        let shared = Arc::new(EnsembleStats::new());
        let trace = run_suite(&plan, &db, &stats, ensemble_suite(&shared), Some(fault_at));
        let bare = run_suite(&plan, &db, &stats, vec![Box::new(Safe)], Some(fault_at));

        let snaps = trace.snapshots();
        let onset = snaps.iter().position(|s| s.trust == Trust::Fallback);
        let Some(onset) = onset else {
            return Err(format!("fault at getnext {fault_at} never caused fallback"));
        };
        // Identical plan, stride, and (delay-only) fault plan ⇒ the bare
        // run checkpoints at the same counter states.
        prop_assert_eq!(snaps.len(), bare.snapshots().len());
        for (i, (snap, bare_snap)) in snaps.iter().zip(bare.snapshots()).enumerate().skip(onset) {
            prop_assert_eq!(snap.curr, bare_snap.curr, "checkpoint {} diverged", i);
            let (ens, safe) = (snap.estimates[0], snap.estimates[1]);
            prop_assert!(
                ens.to_bits() == safe.to_bits(),
                "checkpoint {}: ensemble {} != in-run safe {}", i, ens, safe
            );
            prop_assert!(
                ens.to_bits() == bare_snap.estimates[0].to_bits(),
                "checkpoint {}: ensemble {} != bare safe {}", i, ens, bare_snap.estimates[0]
            );
        }
    }

    /// Guarantee 3: every checkpoint's ensemble estimate sits inside the
    /// Property 4 feasible envelope `[Curr/UB, min(1, Curr/LB)]`.
    fn ensemble_respects_property4_envelope_at_every_checkpoint(
        seed in 0u64..1_000_000,
        skew in 0u8..3,
        order in 0u8..3,
        fault_at in 5u64..1_000,
    ) {
        let db = seeded_db(seed, skew, order);
        let stats = DbStats::build(&db);
        let mut plan = join_plan(&db);
        annotate(&mut plan, &stats);

        let shared = Arc::new(EnsembleStats::new());
        let clean = run_suite(&plan, &db, &stats, ensemble_suite(&shared), None);
        shared.record_trace(&clean);
        let faulted = run_suite(&plan, &db, &stats, ensemble_suite(&shared), Some(fault_at));

        for (label, trace) in [("clean", &clean), ("faulted", &faulted)] {
            for (i, snap) in trace.snapshots().iter().enumerate() {
                let lo = snap.curr as f64 / snap.ub.max(1) as f64;
                let hi = (snap.curr as f64 / snap.lb.max(1) as f64).min(1.0);
                let ens = snap.estimates[0];
                prop_assert!(
                    ens >= lo.min(hi) - 1e-9 && ens <= hi + 1e-9,
                    "{label} checkpoint {}: ensemble {} outside [{}, {}] (curr {}, lb {}, ub {})",
                    i, ens, lo.min(hi), hi, snap.curr, snap.lb, snap.ub
                );
            }
        }
    }
}
