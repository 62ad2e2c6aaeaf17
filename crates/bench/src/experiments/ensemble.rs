//! Ensemble scenario matrix (`repro -- ensemble`): the honest evaluation
//! the ensemble estimator has to survive before it is worth shipping.
//!
//! Theorems 7/8 prove no fixed estimator is trustworthy everywhere, and
//! König et al. (PAPERS.md) show a statistical combination beats any
//! fixed pick *on average* — but an ensemble can also fail in a new way:
//! interpolating garbage confidently when the regime shifts under it.
//! This experiment sweeps every hostile regime the repro can generate
//! and gates the ensemble three ways:
//!
//! 1. **Win-or-tie a majority**: across the matrix the ensemble's max
//!    ratio error must be ≤ the best *fixed* member's (within a 10% tie
//!    band — a weighted mean rarely lands exactly on the per-cell
//!    winner) on a majority of cells.
//! 2. **Never worse than safe's worst case**: in *no* cell may the
//!    ensemble exceed bare `safe`'s worst error across the whole matrix
//!    — graceful degradation must not invent a new worst case.
//! 3. **Fallback is byte-identical to safe**: in the fault and thrash
//!    cells the regime probes must trip, trust must reach `fallback`,
//!    and from that checkpoint on the ensemble column must equal the
//!    safe column *bitwise* (the fallback is a delegation, not an
//!    imitation).
//!
//! The matrix: synthetic INL joins at Zipf z ∈ {0, 1, 2} × input order
//! {random, skew-last (the Figure 5 worst case)} × parallel degrees
//! {1, 2, 4} on the heap backend; the paged backend at the same three
//! skews (orders ⋈INL customer through the buffer pool); the Theorem 1
//! adversarial twins, where *nothing* can win and the cell reports the
//! provable floor instead; a seeded-fault cell; and a thrashing-pool
//! cell. Parallel degrees ride the serial-equivalent GetNext accounting
//! (same checkpoints, same estimates), so those cells tie by
//! construction — the sweep runs them anyway, as a regression check.
//!
//! Per-estimator error statistics are fed *online*, cell by cell,
//! through the same [`EnsembleStats`] feed the service uses, so later
//! cells see weights learned from earlier ones — the König-style
//! session-history loop, reproduced deterministically.
//!
//! Results land in `BENCH_ensemble.json` at the workspace root.

use crate::render::render_table;
use crate::Scale;
use qp_datagen::{RowOrder, SyntheticConfig, SyntheticDb, TpchConfig, TpchDb};
use qp_exec::plan::Plan;
use qp_exec::{parallelize, FaultKind, FaultPlan, RunControls};
use qp_obs::json::Obj;
use qp_obs::QueryObs;
use qp_progress::adversary::AdversarialPair;
use qp_progress::estimators::{Dne, Ensemble, EnsembleStats, EstTotal, Pmax, Safe};
use qp_progress::metrics::error_stats;
use qp_progress::monitor::{ProgressMonitor, ProgressTrace};
use qp_progress::{ProgressEstimator, RegimeFlags, Trust};
use qp_stats::DbStats;
use qp_storage::Database;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Column order of every per-cell score: the four fixed members, then
/// the ensemble over them.
const COLUMNS: [&str; 5] = ["dne", "pmax", "safe", "esttotal", "ensemble"];

/// A cell's ensemble error within this factor of the best fixed member
/// counts as a tie (gate 1's tie band).
const TIE_BAND: f64 = 1.10;

/// One scenario-matrix cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    /// Max ratio error vs true progress, per `COLUMNS` column.
    pub err: [f64; 5],
    /// Final (monotone) trust of the run.
    pub trust: Trust,
    /// `win` / `tie` / `loss` vs the best fixed member; adversarial
    /// cells carry the Theorem 1 floor instead.
    pub outcome: String,
}

impl Cell {
    fn best_fixed(&self) -> f64 {
        self.err[..4].iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// The matrix result plus the three gates.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    pub cells: Vec<Cell>,
    pub wins_or_ties: usize,
    /// Cells the score gates apply to (everything but the adversarial
    /// twins, which report the Theorem 1 floor instead).
    pub scored_cells: usize,
    pub safe_worst: f64,
    pub fallback_identical: bool,
    pub violations: Vec<String>,
}

impl EnsembleResult {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                let mut row = vec![c.name.clone()];
                row.extend(c.err.iter().map(|e| format!("{e:.2}")));
                row.push(c.trust.as_str().to_string());
                row.push(c.outcome.clone());
                row
            })
            .collect();
        let mut out = render_table(
            "ensemble scenario matrix: max ratio error vs true progress",
            &[
                "cell", "dne", "pmax", "safe", "esttotal", "ensemble", "trust", "outcome",
            ],
            &rows,
        );
        out.push_str(&format!(
            "win/tie = ensemble within {TIE_BAND}x of the best fixed member; adversarial\n\
             cells report the Theorem 1 floor no estimator can beat. Parallel degrees\n\
             share serial-equivalent checkpoints, so p1/p2/p4 triplets tie by design.\n"
        ));
        if self.passed() {
            out.push_str(&format!(
                "PASS: ensemble wins or ties {}/{} scored cells, stays within safe's \
                 worst case {:.2} everywhere, and fallback is byte-identical to safe\n",
                self.wins_or_ties, self.scored_cells, self.safe_worst
            ));
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// The evaluation suite: every fixed member, then the ensemble sharing
/// the sweep-wide online stats feed.
fn suite(shared: &Arc<EnsembleStats>) -> Vec<Box<dyn ProgressEstimator>> {
    vec![
        Box::new(Dne),
        Box::new(Pmax),
        Box::new(Safe),
        Box::new(EstTotal),
        Box::new(Ensemble::with_stats(Arc::clone(shared))),
    ]
}

/// Runs one cell: annotate, fan out to `degree`, execute under the given
/// fault plan with the service-style regime probes installed (per-query
/// fault counters; pool eviction churn when the backend is paged), score
/// every column, and feed the trace back into the online stats.
fn run_cell(
    name: String,
    mut plan: Plan,
    db: &Database,
    stats: &DbStats,
    shared: &Arc<EnsembleStats>,
    degree: usize,
    faults: Option<FaultPlan>,
) -> (Cell, ProgressTrace) {
    qp_exec::estimate::annotate(&mut plan, stats);
    let plan = parallelize(&plan, degree);

    let pool = db.buffer_pool().cloned();
    let baseline_evictions = pool.as_ref().map(|p| p.stats().evictions);
    let obs = faults
        .as_ref()
        .map(|_| QueryObs::new(0, plan.op_labels(), false, None));
    let controls = RunControls {
        faults,
        obs: obs.clone(),
        ..RunControls::default()
    };
    let mut monitor = ProgressMonitor::for_plan(&plan, Some(stats), suite(shared), None);
    if obs.is_some() || pool.is_some() {
        monitor.set_regime_probe(Box::new(move || {
            let mut bits = 0u8;
            if let Some(obs) = &obs {
                if obs.snapshot().iter().any(|n| n.faults > 0) {
                    bits |= RegimeFlags::FAULT;
                }
            }
            if let (Some(pool), Some(base)) = (&pool, baseline_evictions) {
                let s = pool.stats();
                if s.evictions.saturating_sub(base) > s.capacity as u64 {
                    bits |= RegimeFlags::THRASH;
                }
            }
            bits
        }));
    }

    let (_, trace) = monitor
        .run(&plan, db, controls)
        .expect("matrix cell runs to completion");
    shared.record_trace(&trace);

    let mut err = [f64::NAN; 5];
    for (slot, col) in err.iter_mut().zip(COLUMNS) {
        *slot = error_stats(&trace, col)
            .map(|e| e.max_ratio)
            .unwrap_or(f64::NAN);
    }
    let trust = trace
        .snapshots()
        .last()
        .map(|s| s.trust)
        .unwrap_or(Trust::Ok);
    let cell = Cell {
        name,
        err,
        trust,
        outcome: String::new(),
    };
    (cell, trace)
}

/// Post-fallback byte-identity: from the first `fallback` checkpoint on,
/// the ensemble column must equal the safe column bitwise. Returns an
/// error string when it does not (or when fallback never engaged).
fn check_fallback(name: &str, trace: &ProgressTrace) -> Option<String> {
    let snaps = trace.snapshots();
    let onset = snaps.iter().position(|s| s.trust == Trust::Fallback)?;
    for s in &snaps[onset..] {
        // COLUMNS: ensemble is estimates[4], safe estimates[2].
        if s.estimates[4].to_bits() != s.estimates[2].to_bits() {
            return Some(format!(
                "{name}: post-fallback ensemble {} != safe {} at curr {}",
                s.estimates[4], s.estimates[2], s.curr
            ));
        }
    }
    None
}

/// Runs the scenario matrix. `seed` positions the injected fault (so CI
/// can vary it) without changing the matrix shape.
pub fn ensemble(scale: &Scale, seed: u64) -> EnsembleResult {
    let shared = Arc::new(EnsembleStats::new());
    let mut cells: Vec<Cell> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut fallback_failures: Vec<String> = Vec::new();
    let mut fallback_cells = 0usize;

    // --- Heap backend: skew × input order × parallel degree. ---------
    for z in [0.0f64, 1.0, 2.0] {
        for (order, order_tag) in [(RowOrder::Random, "rand"), (RowOrder::SkewLast, "worst")] {
            let s = SyntheticDb::generate(SyntheticConfig {
                r1_rows: scale.synth_r1,
                r2_rows: scale.synth_r2,
                z,
                r1_order: order,
                seed: scale.seed,
            });
            let stats = DbStats::build(&s.db);
            for degree in [1usize, 2, 4] {
                let plan = super::figures::synthetic_inl_plan(&s);
                let (cell, _) = run_cell(
                    format!("z{z:.0}/{order_tag}/p{degree}"),
                    plan,
                    &s.db,
                    &stats,
                    &shared,
                    degree,
                    None,
                );
                cells.push(cell);
            }
        }
    }

    // --- Paged backend: the same skews through the buffer pool. ------
    let dir = std::env::temp_dir().join(format!("qp-ensemble-{}", std::process::id()));
    for z in [0.0f64, 1.0, 2.0] {
        let t = TpchDb::generate(TpchConfig {
            scale: scale.tpch_scale,
            z,
            seed: scale.seed,
        });
        let _ = std::fs::remove_dir_all(&dir);
        t.save_paged(&dir).expect("bulk load to page files");
        // Ample frames: the pool holds the working set, so the THRASH
        // probe stays quiet and the cell scores the estimators, not the
        // fallback (a dedicated thrash cell below does that).
        let db = qp_storage::paged::open_database(&dir, 4096).expect("open paged db");
        let stats = DbStats::build(&db);
        let (cell, _) = run_cell(
            format!("z{z:.0}/paged/p1"),
            super::pagecache::probe_plan(&db),
            &db,
            &stats,
            &shared,
            1,
            None,
        );
        cells.push(cell);

        if (z - 1.0).abs() < f64::EPSILON {
            // --- Thrash cell: a pool far smaller than the probe's
            // working set. Eviction churn must trip the THRASH probe
            // and force the safe fallback.
            let db = qp_storage::paged::open_database(&dir, 6).expect("open paged db");
            let stats = DbStats::build(&db);
            let (cell, trace) = run_cell(
                "thrash/paged/p1".to_string(),
                super::pagecache::probe_plan(&db),
                &db,
                &stats,
                &shared,
                1,
                None,
            );
            fallback_cells += 1;
            match check_fallback(&cell.name, &trace) {
                None if cell.trust == Trust::Fallback => {}
                None => fallback_failures.push(format!(
                    "{}: thrashing pool never tripped the regime probe (trust {})",
                    cell.name, cell.trust
                )),
                Some(e) => fallback_failures.push(e),
            }
            cells.push(cell);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --- Seeded fault cell: a fired (non-fatal) fault mid-query. -----
    {
        let s = SyntheticDb::generate(SyntheticConfig {
            r1_rows: scale.synth_r1,
            r2_rows: scale.synth_r2,
            z: 2.0,
            r1_order: RowOrder::SkewLast,
            seed: scale.seed,
        });
        let stats = DbStats::build(&s.db);
        let at = 10 + seed % (scale.synth_r1 as u64 / 2).max(1);
        let (cell, trace) = run_cell(
            format!("fault@{at}/p1"),
            super::figures::synthetic_inl_plan(&s),
            &s.db,
            &stats,
            &shared,
            1,
            Some(FaultPlan::single(
                at,
                FaultKind::Delay(Duration::from_micros(50)),
            )),
        );
        fallback_cells += 1;
        match check_fallback(&cell.name, &trace) {
            None if cell.trust == Trust::Fallback => {}
            None => fallback_failures.push(format!(
                "{}: injected fault never tripped the regime probe (trust {})",
                cell.name, cell.trust
            )),
            Some(e) => fallback_failures.push(e),
        }
        cells.push(cell);
    }

    // --- Theorem 1 adversarial twins: cells nothing can win. ---------
    let pair = AdversarialPair::construct(scale.synth_r1.max(1_000));
    let floor = pair.best_achievable_ratio();
    let mut adversarial = 0usize;
    for (db, tag) in [(&pair.db_x, "x"), (&pair.db_y, "y")] {
        let stats = DbStats::build(db);
        let (mut cell, _) = run_cell(
            format!("adversary/{tag}/p1"),
            pair.plan(db),
            db,
            &stats,
            &shared,
            1,
            None,
        );
        cell.outcome = format!("floor {floor:.2}");
        adversarial += 1;
        cells.push(cell);
    }

    // --- Gates. ------------------------------------------------------
    // The adversarial twin cells are exempt from both score gates: they
    // are precisely the instances where Theorems 7/8 prove *no*
    // estimator — fixed or combined — can win (any answer good on one
    // twin is forced into ≥ the Theorem 1 floor on the other, and a
    // history-informed ensemble is lied to by construction). They stay
    // in the table and the JSON, labelled with the provable floor.
    let scored = |c: &Cell| !c.name.starts_with("adversary/");

    // Gate 1: win-or-tie a majority of the scored cells.
    let mut wins_or_ties = 0usize;
    let mut scored_cells = 0usize;
    for c in cells.iter_mut() {
        let best = c.best_fixed();
        let label = if c.err[4] <= best + 1e-9 {
            "win"
        } else if c.err[4] <= best * TIE_BAND {
            "tie"
        } else {
            "loss"
        };
        if scored(c) {
            scored_cells += 1;
            if label != "loss" {
                wins_or_ties += 1;
            }
        }
        if c.outcome.is_empty() {
            c.outcome = label.to_string();
        } else {
            c.outcome = format!("{label}, {}", c.outcome);
        }
    }
    if wins_or_ties * 2 <= scored_cells {
        violations.push(format!(
            "ensemble won or tied only {wins_or_ties}/{scored_cells} scored cells — not a majority"
        ));
    }

    // Gate 2: never worse than bare safe's worst case, in any scored
    // cell.
    let safe_worst = cells
        .iter()
        .filter(|c| scored(c))
        .map(|c| c.err[2])
        .fold(1.0f64, f64::max);
    for c in cells.iter().filter(|c| scored(c)) {
        if c.err[4] > safe_worst + 1e-9 {
            violations.push(format!(
                "{}: ensemble error {:.2} exceeds safe's matrix-wide worst case {:.2}",
                c.name, c.err[4], safe_worst
            ));
        }
    }

    // Gate 3: fallback engaged where it must, byte-identical to safe.
    let fallback_identical = fallback_failures.is_empty() && fallback_cells >= 2;
    if fallback_cells < 2 {
        violations.push(format!(
            "expected a fault cell and a thrash cell, got {fallback_cells}"
        ));
    }
    violations.extend(fallback_failures);
    assert_eq!(adversarial, 2, "both twins must run");

    let result = EnsembleResult {
        cells,
        wins_or_ties,
        scored_cells,
        safe_worst,
        fallback_identical,
        violations,
    };
    write_json(&result, seed, floor);
    result
}

/// Writes `BENCH_ensemble.json` at the workspace root: the per-cell
/// scores plus the three gate verdicts, machine-readable for CI.
fn write_json(result: &EnsembleResult, seed: u64, floor: f64) {
    let cells: Vec<String> = result
        .cells
        .iter()
        .map(|c| {
            let mut obj = Obj::new().str("cell", &c.name);
            for (col, e) in COLUMNS.iter().zip(c.err) {
                obj = obj.f64(col, e);
            }
            obj.str("trust", c.trust.as_str())
                .str("outcome", &c.outcome)
                .finish()
        })
        .collect();
    let summary = Obj::new()
        .str("bench", "ensemble")
        .u64("seed", seed)
        .u64("cells", result.cells.len() as u64)
        .u64("scored_cells", result.scored_cells as u64)
        .u64("wins_or_ties", result.wins_or_ties as u64)
        .f64("tie_band", TIE_BAND)
        .f64("safe_worst_ratio", result.safe_worst)
        .f64("theorem1_floor", floor)
        .str(
            "fallback_identical",
            if result.fallback_identical {
                "true"
            } else {
                "false"
            },
        )
        .str("gate", if result.passed() { "pass" } else { "fail" })
        .finish();
    // Splice the cell array into the flat summary object by hand — the
    // JSONL writer is deliberately flat.
    let open = summary.strip_suffix('}').expect("summary is an object");
    let json = format!("{open},\"matrix\":[{}]}}\n", cells.join(","));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ensemble.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}
