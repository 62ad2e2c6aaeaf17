//! The progress monitor: an executor [`Observer`] that maintains bounds
//! and snapshots every estimator at each checkpoint.
//!
//! This is the complete "Progress Estimator" box of the paper's Figure 1:
//! at every checkpoint it reads the execution feedback (the executor's
//! per-node getnext counters and exhausted flags), holds the plan and the
//! statistics-derived state, and produces estimates. [`ProgressMonitor::run`]
//! executes a plan under the monitor and pairs every snapshot with the
//! now-known true progress, yielding the series plotted in the paper's
//! figures.

use crate::bounds::BoundsTracker;
use crate::estimators::{EstimatorContext, ProgressEstimator};
use crate::model::PlanMeta;
use crate::shared::{clamp_snapshot, Health, ProgressCell, RegimeFlags, Trust};
use qp_exec::executor::{QueryOutput, QueryRun};
use qp_exec::{Counters, ExecResult, Observer, Plan, RunControls};
use qp_obs::{EventKind, FlightRecorder, TraceBuffer};
use std::sync::Arc;

/// One recorded instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall-clock nanoseconds since the monitor was created. The paged
    /// experiments use this to compute *time-fraction* true progress —
    /// when GetNexts stop costing uniform time (buffer-pool misses), the
    /// getnext fraction and the time fraction diverge, and this field is
    /// what exposes the gap.
    pub at_ns: u64,
    /// `Curr` at the instant.
    pub curr: u64,
    /// `LB` at the instant.
    pub lb: u64,
    /// `UB` at the instant.
    pub ub: u64,
    /// One estimate per registered estimator, in registration order.
    pub estimates: Vec<f64>,
    /// Trust level of the estimate stream at this instant (monotone
    /// within a run: once degraded or fallen back, it stays so).
    pub trust: Trust,
}

/// Observer that drives the estimator suite during execution.
pub struct ProgressMonitor {
    meta: PlanMeta,
    bounds: BoundsTracker,
    estimators: Vec<Box<dyn ProgressEstimator>>,
    names: Vec<&'static str>,
    stride: u64,
    /// The counters as read at the latest checkpoint.
    produced: Vec<u64>,
    exhausted: Vec<bool>,
    /// `Curr`: the sum of `produced`.
    curr: u64,
    snapshots: Vec<Snapshot>,
    publisher: Option<Arc<ProgressCell>>,
    /// Flight recorder (+ the session id to stamp events with) that
    /// snapshot publishes and clamp degradations are reported into.
    recorder: Option<(Arc<FlightRecorder>, u64)>,
    /// Live checkpoint ring the `TRACE` endpoint reads while the query
    /// still runs.
    trace_sink: Option<Arc<TraceBuffer>>,
    /// Monitor creation time; every snapshot stamps its offset from it.
    started: std::time::Instant,
    /// Shared regime-shift flags: handed to every estimator at
    /// construction (via `attach_regime`), raised by the monitor itself
    /// on contradicted bounds, and by the outside world (the service's
    /// fault/thrash probe) at any time.
    regime: Arc<RegimeFlags>,
    /// Optional external probe polled before every snapshot; returns
    /// [`RegimeFlags`] bits to OR in (e.g. the service layer checking
    /// the flight recorder for fired faults and the buffer pool for
    /// thrash).
    regime_probe: Option<Box<dyn Fn() -> u8 + Send>>,
    /// Monotone trust level folded from regime flags, clamps, and the
    /// estimators' own self-reports.
    trust: Trust,
}

impl ProgressMonitor {
    /// A monitor for `plan` (bounds refined by `stats` when given). The
    /// stride defaults to `total_rows_hint / 200`, at least 1: roughly 200
    /// points per run, like the paper's plots.
    pub fn for_plan(
        plan: &Plan,
        stats: Option<&qp_stats::DbStats>,
        estimators: Vec<Box<dyn ProgressEstimator>>,
        stride: Option<u64>,
    ) -> ProgressMonitor {
        let meta = PlanMeta::from_plan(plan);
        let bounds = BoundsTracker::new(plan, stats);
        let stride = stride.unwrap_or_else(|| {
            let hint: u64 = meta
                .scanned_leaves
                .iter()
                .filter_map(|&(_, c)| c)
                .sum::<u64>()
                .max(200);
            (hint / 200).max(1)
        });
        ProgressMonitor::new(meta, bounds, estimators, stride)
    }

    /// Creates a monitor snapshotting every `stride` getnext calls.
    ///
    /// `meta` should come from a plan annotated with optimizer estimates;
    /// `bounds` from the same plan (with or without statistics).
    pub fn new(
        meta: PlanMeta,
        bounds: BoundsTracker,
        mut estimators: Vec<Box<dyn ProgressEstimator>>,
        stride: u64,
    ) -> ProgressMonitor {
        assert!(stride > 0, "stride must be positive");
        let regime = Arc::new(RegimeFlags::new());
        for e in &mut estimators {
            e.attach_regime(Arc::clone(&regime));
        }
        let names = estimators.iter().map(|e| e.name()).collect();
        let n = meta.n_nodes;
        ProgressMonitor {
            meta,
            bounds,
            estimators,
            names,
            stride,
            produced: vec![0; n],
            exhausted: vec![false; n],
            curr: 0,
            snapshots: Vec::new(),
            publisher: None,
            recorder: None,
            trace_sink: None,
            started: std::time::Instant::now(),
            regime,
            regime_probe: None,
            trust: Trust::Ok,
        }
    }

    /// The run's shared regime-shift flags. Cloning the `Arc` lets any
    /// other thread (the service's session bookkeeping, a test) raise a
    /// regime bit that the estimators and the trust fold will observe at
    /// the next snapshot.
    pub fn regime(&self) -> Arc<RegimeFlags> {
        Arc::clone(&self.regime)
    }

    /// Installs a probe polled immediately before every snapshot; the
    /// returned bits are OR'd into the regime flags. The service layer
    /// uses this to watch its flight recorder (fired faults) and buffer
    /// pool (thrash) without the monitor depending on either.
    pub fn set_regime_probe(&mut self, probe: Box<dyn Fn() -> u8 + Send>) {
        self.regime_probe = Some(probe);
    }

    /// Attaches a [`ProgressCell`] that every snapshot is also published
    /// into, making the monitor's view pollable from other threads while
    /// the query runs (the service layer's `STATUS` path).
    ///
    /// The cell must have been created with this monitor's [`names`].
    ///
    /// [`names`]: ProgressMonitor::names
    pub fn set_publisher(&mut self, cell: Arc<ProgressCell>) {
        assert_eq!(
            cell.names(),
            &self.names[..],
            "publisher cell names must match the monitor's estimators"
        );
        self.publisher = Some(cell);
    }

    /// Attaches a flight recorder; every snapshot publish (and every
    /// clamp degradation) is recorded as an event stamped with `query`.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>, query: u64) {
        self.recorder = Some((recorder, query));
    }

    /// Attaches a live checkpoint ring that every snapshot is pushed
    /// into — the data source of the service's `TRACE <id>` verb. The
    /// buffer's arity must match the estimator count.
    pub fn set_trace_sink(&mut self, sink: Arc<TraceBuffer>) {
        assert_eq!(
            sink.arity(),
            self.names.len(),
            "trace sink arity must match the monitor's estimators"
        );
        self.trace_sink = Some(sink);
    }

    /// Estimator names, in snapshot order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Reads every node's exhausted flag, then its count (the flag's
    /// Acquire load makes an exhausted node's count final), and sets
    /// `curr` to the sum read.
    fn read(&mut self, counters: &Counters) {
        for node in 0..self.produced.len() {
            self.exhausted[node] = counters.is_exhausted(node);
            self.produced[node] = counters.node(node);
        }
        self.curr = self.produced.iter().sum();
    }

    fn snapshot(&mut self) {
        // Poll the external regime probe *before* estimating, so the
        // estimators (and the trust fold below) see a fault or thrash
        // signal at the same checkpoint it was detected.
        if let Some(probe) = &self.regime_probe {
            self.regime.set(probe());
        }
        self.bounds.recompute(&self.produced, &self.exhausted);
        let cx = EstimatorContext {
            produced: &self.produced,
            exhausted: &self.exhausted,
            curr: self.curr,
            lb_total: self.bounds.total_lb(),
            ub_total: self.bounds.total_ub(),
            meta: &self.meta,
            node_bounds: self.bounds.all(),
        };
        let mut estimates: Vec<f64> = self
            .estimators
            .iter_mut()
            .map(|e| e.estimate(&cx))
            .collect();
        let (mut lb, mut ub) = (cx.lb_total, cx.ub_total);
        // Clamp *before* recording so the trace and the live cell agree:
        // a contradicted envelope or NaN estimate degrades the stream but
        // never reaches a reader (or a CSV export) unclamped.
        if clamp_snapshot(self.curr, &mut lb, &mut ub, &mut estimates) {
            self.regime.set(RegimeFlags::CONTRADICTED);
            if let Some(cell) = &self.publisher {
                cell.raise_health(Health::Degraded);
            }
            if let Some((rec, query)) = &self.recorder {
                rec.record(*query, EventKind::SnapshotClamped, self.curr, 0);
            }
        }
        // Fold trust, monotonically: any regime bit degrades the stream,
        // and a self-diagnosing estimator (the ensemble) can raise it
        // further — all the way to Fallback once it delegates to safe.
        let mut trust = self.trust;
        if self.regime.any() {
            trust = trust.max(Trust::Degraded);
        }
        for e in &self.estimators {
            trust = trust.max(e.trust());
        }
        self.trust = trust;
        let snap = Snapshot {
            at_ns: self.started.elapsed().as_nanos() as u64,
            curr: self.curr,
            lb,
            ub,
            estimates,
            trust,
        };
        if let Some(cell) = &self.publisher {
            cell.publish_snapshot(&snap);
        }
        if let Some((rec, query)) = &self.recorder {
            rec.record(*query, EventKind::SnapshotPublished, snap.curr, snap.lb);
        }
        if let Some(sink) = &self.trace_sink {
            sink.push(snap.curr, snap.lb, snap.ub, &snap.estimates);
        }
        // Dedupe: consecutive snapshots at an unchanged `curr` (e.g. a
        // stride checkpoint immediately followed by exhaustions, or
        // several nodes exhausting on the same getnext call) would emit
        // repeated rows in traces and CSV exports. Keep only the latest —
        // it carries the freshest bound refinements.
        match self.snapshots.last_mut() {
            Some(last) if last.curr == snap.curr => *last = snap,
            _ => self.snapshots.push(snap),
        }
    }

    /// Runs `plan` over `db` under `controls` with this monitor
    /// checkpointed, returning the query output and the finished trace.
    /// The trace ends with a final snapshot at 100%.
    ///
    /// The run is driven in batches of at most `stride` rows, so a run of
    /// `total(Q)` getnext calls gets about `total(Q) / stride` stride
    /// checkpoints whatever `controls.tuning.batch_rows` says; stride 1
    /// stays exact per row.
    pub fn run(
        self,
        plan: &Plan,
        db: &qp_storage::Database,
        mut controls: RunControls,
    ) -> ExecResult<(QueryOutput, ProgressTrace)> {
        let stride = self.stride;
        let batch = &mut controls.tuning.batch_rows;
        *batch = (*batch).min(usize::try_from(stride).unwrap_or(usize::MAX));
        let mut run = QueryRun::with_controls(plan, db, controls)?;
        let (rows, mut monitor) = run.run_observed(self, stride)?;
        let out = run.output(rows);
        // One more checkpoint on the final counters, so the trace always
        // ends at 100%.
        monitor.checkpoint(run.context().counters());
        let trace = ProgressTrace {
            names: monitor.names,
            snapshots: monitor.snapshots,
            total: monitor.curr,
        };
        Ok((out, trace))
    }
}

impl Observer for ProgressMonitor {
    fn checkpoint(&mut self, counters: &Counters) {
        self.read(counters);
        self.snapshot();
    }
}

/// A completed run's estimate series, paired with true progress.
#[derive(Debug, Clone)]
pub struct ProgressTrace {
    names: Vec<&'static str>,
    snapshots: Vec<Snapshot>,
    total: u64,
}

impl ProgressTrace {
    /// Assembles a trace from raw parts — for tests and tools that score
    /// hand-built checkpoint series through the same metrics pipeline as
    /// live runs. Every snapshot's estimate vector must match `names`.
    pub fn from_parts(
        names: Vec<&'static str>,
        snapshots: Vec<Snapshot>,
        total: u64,
    ) -> ProgressTrace {
        for s in &snapshots {
            assert_eq!(s.estimates.len(), names.len(), "estimate arity mismatch");
        }
        ProgressTrace {
            names,
            snapshots,
            total,
        }
    }

    /// Estimator names (column order of [`Snapshot::estimates`]).
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// All snapshots.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// `total(Q)` of the completed run.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Index of an estimator by name.
    pub fn estimator_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    /// True progress at each snapshot.
    pub fn true_progress(&self) -> Vec<f64> {
        self.snapshots
            .iter()
            .map(|s| crate::model::progress(s.curr, self.total))
            .collect()
    }

    /// Renders the whole trace as CSV (`curr,progress,lb,ub,<estimators…>`)
    /// for external plotting — the paper's figures are exactly these
    /// columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("curr,progress,lb,ub");
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for s in &self.snapshots {
            out.push_str(&format!(
                "{},{:.6},{},{}",
                s.curr,
                crate::model::progress(s.curr, self.total),
                s.lb,
                s.ub
            ));
            for e in &s.estimates {
                out.push_str(&format!(",{e:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// `(true_progress, estimate)` series for one estimator.
    pub fn series(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        let idx = self.estimator_index(name)?;
        Some(
            self.snapshots
                .iter()
                .map(|s| (crate::model::progress(s.curr, self.total), s.estimates[idx]))
                .collect(),
        )
    }
}

/// Convenience wrapper: run `plan` with the given estimators, returning
/// the query output and the finished trace. The stride defaults as in
/// [`ProgressMonitor::for_plan`].
pub fn run_with_progress(
    plan: &Plan,
    db: &qp_storage::Database,
    stats: Option<&qp_stats::DbStats>,
    estimators: Vec<Box<dyn ProgressEstimator>>,
    stride: Option<u64>,
) -> ExecResult<(QueryOutput, ProgressTrace)> {
    ProgressMonitor::for_plan(plan, stats, estimators, stride).run(plan, db, RunControls::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{Dne, Pmax, Safe};
    use qp_exec::plan::PlanBuilder;
    use qp_exec::Expr;
    use qp_storage::{ColumnType, Database, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table_with_rows(
            "t",
            Schema::of(&[("a", ColumnType::Int)]),
            (0..1000).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        db
    }

    fn scan_filter_plan(db: &Database) -> qp_exec::Plan {
        PlanBuilder::scan(db, "t")
            .unwrap()
            .filter(Expr::cmp(
                qp_exec::CmpOp::Lt,
                Expr::Col(0),
                Expr::Lit(Value::Int(500)),
            ))
            .build()
    }

    #[test]
    fn monitor_produces_monotone_trace() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let (out, trace) = run_with_progress(
            &plan,
            &db,
            None,
            vec![Box::new(Dne), Box::new(Pmax), Box::new(Safe)],
            Some(10),
        )
        .unwrap();
        assert_eq!(out.total_getnext, 1500);
        assert_eq!(trace.total(), 1500);
        assert!(trace.snapshots().len() > 100);
        let prog = trace.true_progress();
        assert!(prog.windows(2).all(|w| w[0] <= w[1]));
        // The final snapshot is at 100%.
        assert!((prog.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmax_never_underestimates_along_whole_trace() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let (_, trace) =
            run_with_progress(&plan, &db, None, vec![Box::new(Pmax)], Some(7)).unwrap();
        for (prog, est) in trace.series("pmax").unwrap() {
            assert!(
                est >= prog - 1e-9,
                "pmax {est} underestimates progress {prog}"
            );
        }
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let (_, trace) = run_with_progress(
            &plan,
            &db,
            None,
            crate::estimators::standard_suite(),
            Some(13),
        )
        .unwrap();
        for s in trace.snapshots() {
            for &e in &s.estimates {
                assert!((0.0..=1.0).contains(&e), "estimate {e} out of range");
            }
        }
    }

    #[test]
    fn trace_has_no_duplicate_curr_rows() {
        // The filter exhausts on the same getnext call that hits a stride
        // boundary, and the final snapshot lands on the last stride point:
        // both used to push duplicate rows at an unchanged `curr`.
        let db = db();
        let plan = scan_filter_plan(&db);
        let (_, trace) = run_with_progress(
            &plan,
            &db,
            None,
            vec![Box::new(Dne), Box::new(Pmax)],
            Some(10),
        )
        .unwrap();
        let currs: Vec<u64> = trace.snapshots().iter().map(|s| s.curr).collect();
        assert!(
            currs.windows(2).all(|w| w[0] < w[1]),
            "duplicate or out-of-order curr rows: {currs:?}"
        );
        // And the CSV therefore has no repeated rows either.
        let csv = trace.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let unique: std::collections::BTreeSet<&str> = rows.iter().copied().collect();
        assert_eq!(rows.len(), unique.len(), "CSV export has repeated rows");
    }

    #[test]
    fn publisher_cell_sees_live_snapshots() {
        use crate::shared::ProgressCell;
        let db = db();
        let plan = scan_filter_plan(&db);
        let meta = PlanMeta::from_plan(&plan);
        let bounds = crate::bounds::BoundsTracker::new(&plan, None);
        let mut monitor = ProgressMonitor::new(meta, bounds, vec![Box::new(Pmax)], 10);
        let cell = Arc::new(ProgressCell::new(vec!["pmax"]));
        monitor.set_publisher(Arc::clone(&cell));
        assert!(cell.read().is_none());
        let (out, _) = monitor
            .run(&plan, &db, qp_exec::RunControls::default())
            .unwrap();
        // The cell holds the last published snapshot; finalization pushes
        // the 100% point.
        let last = cell.read().unwrap();
        assert_eq!(last.curr, out.total_getnext);
        assert_eq!(last.lb, out.total_getnext);
        assert!((cell.estimate("pmax").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn csv_export_is_well_formed() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let (_, trace) =
            run_with_progress(&plan, &db, None, vec![Box::new(Pmax)], Some(100)).unwrap();
        let csv = trace.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "curr,progress,lb,ub,pmax");
        let n_rows = lines.clone().count();
        assert_eq!(n_rows, trace.snapshots().len());
        for line in lines {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
    }

    #[test]
    fn recorder_and_trace_sink_see_live_checkpoints() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let meta = PlanMeta::from_plan(&plan);
        let bounds = crate::bounds::BoundsTracker::new(&plan, None);
        let mut monitor = ProgressMonitor::new(meta, bounds, vec![Box::new(Pmax)], 100);
        let recorder = Arc::new(FlightRecorder::new(64));
        let sink = Arc::new(TraceBuffer::new(4096, 1));
        monitor.set_recorder(Arc::clone(&recorder), 42);
        monitor.set_trace_sink(Arc::clone(&sink));
        let (out, _) = monitor
            .run(&plan, &db, qp_exec::RunControls::default())
            .unwrap();
        let published = recorder.recorded_of(EventKind::SnapshotPublished);
        assert!(
            published > 10,
            "expected many publish events, got {published}"
        );
        assert!(recorder.tail().iter().all(|e| e.query == 42));
        let points = sink.tail();
        assert_eq!(points.len() as u64, sink.pushed(), "nothing should drop");
        // The ring is append-only (no dedupe), so curr is non-decreasing,
        // and every point respects the envelope.
        assert!(points.windows(2).all(|w| w[0].curr <= w[1].curr));
        for p in &points {
            assert!(p.lb <= p.ub);
            assert!(p.curr <= p.ub);
            assert!(p.estimates[0].is_finite());
        }
        assert_eq!(points.last().unwrap().lb, out.total_getnext);
    }

    #[test]
    #[should_panic(expected = "trace sink arity")]
    fn trace_sink_arity_mismatch_panics() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let meta = PlanMeta::from_plan(&plan);
        let bounds = crate::bounds::BoundsTracker::new(&plan, None);
        let mut monitor = ProgressMonitor::new(meta, bounds, vec![Box::new(Pmax)], 100);
        monitor.set_trace_sink(Arc::new(TraceBuffer::new(8, 3)));
    }

    #[test]
    fn clean_runs_keep_trust_ok() {
        let db = db();
        let plan = scan_filter_plan(&db);
        let (_, trace) = run_with_progress(
            &plan,
            &db,
            None,
            vec![Box::new(Dne), Box::new(Pmax), Box::new(Safe)],
            Some(10),
        )
        .unwrap();
        assert!(trace
            .snapshots()
            .iter()
            .all(|s| s.trust == crate::shared::Trust::Ok));
    }

    #[test]
    fn regime_flag_degrades_trust_and_ensemble_tracks_safe() {
        use crate::estimators::{Ensemble, EnsembleStats};
        use crate::shared::{RegimeFlags, Trust};
        let db = db();
        let plan = scan_filter_plan(&db);
        let meta = PlanMeta::from_plan(&plan);
        let bounds = crate::bounds::BoundsTracker::new(&plan, None);
        let ensemble = Ensemble::with_stats(Arc::new(EnsembleStats::new()));
        let monitor =
            ProgressMonitor::new(meta, bounds, vec![Box::new(ensemble), Box::new(Safe)], 10);
        let regime = monitor.regime();
        // A fault fires before the first checkpoint (e.g. the service's
        // probe saw the flight recorder) — raised from outside.
        regime.set(RegimeFlags::FAULT);
        let (_, trace) = monitor
            .run(&plan, &db, qp_exec::RunControls::default())
            .unwrap();
        for s in trace.snapshots() {
            // Trust never drops below Fallback (the ensemble delegated
            // on the very first checkpoint) …
            assert_eq!(s.trust, Trust::Fallback, "at curr {}", s.curr);
            // … and the ensemble column is bitwise the safe column.
            assert_eq!(
                s.estimates[0].to_bits(),
                s.estimates[1].to_bits(),
                "ensemble diverged from safe at curr {}",
                s.curr
            );
        }
    }

    #[test]
    fn regime_probe_is_polled_at_snapshots() {
        use crate::shared::{RegimeFlags, Trust};
        let db = db();
        let plan = scan_filter_plan(&db);
        let meta = PlanMeta::from_plan(&plan);
        let bounds = crate::bounds::BoundsTracker::new(&plan, None);
        let mut monitor = ProgressMonitor::new(meta, bounds, vec![Box::new(Pmax)], 10);
        monitor.set_regime_probe(Box::new(|| RegimeFlags::THRASH));
        let regime = monitor.regime();
        let (_, trace) = monitor
            .run(&plan, &db, qp_exec::RunControls::default())
            .unwrap();
        assert_eq!(regime.bits() & RegimeFlags::THRASH, RegimeFlags::THRASH);
        assert!(trace.snapshots().iter().all(|s| s.trust == Trust::Degraded));
    }

    #[test]
    fn dne_is_exact_for_uniform_single_pipeline() {
        // A pure scan: per-tuple work is constant, dne should be exact.
        let db = db();
        let plan = PlanBuilder::scan(&db, "t").unwrap().build();
        let (_, trace) =
            run_with_progress(&plan, &db, None, vec![Box::new(Dne)], Some(10)).unwrap();
        for (prog, est) in trace.series("dne").unwrap() {
            assert!((est - prog).abs() < 0.01, "dne {est} vs progress {prog}");
        }
    }
}
