//! Plan instantiation and the query driver.

use crate::context::{CancelToken, Counted, ExecContext, Observer, Operator, RunControls};
use crate::error::{ExecError, ExecResult};
use crate::ops::{
    Claims, ExchangeOp, ExchangeWorker, FilterOp, HashAggregateOp, HashJoinOp, IndexNestedLoopsOp,
    Input, LimitOp, MergeJoinOp, NestedLoopsOp, ProjectOp, ScanOp, SortOp, StreamAggregateOp,
    NO_MORSEL,
};
use crate::plan::{NodeId, Plan, PlanNode};
use qp_storage::{Database, MorselDispenser, Row};
use std::any::Any;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// A fully-instantiated query ready to run, with its execution context.
pub struct QueryRun {
    ctx: Arc<ExecContext>,
    root: Counted,
    /// Query-level span (0 when no span sink is attached) and the parent
    /// it was begun under — the session span when the service submits.
    query_span: u64,
    query_parent: u64,
    /// The root pipeline span every serial operator nests under.
    pipeline_span: u64,
}

impl QueryRun {
    /// Instantiates the runtime operator tree for `plan` over `db`.
    pub fn new(plan: &Plan, db: &Database) -> ExecResult<QueryRun> {
        QueryRun::with_cancel(plan, db, CancelToken::new())
    }

    /// Like [`QueryRun::new`], but wires the query to an externally-held
    /// [`CancelToken`] so another thread can abort it mid-flight.
    pub fn with_cancel(plan: &Plan, db: &Database, cancel: CancelToken) -> ExecResult<QueryRun> {
        QueryRun::with_controls(plan, db, RunControls::with_cancel(cancel))
    }

    /// Like [`QueryRun::new`], but under full [`RunControls`]: cancel
    /// token, optional deadline, and optional deterministic fault plan —
    /// the chaos-testing entry point.
    pub fn with_controls(
        plan: &Plan,
        db: &Database,
        controls: RunControls,
    ) -> ExecResult<QueryRun> {
        let exchanges = ExchangeLayout::of(plan);
        // When the plan fans subtrees out, the *entire* fault schedule is
        // distributed across the exchanges (each point to exactly one
        // morsel of exactly one exchange); the root context keeps only the
        // pristine proto, so no point can fire twice — once in a worker at
        // its remapped morsel-local index and again at the root.
        let ctx = if exchanges.total > 0 {
            ExecContext::with_controls_faults_forked(plan.len(), controls)
        } else {
            ExecContext::with_controls(plan.len(), controls)
        };
        // Open the query-level spans *before* instantiating the tree:
        // Exchange forks snapshot the current span parent at build time,
        // so the pipeline span must already be in place for worker spans
        // to nest under it.
        let (query_span, query_parent, pipeline_span) = match ctx.span_sink() {
            Some(sink) => {
                let parent = ctx.span_parent();
                let q = sink.begin(ctx.span_query(), parent, qp_obs::SpanKind::Query, 0);
                let p = sink.begin(ctx.span_query(), q, qp_obs::SpanKind::Pipeline, 0);
                ctx.set_span_parent(p);
                (q, parent, p)
            }
            None => (0, 0, 0),
        };
        let root = build_node(plan, plan.root(), db, &ctx, &exchanges, None)?;
        Ok(QueryRun {
            ctx,
            root,
            query_span,
            query_parent,
            pipeline_span,
        })
    }

    /// The shared execution context (counters are readable at any time,
    /// from any thread).
    pub fn context(&self) -> &Arc<ExecContext> {
        &self.ctx
    }

    /// Runs the query to completion, returning all result rows.
    ///
    /// The root is driven in batches of [`crate::ExecTuning::batch_rows`].
    /// An observer is checkpointed at batch boundaries, so it never slows
    /// the batch path; a fault plan or opt-in timing degrades it to one
    /// row per pull, so those instruments see the exact per-row stream a
    /// plain `next()` loop would produce.
    pub fn run(&mut self) -> ExecResult<Vec<Row>> {
        let result = self.drive();
        // Spans close on *both* exits: a cancelled or faulted run still
        // leaves a well-formed tree in the sink (the operators' own spans
        // close via `Counted`'s Drop as the tree unwinds).
        self.end_query_spans();
        result
    }

    /// [`QueryRun::run`] with `observer` checkpointed every `stride`
    /// getnext calls and at every node exhaustion (see
    /// [`ExecContext::set_observer`]); the observer is handed back.
    pub fn run_observed<O: Observer>(
        &mut self,
        observer: O,
        stride: u64,
    ) -> ExecResult<(Vec<Row>, O)> {
        self.ctx.set_observer(Box::new(observer), stride);
        let rows = self.run()?;
        let observer: Box<dyn Any> = self.ctx.take_observer().expect("registered above");
        let observer = observer
            .downcast::<O>()
            .expect("the observer registered above");
        Ok((rows, *observer))
    }

    fn drive(&mut self) -> ExecResult<Vec<Row>> {
        self.root.open()?;
        let batch = self.ctx.tuning().batch_rows.max(1);
        let mut rows = Vec::new();
        while self.root.next_batch(batch, &mut rows)? {}
        self.root.close();
        Ok(rows)
    }

    /// Packages a completed run's rows with its final getnext accounting.
    pub fn output(&self, rows: Vec<Row>) -> QueryOutput {
        QueryOutput {
            node_counts: self.ctx.counters().snapshot(),
            total_getnext: self.ctx.counters().total(),
            rows,
        }
    }

    fn end_query_spans(&mut self) {
        let Some(sink) = self.ctx.span_sink() else {
            return;
        };
        if self.pipeline_span != 0 {
            sink.end(
                self.ctx.span_query(),
                self.pipeline_span,
                self.query_span,
                qp_obs::SpanKind::Pipeline,
                0,
            );
            self.pipeline_span = 0;
        }
        if self.query_span != 0 {
            sink.end(
                self.ctx.span_query(),
                self.query_span,
                self.query_parent,
                qp_obs::SpanKind::Query,
                0,
            );
            self.query_span = 0;
        }
    }
}

impl Drop for QueryRun {
    fn drop(&mut self) {
        // Idempotent: a normal `run()` already zeroed both ids.
        self.end_query_spans();
    }
}

/// Result of a completed query: rows plus the final getnext accounting.
#[derive(Debug)]
pub struct QueryOutput {
    pub rows: Vec<Row>,
    /// Final per-node getnext counts: `counts[i]` is the number of rows
    /// node `i` produced.
    pub node_counts: Vec<u64>,
    /// `total(Q)` under the paper's model of work.
    pub total_getnext: u64,
}

/// Convenience: run `plan` over `db` and collect everything. An observer,
/// if given, is checkpointed at stride 1 — at every batch boundary under
/// the default [`crate::ExecTuning`] — and handed back after the run.
pub fn run_query(
    plan: &Plan,
    db: &Database,
    observer: Option<Box<dyn Observer>>,
) -> ExecResult<(QueryOutput, Option<Box<dyn Observer>>)> {
    let mut run = QueryRun::new(plan, db)?;
    if let Some(obs) = observer {
        run.context().set_observer(obs, 1);
    }
    let rows = run.run()?;
    Ok((run.output(rows), run.context().take_observer()))
}

/// Global numbering of `Exchange` nodes across a plan: `ordinals[id]` is
/// the ordinal of the exchange at node `id` and `total` the plan-wide
/// exchange count. A seeded fault schedule is distributed over this
/// numbering first (each point to exactly one exchange), then over each
/// exchange's *morsels* at claim time — never over workers, so exactly-
/// once injection survives work stealing: which worker claims a morsel
/// cannot change where a fault lands.
struct ExchangeLayout {
    ordinals: Vec<usize>,
    total: usize,
}

impl ExchangeLayout {
    fn of(plan: &Plan) -> ExchangeLayout {
        let mut ordinals = vec![0; plan.len()];
        let mut total = 0;
        for (slot, node) in ordinals.iter_mut().zip(plan.nodes()) {
            if let PlanNode::Exchange { .. } = &node.kind {
                *slot = total;
                total += 1;
            }
        }
        ExchangeLayout { ordinals, total }
    }
}

/// Where the scan leaf of an Exchange worker's chain claims its input:
/// the exchange's shared dispenser, and the cell the worker publishes
/// each claimed morsel index through.
struct Morsels<'a> {
    dispenser: &'a Arc<MorselDispenser>,
    tag: &'a Arc<AtomicUsize>,
}

impl Morsels<'_> {
    fn claims(&self, fork: &Arc<ExecContext>) -> Claims {
        Claims::Morsels {
            dispenser: Arc::clone(self.dispenser),
            ctx: Arc::clone(fork),
            tag: Arc::clone(self.tag),
        }
    }
}

/// Instantiates the subtree rooted at `id`. Inside an Exchange, `ctx` is
/// the worker's fork and `morsels` names the exchange's dispenser: the
/// scan leaf then claims morsels instead of its whole input.
fn build_node(
    plan: &Plan,
    id: NodeId,
    db: &Database,
    ctx: &Arc<ExecContext>,
    exchanges: &ExchangeLayout,
    morsels: Option<&Morsels>,
) -> ExecResult<Counted> {
    let data = plan.node(id);
    let child = |i: usize| -> ExecResult<Counted> {
        build_node(plan, data.children[i], db, ctx, exchanges, morsels)
    };
    let op: Box<dyn Operator> = match &data.kind {
        // A serial heap scan replays the shared-scan registry's epoch
        // when the context carries one. A worker scan claims morsels
        // instead: work stealing already amortizes the pass across that
        // query's own workers.
        PlanNode::SeqScan { table, .. } => {
            let claims = match (morsels, ctx.scan_share()) {
                (Some(m), _) => m.claims(ctx),
                (None, Some(share)) => Claims::Shared {
                    share: Arc::clone(share),
                    cursor: None,
                },
                (None, None) => Claims::Whole,
            };
            Box::new(ScanOp::new(db.table(table)?, Input::Heap, claims))
        }
        PlanNode::IndexRangeScan {
            table,
            index,
            lo,
            hi,
            ..
        } => Box::new(ScanOp::new(
            db.table(table)?,
            Input::index(db.index(index)?, lo.clone(), hi.clone()),
            morsels.map_or(Claims::Whole, |m| m.claims(ctx)),
        )),
        PlanNode::Filter { predicate } => Box::new(FilterOp::new(child(0)?, predicate.clone())),
        PlanNode::Project { exprs } => Box::new(ProjectOp::new(
            child(0)?,
            exprs.iter().map(|(e, _)| e.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::Sort { keys } => Box::new(SortOp::new(child(0)?, keys.clone())),
        PlanNode::Limit { n } => Box::new(LimitOp::new(child(0)?, *n)),
        PlanNode::HashJoin {
            join_type,
            left_keys,
            right_keys,
            ..
        } => Box::new(HashJoinOp::new(
            child(0)?,
            child(1)?,
            left_keys.clone(),
            right_keys.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::MergeJoin {
            join_type,
            left_keys,
            right_keys,
            ..
        } => Box::new(MergeJoinOp::new(
            child(0)?,
            child(1)?,
            left_keys.clone(),
            right_keys.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::NestedLoopsJoin {
            join_type,
            predicate,
            ..
        } => Box::new(NestedLoopsOp::new(
            child(0)?,
            child(1)?,
            predicate.clone(),
            *join_type,
            data.schema.clone(),
        )),
        PlanNode::IndexNestedLoopsJoin {
            join_type,
            inner_table,
            inner_index,
            outer_keys,
            residual,
            ..
        } => {
            let t = db.table(inner_table)?;
            let ix = db.index(inner_index)?;
            if ix.table != *inner_table {
                return Err(ExecError::BadPlan(format!(
                    "index {inner_index} not on table {inner_table}"
                )));
            }
            Box::new(IndexNestedLoopsOp::new(
                child(0)?,
                t,
                ix,
                outer_keys.clone(),
                residual.clone(),
                *join_type,
                data.schema.clone(),
            ))
        }
        PlanNode::HashAggregate { group_by, aggs } => Box::new(HashAggregateOp::new(
            child(0)?,
            group_by.clone(),
            aggs.iter().map(|(a, _)| a.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::StreamAggregate { group_by, aggs } => Box::new(StreamAggregateOp::new(
            child(0)?,
            group_by.clone(),
            aggs.iter().map(|(a, _)| a.clone()).collect(),
            data.schema.clone(),
        )),
        PlanNode::Exchange { partitions } => {
            // The exchange is pure plumbing under the paper's accounting:
            // its wrapper is transparent (per-node counter stays 0), and
            // each worker copy of the subtree bumps the original nodes'
            // shared counters via a forked context.
            let n = (*partitions).max(1);
            let subtree_root = data.children[0];
            if n > 1 {
                for node in subtree_nodes(plan, subtree_root) {
                    ctx.counters().add_producers(node, n as u64 - 1);
                }
            }
            // One shared dispenser per exchange: workers steal morsels of
            // the leaf's input from it.
            let dispenser = Arc::new(MorselDispenser::unbound(exchange_morsel_rows(
                plan,
                subtree_root,
                db,
                ctx,
            )?));
            // This exchange's share of the fault schedule, shared by all
            // of its workers: points split per-*morsel* at claim time, so
            // each point fires in exactly one morsel of one exchange no
            // matter which worker claims it.
            let exchange_faults = ctx
                .fault_proto()
                .map(|f| Arc::new(f.for_partition(exchanges.ordinals[id], exchanges.total)));
            let mut workers = Vec::with_capacity(n);
            for _ in 0..n {
                let fork = ExecContext::fork(ctx, exchange_faults.clone());
                let tag = Arc::new(AtomicUsize::new(NO_MORSEL));
                let morsels = Morsels {
                    dispenser: &dispenser,
                    tag: &tag,
                };
                let chain = build_node(plan, subtree_root, db, &fork, exchanges, Some(&morsels))?;
                workers.push(ExchangeWorker { chain, tag });
            }
            let op = ExchangeOp::new(workers, data.schema.clone(), ctx.tuning().batch_rows);
            return Ok(Counted::transparent(Box::new(op), id, Arc::clone(ctx)));
        }
    };
    Ok(Counted::new(op, id, Arc::clone(ctx)))
}

/// Ids of all nodes in the subtree rooted at `id` (an Exchange subtree is
/// a Filter/Project chain over one leaf, but this walks generally).
fn subtree_nodes(plan: &Plan, id: NodeId) -> Vec<NodeId> {
    let mut out = vec![id];
    let mut i = 0;
    while i < out.len() {
        out.extend(plan.node(out[i]).children.iter().copied());
        i += 1;
    }
    out
}

/// The morsel size for an Exchange subtree, found by walking its
/// Filter/Project chain down to the scan leaf; anything else in the
/// subtree cannot run as morsels. On a paged heap the size is rounded up
/// to whole pages, so no two workers contend for (and re-fault) the same
/// page. Every worker binds the dispenser to its input length at `open`.
fn exchange_morsel_rows(
    plan: &Plan,
    mut id: NodeId,
    db: &Database,
    ctx: &Arc<ExecContext>,
) -> ExecResult<usize> {
    let morsel_rows = ctx.tuning().morsel_rows;
    loop {
        let data = plan.node(id);
        match &data.kind {
            PlanNode::Filter { .. } | PlanNode::Project { .. } => id = data.children[0],
            PlanNode::SeqScan { table, .. } => {
                return Ok(match db.table(table)?.page_rows() {
                    Some(per_page) if per_page > 0 => {
                        let per_page = per_page as usize;
                        morsel_rows.div_ceil(per_page).saturating_mul(per_page)
                    }
                    _ => morsel_rows,
                });
            }
            PlanNode::IndexRangeScan { .. } => return Ok(morsel_rows),
            other => {
                return Err(ExecError::BadPlan(format!(
                    "Exchange subtree contains non-partitionable operator {}",
                    other.op_name()
                )))
            }
        }
    }
}
