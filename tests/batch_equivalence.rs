//! Batch-size and scan-source equivalence.
//!
//! Hash aggregation, sort and hash join (build and probe) pull their
//! inputs with `next_batch` at `ExecTuning::batch_rows`, and scans below
//! them read page at a time. The batch size must stay a calling
//! convention, and so must the way a scan claims its input (whole, in
//! morsels from an Exchange, or through a shared cursor). For the five
//! TPC-H queries of the SQL dialect (the ones the service runs), a
//! bounded index range scan, and a `Limit` directly over a heap scan and
//! over an index scan, on the heap and on the paged backend, serial and
//! at parallelism 2, with and without a shared-scan registry, the result
//! rows, every per-node getnext counter and `total(Q)` must equal the
//! serial one-row-batch run exactly — and the two backends must agree
//! with each other.

use qp_sql::sql_to_plan;
use queryprogress::datagen::{TpchConfig, TpchDb};
use queryprogress::exec::executor::QueryRun;
use queryprogress::exec::plan::{JoinType, PlanBuilder};
use queryprogress::exec::{parallelize, ExecTuning, Plan, QueryOutput, RunControls};
use queryprogress::stats::DbStats;
use queryprogress::storage::{paged, Database, ScanShare, Value};
use queryprogress::workloads::{tpch_sql, SQL_QUERIES};
use std::ops::Bound;
use std::sync::Arc;

const BATCHES: [usize; 3] = [1, 3, 256];

fn run(
    plan: &Plan,
    db: &Database,
    batch_rows: usize,
    share: Option<Arc<ScanShare>>,
) -> QueryOutput {
    let controls = RunControls {
        tuning: ExecTuning {
            batch_rows,
            ..ExecTuning::default()
        },
        scan_share: share,
        ..RunControls::default()
    };
    let mut run = QueryRun::with_controls(plan, db, controls).expect("plan builds");
    let rows = run.run().expect("query runs");
    run.output(rows)
}

/// Rows a `Limit` directly over a scan lets through.
const LIMIT: u64 = 300;

/// The matrix inputs over `db`: each SQL query, a bounded range scan of
/// the non-clustered `orders_custkey` index (its rids jump across
/// pages), and a `Limit` directly over a heap scan and over that index
/// scan, which pulls each source row by row through `next`.
fn inputs(db: &Database, stats: &DbStats) -> Vec<(String, Plan)> {
    let mut inputs: Vec<(String, Plan)> = SQL_QUERIES
        .iter()
        .map(|&q| {
            let sql = tpch_sql(q).expect("dialect query");
            (format!("Q{q}"), sql_to_plan(sql, db, stats).expect("plans"))
        })
        .collect();
    let custkeys = || {
        PlanBuilder::index_range_scan(
            db,
            "orders",
            "orders_custkey",
            Bound::Included(vec![Value::Int(20)]),
            Bound::Excluded(vec![Value::Int(300)]),
        )
        .unwrap()
    };
    inputs.push(("orders_custkey range".into(), custkeys().build()));
    let lineitem = PlanBuilder::scan(db, "lineitem").unwrap();
    inputs.push(("Limit over SeqScan".into(), lineitem.limit(LIMIT).build()));
    inputs.push((
        "Limit over IndexRangeScan".into(),
        custkeys().limit(LIMIT).build(),
    ));
    inputs
}

#[test]
fn breakers_are_batch_size_neutral_on_heap_and_paged() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.003,
        z: 2.0,
        seed: 13,
    });
    let stats = DbStats::build(&t.db);
    let dir = std::env::temp_dir().join(format!("qp-batch-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    t.save_paged(&dir).expect("bulk load");
    // A small pool, so scans really evict and re-read pages.
    let paged = paged::open_database(&dir, 16).expect("paged open");

    let mut per_backend = Vec::new();
    for (backend, db) in [("heap", &t.db), ("paged", &paged)] {
        let mut bases = Vec::new();
        for (name, plan) in inputs(db, &stats) {
            let base = run(&plan, db, 1, None);
            if name.starts_with("Limit") {
                // The limit binds, and the scan under it stops with it.
                assert_eq!(base.rows.len() as u64, LIMIT, "{name} {backend}: rows");
                assert_eq!(base.node_counts[0], LIMIT, "{name} {backend}: scan");
            }
            for degree in [1, 2] {
                let par = parallelize(&plan, degree);
                if degree > 1 && !name.starts_with("Limit") {
                    assert!(par.len() > plan.len(), "{name}: no scan fanned out");
                }
                for batch in BATCHES {
                    for share in [None, Some(Arc::new(ScanShare::new()))] {
                        let shared = share.is_some();
                        let out = run(&par, db, batch, share);
                        let cell = format!(
                            "{name} {backend} degree={degree} batch_rows={batch} shared={shared}"
                        );
                        assert_eq!(out.rows, base.rows, "{cell}: rows");
                        assert_eq!(
                            out.node_counts[..plan.len()],
                            base.node_counts[..],
                            "{cell}: counters"
                        );
                        assert!(
                            out.node_counts[plan.len()..].iter().all(|&c| c == 0),
                            "{cell}: Exchange counted getnext calls"
                        );
                        assert_eq!(out.total_getnext, base.total_getnext, "{cell}: total(Q)");
                    }
                }
            }
            bases.push((name, base));
        }
        per_backend.push(bases);
    }
    for ((name, heap), (_, disk)) in per_backend[0].iter().zip(&per_backend[1]) {
        assert_eq!(heap.rows, disk.rows, "{name}: heap vs paged rows");
        assert_eq!(
            heap.node_counts, disk.node_counts,
            "{name}: heap vs paged counters"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Limit` pulls rows one at a time, so a hash join under it must pull
/// its probe side one row at a time too: at any batch size the probe
/// scan stops exactly where the one-row run stops, not a batch later.
#[test]
fn a_limit_over_a_hash_join_does_not_overrun_the_probe_side() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.0,
        seed: 5,
    });
    let db = &t.db;
    let orders = PlanBuilder::scan(db, "orders").unwrap();
    let lineitem = PlanBuilder::scan(db, "lineitem").unwrap();
    let (ok, lok) = (
        orders.col("o_orderkey").unwrap(),
        lineitem.col("l_orderkey").unwrap(),
    );
    let plan = orders
        .hash_join(lineitem, vec![ok], vec![lok], JoinType::Inner, false)
        .unwrap()
        .limit(10)
        .build();
    let base = run(&plan, db, 1, None);
    assert_eq!(base.rows.len(), 10);
    assert!(
        base.total_getnext < (db.table("orders").unwrap().len() + 100) as u64,
        "the probe scan stopped early"
    );
    for batch in BATCHES {
        let out = run(&plan, db, batch, None);
        assert_eq!(out.rows, base.rows, "batch_rows={batch}");
        assert_eq!(out.node_counts, base.node_counts, "batch_rows={batch}");
    }
}
