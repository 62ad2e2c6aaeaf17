//! The three workloads. Each sets up a generated TPC-H database, starts
//! `ProgressServer` in-process, and drives it over TCP with
//! `ServiceClient` from this one thread, over at most two connections.
//! Every reply is checked; a failed check counts against `ok_share` and
//! makes the command exit non-zero.

use crate::measure::{self, MixOrder, OpenLoop, Tail};
use crate::trace::{self, Tracer};
use qp_datagen::{TpchConfig, TpchDb};
use qp_service::{
    AuditLine, MetricsSnapshot, ProgressServer, QueryService, QueryState, ServerConfig,
    ServiceClient, ServiceConfig, StatusLine, SubmitRequest,
};
use qp_stats::DbStats;
use qp_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SCALE: f64 = 0.02;
pub const ZIPF: f64 = 2.0;
/// The database is one fixed data set, as TPC-H's own generator makes one
/// per scale factor; the run's seed orders the query mix. With the data
/// fixed, `AUDIT` errors repeat exactly at degree 1, and seed-to-seed
/// spread measures the system rather than the data.
pub const DATA_SEED: u64 = 0x7c9;
/// Buffer-pool frames of the paged backend (4 KiB pages, so 1 MiB).
pub const POOL_FRAMES: usize = 256;
pub const WORKERS: usize = 2;
pub const EVENT_LOOPS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// In-process probe repetitions per query in the traced run.
pub const PROBE_REPS: usize = 3;
/// Served queries are polled this often until terminal.
pub const POLL_EVERY: Duration = Duration::from_millis(1);
/// Open-loop `STATUS` rate on `status_poll`.
pub const STATUS_RATE: u32 = 200;
/// A query that is not terminal after this long has timed out.
pub const QUERY_LIMIT: Duration = Duration::from_secs(60);
/// A `STATUS` reply later than this (from its due time) has timed out.
pub const STATUS_LIMIT: Duration = Duration::from_secs(1);
/// Least share of the traced in-process phase that layer spans must
/// cover; the rest is unattributed benchmark glue.
pub const COVERAGE_MIN: f64 = 0.97;
/// Where runs write their scratch database and span dump, relative to
/// the checkout root.
pub const WORK_DIR: &str = ".bench_work";

/// The five TPC-H queries with a rendering in the `qp-sql` dialect. The
/// benchmark owns its input texts so that no change to the program can
/// change what it measures.
pub const QUERIES: [(&str, &str); 5] = [
    (
        "Q1",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
         SUM(l_extendedprice) AS sum_base_price, \
         SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
         AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
         AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
         FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
         GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    ),
    (
        "Q3",
        "SELECT l_orderkey, o_orderdate, o_shippriority, \
         SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem \
         WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
         AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' \
         AND l_shipdate > DATE '1995-03-15' \
         GROUP BY l_orderkey, o_orderdate, o_shippriority \
         ORDER BY revenue DESC, o_orderdate LIMIT 10",
    ),
    (
        "Q5",
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem, supplier, nation, region \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
         AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
         AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01' \
         AND o_orderdate < DATE '1995-01-01' \
         GROUP BY n_name ORDER BY revenue DESC",
    ),
    (
        "Q6",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
         AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    ),
    (
        "Q10",
        "SELECT c_custkey, c_name, c_acctbal, n_name, \
         SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem, nation \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
         AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01' \
         AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
         GROUP BY c_custkey, c_name, c_acctbal, n_name ORDER BY revenue DESC LIMIT 20",
    ),
];

/// `status_poll`'s target: a cross product (no equi-join edge, so naive
/// nested loops over ≈16k × 120k rows) that runs far longer than any run.
pub const LONG_SQL: &str =
    "SELECT COUNT(*) AS n FROM partsupp, lineitem WHERE ps_supplycost > l_extendedprice";

/// Estimators scored by `AUDIT` (the service's default suite).
pub const ESTIMATORS: [&str; 3] = ["dne", "pmax", "safe"];

/// Operator kinds reported under `exec.getnext_by_op.<op>`; any other
/// kind is summed under `other`.
pub const OPS: [&str; 6] = [
    "SeqScan",
    "Filter",
    "HashJoin",
    "IndexNLJoin",
    "HashAggregate",
    "Sort",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchServed,
    StatusPoll,
    PagedScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TpchServed,
        Workload::StatusPoll,
        Workload::PagedScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchServed => "tpch_served",
            Workload::StatusPoll => "status_poll",
            Workload::PagedScan => "paged_scan",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn paged(self) -> bool {
        self == Workload::PagedScan
    }

    /// Degree the measured loop submits at.
    fn loop_degree(self) -> usize {
        match self {
            Workload::TpchServed => 2,
            Workload::StatusPoll | Workload::PagedScan => 1,
        }
    }

    /// Degree of the check pass that precedes the loop. Together the
    /// workloads check both backends at degrees 1 and 2.
    fn check_degree(self) -> usize {
        match self {
            Workload::TpchServed | Workload::StatusPoll => 1,
            Workload::PagedScan => 2,
        }
    }
}

pub type Res<T> = Result<T, String>;

fn io<T>(r: std::io::Result<T>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed if it came with problems.
    fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Expected result of one query, from the bare executor.
#[derive(Debug, Clone, Copy)]
struct Expected {
    rows: u64,
    total: u64,
}

struct Env {
    /// The heap database the oracle runs on.
    db: Arc<Database>,
    /// Its statistics, when set-up built them (heap backend only).
    stats: Option<Arc<DbStats>>,
    service: Arc<QueryService>,
    server: ProgressServer,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: EVENT_LOOPS,
        ..ServerConfig::default()
    }
}

fn tpch_config() -> TpchConfig {
    TpchConfig {
        scale: SCALE,
        z: ZIPF,
        seed: DATA_SEED,
    }
}

fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        io(
            std::fs::remove_dir_all(dir),
            "clearing the scratch database",
        )?;
    }
    Ok(())
}

/// Everything `setup_s` times: data generation, statistics (heap) or
/// paged save + open (paged), and binding the server.
fn setup(wl: Workload, dir: &Path, tr: &mut Tracer) -> Res<Env> {
    let tpch = tr.span("datagen.generate", 0, |_| TpchDb::generate(tpch_config()));
    let (service, db, stats) = if wl.paged() {
        fresh_dir(dir)?;
        tr.span("storage.paged_save", 0, |_| tpch.save_paged(dir))
            .map_err(|e| format!("paged save: {e}"))?;
        let service = tr
            .span("storage.paged_open", 0, |_| {
                QueryService::open_paged(dir, POOL_FRAMES, service_config())
            })
            .map_err(|e| format!("paged open: {e}"))?;
        (service, Arc::new(tpch.db), None)
    } else {
        let db = Arc::new(tpch.db);
        let stats = Arc::new(tr.span("stats.build", 0, |_| DbStats::build(&db)));
        let service =
            QueryService::with_stats(Arc::clone(&db), Arc::clone(&stats), service_config());
        (service, db, Some(stats))
    };
    let service = Arc::new(service);
    let server = io(
        tr.span("service.bind", 0, |_| {
            ProgressServer::bind_with("127.0.0.1:0", Arc::clone(&service), server_config())
        }),
        "binding the server",
    )?;
    Ok(Env {
        db,
        stats,
        service,
        server,
    })
}

/// Bare-executor run of every query: the result every served reply is
/// checked against.
fn oracle(db: &Database, stats: &DbStats, tr: &mut Tracer) -> Res<Vec<Expected>> {
    QUERIES
        .iter()
        .map(|(name, sql)| {
            tr.span("oracle.query", 0, |tr| {
                let plan = tr
                    .span("sql.plan", 0, |_| qp_sql::sql_to_plan(sql, db, stats))
                    .map_err(|e| format!("{name}: plan: {e}"))?;
                let (out, _) = tr
                    .span("exec.run_query", 0, |_| qp_exec::run_query(&plan, db, None))
                    .map_err(|e| format!("{name}: run: {e}"))?;
                Ok(Expected {
                    rows: out.rows.len() as u64,
                    total: out.total_getnext,
                })
            })
        })
        .collect()
}

/// Client-side `STATUS` timing, summed over a phase.
#[derive(Debug, Default)]
struct PollStats {
    round_trip_ns: u128,
    count: u64,
    late_max: Duration,
}

impl PollStats {
    fn record(&mut self, late: Duration, round_trip: Duration) {
        self.round_trip_ns += round_trip.as_nanos();
        self.count += 1;
        self.late_max = self.late_max.max(late);
    }

    fn mean_round_trip_us(&self) -> f64 {
        self.round_trip_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// The monotonicity checks every `STATUS` series of one query must pass.
#[derive(Debug, Default)]
struct Watch {
    rank: u8,
    curr: u64,
}

impl Watch {
    fn check(&mut self, st: &StatusLine, problems: &mut Vec<String>) {
        let rank = match st.state {
            QueryState::Queued => 0,
            QueryState::Running => 1,
            _ => 2,
        };
        if rank < self.rank {
            problems.push(format!("{}: state went back to {}", st.id, st.state));
        }
        self.rank = self.rank.max(rank);
        if let Some(curr) = st.curr {
            if curr < self.curr {
                problems.push(format!("{}: curr fell from {} to {curr}", st.id, self.curr));
            }
            self.curr = self.curr.max(curr);
        }
        if let (Some(lb), Some(ub)) = (st.lb, st.ub) {
            if lb > ub {
                problems.push(format!("{}: lb {lb} > ub {ub}", st.id));
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(tr: &mut Tracer, due: Instant, query: u64) {
    let now = Instant::now();
    if due > now {
        tr.span("loadgen.sleep", query, |_| std::thread::sleep(due - now));
    }
}

/// A served query that reached `FINISHED` and was scored by `AUDIT`.
#[derive(Debug, Clone)]
struct Served {
    kind: usize,
    query_ms: f64,
    polls: u64,
    /// `AUDIT` `avg_ratio` per estimator, in [`ESTIMATORS`] order.
    ratios: [f64; 3],
    points: u64,
}

/// Submits query `kind`, polls it every [`POLL_EVERY`] until terminal,
/// checks the final reply against the oracle, and scores it with `AUDIT`.
/// Failed checks land in `problems`; only a broken connection is an `Err`.
fn served_query(
    cl: &mut ServiceClient,
    tr: &mut Tracer,
    kind: usize,
    degree: usize,
    expected: Expected,
    polls: &mut PollStats,
    problems: &mut Vec<String>,
) -> Res<Option<Served>> {
    let root = tr.begin("loop.query", 0);
    let out = served_query_inner(cl, tr, kind, degree, expected, polls, problems, root);
    tr.end(root);
    out
}

#[allow(clippy::too_many_arguments)]
fn served_query_inner(
    cl: &mut ServiceClient,
    tr: &mut Tracer,
    kind: usize,
    degree: usize,
    expected: Expected,
    polls: &mut PollStats,
    problems: &mut Vec<String>,
    root: trace::SpanId,
) -> Res<Option<Served>> {
    let (name, sql) = QUERIES[kind];
    let t0 = Instant::now();
    let submit = tr.begin("client.submit", 0);
    let reply = cl.submit_req(&SubmitRequest::new(sql).parallelism(degree));
    tr.end(submit);
    let reply = io(reply, "SUBMIT")?;
    let id = match reply {
        Ok(id) => id,
        Err(e) => {
            problems.push(format!("{name}: SUBMIT refused: {e}"));
            return Ok(None);
        }
    };
    tr.set_query(root, id.0);
    tr.set_query(submit, id.0);

    let mut watch = Watch::default();
    let mut due = Instant::now() + POLL_EVERY;
    let mut n = 0u64;
    let (last, replied) = loop {
        sleep_until(tr, due, id.0);
        let sent = Instant::now();
        let st = tr.span("client.status", id.0, |_| cl.status(id));
        let replied = Instant::now();
        let st = io(st, "STATUS")?;
        n += 1;
        polls.record(sent.saturating_duration_since(due), replied - sent);
        let st = match st {
            Ok(st) => st,
            Err(e) => {
                problems.push(format!("{name} {id}: STATUS refused: {e}"));
                return Ok(None);
            }
        };
        watch.check(&st, problems);
        if st.state.is_terminal() {
            break (st, replied);
        }
        if replied - t0 > QUERY_LIMIT {
            problems.push(format!("{name} {id}: not terminal after {QUERY_LIMIT:?}"));
            io(cl.cancel(id), "CANCEL")?.ok();
            return Ok(None);
        }
        due = (due + POLL_EVERY).max(replied);
    };
    let query_ms = ms(replied - t0);
    if last.state != QueryState::Finished {
        problems.push(format!(
            "{name} {id}: ended {} instead of FINISHED",
            last.state
        ));
        return Ok(None);
    }
    if last.rows != Some(expected.rows) || last.total_getnext != Some(expected.total) {
        problems.push(format!(
            "{name} {id}: rows={:?} total={:?}, bare executor gives rows={} total={}",
            last.rows, last.total_getnext, expected.rows, expected.total
        ));
    }

    let audit = tr.span("client.audit", id.0, |_| cl.audit(Some(id)));
    let lines = match io(audit, "AUDIT")? {
        Ok(lines) => lines,
        Err(e) => {
            problems.push(format!("{name} {id}: AUDIT refused: {e}"));
            return Ok(None);
        }
    };
    let mut ratios = [0.0; 3];
    let mut points = 0;
    for (slot, est) in ratios.iter_mut().zip(ESTIMATORS) {
        let line = lines
            .iter()
            .filter_map(|l| AuditLine::parse(l).ok())
            .find(|a| a.estimator == est && a.query == id);
        let Some(a) = line else {
            problems.push(format!("{name} {id}: AUDIT has no {est} line"));
            return Ok(None);
        };
        if a.total != expected.total {
            problems.push(format!(
                "{name} {id}: AUDIT total {} != {}",
                a.total, expected.total
            ));
        }
        if est == "pmax" && a.p4_violations != 0 {
            problems.push(format!(
                "{name} {id}: pmax under-reported progress {} times (Property 4)",
                a.p4_violations
            ));
        }
        *slot = a.avg_ratio;
        points = a.points;
    }
    Ok(Some(Served {
        kind,
        query_ms,
        polls: n,
        ratios,
        points,
    }))
}

/// Runs the five queries once each, in mix order, counting each as one
/// operation.
fn check_pass(
    cl: &mut ServiceClient,
    tr: &mut Tracer,
    degree: usize,
    expected: &[Expected],
    out: &mut Outcome,
    polls: &mut PollStats,
) -> Res<Vec<Served>> {
    let mut served = Vec::new();
    for (kind, &exp) in expected.iter().enumerate() {
        let mut problems = Vec::new();
        served.extend(served_query(
            cl,
            tr,
            kind,
            degree,
            exp,
            polls,
            &mut problems,
        )?);
        out.op(problems);
    }
    Ok(served)
}

/// What the measured loop of a query workload yields.
struct QueryLoop {
    served: Vec<Served>,
    wall: Duration,
    /// Pool counters `[hits, misses, evictions]` over the first cycle
    /// (traced run only).
    first_cycle_pool: [f64; 3],
    /// Query latencies of traced and untraced cycles (traced run only).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

const POOL_COUNTERS: [&str; 3] = [
    "qp_pagecache_hits_total",
    "qp_pagecache_misses_total",
    "qp_pagecache_evictions_total",
];

/// Closed loop over whole cycles of the seeded mix until `seconds` have
/// passed. Whole cycles keep the mix's composition fixed, so the median
/// and tail do not depend on where the clock stopped.
#[allow(clippy::too_many_arguments)]
fn query_loop(
    cl: &mut ServiceClient,
    tr: &mut Tracer,
    traced: bool,
    seed: u64,
    seconds: u64,
    degree: usize,
    expected: &[Expected],
    out: &mut Outcome,
    polls: &mut PollStats,
) -> Res<QueryLoop> {
    let mut order = MixOrder::new(seed, QUERIES.len());
    let mut result = QueryLoop {
        served: Vec::new(),
        wall: Duration::ZERO,
        first_cycle_pool: [0.0; 3],
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
    };
    let pool_before = if traced { Some(scrape(cl, tr)?) } else { None };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut cycle = 0usize;
    // Three cycles at least: fifteen queries leave ten beyond a tail, and
    // the traced run gets both traced and untraced cycles.
    while cycle < 3 || Instant::now() < deadline {
        // The traced run alternates untraced and traced cycles; the gap
        // between their medians is the tracer's own cost.
        if traced {
            tr.set_enabled(cycle % 2 == 1);
        }
        for kind in order.next_cycle() {
            let mut problems = Vec::new();
            let s = served_query(cl, tr, kind, degree, expected[kind], polls, &mut problems)?;
            out.op(problems);
            if let Some(s) = s {
                if traced {
                    if cycle % 2 == 1 {
                        &mut result.traced_ms
                    } else {
                        &mut result.untraced_ms
                    }
                    .push(s.query_ms);
                }
                result.served.push(s);
            }
        }
        if let (0, Some(before)) = (cycle, &pool_before) {
            let after = scrape(cl, tr)?;
            for (slot, name) in result.first_cycle_pool.iter_mut().zip(POOL_COUNTERS) {
                *slot = delta(before, &after, name);
            }
        }
        cycle += 1;
    }
    result.wall = start.elapsed();
    if traced {
        tr.set_enabled(true);
    }
    Ok(result)
}

/// What `status_poll`'s open loop yields.
struct StatusLoop {
    latency_ms: Vec<f64>,
    wall: Duration,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// `status_poll`: connection A runs [`LONG_SQL`]; connection B sends
/// `STATUS` for it at a fixed [`STATUS_RATE`], each timed from when it
/// was due. A cancels the query at the end.
fn status_loop(
    a: &mut ServiceClient,
    b: &mut ServiceClient,
    tr: &mut Tracer,
    traced: bool,
    seconds: u64,
    out: &mut Outcome,
    polls: &mut PollStats,
) -> Res<StatusLoop> {
    let mut long_problems = Vec::new();
    let id = match io(
        a.submit_req(&SubmitRequest::new(LONG_SQL).parallelism(1)),
        "SUBMIT",
    )? {
        Ok(id) => id,
        Err(e) => return Err(format!("long query refused: {e}")),
    };
    // Warm-up (not measured): wait until the query publishes progress.
    let mut watch = Watch::default();
    let t0 = Instant::now();
    loop {
        let st = io(b.status(id), "STATUS")?.map_err(|e| format!("STATUS {id}: {e}"))?;
        watch.check(&st, &mut long_problems);
        if st.state == QueryState::Running && st.curr.is_some_and(|c| c > 0) {
            break;
        }
        if st.state.is_terminal() || t0.elapsed() > QUERY_LIMIT {
            return Err(format!("long query never got going: {}", st.state));
        }
        std::thread::sleep(POLL_EVERY);
    }

    let epoch = Instant::now();
    let schedule = OpenLoop::new(Duration::from_millis(5), STATUS_RATE);
    let end = schedule.start + Duration::from_secs(seconds);
    let mut result = StatusLoop {
        latency_ms: Vec::new(),
        wall: Duration::ZERO,
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
    };
    let mut i = 0u32;
    while schedule.due(i) < end {
        if traced {
            tr.set_enabled(i % 2 == 1);
        }
        let root = tr.begin("loop.request", id.0);
        sleep_until(tr, epoch + schedule.due(i), id.0);
        let sent = epoch.elapsed();
        let st = tr.span("client.status", id.0, |_| b.status(id));
        let replied = epoch.elapsed();
        tr.end(root);
        let timed = schedule.time(i, sent, replied);
        polls.record(timed.late, timed.round_trip);
        let mut problems = Vec::new();
        match io(st, "STATUS")? {
            Ok(st) => {
                watch.check(&st, &mut problems);
                if st.state != QueryState::Running {
                    problems.push(format!("{id}: {} before the run ended", st.state));
                }
            }
            Err(e) => problems.push(format!("STATUS {id} refused: {e}")),
        }
        if timed.latency > STATUS_LIMIT {
            problems.push(format!("STATUS {id} took {:?}", timed.latency));
        }
        out.op(problems);
        let lat = ms(timed.latency);
        result.latency_ms.push(lat);
        if traced {
            if i % 2 == 1 {
                &mut result.traced_ms
            } else {
                &mut result.untraced_ms
            }
            .push(lat);
        }
        i += 1;
    }
    result.wall = epoch.elapsed().saturating_sub(schedule.start);
    if traced {
        tr.set_enabled(true);
    }

    match io(a.cancel(id), "CANCEL")? {
        Ok(QueryState::Running) => {}
        Ok(s) => long_problems.push(format!("CANCEL {id} found it {s}, not RUNNING")),
        Err(e) => long_problems.push(format!("CANCEL {id} refused: {e}")),
    }
    let t0 = Instant::now();
    loop {
        let st = io(b.status(id), "STATUS")?.map_err(|e| format!("STATUS {id}: {e}"))?;
        watch.check(&st, &mut long_problems);
        if st.state.is_terminal() {
            if st.state != QueryState::Cancelled {
                long_problems.push(format!("{id} ended {} after CANCEL", st.state));
            }
            break;
        }
        if t0.elapsed() > QUERY_LIMIT {
            long_problems.push(format!("{id} ignored CANCEL"));
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    out.op(long_problems);
    Ok(result)
}

fn scrape(cl: &mut ServiceClient, tr: &mut Tracer) -> Res<MetricsSnapshot> {
    io(
        tr.span("client.metrics", 0, |_| cl.metrics_snapshot()),
        "METRICS",
    )?
    .map_err(|e| format!("METRICS refused: {e}"))
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.value(name).unwrap_or(0.0) - before.value(name).unwrap_or(0.0)
}

/// Mean of a histogram family over the interval between two scrapes, in
/// the histogram's unit; 0 when nothing was recorded.
fn hist_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str, labels: &str) -> f64 {
    let count = delta(before, after, &format!("{name}_count{labels}"));
    if count == 0.0 {
        return 0.0;
    }
    delta(before, after, &format!("{name}_sum{labels}")) / count
}

/// Resident set size of this process, in KiB (server and client both
/// live here).
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `f` while a sampler thread records peak RSS every 20 ms.
fn with_rss_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = rss_kib();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(rss_kib());
            }
            peak
        });
        // Stops the sampler even if `f` unwinds, so the scope can end.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let guard = StopOnDrop(&stop);
        let out = f();
        drop(guard);
        let peak = sampler.join().expect("the RSS sampler does not panic");
        (out, peak as f64 / 1024.0)
    })
}

/// Mean of `Table::scan` over a table, in ns per row, median of three
/// passes.
fn scan_ns_per_row(table: &qp_storage::Table, tr: &mut Tracer, span: &'static str) -> f64 {
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            tr.span(span, 0, |_| {
                let t = Instant::now();
                let mut rows = 0u64;
                for (_, row) in table.scan() {
                    std::hint::black_box(&row);
                    rows += 1;
                }
                t.elapsed().as_nanos() as f64 / rows.max(1) as f64
            })
        })
        .collect();
    measure::median(&passes)
}

/// Mean self time, in seconds, of the spans named `name`.
fn span_mean_s(tr: &Tracer, name: &str) -> f64 {
    let table = trace::self_times(tr.spans());
    table
        .get(name)
        .map_or(0.0, |r| r.self_ns as f64 / r.calls.max(1) as f64 / 1e9)
}

/// In-process layer probe (traced run): per query, median over
/// [`PROBE_REPS`] of planning, the bare executor, and the monitored
/// in-process `submit` + `wait`; then the mean over the five queries.
struct Probe {
    plan_us: f64,
    bare_ms: f64,
    monitored_ms: f64,
}

fn inprocess_probe(
    service: &QueryService,
    expected: &[Expected],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Res<Probe> {
    let db = service.database();
    let stats = service.stats();
    let mut times = vec![[Vec::new(), Vec::new(), Vec::new()]; QUERIES.len()];
    for _ in 0..PROBE_REPS {
        for (kind, (name, sql)) in QUERIES.iter().enumerate() {
            let mut problems = Vec::new();
            let root = tr.begin("probe.query", 0);
            let t = Instant::now();
            let plan = tr
                .span("sql.plan", 0, |_| qp_sql::sql_to_plan(sql, db, stats))
                .map_err(|e| format!("{name}: plan: {e}"))?;
            times[kind][0].push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let (bare, _) = tr
                .span("exec.run_query", 0, |_| qp_exec::run_query(&plan, db, None))
                .map_err(|e| format!("{name}: run: {e}"))?;
            times[kind][1].push(ms(t.elapsed()));
            if bare.rows.len() as u64 != expected[kind].rows
                || bare.total_getnext != expected[kind].total
            {
                problems.push(format!(
                    "{name}: bare run on the workload's backend disagrees with the oracle"
                ));
            }
            let t = Instant::now();
            let state = tr.span("core.submit_wait", 0, |_| {
                service
                    .submit(sql)
                    .map_err(|e| format!("{name}: in-process submit: {e}"))
                    .map(|id| service.wait(id))
            })?;
            times[kind][2].push(ms(t.elapsed()));
            if state != Some(QueryState::Finished) {
                problems.push(format!("{name}: in-process run ended {state:?}"));
            }
            tr.end(root);
            out.op(problems);
        }
    }
    let mean_of_medians =
        |i: usize| times.iter().map(|t| measure::median(&t[i])).sum::<f64>() / QUERIES.len() as f64;
    Ok(Probe {
        plan_us: mean_of_medians(0),
        bare_ms: mean_of_medians(1),
        monitored_ms: mean_of_medians(2),
    })
}

fn latency_metrics(out: &mut Outcome, sample: Vec<f64>) -> Res<(f64, Tail)> {
    let sorted = measure::sorted(sample);
    if sorted.is_empty() {
        return Err("no latency samples".into());
    }
    let p50 = measure::percentile(&sorted, 50.0);
    let tail = measure::tail(&sorted).ok_or_else(|| {
        format!(
            "{} latency samples: too few for a tail (need {})",
            sorted.len(),
            measure::TAIL_BEYOND + 1
        )
    })?;
    out.metric("latency_ms_p50", p50, "ms");
    out.metric("latency_ms_tail", tail.value, "ms");
    Ok((p50, tail))
}

fn err_metrics(out: &mut Outcome, served: &[Served]) -> Res<()> {
    for (i, est) in ESTIMATORS.iter().enumerate() {
        let ratios: Vec<f64> = served.iter().map(|s| s.ratios[i]).collect();
        let g = measure::gmean(&ratios)
            .ok_or_else(|| format!("no positive {est} ratio errors to average"))?;
        out.metric(format!("err_gmean_{est}"), g, "ratio");
    }
    Ok(())
}

/// `METRICS` scrapes around the check pass and the loop (traced run).
struct Scrapes {
    before_check: MetricsSnapshot,
    after_check: MetricsSnapshot,
    before_loop: MetricsSnapshot,
    after_loop: MetricsSnapshot,
}

/// Everything the traced run measures besides the loop itself.
struct Layers {
    scrapes: Scrapes,
    probe: Probe,
    /// `Table::scan` ns per row over `lineitem`: heap, paged.
    scans: [f64; 2],
    /// Share of the in-process phase's wall time the root spans cover.
    coverage: f64,
}

/// Runs one workload and returns its checks and metrics.
pub fn run(wl: Workload, seed: u64, seconds: u64, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(traced);
    let work = PathBuf::from(WORK_DIR);
    io(
        std::fs::create_dir_all(&work),
        "creating the work directory",
    )?;
    let dir = work.join(format!("{}-db", wl.name()));
    let degree = wl.loop_degree();
    out.note(format!(
        "regime: workload={} seed={seed} nproc={} scale={SCALE} z={ZIPF} data_seed={DATA_SEED} \
         backend={} pool_frames={} server workers={WORKERS} event_loops={EVENT_LOOPS} \
         degree={degree} check_degree={} flush=read-only (no WAL fsync on the measured path)",
        wl.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if wl.paged() { "paged" } else { "heap" },
        if wl.paged() {
            POOL_FRAMES.to_string()
        } else {
            "-".into()
        },
        wl.check_degree(),
    ));

    // `setup_s` is the median of [`SETUP_REPS`] set-ups. All but the
    // first run after the loop, so their garbage stays out of the loop's
    // resident memory.
    let phase_from = tr.mark();
    let phase_t0 = Instant::now();
    let t = Instant::now();
    let Env {
        db,
        stats,
        service,
        mut server,
    } = setup(wl, &dir, &mut tr)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Outside `setup_s`: the oracle, on the heap database.
    let stats = match stats {
        Some(stats) => stats,
        None => Arc::new(tr.span("stats.build", 0, |_| DbStats::build(&db))),
    };
    let expected = oracle(&db, &stats, &mut tr)?;
    let scans = if traced {
        storage_probes(wl, &db, &service, &work, &mut tr)?
    } else {
        [0.0; 2]
    };
    drop((db, stats));

    let addr = server.local_addr();
    let mut a = io(ServiceClient::connect(addr), "connecting")?;
    let maybe_scrape = |a: &mut ServiceClient, tr: &mut Tracer| -> Res<Option<MetricsSnapshot>> {
        if traced {
            scrape(a, tr).map(Some)
        } else {
            Ok(None)
        }
    };
    let before_check = maybe_scrape(&mut a, &mut tr)?;
    let checked = check_pass(
        &mut a,
        &mut tr,
        wl.check_degree(),
        &expected,
        &mut out,
        &mut PollStats::default(),
    )?;
    let after_check = maybe_scrape(&mut a, &mut tr)?;
    let probe = if traced {
        Some(inprocess_probe(&service, &expected, &mut tr, &mut out)?)
    } else {
        None
    };
    let coverage = tr.root_ns_since(phase_from) as f64 / phase_t0.elapsed().as_nanos() as f64;

    // The measured loop.
    let mut polls = PollStats::default();
    let before_loop = maybe_scrape(&mut a, &mut tr)?;
    let mut b = match wl {
        Workload::StatusPoll => Some(io(ServiceClient::connect(addr), "connecting")?),
        _ => None,
    };
    let mut measure_loop = |out: &mut Outcome| -> Res<Measured> {
        Ok(match b.as_mut() {
            Some(b) => Measured::Status(status_loop(
                &mut a, b, &mut tr, traced, seconds, out, &mut polls,
            )?),
            None => Measured::Query(query_loop(
                &mut a, &mut tr, traced, seed, seconds, degree, &expected, out, &mut polls,
            )?),
        })
    };
    let (measured, rss_mb) = if traced {
        (measure_loop(&mut out)?, 0.0)
    } else {
        let (m, rss) = with_rss_peak(|| measure_loop(&mut out));
        (m?, rss)
    };
    let after_loop = maybe_scrape(&mut a, &mut tr)?;
    drop((a, b));
    server.shutdown();
    drop((server, service));
    if !traced {
        for _ in 1..SETUP_REPS {
            let t = Instant::now();
            let env = setup(wl, &dir, &mut tr)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(env);
        }
    }
    fresh_dir(&dir)?;

    // The served queries the per-query and error figures are taken over:
    // the loop's, or the check pass's on `status_poll`, whose loop
    // finishes no query.
    let served = match &measured {
        Measured::Query(q) => &q.served[..],
        Measured::Status(_) => &checked[..],
    };
    for (kind, (name, _)) in QUERIES.iter().enumerate() {
        let lat: Vec<f64> = served
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.query_ms)
            .collect();
        if !lat.is_empty() {
            out.note(format!(
                "query {name}: n={} median={:.2} ms rows={} total(Q)={}",
                lat.len(),
                measure::median(&lat),
                expected[kind].rows,
                expected[kind].total
            ));
        }
    }

    match (before_check, after_check, before_loop, after_loop, probe) {
        (
            Some(before_check),
            Some(after_check),
            Some(before_loop),
            Some(after_loop),
            Some(probe),
        ) => {
            let layers = Layers {
                scrapes: Scrapes {
                    before_check,
                    after_check,
                    before_loop,
                    after_loop,
                },
                probe,
                scans,
                coverage,
            };
            layer_metrics(&mut out, &tr, &layers, &measured, served, &polls, &expected);
            write_spans(
                &mut out,
                &tr,
                &work.join(format!("spans-{}.jsonl", wl.name())),
            )?;
        }
        _ => end_to_end_metrics(&mut out, &measured, served, &setup_s, rss_mb)?,
    }
    Ok(out)
}

/// Traced run: `Table::scan` cost on both backends. The heap workload
/// never touches the pager, so a probe copy of the same data gives the
/// paged layer's numbers (and `storage.paged_*` spans) there.
fn storage_probes(
    wl: Workload,
    db: &Database,
    service: &QueryService,
    work: &Path,
    tr: &mut Tracer,
) -> Res<[f64; 2]> {
    let lineitem = |db: &Database| db.table("lineitem").map_err(|e| e.to_string());
    let heap = scan_ns_per_row(&*lineitem(db)?, tr, "storage.scan_heap");
    if wl.paged() {
        let paged = scan_ns_per_row(&*lineitem(service.database())?, tr, "storage.scan_paged");
        return Ok([heap, paged]);
    }
    let probe_dir = work.join(format!("{}-probe-db", wl.name()));
    fresh_dir(&probe_dir)?;
    tr.span("storage.paged_save", 0, |_| {
        qp_storage::paged::save_database(db, &probe_dir)
    })
    .map_err(|e| format!("probe save: {e}"))?;
    let probe = tr
        .span("storage.paged_open", 0, |_| {
            QueryService::open_paged(&probe_dir, POOL_FRAMES, service_config())
        })
        .map_err(|e| format!("probe open: {e}"))?;
    let paged = scan_ns_per_row(&*lineitem(probe.database())?, tr, "storage.scan_paged");
    drop(probe);
    fresh_dir(&probe_dir)?;
    Ok([heap, paged])
}

fn end_to_end_metrics(
    out: &mut Outcome,
    measured: &Measured,
    served: &[Served],
    setup_s: &[f64],
    rss_mb: f64,
) -> Res<()> {
    let (sample, wall, what, scale, unit) = match measured {
        Measured::Query(q) => (
            q.served.iter().map(|s| s.query_ms).collect(),
            q.wall,
            "query",
            1.0,
            "ms",
        ),
        Measured::Status(s) => (s.latency_ms.clone(), s.wall, "status", 1e3, "us"),
    };
    let n_ops = sample.len();
    out.metric("setup_s", measure::median(setup_s), "s");
    let (p50, tail) = latency_metrics(out, sample)?;
    let per_s = n_ops as f64 / wall.as_secs_f64();
    out.metric("throughput_per_s", per_s, "1/s");
    err_metrics(out, served)?;
    out.metric("rss_peak_mb", rss_mb, "MiB");
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("ok_share", 1.0 - failed_share, "fraction");
    out.note(format!(
        "{what}_{unit}_p50={:.3} {unit}  {what}_{unit}_tail={:.3} {unit} (p{:.2}, n={})  \
         {what}_per_s={per_s:.3}  failed_share={failed_share} ({} of {} operations)  \
         setup_s samples={setup_s:?}",
        p50 * scale,
        tail.value * scale,
        tail.percentile,
        tail.samples,
        out.failed,
        out.attempted,
    ));
    Ok(())
}

fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    layers: &Layers,
    measured: &Measured,
    served: &[Served],
    polls: &PollStats,
    expected: &[Expected],
) {
    let Scrapes {
        before_check,
        after_check,
        before_loop,
        after_loop,
    } = &layers.scrapes;
    let probe = &layers.probe;
    for (metric, span) in [
        ("datagen.generate_s", "datagen.generate"),
        ("stats.build_s", "stats.build"),
        ("storage.paged_save_s", "storage.paged_save"),
        ("storage.paged_open_s", "storage.paged_open"),
    ] {
        out.metric(metric, span_mean_s(tr, span), "s");
    }
    out.metric("storage.scan_ns_per_row.heap", layers.scans[0], "ns");
    out.metric("storage.scan_ns_per_row.paged", layers.scans[1], "ns");
    out.metric(
        "storage.sharedscan_shared_attaches",
        delta(
            before_loop,
            after_loop,
            "qp_sharedscan_shared_attaches_total",
        ),
        "count",
    );
    out.metric("sql.plan_us", probe.plan_us, "us");
    out.metric("exec.bare_ms", probe.bare_ms, "ms");
    out.metric(
        "exec.getnext",
        expected.iter().map(|e| e.total as f64).sum(),
        "count",
    );
    // Work per operator kind over the check pass: one cycle of the mix.
    let all_ops = |m: &MetricsSnapshot| -> f64 {
        m.with_prefix("qp_getnext_calls_total{")
            .map(|(_, v)| v)
            .sum()
    };
    let mut listed = 0.0;
    for op in OPS {
        let v = delta(
            before_check,
            after_check,
            &format!("qp_getnext_calls_total{{op=\"{op}\"}}"),
        );
        listed += v;
        out.metric(format!("exec.getnext_by_op.{op}"), v, "count");
    }
    out.metric(
        "exec.getnext_by_op.other",
        all_ops(after_check) - all_ops(before_check) - listed,
        "count",
    );
    out.metric(
        "core.monitor_ms",
        probe.monitored_ms - probe.bare_ms - probe.plan_us / 1e3,
        "ms",
    );

    // Service-side split of the served queries, over the same interval
    // as `served`.
    let (from, to) = match measured {
        Measured::Query(_) => (before_loop, after_loop),
        Measured::Status(_) => (before_check, after_check),
    };
    let n = served.len().max(1) as f64;
    let mean = |f: fn(&Served) -> f64| served.iter().map(f).sum::<f64>() / n;
    out.metric("core.checkpoints", mean(|s| s.points as f64), "count");
    let queue_ms = hist_mean(from, to, "qp_queue_latency_ns", "") / 1e6;
    let run_ms = hist_mean(from, to, "qp_run_latency_ns", "") / 1e6;
    out.metric("service.queue_ms", queue_ms, "ms");
    out.metric("service.run_ms", run_ms, "ms");
    out.metric(
        "service.poll_lag_ms",
        mean(|s| s.query_ms) - run_ms - queue_ms,
        "ms",
    );
    out.metric("service.polls_per_query", mean(|s| s.polls as f64), "count");
    let handler_us = hist_mean(
        before_loop,
        after_loop,
        "qp_request_latency_ns",
        "{verb=\"STATUS\"}",
    ) / 1e3;
    out.metric("service.status_handler_us", handler_us, "us");
    out.metric(
        "service.status_wire_us",
        polls.mean_round_trip_us() - handler_us,
        "us",
    );

    let pool = match measured {
        Measured::Query(q) => q.first_cycle_pool,
        Measured::Status(_) => [0.0; 3],
    };
    out.metric("pager.hits", pool[0], "count");
    out.metric("pager.misses", pool[1], "count");
    out.metric("pager.evictions", pool[2], "count");
    let accesses = pool[0] + pool[1];
    let hit_rate = if accesses > 0.0 {
        pool[0] / accesses
    } else {
        0.0
    };
    out.metric("pager.hit_rate", hit_rate, "fraction");
    out.metric("loadgen.late_ms_max", ms(polls.late_max), "ms");

    let (traced_ms, untraced_ms) = match measured {
        Measured::Query(q) => (&q.traced_ms, &q.untraced_ms),
        Measured::Status(s) => (&s.traced_ms, &s.untraced_ms),
    };
    let overhead = measure::median(traced_ms) - measure::median(untraced_ms);
    out.metric("trace.overhead_ms", overhead, "ms");
    out.metric("trace.coverage", layers.coverage, "fraction");
    let mut problems = Vec::new();
    if layers.coverage < COVERAGE_MIN {
        problems.push(format!(
            "layer spans cover {:.1}% of the in-process phase, below {:.0}%",
            layers.coverage * 100.0,
            COVERAGE_MIN * 100.0
        ));
    }
    out.op(problems);

    let table = trace::self_times(tr.spans());
    let total_ns: u64 = table.values().map(|r| r.self_ns).sum();
    out.note(format!(
        "{:<24} {:>8} {:>12} {:>7}",
        "span", "calls", "self_ms", "share"
    ));
    for (name, row) in &table {
        out.note(format!(
            "{name:<24} {:>8} {:>12.3} {:>6.2}%",
            row.calls,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / total_ns.max(1) as f64
        ));
    }
    out.note(format!(
        "tracing overhead: traced − untraced latency p50 = {overhead:.4} ms; \
         spans cover {:.2}% of the in-process phase (check: ≥ {:.0}%)",
        layers.coverage * 100.0,
        COVERAGE_MIN * 100.0
    ));
}

fn write_spans(out: &mut Outcome, tr: &Tracer, path: &Path) -> Res<()> {
    let mut file =
        std::io::BufWriter::new(io(std::fs::File::create(path), "creating the span dump")?);
    io(tr.write_jsonl(&mut file), "writing the span dump")?;
    io(std::io::Write::flush(&mut file), "writing the span dump")?;
    out.note(format!("spans written to {}", path.display()));
    Ok(())
}

enum Measured {
    Query(QueryLoop),
    Status(StatusLoop),
}
