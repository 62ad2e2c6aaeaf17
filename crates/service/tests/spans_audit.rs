//! The deep-observability surface end to end: hierarchical span trees
//! and the `AUDIT` estimator-accuracy postmortems.
//!
//! * Span trees are *well-formed* for every session the service runs —
//!   under Exchange fan-out (`PARALLELISM`) and under mid-flight
//!   cancellation, across several scheduling seeds: exactly one
//!   session/query/pipeline span each, every span closed, every
//!   parent id resolving to another span of the same session, workers
//!   nesting under their Exchange, operators under the pipeline tree.
//! * `AUDIT <id>` over TCP is byte-identical to the in-process
//!   `telemetry::audit_jsonl` replay of the same session, bare `AUDIT`
//!   aggregates every retained postmortem, unknown ids get a clean
//!   `ERR`, and only FINISHED sessions are scored (a cancelled query
//!   has no ground-truth `total(Q)` to score against).

use qp_datagen::{TpchConfig, TpchDb};
use qp_exec::FaultConfig;
use qp_obs::{Span, SpanKind};
use qp_service::{
    telemetry, ProgressServer, QueryId, QueryService, QueryState, ServiceClient, ServiceConfig,
    SubmitOptions,
};
use qp_stats::DbStats;
use qp_storage::Database;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn tpch() -> Arc<Database> {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        z: 1.0,
        seed: 42,
    });
    Arc::new(t.db)
}

fn service_with(db: &Arc<Database>, config: ServiceConfig) -> Arc<QueryService> {
    let stats = Arc::new(DbStats::build(db));
    Arc::new(QueryService::with_stats(Arc::clone(db), stats, config))
}

/// Structural well-formedness of one session's span tree. Returns the
/// per-kind span counts for the caller's stronger assertions.
fn assert_well_formed(id: QueryId, spans: &[Span]) -> HashMap<SpanKind, usize> {
    assert!(!spans.is_empty(), "{id}: no spans recorded");
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "{id}: duplicate span ids");
    let mut counts: HashMap<SpanKind, usize> = HashMap::new();
    for s in spans {
        *counts.entry(s.kind).or_default() += 1;
        assert_eq!(s.query, id.0, "{id}: span tagged with foreign query");
        let end = s
            .end_us
            .unwrap_or_else(|| panic!("{id}: {:?} span {} never closed", s.kind, s.span));
        assert!(
            end >= s.begin_us,
            "{id}: {:?} span ends before it begins",
            s.kind
        );
        match s.kind {
            SpanKind::Session => {
                assert_eq!(s.parent, 0, "{id}: session span must be a root");
            }
            kind => {
                let parent = by_id.get(&s.parent).unwrap_or_else(|| {
                    panic!(
                        "{id}: {kind:?} span {} orphaned (parent {})",
                        s.span, s.parent
                    )
                });
                // The hierarchy the executor promises: query under
                // session, pipeline under query, Exchange/operators in
                // the pipeline tree, workers under their Exchange.
                let ok = match kind {
                    SpanKind::Session => unreachable!(),
                    SpanKind::Query => parent.kind == SpanKind::Session,
                    SpanKind::Pipeline => parent.kind == SpanKind::Query,
                    SpanKind::Exchange | SpanKind::Operator => matches!(
                        parent.kind,
                        SpanKind::Pipeline | SpanKind::Worker | SpanKind::Operator
                    ),
                    SpanKind::Worker => parent.kind == SpanKind::Exchange,
                };
                assert!(
                    ok,
                    "{id}: {kind:?} span {} nests under {:?}",
                    s.span, parent.kind
                );
            }
        }
    }
    for kind in [SpanKind::Session, SpanKind::Query, SpanKind::Pipeline] {
        assert_eq!(
            counts.get(&kind).copied().unwrap_or(0),
            1,
            "{id}: expected exactly one {kind:?} span"
        );
    }
    counts
}

#[test]
fn span_trees_stay_well_formed_under_fanout_and_cancel() {
    let db = tpch();
    for seed in [1u64, 5, 9] {
        let service = service_with(
            &db,
            ServiceConfig {
                workers: 3,
                stride: Some(100),
                // The seed perturbs scheduling via deterministic fault
                // *delays only* — no errors or panics, so queries still
                // finish, but the three runs interleave differently.
                fault_seed: Some(seed),
                fault_config: FaultConfig {
                    horizon: 4_000,
                    exec_errors: 0,
                    storage_errors: 0,
                    panics: 0,
                    delays: 3,
                    delay: Duration::from_millis(1),
                },
                ..ServiceConfig::default()
            },
        );

        // Fan-out: an Exchange splits the lineitem scan across 3
        // partition workers, each a forked ExecContext.
        let fanned = service
            .submit_with(
                "SELECT COUNT(*) AS n FROM lineitem",
                SubmitOptions {
                    parallelism: Some(3),
                    ..SubmitOptions::default()
                },
            )
            .expect("admitted");
        // Mid-flight cancel: same shape, interrupted while the workers
        // drive. Every span must still close.
        let cancelled = service
            .submit_with(
                "SELECT COUNT(*) AS n FROM lineitem l1, nation n1",
                SubmitOptions {
                    parallelism: Some(2),
                    ..SubmitOptions::default()
                },
            )
            .expect("admitted");
        // A plain serial query rides along: no Exchange, no workers.
        let serial = service
            .submit("SELECT COUNT(*) AS n FROM nation")
            .expect("admitted");

        // Cancel once the workers drive: a published reading means the
        // operator tree is open. `Running` alone is not enough — a cancel
        // that lands before the root opens leaves no operator span.
        while service
            .status(cancelled)
            .is_some_and(|s| s.progress.is_none() && !s.state.is_terminal())
        {
            std::thread::yield_now();
        }
        service.cancel(cancelled);

        assert_eq!(service.wait(fanned), Some(QueryState::Finished));
        assert_eq!(service.wait(serial), Some(QueryState::Finished));
        let cancelled_state = service.wait(cancelled).expect("terminal");
        assert!(
            matches!(
                cancelled_state,
                QueryState::Cancelled | QueryState::Finished
            ),
            "seed {seed}: cancel landed in {cancelled_state:?}"
        );

        let sink = service.span_sink();
        assert_eq!(sink.dropped(), 0, "seed {seed}: span ring overflowed");
        for id in [fanned, cancelled, serial] {
            let counts = assert_well_formed(id, &sink.spans_for(id.0));
            let workers = counts.get(&SpanKind::Worker).copied().unwrap_or(0);
            let exchanges = counts.get(&SpanKind::Exchange).copied().unwrap_or(0);
            if id == fanned {
                assert_eq!(exchanges, 1, "seed {seed}: fan-out without Exchange span");
                assert_eq!(workers, 3, "seed {seed}: expected 3 worker spans");
            }
            if id == serial {
                assert_eq!(exchanges, 0, "seed {seed}: serial query grew an Exchange");
                assert_eq!(workers, 0, "seed {seed}: serial query grew workers");
            }
            assert!(
                counts.get(&SpanKind::Operator).copied().unwrap_or(0) > 0,
                "seed {seed}: {id} recorded no operator spans"
            );
        }
    }
}

#[test]
fn audit_over_tcp_matches_in_process_replay() {
    let db = tpch();
    let service = service_with(
        &db,
        ServiceConfig {
            workers: 2,
            stride: Some(100),
            ..ServiceConfig::default()
        },
    );
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connects");

    let hello = client.hello().expect("hello");
    assert!(
        hello.contains("AUDIT"),
        "HELLO must advertise AUDIT: {hello}"
    );

    // Nothing finished yet: bare AUDIT is a legal empty block, a made-up
    // id is a clean error.
    assert_eq!(client.audit(None).expect("io"), Ok(vec![]));
    assert!(client.audit(Some(QueryId(999))).expect("io").is_err());

    let a = client
        .submit("SELECT COUNT(*) AS n FROM lineitem")
        .expect("io")
        .expect("admitted");
    let b = client
        .submit("SELECT COUNT(*) AS n FROM orders")
        .expect("io")
        .expect("admitted");
    assert_eq!(service.wait(a), Some(QueryState::Finished));
    assert_eq!(service.wait(b), Some(QueryState::Finished));

    // A cancelled-before-running query never finishes, so it is never
    // scored — and its id stays unknown to AUDIT.
    let c = service
        .submit("SELECT COUNT(*) AS n FROM lineitem l1, orders o1")
        .expect("admitted");
    service.cancel(c);
    service.wait(c);

    for id in [a, b] {
        let wire = client.audit(Some(id)).expect("io").expect("AUDIT serves");
        let local = telemetry::audit_jsonl(&service, Some(id)).expect("retained");
        assert_eq!(
            wire, local,
            "{id}: wire AUDIT diverges from in-process replay"
        );
        assert!(!wire.is_empty(), "{id}: finished session must be scored");
        for line in &wire {
            assert!(
                line.contains(&format!("\"query\":{}", id.0)),
                "{id}: audit line tagged wrong: {line}"
            );
        }
    }
    if service.status(c).map(|s| s.state) == Some(QueryState::Cancelled) {
        assert!(
            client.audit(Some(c)).expect("io").is_err(),
            "cancelled sessions have no total(Q) and must not be scored"
        );
    }

    // Bare AUDIT is the concatenation of every retained postmortem,
    // oldest first — byte-identical to the in-process renderer too.
    let all_wire = client.audit(None).expect("io").expect("AUDIT serves");
    let all_local = telemetry::audit_jsonl(&service, None).expect("always Some");
    assert_eq!(all_wire, all_local);
    let per_query: usize = [a, b]
        .iter()
        .map(|&id| {
            telemetry::audit_jsonl(&service, Some(id))
                .expect("retained")
                .len()
        })
        .sum();
    assert_eq!(
        all_wire.len(),
        per_query,
        "bare AUDIT must cover both sessions"
    );

    client.shutdown().expect("clean shutdown");
    server.shutdown();
}

#[test]
fn slow_query_threshold_records_the_flight_event() {
    let db = tpch();
    let service = service_with(
        &db,
        ServiceConfig {
            workers: 1,
            slow_query_threshold: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    );
    let id = service
        .submit("SELECT COUNT(*) AS n FROM lineitem")
        .expect("admitted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));
    let tail = service.recorder().tail_for(id.0);
    let slow = tail
        .iter()
        .find(|e| e.kind == qp_obs::EventKind::SlowQuery)
        .expect("zero threshold marks every query slow");
    // a = worst postmortem ratio error in milli-units (>= 1.0 by
    // definition), b = the final trust flag's discriminant.
    assert!(slow.a >= 1000, "worst ratio below 1.0: {}", slow.a);
    assert!(slow.b <= 2, "trust code out of range: {}", slow.b);
}
