//! Query sessions: identity, lifecycle states, and the pollable handle.
//!
//! A session is born at `SUBMIT`, carries its query through the worker
//! pool, and stays in the registry after completion so late `STATUS`
//! probes still get an answer. The state machine is deliberately small:
//!
//! ```text
//!            ┌────────────→ Cancelled (CANCEL while queued)
//!            │
//! Queued ─→ Running ─→ Finished
//!            │     ├──→ Failed   (error or panic; worker survives)
//!            │     └──→ TimedOut (deadline passed mid-flight)
//!            └────────→ Cancelled (CANCEL mid-flight; the executor
//!                       aborts at its next getnext call)
//! ```
//!
//! All terminal states keep their session's final progress reading, so a
//! progress bar polled after the fact renders the true endpoint. A
//! non-`Finished` terminal state also raises the progress cell's
//! [`Health`] flag (`Degraded` for timeouts/cancels mid-run, `Failed` for
//! errors and panics) so pollers see the degradation without parsing
//! state tokens.
//!
//! Every lock acquisition recovers from poisoning (`lock_or_recover`):
//! a panicking query must never take down the pollers watching it.

use crate::sync::{lock_or_recover, wait_or_recover};
use qp_exec::CancelToken;
use qp_obs::{EventKind, FlightRecorder, QueryObs, SpanKind, SpanSink, TraceBuffer};
use qp_progress::shared::{Health, ProgressCell, ProgressReading};
use qp_storage::Row;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service-wide identifier of one submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl std::str::FromStr for QueryId {
    type Err = String;
    fn from_str(s: &str) -> Result<QueryId, String> {
        let digits = s.strip_prefix('q').unwrap_or(s);
        digits
            .parse::<u64>()
            .map(QueryId)
            .map_err(|_| format!("bad query id {s:?} (expected e.g. q7)"))
    }
}

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the plan.
    Running,
    /// Ran to completion; results are retained.
    Finished,
    /// Execution failed (the error message is retained). Panicking plans
    /// land here too — the panic message is the retained error.
    Failed,
    /// Cancelled, either while queued or mid-execution.
    Cancelled,
    /// The session's deadline passed mid-execution; the executor aborted
    /// at its next getnext call, exactly like a cancellation but
    /// distinguishable on the wire.
    TimedOut,
}

impl QueryState {
    /// Whether the session will never change state again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, QueryState::Queued | QueryState::Running)
    }

    /// Wire-protocol token (also used in `Display`).
    pub fn as_str(self) -> &'static str {
        match self {
            QueryState::Queued => "QUEUED",
            QueryState::Running => "RUNNING",
            QueryState::Finished => "FINISHED",
            QueryState::Failed => "FAILED",
            QueryState::Cancelled => "CANCELLED",
            QueryState::TimedOut => "TIMEDOUT",
        }
    }

    /// Stable numeric code used in flight-recorder `StateChanged` event
    /// payloads. Inverse of [`QueryState::from_code`].
    pub fn code(self) -> u64 {
        match self {
            QueryState::Queued => 0,
            QueryState::Running => 1,
            QueryState::Finished => 2,
            QueryState::Failed => 3,
            QueryState::Cancelled => 4,
            QueryState::TimedOut => 5,
        }
    }

    /// Decodes a [`QueryState::code`] value (trace rendering).
    pub fn from_code(code: u64) -> Option<QueryState> {
        Some(match code {
            0 => QueryState::Queued,
            1 => QueryState::Running,
            2 => QueryState::Finished,
            3 => QueryState::Failed,
            4 => QueryState::Cancelled,
            5 => QueryState::TimedOut,
            _ => return None,
        })
    }
}

impl fmt::Display for QueryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for QueryState {
    type Err = String;
    fn from_str(s: &str) -> Result<QueryState, String> {
        match s {
            "QUEUED" => Ok(QueryState::Queued),
            "RUNNING" => Ok(QueryState::Running),
            "FINISHED" => Ok(QueryState::Finished),
            "FAILED" => Ok(QueryState::Failed),
            "CANCELLED" => Ok(QueryState::Cancelled),
            "TIMEDOUT" => Ok(QueryState::TimedOut),
            other => Err(format!("unknown query state {other:?}")),
        }
    }
}

/// Result of a finished query, retained by its session.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows, in execution order.
    pub rows: Arc<Vec<Row>>,
    /// `total(Q)` — the final getnext count, the denominator of true
    /// progress.
    pub total_getnext: u64,
}

/// Mutable part of a session, behind one mutex.
#[derive(Debug)]
pub(crate) struct SessionCore {
    pub state: QueryState,
    pub result: Option<QueryResult>,
    pub error: Option<String>,
}

/// Observability attachments of a session: the per-operator counters the
/// executor updates, the live checkpoint ring the monitor pushes into,
/// and the service-wide flight recorder state transitions are reported
/// to. All three are optional so bare sessions (unit tests, embedded
/// use) pay nothing.
#[derive(Debug, Default)]
pub(crate) struct SessionTelemetry {
    pub obs: Option<Arc<QueryObs>>,
    /// Behind a mutex because the terminal transition swaps the
    /// full-capacity ring for an exact-size copy of its tail.
    pub trace: Mutex<Option<Arc<TraceBuffer>>>,
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Hierarchical span sink: when attached, the session opens a
    /// `Session` span at construction (= admission) and closes it at its
    /// terminal transition, so queue time is visible as the gap between
    /// the session span's start and its child query span's start.
    pub spans: Option<Arc<SpanSink>>,
}

/// One submitted query: identity, kill switch, live progress slot, and
/// lifecycle state. Shared between the registry, the worker executing it,
/// and any number of status pollers.
#[derive(Debug)]
pub struct Session {
    id: QueryId,
    sql: String,
    cancel: CancelToken,
    progress: Arc<ProgressCell>,
    /// Execution-time budget: the deadline starts ticking when a worker
    /// picks the session up (`begin_running`), not at submission — a
    /// session must not time out merely for waiting in the queue.
    timeout: Option<Duration>,
    telemetry: SessionTelemetry,
    /// When the session was admitted — queue latency is measured from
    /// here to `begin_running`.
    submitted_at: Instant,
    /// The session-level span id (0 when no sink is attached).
    span: u64,
    /// Guards the span's end mark: terminal transitions and submit-time
    /// rejections may race in principle, and the end must be recorded
    /// exactly once.
    span_ended: AtomicBool,
    core: Mutex<SessionCore>,
    turnstile: Condvar,
}

impl Session {
    /// A bare session with no telemetry attached (tests).
    #[cfg(test)]
    pub(crate) fn new(
        id: QueryId,
        sql: String,
        progress: Arc<ProgressCell>,
        timeout: Option<Duration>,
    ) -> Session {
        Session::with_telemetry(id, sql, progress, timeout, SessionTelemetry::default())
    }

    pub(crate) fn with_telemetry(
        id: QueryId,
        sql: String,
        progress: Arc<ProgressCell>,
        timeout: Option<Duration>,
        telemetry: SessionTelemetry,
    ) -> Session {
        let span = telemetry
            .spans
            .as_ref()
            .map_or(0, |sink| sink.begin(id.0, 0, SpanKind::Session, 0));
        Session {
            id,
            sql,
            cancel: CancelToken::new(),
            progress,
            timeout,
            telemetry,
            submitted_at: Instant::now(),
            span,
            span_ended: AtomicBool::new(false),
            core: Mutex::new(SessionCore {
                state: QueryState::Queued,
                result: None,
                error: None,
            }),
            turnstile: Condvar::new(),
        }
    }

    /// The session's id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The submitted SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The cancellation token the executor checks between getnext calls.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The live progress slot the in-flight monitor publishes into.
    pub fn progress_cell(&self) -> &Arc<ProgressCell> {
        &self.progress
    }

    /// The session's execution-time budget, if any.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Per-operator hot-path counters, when the service attached them.
    pub fn obs(&self) -> Option<&Arc<QueryObs>> {
        self.telemetry.obs.as_ref()
    }

    /// The live progress-checkpoint ring, when the service attached one.
    pub fn trace_buffer(&self) -> Option<Arc<TraceBuffer>> {
        lock_or_recover(&self.telemetry.trace).clone()
    }

    /// A terminal session's trace never grows again, but the registry
    /// keeps the session: swap the full-capacity ring for an exact-size
    /// copy of its tail, so finished sessions hold only what `TRACE` and
    /// `AUDIT` can still serve (same points, `pushed` and `dropped`).
    fn compact_trace(&self) {
        if let Some(trace) = lock_or_recover(&self.telemetry.trace).as_mut() {
            *trace = Arc::new(trace.compacted());
        }
    }

    /// When the session was admitted (queue latency baseline).
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// The session-level span id every query span nests under (0 when no
    /// span sink is attached).
    pub fn session_span(&self) -> u64 {
        self.span
    }

    /// Marks the session span's end. Idempotent; called at the terminal
    /// transition, and by the service when a submission is rejected after
    /// the session was already constructed.
    pub(crate) fn end_session_span(&self) {
        if self.span == 0 || self.span_ended.swap(true, Ordering::Relaxed) {
            return;
        }
        if let Some(sink) = &self.telemetry.spans {
            sink.end(self.id.0, self.span, 0, SpanKind::Session, 0);
        }
    }

    /// Records a lifecycle transition into the flight recorder, if one is
    /// attached.
    fn record_state(&self, from: QueryState, to: QueryState) {
        if let Some(rec) = &self.telemetry.recorder {
            rec.record(self.id.0, EventKind::StateChanged, to.code(), from.code());
        }
    }

    /// Current state.
    pub fn state(&self) -> QueryState {
        lock_or_recover(&self.core).state
    }

    /// Latest progress reading, if the query has published one yet.
    pub fn progress(&self) -> Option<ProgressReading> {
        self.progress.read()
    }

    /// The retained result, once `Finished`.
    pub fn result(&self) -> Option<QueryResult> {
        lock_or_recover(&self.core).result.clone()
    }

    /// The failure message, once `Failed`.
    pub fn error(&self) -> Option<String> {
        lock_or_recover(&self.core).error.clone()
    }

    /// Blocks until the session reaches a terminal state, returning it.
    pub fn wait(&self) -> QueryState {
        let mut core = lock_or_recover(&self.core);
        while !core.state.is_terminal() {
            core = wait_or_recover(&self.turnstile, core);
        }
        core.state
    }

    /// Queued → Running. Returns false if the session left `Queued` some
    /// other way (e.g. cancelled while waiting).
    pub(crate) fn begin_running(&self) -> bool {
        let mut core = lock_or_recover(&self.core);
        if core.state == QueryState::Queued {
            core.state = QueryState::Running;
            drop(core);
            self.record_state(QueryState::Queued, QueryState::Running);
            true
        } else {
            false
        }
    }

    pub(crate) fn finish(&self, result: QueryResult) {
        self.transition(QueryState::Finished, Some(result), None);
    }

    pub(crate) fn fail(&self, message: String) {
        // The query died: any reading the cell still holds is the state
        // just before death, and the flag says not to trust the stream.
        self.progress.raise_health(Health::Failed);
        self.transition(QueryState::Failed, None, Some(message));
    }

    pub(crate) fn mark_cancelled(&self) {
        self.transition(QueryState::Cancelled, None, None);
    }

    pub(crate) fn mark_timed_out(&self) {
        // The stream stops before 100% — degraded, but the published
        // readings themselves were all valid.
        self.progress.raise_health(Health::Degraded);
        self.transition(QueryState::TimedOut, None, None);
    }

    /// Requests cancellation. A queued session dies immediately; a running
    /// one aborts at its next getnext call. Returns the state the request
    /// found the session in.
    pub(crate) fn request_cancel(&self) -> QueryState {
        self.cancel.cancel();
        let mut core = lock_or_recover(&self.core);
        let found = core.state;
        if found == QueryState::Queued {
            core.state = QueryState::Cancelled;
            drop(core);
            self.record_state(QueryState::Queued, QueryState::Cancelled);
            self.end_session_span();
            self.compact_trace();
            self.turnstile.notify_all();
        }
        found
    }

    fn transition(&self, to: QueryState, result: Option<QueryResult>, error: Option<String>) {
        let mut core = lock_or_recover(&self.core);
        debug_assert!(
            !core.state.is_terminal(),
            "terminal state {} cannot change to {to}",
            core.state
        );
        let from = core.state;
        core.state = to;
        core.result = result;
        core.error = error;
        drop(core);
        self.record_state(from, to);
        if to.is_terminal() {
            self.end_session_span();
            self.compact_trace();
        }
        self.turnstile.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(
            QueryId(1),
            "SELECT 1".into(),
            Arc::new(ProgressCell::new(vec!["pmax"])),
            None,
        )
    }

    #[test]
    fn id_round_trips_through_display() {
        let id = QueryId(42);
        assert_eq!(id.to_string(), "q42");
        assert_eq!("q42".parse::<QueryId>().unwrap(), id);
        assert!("fig8".parse::<QueryId>().is_err());
    }

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            QueryState::Queued,
            QueryState::Running,
            QueryState::Finished,
            QueryState::Failed,
            QueryState::Cancelled,
            QueryState::TimedOut,
        ] {
            assert_eq!(s.as_str().parse::<QueryState>().unwrap(), s);
        }
    }

    #[test]
    fn failure_and_timeout_raise_cell_health() {
        let s = session();
        assert!(s.begin_running());
        s.fail("injected".into());
        assert_eq!(s.state(), QueryState::Failed);
        assert_eq!(s.progress_cell().health(), Health::Failed);

        let t = session();
        assert!(t.begin_running());
        t.mark_timed_out();
        assert_eq!(t.state(), QueryState::TimedOut);
        assert!(t.state().is_terminal());
        assert_eq!(t.progress_cell().health(), Health::Degraded);
    }

    #[test]
    fn state_codes_round_trip() {
        for s in [
            QueryState::Queued,
            QueryState::Running,
            QueryState::Finished,
            QueryState::Failed,
            QueryState::Cancelled,
            QueryState::TimedOut,
        ] {
            assert_eq!(QueryState::from_code(s.code()), Some(s));
        }
        assert_eq!(QueryState::from_code(17), None);
    }

    #[test]
    fn transitions_reach_the_flight_recorder() {
        let rec = Arc::new(FlightRecorder::new(16));
        let s = Session::with_telemetry(
            QueryId(5),
            "SELECT 1".into(),
            Arc::new(ProgressCell::new(vec!["pmax"])),
            None,
            SessionTelemetry {
                recorder: Some(Arc::clone(&rec)),
                ..SessionTelemetry::default()
            },
        );
        assert!(s.begin_running());
        s.fail("boom".into());
        let tail = rec.tail_for(5);
        assert_eq!(tail.len(), 2, "{tail:?}");
        assert!(tail.iter().all(|e| e.kind == EventKind::StateChanged));
        assert_eq!(tail[0].a, QueryState::Running.code());
        assert_eq!(tail[0].b, QueryState::Queued.code());
        assert_eq!(tail[1].a, QueryState::Failed.code());
        assert_eq!(tail[1].b, QueryState::Running.code());
    }

    #[test]
    fn queued_cancel_is_immediate() {
        let s = session();
        assert_eq!(s.request_cancel(), QueryState::Queued);
        assert_eq!(s.state(), QueryState::Cancelled);
        assert!(s.cancel_token().is_cancelled());
        // A worker dequeuing it later must not start it.
        assert!(!s.begin_running());
    }

    #[test]
    fn terminal_transitions_compact_the_trace_ring() {
        let with_trace = || {
            Session::with_telemetry(
                QueryId(9),
                "SELECT 1".into(),
                Arc::new(ProgressCell::new(vec!["pmax"])),
                None,
                SessionTelemetry {
                    trace: Mutex::new(Some(Arc::new(TraceBuffer::new(4096, 1)))),
                    ..SessionTelemetry::default()
                },
            )
        };
        let ran = with_trace();
        assert!(ran.begin_running());
        let live = ran.trace_buffer().unwrap();
        for i in 0..3 {
            live.push(i, 0, 10, &[0.5]);
        }
        ran.mark_cancelled();
        let kept = ran.trace_buffer().unwrap();
        assert!(!Arc::ptr_eq(&live, &kept), "terminal ring must be replaced");
        assert_eq!(kept.tail(), live.tail());
        assert_eq!((kept.pushed(), kept.dropped()), (3, 0));

        let queued = with_trace();
        let before = queued.trace_buffer().unwrap();
        assert_eq!(queued.request_cancel(), QueryState::Queued);
        assert!(!Arc::ptr_eq(&before, &queued.trace_buffer().unwrap()));
        assert_eq!(queued.trace_buffer().unwrap().pushed(), 0);
    }

    #[test]
    fn lifecycle_happy_path() {
        let s = session();
        assert_eq!(s.state(), QueryState::Queued);
        assert!(s.begin_running());
        assert_eq!(s.state(), QueryState::Running);
        s.finish(QueryResult {
            rows: Arc::new(Vec::new()),
            total_getnext: 7,
        });
        assert_eq!(s.wait(), QueryState::Finished);
        assert_eq!(s.result().unwrap().total_getnext, 7);
    }
}
