//! The observability overhead gate: prove the hot-path counters cost
//! < 5 % on a real TPC-H pipeline, and write `BENCH_overhead.json`.
//!
//! Observability that taxes the hot path gets turned off; the whole
//! `qp-obs` design (relaxed atomics on the already-instrumented getnext
//! interrupt point, timing opt-in) exists to keep the tax ignorable.
//! This bench *enforces* that: it runs the same TPC-H join pipeline in
//! four configurations —
//!
//! * `bare` — no observability attached (`RunControls::obs = None`);
//! * `counters` — per-operator counters, untimed;
//! * `spans` — counters plus the hierarchical span sink (the service
//!   default: every session gets query/pipeline/operator spans, a
//!   handful of lock-free ring writes per operator lifetime — not per
//!   getnext);
//! * `timed` — counters plus two `Instant::now()` reads *and* a
//!   latency-histogram record per getnext;
//! * `monitored` — no observability, but the progress monitor the paper
//!   is about: `dne`/`pmax`/`safe` checkpointed at the default stride
//!   (about 200 checkpoints per run), degree 1.
//!
//! Samples are interleaved (bare, counters, spans, timed, monitored,
//! bare, ...) so clock drift and thermal effects hit all five alike. The
//! *counters*, *spans* and *monitored* medians must each stay within
//! `QP_OBS_BUDGET_PCT` percent (default 5) of bare, or the bench exits
//! non-zero — this is the CI overhead gate, and it is what keeps spans
//! default-on and progress monitoring cheap. The timed mode is reported
//! for information and not gated (its per-call cost is why timing is
//! opt-in).
//!
//! Results land in `BENCH_overhead.json` at the workspace root, the
//! first point of the repo's performance trajectory.
//!
//! Like every qp-testkit bench: `cargo bench` measures, `cargo test`
//! runs this in smoke mode (one tiny sanity pass, no measurement).

use qp_datagen::{TpchConfig, TpchDb};
use qp_exec::executor::QueryRun;
use qp_exec::{Plan, RunControls, SpanAttach};
use qp_obs::json::Obj;
use qp_obs::{QueryObs, SpanSink};
use qp_progress::estimators::{Dne, Pmax, Safe};
use qp_progress::monitor::ProgressMonitor;
use qp_stats::DbStats;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which observability configuration a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Bare,
    Counters,
    Spans,
    Timed,
    Monitored,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Bare => "bare",
            Mode::Counters => "counters",
            Mode::Spans => "spans",
            Mode::Timed => "timed",
            Mode::Monitored => "monitored",
        }
    }
}

const MODES: [Mode; 5] = [
    Mode::Bare,
    Mode::Counters,
    Mode::Spans,
    Mode::Timed,
    Mode::Monitored,
];

/// One timed execution of the pipeline; returns (nanoseconds, total
/// getnext calls, rows summed over the per-node obs counters — `None`
/// without obs). The executor's `Counters::total()` counts *producing*
/// getnext calls (the paper's `Curr`), which is exactly the obs `rows`
/// counter summed over nodes — the `calls` counter additionally sees
/// each node's final exhausted call.
fn run_once(
    plan: &Plan,
    db: &qp_storage::Database,
    stats: &DbStats,
    mode: Mode,
) -> (u64, u64, Option<u64>) {
    if mode == Mode::Monitored {
        let started = Instant::now();
        let monitor = ProgressMonitor::for_plan(
            plan,
            Some(stats),
            vec![Box::new(Dne), Box::new(Pmax), Box::new(Safe)],
            None,
        );
        let (out, trace) = monitor
            .run(plan, db, RunControls::default())
            .expect("query runs");
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        std::hint::black_box(trace);
        return (ns, out.total_getnext, None);
    }
    let obs = match mode {
        Mode::Bare | Mode::Monitored => None,
        Mode::Counters | Mode::Spans => Some(QueryObs::new(0, plan.op_labels(), false, None)),
        Mode::Timed => Some(QueryObs::new(0, plan.op_labels(), true, None)),
    };
    // The service attaches one shared sink per process; a fresh one per
    // run keeps samples independent. Capacity matches the service
    // default, far above the handful of marks one pipeline produces.
    let spans = (mode == Mode::Spans).then(|| SpanAttach {
        sink: Arc::new(SpanSink::new(4096)),
        query: 0,
        parent: 0,
    });
    let controls = RunControls {
        obs: obs.clone(),
        spans,
        ..RunControls::default()
    };
    let started = Instant::now();
    let mut run = QueryRun::with_controls(plan, db, controls).expect("plan builds");
    let rows = run.run().expect("query runs");
    let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    std::hint::black_box(rows);
    let total = run.context().counters().total();
    let counted = obs.map(|o| o.snapshot().iter().map(|s| s.rows).sum());
    (ns, total, counted)
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");

    // The TPC-H pipeline under test: Q3-shaped three-way join
    // (customer ⋈ orders ⋈ lineitem with filters and aggregation) — a
    // realistic operator mix, dominated by cheap getnext calls, which is
    // exactly where fixed per-call overhead shows up worst.
    let scale = if full { 0.01 } else { 0.002 };
    let t = TpchDb::generate(TpchConfig {
        scale,
        z: 1.0,
        seed: 11,
    });
    let plan = qp_workloads::tpch::tpch_query(3, &t);
    let stats = DbStats::build(&t.db);

    if !full {
        // Smoke mode (`cargo test`): one sanity pass per mode, no timing
        // claims — just prove the configurations agree on the work done
        // and that counters count every call.
        let (_, bare_total, _) = run_once(&plan, &t.db, &stats, Mode::Bare);
        for mode in &MODES[1..] {
            let (_, total, counted) = run_once(&plan, &t.db, &stats, *mode);
            assert_eq!(total, bare_total, "{mode:?} changed the work done");
            if let Some(counted) = counted {
                assert_eq!(
                    counted, total,
                    "{mode:?} counters missed producing getnext calls"
                );
            }
        }
        println!("obs_overhead: smoke mode (run `cargo bench` to measure and gate)");
        return;
    }

    let budget_pct: f64 = std::env::var("QP_OBS_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    const SAMPLES: usize = 31;

    // Warm caches so the first interleaved round isn't charged for page
    // faults, then sample all modes round-robin.
    for mode in MODES {
        run_once(&plan, &t.db, &stats, mode);
    }
    let mut ns: [Vec<u64>; 5] = Default::default();
    let mut total_getnext = 0;
    for _ in 0..SAMPLES {
        for (i, mode) in MODES.iter().enumerate() {
            let (t_ns, total, counted) = run_once(&plan, &t.db, &stats, *mode);
            ns[i].push(t_ns);
            total_getnext = total;
            if let Some(counted) = counted {
                assert_eq!(
                    counted, total,
                    "{mode:?} counters missed producing getnext calls"
                );
            }
        }
    }

    let bare = median(&mut ns[0]);
    let counters = median(&mut ns[1]);
    let spans = median(&mut ns[2]);
    let timed = median(&mut ns[3]);
    let monitored = median(&mut ns[4]);
    let pct = |m: u64| (m as f64 - bare as f64) / bare as f64 * 100.0;
    let counters_pct = pct(counters);
    let spans_pct = pct(spans);
    let timed_pct = pct(timed);
    let monitored_pct = pct(monitored);

    println!("obs_overhead: TPC-H Q3, scale {scale}, {SAMPLES} interleaved samples");
    println!("  getnext calls per run: {total_getnext}");
    for (mode, m) in MODES.iter().zip([bare, counters, spans, timed, monitored]) {
        println!(
            "  {:<10} median {:>12.3} ms{}",
            mode.name(),
            m as f64 / 1e6,
            if *mode == Mode::Bare {
                String::new()
            } else {
                format!("   ({:+.2} % vs bare)", pct(m))
            }
        );
    }

    let pass = counters_pct <= budget_pct && spans_pct <= budget_pct && monitored_pct <= budget_pct;
    let json = Obj::new()
        .str("bench", "obs_overhead")
        .str("query", "tpch-q3")
        .f64("scale", scale)
        .u64("samples", SAMPLES as u64)
        .u64("getnext_per_run", total_getnext)
        .u64("bare_median_ns", bare)
        .u64("counters_median_ns", counters)
        .u64("spans_median_ns", spans)
        .u64("timed_median_ns", timed)
        .u64("monitored_median_ns", monitored)
        .f64("counters_overhead_pct", counters_pct)
        .f64("spans_overhead_pct", spans_pct)
        .f64("timed_overhead_pct", timed_pct)
        .f64("monitored_overhead_pct", monitored_pct)
        .f64("budget_pct", budget_pct)
        .str("gate", if pass { "pass" } else { "fail" })
        .finish();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_overhead.json");
    match std::fs::write(&path, format!("{json}\n")) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }

    if !pass {
        eprintln!(
            "OVERHEAD GATE FAILED: counters {counters_pct:.2} % / spans {spans_pct:.2} % / \
             monitored {monitored_pct:.2} % vs budget {budget_pct} %"
        );
        std::process::exit(1);
    }
    println!(
        "  gate: counters {counters_pct:+.2} %, spans {spans_pct:+.2} %, \
         monitored {monitored_pct:+.2} % <= {budget_pct} % budget — PASS"
    );
}
