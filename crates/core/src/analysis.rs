//! Input-order analysis (Section 4.2): per-tuple work vectors, variance,
//! predictive orders (Property 2, Theorems 3 and 4).
//!
//! The driver-node estimator's accuracy is governed entirely by the
//! relationship between the *order* in which driver tuples arrive and the
//! *work* each tuple causes downstream. This module makes that analysis
//! executable:
//!
//! * [`WorkVector`] summarizes a per-driver-tuple work distribution
//!   (μ, variance);
//! * [`is_c_predictive`] tests the paper's definition: an order is
//!   c-predictive if, once half the tuples have been retrieved, the
//!   average work per tuple so far is within a factor `c` of μ;
//! * [`predictive_fraction`] estimates the fraction of random orders that
//!   are c-predictive (Theorem 4: at least ½ of all orders are
//!   2-predictive);
//! * [`dne_expected_error`] Monte-Carlo-verifies Theorem 3 (E\[err\] = 0
//!   under random order).

use qp_exec::executor::QueryRun;
use qp_exec::{Counters, ExecTuning, NodeId, Observer, RunControls};
use qp_testkit::rng::TestRng;

/// A per-driver-tuple work distribution in a fixed order: `work[i]` is the
/// number of getnext calls attributable to driver tuple `i` (its own
/// retrieval plus everything it causes downstream).
#[derive(Debug, Clone)]
pub struct WorkVector {
    work: Vec<u64>,
}

impl WorkVector {
    pub fn new(work: Vec<u64>) -> WorkVector {
        assert!(!work.is_empty(), "work vector must be non-empty");
        WorkVector { work }
    }

    /// The per-tuple work values in driver order.
    pub fn values(&self) -> &[u64] {
        &self.work
    }

    /// Number of driver tuples `N`.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// True if empty (never constructed so; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// Total work `total(Q)` restricted to this pipeline.
    pub fn total(&self) -> u64 {
        self.work.iter().sum()
    }

    /// μ — mean work per driver tuple.
    pub fn mu(&self) -> f64 {
        self.total() as f64 / self.len() as f64
    }

    /// Population variance of the per-tuple work — the `var` of Theorem 3's
    /// convergence discussion (Var(err) ∝ var/N).
    pub fn variance(&self) -> f64 {
        let mu = self.mu();
        self.work
            .iter()
            .map(|&w| {
                let d = w as f64 - mu;
                d * d
            })
            .sum::<f64>()
            / self.len() as f64
    }

    /// The dne estimate after `k` tuples: `k / N`.
    pub fn dne_at(&self, k: usize) -> f64 {
        k as f64 / self.len() as f64
    }

    /// The true progress (within this pipeline) after `k` tuples:
    /// work-so-far / total-work.
    pub fn progress_at(&self, k: usize) -> f64 {
        let done: u64 = self.work[..k].iter().sum();
        done as f64 / self.total() as f64
    }
}

/// Is the order `c`-predictive? (Section 4.2.) After half the tuples have
/// been retrieved, the average work per tuple seen so far must be within a
/// factor `c` of the overall average μ.
pub fn is_c_predictive(wv: &WorkVector, c: f64) -> bool {
    assert!(c >= 1.0, "predictiveness factor must be >= 1");
    let half = wv.len().div_ceil(2);
    let mu = wv.mu();
    let seen: u64 = wv.values()[..half].iter().sum();
    let avg_so_far = seen as f64 / half as f64;
    // "within a factor c of μ" — both directions.
    avg_so_far <= c * mu && mu <= c * avg_so_far
}

/// Property 2: given a c-predictive order, the dne ratio error after half
/// the driver tuples. Returns the worst ratio error of dne over the second
/// half of the execution.
pub fn dne_ratio_error_after_half(wv: &WorkVector) -> f64 {
    let n = wv.len();
    let mut worst = 1.0f64;
    for k in n.div_ceil(2)..=n {
        let dne = wv.dne_at(k);
        let prog = wv.progress_at(k);
        if prog > 0.0 && dne > 0.0 {
            worst = worst.max((dne / prog).max(prog / dne));
        }
    }
    worst
}

/// Monte-Carlo estimate of the fraction of uniformly random orders of the
/// given work multiset that are `c`-predictive (Theorem 4 claims ≥ ½ for
/// c = 2, for *any* multiset).
pub fn predictive_fraction(work: &[u64], c: f64, trials: usize, seed: u64) -> f64 {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut shuffled: Vec<u64> = work.to_vec();
    let mut hits = 0usize;
    for _ in 0..trials {
        // Fisher–Yates.
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled.swap(i, j);
        }
        if is_c_predictive(&WorkVector::new(shuffled.clone()), c) {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// An executor observer that measures the *realized* per-driver-tuple
/// work vector of a single-pipeline query: the number of getnext calls
/// (across the whole plan) that occur between consecutive rows of the
/// driver node. This turns a live execution into the [`WorkVector`] the
/// Section 4.2 analysis operates on — μ, variance, and predictiveness of
/// the actual input order.
///
/// Attribution note: all work between driver row `i` and driver row `i+1`
/// is charged to tuple `i`, matching the paper's "work done for that
/// tuple" notion for pipelined plans.
///
/// The profiler must be checkpointed after every row — stride 1, one-row
/// batches — as [`profile_work`] does.
#[derive(Debug)]
pub struct WorkProfiler {
    driver: NodeId,
    /// Total getnext calls at the time each driver row appeared.
    marks: Vec<u64>,
    total: u64,
}

impl WorkProfiler {
    /// Creates a profiler for the given driver node id.
    pub fn new(driver: NodeId) -> WorkProfiler {
        WorkProfiler {
            driver,
            marks: Vec::new(),
            total: 0,
        }
    }

    /// The per-driver-tuple work vector observed (call after the run).
    /// Returns `None` if the driver never produced a row.
    pub fn work_vector(&self) -> Option<WorkVector> {
        if self.marks.is_empty() {
            return None;
        }
        let mut work = Vec::with_capacity(self.marks.len());
        for (i, &m) in self.marks.iter().enumerate() {
            let end = self.marks.get(i + 1).copied().unwrap_or(self.total + 1);
            // Tuple i owns everything from its own getnext (inclusive) to
            // the next driver tuple's getnext (exclusive).
            work.push(end - m);
        }
        Some(WorkVector::new(work))
    }
}

impl Observer for WorkProfiler {
    fn checkpoint(&mut self, counters: &Counters) {
        self.total = counters.total();
        if counters.node(self.driver) > self.marks.len() as u64 {
            self.marks.push(self.total);
        }
    }
}

/// Profiles a single-pipeline plan: runs it and returns the realized
/// per-driver-tuple work vector, with the driver taken as the pipeline's
/// single source.
///
/// # Errors
/// Fails if the plan has multiple pipelines/sources (the paper's analysis
/// — and this profiler — targets single pipelines) or if execution fails.
pub fn profile_work(plan: &qp_exec::Plan, db: &qp_storage::Database) -> Result<WorkVector, String> {
    let pipelines = qp_exec::pipeline::decompose(plan);
    if pipelines.len() != 1 || pipelines[0].sources.len() != 1 {
        return Err(format!(
            "work profiling needs a single pipeline with one source; got {} pipelines",
            pipelines.len()
        ));
    }
    let driver = pipelines[0].sources[0].node();
    let controls = RunControls {
        tuning: ExecTuning {
            batch_rows: 1,
            ..ExecTuning::default()
        },
        ..RunControls::default()
    };
    let (_, profiler) = QueryRun::with_controls(plan, db, controls)
        .and_then(|mut run| run.run_observed(WorkProfiler::new(driver), 1))
        .map_err(|e| e.to_string())?;
    profiler
        .work_vector()
        .ok_or_else(|| "driver produced no rows".to_string())
}

/// Monte-Carlo estimate of Var(err) of dne at checkpoint `k` over random
/// orders — Theorem 3's convergence discussion says this is proportional
/// to `var / N`.
pub fn dne_error_variance(work: &[u64], k: usize, trials: usize, seed: u64) -> f64 {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut shuffled: Vec<u64> = work.to_vec();
    let mut errs = Vec::with_capacity(trials);
    for _ in 0..trials {
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled.swap(i, j);
        }
        let wv = WorkVector::new(shuffled.clone());
        errs.push(wv.progress_at(k) - wv.dne_at(k));
    }
    let mean = errs.iter().sum::<f64>() / trials as f64;
    errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / trials as f64
}

/// Monte-Carlo check of Theorem 3: the expected dne error at a fixed
/// checkpoint `k`, over uniformly random orders. Returns the mean signed
/// error `E[progress − dne]`, which the theorem says is 0.
pub fn dne_expected_error(work: &[u64], k: usize, trials: usize, seed: u64) -> f64 {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut shuffled: Vec<u64> = work.to_vec();
    let mut sum_err = 0.0;
    for _ in 0..trials {
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..=i);
            shuffled.swap(i, j);
        }
        let wv = WorkVector::new(shuffled.clone());
        sum_err += wv.progress_at(k) - wv.dne_at(k);
    }
    sum_err / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_and_variance() {
        let wv = WorkVector::new(vec![1, 1, 1, 5]);
        assert!((wv.mu() - 2.0).abs() < 1e-12);
        assert!((wv.variance() - 3.0).abs() < 1e-12); // ((1+1+1+9)·... ) -> (1+1+1+9)/4=3
    }

    #[test]
    fn uniform_work_is_always_1_predictive() {
        let wv = WorkVector::new(vec![3; 100]);
        assert!(is_c_predictive(&wv, 1.0));
        assert!((dne_ratio_error_after_half(&wv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_last_order_is_not_predictive() {
        // 99 tuples of work 1, then one of work 1000: the first half sees
        // avg 1 while μ ≈ 11 — not 2-predictive.
        let mut work = vec![1u64; 99];
        work.push(1000);
        let wv = WorkVector::new(work);
        assert!(!is_c_predictive(&wv, 2.0));
    }

    #[test]
    fn skew_first_order_sits_at_the_2_predictive_boundary() {
        // One huge element first: the first half carries ~all the work, so
        // the half-point average is ≈ 2μ — just barely 2-predictive and
        // decisively not 1.9-predictive. (This is exactly the Theorem 4
        // boundary case.)
        let mut work = vec![1000u64];
        work.extend(vec![1u64; 99]);
        let wv = WorkVector::new(work);
        assert!(is_c_predictive(&wv, 2.0));
        assert!(!is_c_predictive(&wv, 1.9));
    }

    #[test]
    fn theorem4_at_least_half_orders_are_2_predictive() {
        // Try several adversarial multisets; Theorem 4 says ≥ 1/2 of
        // orders are 2-predictive for any of them.
        let cases: Vec<Vec<u64>> = vec![
            {
                let mut v = vec![1u64; 99];
                v.push(10_000);
                v
            },
            (1..=100u64).collect(),
            vec![1, 1, 1, 1000, 1000, 1000],
            {
                let mut v = vec![0u64; 50];
                v.extend(vec![100u64; 50]);
                v
            },
        ];
        for work in cases {
            let frac = predictive_fraction(&work, 2.0, 2000, 42);
            assert!(
                frac >= 0.45,
                "only {frac} of orders 2-predictive for {work:?}"
            );
        }
    }

    #[test]
    fn theorem3_zero_expected_error_under_random_order() {
        let mut work = vec![1u64; 90];
        work.extend(vec![500u64; 10]);
        for &k in &[10usize, 50, 90] {
            let e = dne_expected_error(&work, k, 4000, 7);
            assert!(e.abs() < 0.02, "E[err] = {e} at k={k}");
        }
    }

    #[test]
    fn variance_shrinks_with_population_size() {
        // Var(err) ∝ var/N (Theorem 3's convergence discussion): growing N
        // with the same per-tuple distribution shrinks the error variance
        // at the midpoint roughly linearly.
        let mk =
            |n: usize| -> Vec<u64> { (0..n).map(|i| if i % 10 == 0 { 50 } else { 1 }).collect() };
        let v_small = dne_error_variance(&mk(50), 25, 3000, 11);
        let v_large = dne_error_variance(&mk(500), 250, 3000, 11);
        assert!(
            v_large < v_small / 4.0,
            "variance didn't shrink: {v_small} -> {v_large}"
        );
    }

    #[test]
    fn work_profiler_recovers_fanout() {
        // Single-pipeline INL join: per-tuple work = 1 + fan-out.
        use qp_exec::plan::{JoinType, PlanBuilder};
        use qp_storage::{ColumnType, Database, Schema, Value};
        let mut db = Database::new();
        db.create_table_with_rows(
            "t",
            Schema::of(&[("a", ColumnType::Int)]),
            (0..10).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        // u: key 3 appears 5 times, key 7 twice, others absent.
        let u_rows: Vec<Vec<Value>> = std::iter::repeat_n(3i64, 5)
            .chain(std::iter::repeat_n(7i64, 2))
            .map(|v| vec![Value::Int(v)])
            .collect();
        db.create_table_with_rows("u", Schema::of(&[("x", ColumnType::Int)]), u_rows)
            .unwrap();
        db.create_index("u_x", "u", &["x"], false).unwrap();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .inl_join(&db, "u", "u_x", vec![0], JoinType::Inner, false, None)
            .unwrap()
            .build();
        let wv = profile_work(&plan, &db).unwrap();
        let expected: Vec<u64> = (0..10)
            .map(|i| match i {
                3 => 6, // itself + 5 matches
                7 => 3, // itself + 2 matches
                _ => 1,
            })
            .collect();
        assert_eq!(wv.values(), expected.as_slice());
        assert_eq!(wv.total(), 17);
    }

    #[test]
    fn profile_rejects_multi_pipeline_plans() {
        use qp_exec::plan::{JoinType, PlanBuilder};
        use qp_storage::{ColumnType, Database, Schema, Value};
        let mut db = Database::new();
        db.create_table_with_rows(
            "t",
            Schema::of(&[("a", ColumnType::Int)]),
            (0..5).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        db.create_table_with_rows(
            "u",
            Schema::of(&[("x", ColumnType::Int)]),
            (0..5).map(|i| vec![Value::Int(i)]),
        )
        .unwrap();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .hash_join(
                PlanBuilder::scan(&db, "u").unwrap(),
                vec![0],
                vec![0],
                JoinType::Inner,
                true,
            )
            .unwrap()
            .build();
        assert!(profile_work(&plan, &db).is_err());
    }

    #[test]
    fn property2_predictive_order_bounds_dne() {
        // A 1.5-predictive order: mild front-loading.
        let mut work = vec![2u64; 50];
        work.extend(vec![1u64; 50]);
        let wv = WorkVector::new(work);
        assert!(is_c_predictive(&wv, 1.5));
        let err = dne_ratio_error_after_half(&wv);
        assert!(err <= 1.5 + 1e-9, "ratio error {err} exceeds c");
    }
}
