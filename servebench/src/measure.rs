//! Pure arithmetic of the benchmark: order statistics, the geometric
//! mean, the seeded query order, and the open-loop schedule. Kept free of
//! I/O so the unit tests below can pin each rule down exactly.

use std::time::Duration;

/// Value at the `p`-th percentile (0 < p ≤ 100) of ascending `sorted`,
/// nearest-rank definition: the smallest sample with at least `p`% of
/// the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimum number of samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest nearest-rank percentile
/// that still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at, `100 · (n − 10) / n`.
    pub percentile: f64,
    pub samples: usize,
}

/// Picks the [`Tail`] of ascending `sorted`; `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist, because then no percentile has ten
/// samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Rank n − 10 (1-based) leaves exactly ten samples strictly beyond it.
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Sorts a sample ascending (latencies are finite, so `total_cmp` is a
/// total order here).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Geometric mean of positive values; `None` for an empty input or a
/// non-positive value (a ratio error is at least 1, so either is a bug).
pub fn gmean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// SplitMix64: a tiny, well-mixed PRNG, so a seed fixes the benchmark's
/// inputs without pulling in a dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is negligible for the
    /// tiny `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The query mix's order: each cycle is a seeded permutation of
/// `0..n`, so every cycle runs every query exactly once and a run of
/// whole cycles has the same composition whatever its length.
pub struct MixOrder {
    rng: SplitMix64,
    n: usize,
}

impl MixOrder {
    pub fn new(seed: u64, n: usize) -> MixOrder {
        MixOrder {
            rng: SplitMix64::new(seed ^ 0x51ed_2701_a3c5_8e4b),
            n,
        }
    }

    /// The next cycle's order (Fisher–Yates).
    pub fn next_cycle(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        for i in (1..self.n).rev() {
            order.swap(i, self.rng.below(i + 1));
        }
        order
    }
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i · interval`, whether or not earlier replies have arrived.
/// Times are offsets from the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub start: Duration,
    pub interval: Duration,
}

/// One open-loop request's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Reply time minus due time: the wait a user sees, including any
    /// stall that delayed this request behind an earlier one.
    pub latency: Duration,
    /// Send time minus due time: how far the generator fell behind.
    pub late: Duration,
    /// Reply time minus send time: the bare round trip.
    pub round_trip: Duration,
}

impl OpenLoop {
    pub fn new(start: Duration, rate_per_s: u32) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs(1) / rate_per_s,
        }
    }

    pub fn due(&self, i: u32) -> Duration {
        self.start + self.interval * i
    }

    /// Times request `i`, sent at `sent` and answered at `replied`.
    pub fn time(&self, i: u32, sent: Duration, replied: Duration) -> Timed {
        let due = self.due(i);
        Timed {
            latency: replied.saturating_sub(due),
            late: sent.saturating_sub(due),
            round_trip: replied.saturating_sub(sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 1990.0);
        assert_eq!(t.percentile, 99.5);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(eleven.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn geometric_mean() {
        assert_eq!(gmean(&[]), None);
        assert_eq!(gmean(&[1.0, 0.0]), None);
        assert_eq!(gmean(&[2.0, f64::NAN]), None);
        assert!((gmean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.5]).unwrap() - 1.5).abs() < 1e-12);
        assert!((gmean(&[1.0, 10.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_mix_is_deterministic_and_complete() {
        let cycles = |seed| {
            let mut m = MixOrder::new(seed, 5);
            (0..50).map(|_| m.next_cycle()).collect::<Vec<_>>()
        };
        assert_eq!(cycles(7), cycles(7), "same seed, same order");
        assert_ne!(cycles(7), cycles(8), "another seed, another order");
        for c in cycles(7) {
            let mut s = c.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2, 3, 4], "each cycle is a permutation");
        }
        // The order really varies between cycles.
        let c = cycles(3);
        assert!(c.iter().any(|x| x != &c[0]));
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        let lp = OpenLoop::new(ms(100), 200);
        assert_eq!(lp.interval, ms(5));
        assert_eq!(lp.due(0), ms(100));
        assert_eq!(lp.due(3), ms(115));

        // On schedule: sent when due, answered 1 ms later.
        let t = lp.time(0, ms(100), ms(101));
        assert_eq!(t.latency, ms(1));
        assert_eq!(t.late, Duration::ZERO);
        assert_eq!(t.round_trip, ms(1));

        // Request 0 stalls for 20 ms. Request 1, due at 105 ms, can only
        // be sent at 120 ms and is answered at 121 ms: its latency counts
        // the 15 ms it waited behind the stall, not just its round trip.
        let stalled = lp.time(0, ms(100), ms(120));
        assert_eq!(stalled.latency, ms(20));
        let behind = lp.time(1, ms(120), ms(121));
        assert_eq!(behind.late, ms(15));
        assert_eq!(behind.latency, ms(16));
        assert_eq!(behind.round_trip, ms(1));
    }
}
