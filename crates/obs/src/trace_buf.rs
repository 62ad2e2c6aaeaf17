//! Per-session progress-trajectory buffer.
//!
//! The progress monitor snapshots `curr / lb / ub` and the estimator
//! values at every checkpoint stride. The in-monitor `Vec` of snapshots
//! is owned by the query thread and only becomes readable when the run
//! finishes; a [`TraceBuffer`] is the live, bounded view — the monitor
//! pushes each checkpoint into a [`RawRing`] that the `TRACE <id>`
//! handler reads lock-free while the query is still executing (or after
//! it died). Floats travel as `f64::to_bits`, so NaN/inf round-trip
//! bit-exactly.
//!
//! Unlike the monitor's snapshot `Vec` (which replaces a trailing
//! checkpoint with the same `curr`), the ring is append-only, so
//! consecutive points may share a `curr`; consumers should rely on
//! `curr` being non-decreasing, not strictly increasing.

use crate::ring::RawRing;

/// One progress checkpoint read back from a [`TraceBuffer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Checkpoint sequence number (gap-free while the ring hasn't
    /// lapped).
    pub seq: u64,
    /// getnext calls observed so far (`Curr` in the paper).
    pub curr: u64,
    /// Lower bound on the total getnext count.
    pub lb: u64,
    /// Upper bound on the total getnext count.
    pub ub: u64,
    /// Estimator values at this checkpoint, in the registration order of
    /// the owning monitor (`dne`, `pmax`, `safe` in the service).
    pub estimates: Vec<f64>,
}

/// Bounded lock-free buffer of progress checkpoints for one session.
#[derive(Debug)]
pub struct TraceBuffer {
    /// Payload layout: `[curr, lb, ub, est_bits...]`.
    ring: RawRing,
}

impl TraceBuffer {
    /// A buffer retaining the newest `capacity` checkpoints of `arity`
    /// estimators each.
    pub fn new(capacity: usize, arity: usize) -> TraceBuffer {
        TraceBuffer {
            ring: RawRing::new(capacity, 3 + arity),
        }
    }

    /// Number of estimator values per checkpoint.
    pub fn arity(&self) -> usize {
        self.ring.width() - 3
    }

    /// Total checkpoints ever pushed.
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Checkpoints lost to wraparound (monotone).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records one checkpoint; wait-free.
    ///
    /// # Panics
    /// Panics if `estimates.len()` differs from the buffer's arity.
    pub fn push(&self, curr: u64, lb: u64, ub: u64, estimates: &[f64]) -> u64 {
        let mut payload = Vec::with_capacity(3 + estimates.len());
        payload.extend_from_slice(&[curr, lb, ub]);
        payload.extend(estimates.iter().map(|e| e.to_bits()));
        self.ring.push(&payload)
    }

    /// An exact-size copy holding only the surviving tail, with `seq`,
    /// [`TraceBuffer::pushed`] and [`TraceBuffer::dropped`] unchanged —
    /// what a finished session keeps (see [`RawRing::compacted`]).
    pub fn compacted(&self) -> TraceBuffer {
        TraceBuffer {
            ring: self.ring.compacted(),
        }
    }

    /// The surviving checkpoint tail, oldest first.
    pub fn tail(&self) -> Vec<TracePoint> {
        self.ring
            .tail()
            .into_iter()
            .map(|rec| TracePoint {
                seq: rec.seq,
                curr: rec.payload[0],
                lb: rec.payload[1],
                ub: rec.payload[2],
                estimates: rec.payload[3..]
                    .iter()
                    .map(|&b| f64::from_bits(b))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_round_trip_including_non_finite_estimates() {
        let buf = TraceBuffer::new(8, 3);
        assert_eq!(buf.arity(), 3);
        buf.push(10, 100, 200, &[0.1, 0.05, f64::NAN]);
        buf.push(20, 100, 200, &[0.2, 0.1, f64::INFINITY]);
        let tail = buf.tail();
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].curr, tail[0].lb, tail[0].ub), (10, 100, 200));
        assert_eq!(&tail[0].estimates[..2], &[0.1, 0.05]);
        assert!(tail[0].estimates[2].is_nan());
        assert_eq!(tail[1].estimates[2], f64::INFINITY);
        assert_eq!(tail[1].seq, 1);
    }

    #[test]
    fn wraparound_keeps_the_newest_checkpoints() {
        let buf = TraceBuffer::new(4, 1);
        for i in 0..10u64 {
            buf.push(i, 0, 100, &[i as f64 / 100.0]);
        }
        let tail = buf.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].curr, 6);
        assert_eq!(tail[3].curr, 9);
        assert_eq!(buf.dropped(), 6);
        // curr is non-decreasing in a live trace.
        assert!(tail.windows(2).all(|w| w[0].curr <= w[1].curr));
    }

    #[test]
    fn compaction_preserves_tail_and_counts() {
        // Lapped (10 pushes into 4 slots) and not lapped (3 into 8).
        for (capacity, pushes) in [(4usize, 10u64), (8, 3)] {
            let buf = TraceBuffer::new(capacity, 2);
            for i in 0..pushes {
                buf.push(i * 10, 5, 500, &[i as f64 / 10.0, f64::NAN]);
            }
            let small = buf.compacted();
            assert_eq!(small.arity(), 2);
            let (a, b) = (buf.tail(), small.tail());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.seq, x.curr, x.lb, x.ub), (y.seq, y.curr, y.lb, y.ub));
                let bits =
                    |p: &TracePoint| p.estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y));
            }
            assert_eq!(small.pushed(), buf.pushed());
            assert_eq!(small.dropped(), buf.dropped());
        }
    }

    #[test]
    #[should_panic(expected = "payload arity mismatch")]
    fn wrong_estimator_arity_panics() {
        TraceBuffer::new(4, 2).push(1, 0, 10, &[0.5]);
    }
}
