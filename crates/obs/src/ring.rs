//! A fixed-capacity, lock-free ring of fixed-width records.
//!
//! [`RawRing`] is the storage primitive under both the
//! [`crate::recorder::FlightRecorder`] (structured events) and the
//! [`crate::trace_buf::TraceBuffer`] (progress checkpoints). Records are
//! `width` words of `u64` payload; writers claim a global sequence number
//! with one `fetch_add` and publish into slot `seq % capacity` under a
//! per-slot seqlock, so
//!
//! * writers never block (no mutex anywhere — the hot path is one atomic
//!   add plus `width + 2` relaxed stores),
//! * readers never block writers (they validate the per-slot marker and
//!   simply skip records that are mid-write or already overwritten), and
//! * once the ring laps, the **newest** `capacity` records survive — the
//!   flight-recorder property: the tail of a crashing session is always
//!   available for a postmortem.
//!
//! The marker protocol mirrors the seqlock of `qp_progress::shared`: slot
//! for sequence `s` holds `2s + 1` while the write is in flight and
//! `2s + 2` once published (`0` = never written). A reader accepts a
//! record only when the marker reads `2s + 2` both before and after the
//! payload loads, so a record can never be observed torn — not even when
//! two writers lap each other onto the same slot.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Lock-free multi-writer, multi-reader ring of `width`-word records.
#[derive(Debug)]
pub struct RawRing {
    /// Payload words per record.
    width: usize,
    /// Number of slots.
    capacity: usize,
    /// Next sequence number to claim (= total records ever pushed).
    head: AtomicU64,
    /// `capacity` slots of `1 + width` words: `[marker, payload...]`.
    slots: Box<[AtomicU64]>,
}

/// One record read back from a [`RawRing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Global sequence number (0-based, gap-free across the ring's life).
    pub seq: u64,
    /// The payload words, in push order.
    pub payload: Vec<u64>,
}

impl RawRing {
    /// A ring of `capacity` records of `width` payload words each.
    pub fn new(capacity: usize, width: usize) -> RawRing {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(width > 0, "ring width must be positive");
        let slots = (0..capacity * (1 + width))
            .map(|_| AtomicU64::new(0))
            .collect();
        RawRing {
            width,
            capacity,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Payload words per record.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total records ever pushed (sequence numbers are `0..pushed()`).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records overwritten by ring wraparound (monotone).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Appends one record, returning its sequence number. Never blocks;
    /// when the ring is full the oldest record is overwritten.
    ///
    /// # Panics
    /// Panics if `payload.len()` differs from the ring's width.
    pub fn push(&self, payload: &[u64]) -> u64 {
        assert_eq!(payload.len(), self.width, "payload arity mismatch");
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let base = (seq % self.capacity as u64) as usize * (1 + self.width);
        self.slots[base].store(seq.wrapping_mul(2) + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (i, &w) in payload.iter().enumerate() {
            self.slots[base + 1 + i].store(w, Ordering::Relaxed);
        }
        self.slots[base].store(seq.wrapping_mul(2) + 2, Ordering::Release);
        seq
    }

    /// The surviving tail, oldest first: every record whose slot still
    /// coherently holds it. Records mid-write or lapped by a newer push
    /// while being read are skipped, never returned torn.
    pub fn tail(&self) -> Vec<RawRecord> {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(self.capacity as u64);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for seq in lo..head {
            if let Some(payload) = self.read_slot(seq) {
                out.push(RawRecord { seq, payload });
            }
        }
        out
    }

    /// An exact-size copy of the surviving tail: one slot per record, with
    /// every record's `seq`, and [`RawRing::pushed`] and
    /// [`RawRing::dropped`] unchanged. For a ring whose writers are done —
    /// a finished session's trace keeps its tail without holding the
    /// full-capacity allocation.
    pub fn compacted(&self) -> RawRing {
        let tail = self.tail();
        let ring = RawRing::new(tail.len().max(1), self.width);
        let head = self.pushed();
        ring.head
            .store(head.saturating_sub(tail.len() as u64), Ordering::Relaxed);
        for rec in &tail {
            ring.push(&rec.payload);
        }
        debug_assert_eq!(ring.pushed(), head, "compaction needs a quiescent ring");
        ring
    }

    /// Reads the record with sequence `seq`, if its slot still holds it.
    fn read_slot(&self, seq: u64) -> Option<Vec<u64>> {
        let base = (seq % self.capacity as u64) as usize * (1 + self.width);
        let expect = seq.wrapping_mul(2) + 2;
        let m1 = self.slots[base].load(Ordering::Acquire);
        if m1 != expect {
            return None;
        }
        let payload: Vec<u64> = (0..self.width)
            .map(|i| self.slots[base + 1 + i].load(Ordering::Relaxed))
            .collect();
        fence(Ordering::Acquire);
        (self.slots[base].load(Ordering::Relaxed) == expect).then_some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_ring_has_empty_tail() {
        let r = RawRing::new(8, 2);
        assert!(r.tail().is_empty());
        assert_eq!(r.pushed(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn records_come_back_in_order() {
        let r = RawRing::new(8, 2);
        for i in 0..5u64 {
            assert_eq!(r.push(&[i, i * 10]), i);
        }
        let tail = r.tail();
        assert_eq!(tail.len(), 5);
        for (i, rec) in tail.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.payload, vec![i as u64, i as u64 * 10]);
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_records() {
        let r = RawRing::new(4, 1);
        for i in 0..10u64 {
            r.push(&[i]);
        }
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 6);
        let tail = r.tail();
        assert_eq!(
            tail.iter().map(|rec| rec.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
        );
        assert_eq!(
            tail.iter().map(|rec| rec.payload[0]).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
        );
    }

    #[test]
    fn compaction_keeps_tail_seq_and_counts() {
        // One ring that never lapped, one that did, and an empty one.
        for pushes in [0u64, 5, 21] {
            let r = RawRing::new(8, 2);
            for i in 0..pushes {
                r.push(&[i, i * 3]);
            }
            let c = r.compacted();
            assert_eq!(c.tail(), r.tail(), "{pushes} pushes");
            assert_eq!(c.pushed(), r.pushed(), "{pushes} pushes");
            assert_eq!(c.dropped(), r.dropped(), "{pushes} pushes");
            assert_eq!(c.capacity(), r.tail().len().max(1));
        }
    }

    #[test]
    #[should_panic(expected = "payload arity mismatch")]
    fn wrong_arity_panics() {
        RawRing::new(4, 2).push(&[1]);
    }

    /// Readers racing many writers must only ever observe coherent
    /// records: payload words from the same push, at the right slot.
    #[test]
    fn concurrent_pushes_never_tear() {
        let ring = Arc::new(RawRing::new(16, 3));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // All three words encode the same value, so a torn
                        // record is detectable.
                        let v = w * 1_000_000 + i;
                        ring.push(&[v, v.wrapping_mul(3), v.wrapping_mul(7)]);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    while ring.pushed() < 20_000 {
                        for rec in ring.tail() {
                            let v = rec.payload[0];
                            assert_eq!(rec.payload[1], v.wrapping_mul(3), "torn: {rec:?}");
                            assert_eq!(rec.payload[2], v.wrapping_mul(7), "torn: {rec:?}");
                        }
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(ring.pushed(), 20_000);
        assert_eq!(ring.tail().len(), 16);
    }
}
