//! Shared-scan reuse: concurrent full-table scans attach to one
//! in-flight row producer instead of each paying their own pass over
//! the base data.
//!
//! The circulating-scan idea (one disk arm, many consumers) is standard
//! in shared-work systems; here it matters because the service front
//! end now multiplexes thousands of sessions, and a popular table would
//! otherwise be re-read once per session — on the paged backend, once
//! *per disk pass*. The contract that makes sharing admissible in this
//! codebase is stricter than mere result equality, though: the paper's
//! accounting model (Section 2.2) defines progress in per-session
//! getnext counts, so every attached session must observe *exactly* the
//! row sequence a solo scan would — same rows, same order, same length
//! — or its counters, estimator readings, and `total(Q)` drift.
//!
//! The design is a **bounded shared window**, not row routing:
//!
//! * A [`ScanShare`] registry maps a live table (by `Arc` identity) to
//!   its current [`ScanGroup`] — one *epoch* of sharing. Attaching
//!   yields a [`SharedCursor`]; a cursor detaches when it has served its
//!   last row or is dropped, and the epoch ends (its entry is removed)
//!   when the last attacher leaves. The next scan of that table starts a
//!   fresh epoch.
//! * The group reads the table in chunks, on demand: whichever cursor
//!   first needs chunk `i` reads it (one [`Table::read_range`], page at
//!   a time) under the group's lock and publishes it as an `Arc<[Row]>`
//!   every other attached cursor replays. N cursors moving together
//!   cost ~1 physical pass.
//! * A chunk stays resident only while an attached cursor still needs
//!   it: each cursor registers the chunk it reads next, and every chunk
//!   below the lowest registration is released. A solo scan therefore
//!   holds one chunk, not the decoded table, and the window spans at
//!   most the gap between the slowest and the fastest attacher.
//! * A cursor that needs a chunk that was already released — a late
//!   attacher, or a rewound one — reads that chunk from the table
//!   itself, without publishing it, then joins the window where it
//!   starts. Every cursor still sees the full insertion-order sequence
//!   from row 0, regardless of when it attached.
//! * A cursor dropped mid-scan — a cancelled session — just withdraws
//!   its registration; production continues only as long as someone
//!   still needs rows.

use crate::codec::RowDecoder;
use crate::row::Row;
use crate::table::{RowId, Table};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Rows per produced chunk: the producer granularity, the lock-hold
/// unit, and the window's unit of residency. Replay order is row by
/// row, so the chunk size is invisible to attachers (and to counters).
const CHUNK_ROWS: usize = 1024;

/// Monotone counters describing sharing effectiveness, exposed over the
/// service `METRICS` endpoint. All relaxed: totals, not invariants.
#[derive(Debug, Default)]
pub struct ScanShareStats {
    /// Cursors handed out (one per attaching scan, plus one per rewind
    /// of a cursor that had already finished and detached).
    pub attaches: AtomicU64,
    /// Attaches that joined an epoch already in flight.
    pub shared_attaches: AtomicU64,
    /// Epochs started (groups created).
    pub groups: AtomicU64,
    /// Rows physically read from tables: chunks published to the
    /// window plus chunks re-read privately by cursors that needed an
    /// already-released one.
    pub rows_produced: AtomicU64,
    /// Rows replayed to cursors (> `rows_produced` whenever sharing
    /// actually deduplicated work).
    pub rows_served: AtomicU64,
}

/// The resident part of an epoch's chunk sequence.
#[derive(Debug, Default)]
struct Window {
    /// Index of `chunks[0]`; every chunk below it was released.
    first: usize,
    chunks: VecDeque<Arc<[Row]>>,
    /// For each chunk index, how many attached cursors read it next.
    needs: BTreeMap<usize, usize>,
}

impl Window {
    /// One past the last chunk ever produced.
    fn frontier(&self) -> usize {
        self.first + self.chunks.len()
    }

    fn need(&mut self, chunk: usize) {
        *self.needs.entry(chunk).or_default() += 1;
    }

    fn unneed(&mut self, chunk: usize) {
        if let Some(n) = self.needs.get_mut(&chunk) {
            *n -= 1;
            if *n == 0 {
                self.needs.remove(&chunk);
            }
        }
    }

    /// Drops every resident chunk below the lowest chunk an attached
    /// cursor still needs.
    fn release(&mut self) {
        let keep_from = self.needs.keys().next().copied().unwrap_or(usize::MAX);
        while self.first < keep_from && self.chunks.pop_front().is_some() {
            self.first += 1;
        }
    }
}

/// One epoch of shared scanning over one table: the chunk window and
/// the attach count that scopes its lifetime.
#[derive(Debug)]
pub struct ScanGroup {
    table: Arc<Table>,
    /// Total rows this epoch serves (latched at creation; tables are
    /// frozen, so this equals `table.len()` for the epoch's lifetime).
    len: usize,
    /// The resident chunks. The `Mutex` is also the production lock:
    /// whoever holds it and finds the needed chunk unproduced reads it
    /// from the table, so exactly one attacher performs each published
    /// read.
    window: Mutex<Window>,
    attachers: AtomicUsize,
}

impl ScanGroup {
    fn new(table: Arc<Table>) -> ScanGroup {
        let len = table.len();
        ScanGroup {
            table,
            len,
            window: Mutex::new(Window::default()),
            attachers: AtomicUsize::new(0),
        }
    }

    fn window(&self) -> MutexGuard<'_, Window> {
        // A poisoning panic can only have happened mid-read or mid-push;
        // the resident chunks are still coherent, so keep serving.
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rows of chunk `index`, read from the table.
    fn read_chunk(
        &self,
        index: usize,
        decoder: &mut RowDecoder,
        stats: &ScanShareStats,
    ) -> Arc<[Row]> {
        let start = index * CHUNK_ROWS;
        let end = (start + CHUNK_ROWS).min(self.len);
        let mut rows = Vec::new();
        self.table
            .read_range(start as RowId..end as RowId, decoder, &mut rows);
        stats
            .rows_produced
            .fetch_add((end - start) as u64, Ordering::Relaxed);
        rows.into()
    }

    /// Moves a cursor's registration from chunk `from` to chunk `index`
    /// and returns chunk `index`: replayed from the window, produced into
    /// it if this cursor is first past the frontier, or re-read privately
    /// if it was already released.
    fn chunk(
        &self,
        from: usize,
        index: usize,
        decoder: &mut RowDecoder,
        stats: &ScanShareStats,
    ) -> Arc<[Row]> {
        let mut window = self.window();
        window.unneed(from);
        window.need(index);
        window.release();
        if index < window.first {
            drop(window);
            return self.read_chunk(index, decoder, stats);
        }
        while window.frontier() <= index {
            let next = window.frontier();
            let rows = self.read_chunk(next, decoder, stats);
            window.chunks.push_back(rows);
        }
        Arc::clone(&window.chunks[index - window.first])
    }

    /// Withdraws a cursor's registration on chunk `from`.
    fn leave(&self, from: usize) {
        let mut window = self.window();
        window.unneed(from);
        window.release();
    }
}

/// The process-wide sharing registry: at most one live [`ScanGroup`]
/// per table. Held by the service and threaded into executors through
/// `RunControls`; sessions that must not share (fault-injected runs,
/// whose schedules are keyed to physical read order) simply run without
/// one.
#[derive(Debug, Default)]
pub struct ScanShare {
    /// Live epochs, keyed by table identity (`Arc` pointer — tables are
    /// interned in the `Database` catalog, so identity is stable).
    groups: Mutex<HashMap<usize, Arc<ScanGroup>>>,
    stats: ScanShareStats,
}

impl ScanShare {
    /// An empty registry.
    pub fn new() -> ScanShare {
        ScanShare::default()
    }

    /// Sharing-effectiveness counters.
    pub fn stats(&self) -> &ScanShareStats {
        &self.stats
    }

    /// Attaches a scan of `table`: joins the table's in-flight epoch if
    /// one exists, otherwise starts a new one. The returned cursor
    /// replays the full insertion-order row sequence from row 0.
    pub fn attach(self: &Arc<ScanShare>, table: &Arc<Table>) -> SharedCursor {
        let mut cursor = SharedCursor {
            share: Arc::clone(self),
            table: Arc::clone(table),
            len: table.len(),
            group: None,
            need: 0,
            pos: 0,
            chunk: None,
            decoder: RowDecoder::new(),
        };
        cursor.join();
        cursor
    }

    /// The table's live epoch, or a new one; counted as one attach.
    fn group_for(&self, table: &Arc<Table>) -> Arc<ScanGroup> {
        let key = Arc::as_ptr(table) as usize;
        let mut groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
        self.stats.attaches.fetch_add(1, Ordering::Relaxed);
        let group = match groups.get(&key) {
            Some(group) => {
                self.stats.shared_attaches.fetch_add(1, Ordering::Relaxed);
                Arc::clone(group)
            }
            None => {
                self.stats.groups.fetch_add(1, Ordering::Relaxed);
                let group = Arc::new(ScanGroup::new(Arc::clone(table)));
                groups.insert(key, Arc::clone(&group));
                group
            }
        };
        group.attachers.fetch_add(1, Ordering::Relaxed);
        group
    }

    /// Ends `group`'s epoch if it is still the registered one (a fresh
    /// epoch for the same table must not be evicted by a stale detach).
    fn retire(&self, table: &Arc<Table>, group: &Arc<ScanGroup>) {
        let key = Arc::as_ptr(table) as usize;
        let mut groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(current) = groups.get(&key) {
            if Arc::ptr_eq(current, group) {
                groups.remove(&key);
            }
        }
    }
}

/// One attached scan: an independent replay position over its group's
/// chunk sequence. Detaches (and possibly retires the epoch) when it
/// serves its last row or is dropped.
#[derive(Debug)]
pub struct SharedCursor {
    share: Arc<ScanShare>,
    table: Arc<Table>,
    /// Total rows this scan produces.
    len: usize,
    /// The epoch this cursor is attached to; `None` once detached.
    group: Option<Arc<ScanGroup>>,
    /// The chunk this cursor is registered on in its group's window.
    need: usize,
    /// Next row index to serve, in `[0, len]`.
    pos: usize,
    /// The chunk holding row `pos` (avoids a window lock per row).
    chunk: Option<Arc<[Row]>>,
    /// Decodes the chunks this cursor reads (published or private).
    decoder: RowDecoder,
}

impl SharedCursor {
    /// Attaches to the table's epoch and registers on chunk 0.
    fn join(&mut self) {
        let group = self.share.group_for(&self.table);
        group.window().need(0);
        self.need = 0;
        self.group = Some(group);
    }

    /// Detaches from the epoch, retiring it if this was the last
    /// attacher.
    fn leave(&mut self) {
        self.chunk = None;
        if let Some(group) = self.group.take() {
            group.leave(self.need);
            if group.attachers.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.share.retire(&self.table, &group);
            }
        }
    }

    /// Rewinds to row 0 (operator `open` semantics — re-opened scans
    /// replay from the start, exactly like a solo scan would). A cursor
    /// that already finished attaches again.
    pub fn reset(&mut self) {
        self.pos = 0;
        self.chunk = None;
        if self.group.is_none() {
            self.join();
        }
    }

    /// Total rows this scan will produce.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks currently resident in this cursor's epoch window (0 once
    /// detached).
    pub fn resident_chunks(&self) -> usize {
        self.group
            .as_ref()
            .map_or(0, |group| group.window().chunks.len())
    }

    /// Appends up to `max` rows to `out`, returning whether rows remain.
    pub fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> bool {
        let mut served = 0;
        while served < max && self.pos < self.len {
            let offset = self.pos % CHUNK_ROWS;
            let chunk = self.load_chunk();
            let take = (max - served).min(chunk.len() - offset);
            out.extend_from_slice(&chunk[offset..offset + take]);
            self.pos += take;
            served += take;
        }
        self.served(served)
    }

    /// The chunk holding row `pos` (which must be `< len`).
    fn load_chunk(&mut self) -> &Arc<[Row]> {
        let index = self.pos / CHUNK_ROWS;
        if self.chunk.is_none() || self.need != index {
            // Let go of the old chunk before the window may release it.
            self.chunk = None;
            let group = self
                .group
                .as_ref()
                .expect("a cursor short of its end is attached");
            let chunk = group.chunk(self.need, index, &mut self.decoder, &self.share.stats);
            self.need = index;
            self.chunk = Some(chunk);
        }
        self.chunk.as_ref().expect("chunk just installed")
    }

    /// Accounts `n` served rows and detaches at the end of the table;
    /// returns whether rows remain.
    fn served(&mut self, n: usize) -> bool {
        self.share
            .stats
            .rows_served
            .fetch_add(n as u64, Ordering::Relaxed);
        if self.pos < self.len {
            return true;
        }
        self.leave();
        false
    }
}

impl Drop for SharedCursor {
    fn drop(&mut self) {
        self.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    fn table(rows: usize) -> Arc<Table> {
        let mut t = Table::new("t", Schema::of(&[("x", ColumnType::Int)]));
        for i in 0..rows {
            t.insert_unchecked(Row::new(vec![Value::Int(i as i64)]));
        }
        Arc::new(t)
    }

    /// Every row the cursor has left, read one row per batch.
    fn drain(mut cursor: SharedCursor) -> Vec<Row> {
        let mut rows = Vec::new();
        while cursor.next_batch(1, &mut rows) {}
        rows
    }

    #[test]
    fn replay_matches_a_direct_scan() {
        let t = table(2500);
        let share = Arc::new(ScanShare::new());
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(share.attach(&t)), direct);
    }

    #[test]
    fn concurrent_attachers_each_see_the_full_sequence_for_one_pass() {
        let t = table(5000);
        let share = Arc::new(ScanShare::new());
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        // Attach everyone before anyone runs: a drained cursor retires
        // the epoch, so attach-after-finish would start a second pass.
        let cursors: Vec<_> = (0..4).map(|_| share.attach(&t)).collect();
        let handles: Vec<_> = cursors
            .into_iter()
            .map(|cursor| std::thread::spawn(move || drain(cursor)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), direct);
        }
        let stats = share.stats();
        assert_eq!(stats.attaches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.groups.load(Ordering::Relaxed), 1);
        // One physical pass served four logical ones.
        assert_eq!(stats.rows_produced.load(Ordering::Relaxed), 5000);
        assert_eq!(stats.rows_served.load(Ordering::Relaxed), 4 * 5000);
    }

    #[test]
    fn epochs_retire_when_the_last_attacher_leaves() {
        let t = table(100);
        let share = Arc::new(ScanShare::new());
        let a = share.attach(&t);
        let b = share.attach(&t);
        assert_eq!(share.stats().shared_attaches.load(Ordering::Relaxed), 1);
        drop(a);
        drop(b);
        // The epoch is gone: a new attach starts (and pays for) a fresh
        // pass instead of replaying a stale cache.
        drop(share.attach(&t));
        assert_eq!(share.stats().groups.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dropping_mid_scan_detaches_without_disturbing_others() {
        let t = table(3000);
        let share = Arc::new(ScanShare::new());
        let mut quitter = share.attach(&t);
        let survivor = share.attach(&t);
        for _ in 0..10 {
            quitter.next_batch(1, &mut Vec::new());
        }
        drop(quitter);
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(survivor), direct);
    }

    #[test]
    fn reset_replays_from_row_zero() {
        let t = table(50);
        let share = Arc::new(ScanShare::new());
        let mut cursor = share.attach(&t);
        for _ in 0..30 {
            cursor.next_batch(1, &mut Vec::new());
        }
        cursor.reset();
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(cursor), direct);
        // The replay cost no second physical pass.
        assert_eq!(share.stats().rows_produced.load(Ordering::Relaxed), 50);
    }

    fn direct(t: &Table) -> Vec<Row> {
        t.scan().map(|(_, row)| row).collect()
    }

    #[test]
    fn a_solo_cursor_keeps_one_chunk_resident() {
        let t = table(5 * CHUNK_ROWS + 7);
        let share = Arc::new(ScanShare::new());
        let direct = direct(&t);
        let mut cursor = share.attach(&t);
        let mut got = Vec::new();
        loop {
            let more = cursor.next_batch(1, &mut got);
            assert!(cursor.resident_chunks() <= 1, "row {}", got.len());
            if !more {
                break;
            }
        }
        assert_eq!(got, direct);
        assert_eq!(cursor.resident_chunks(), 0, "a finished cursor detaches");
        // Batches that straddle chunk boundaries hold no more.
        let mut cursor = share.attach(&t);
        let mut got = Vec::new();
        while cursor.next_batch(300, &mut got) {
            assert!(cursor.resident_chunks() <= 1, "row {}", got.len());
        }
        assert_eq!(got, direct);
        assert_eq!(cursor.resident_chunks(), 0, "a finished cursor detaches");
    }

    #[test]
    fn a_late_attacher_rereads_the_released_prefix() {
        let t = table(5 * CHUNK_ROWS);
        let share = Arc::new(ScanShare::new());
        let direct = direct(&t);
        let mut early = share.attach(&t);
        let mut early_rows = Vec::new();
        assert!(early.next_batch(3 * CHUNK_ROWS + 10, &mut early_rows));
        // Chunks 0..3 are gone; chunk 3 is resident.
        assert_eq!(early.resident_chunks(), 1);
        let late = share.attach(&t);
        assert_eq!(share.stats().shared_attaches.load(Ordering::Relaxed), 1);
        assert_eq!(drain(late), direct);
        // The late cursor kept chunks 3 and 4 resident for the early one.
        assert_eq!(early.resident_chunks(), 2);
        early_rows.extend(drain(early));
        assert_eq!(early_rows, direct);
        let stats = share.stats();
        // Five chunks read once, plus the late cursor's private re-read
        // of the three it missed.
        assert_eq!(
            stats.rows_produced.load(Ordering::Relaxed),
            8 * CHUNK_ROWS as u64
        );
        assert_eq!(
            stats.rows_served.load(Ordering::Relaxed),
            10 * CHUNK_ROWS as u64
        );
    }

    #[test]
    fn reset_after_a_chunk_boundary_replays_the_same_rows() {
        let t = table(3 * CHUNK_ROWS + 5);
        let share = Arc::new(ScanShare::new());
        let direct = direct(&t);
        let mut cursor = share.attach(&t);
        let mut rows = Vec::new();
        assert!(cursor.next_batch(CHUNK_ROWS + 100, &mut rows));
        cursor.reset();
        rows.clear();
        while cursor.next_batch(777, &mut rows) {}
        assert_eq!(rows, direct);
        // Rewinding a finished (detached) cursor attaches it again.
        cursor.reset();
        assert_eq!(drain(cursor), direct);
        assert_eq!(share.stats().attaches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_table_attaches_and_ends_immediately() {
        let t = table(0);
        let share = Arc::new(ScanShare::new());
        let mut cursor = share.attach(&t);
        assert!(cursor.is_empty());
        let mut rows = Vec::new();
        assert!(!cursor.next_batch(1, &mut rows));
        assert!(rows.is_empty());
        assert_eq!(cursor.resident_chunks(), 0, "a finished cursor detaches");
    }
}
