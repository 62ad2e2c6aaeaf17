//! Leaf operators: sequential heap scan and B+Tree range scan, plus their
//! morsel-consuming variants for work-stealing parallel scans.
//!
//! `next` reads one row with [`Table::row`]; `next_batch` reads its rows
//! with [`Table::read_range`] or [`Table::read_rids`], so a paged table
//! pins each page once per batch and decodes its cells with the scan's
//! own [`RowDecoder`].

use crate::context::{ExecContext, Operator};
use crate::error::ExecResult;
use qp_storage::{
    IndexMeta, MorselDispenser, Row, RowDecoder, RowId, ScanShare, Schema, SharedCursor, Table,
    Value,
};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Full scan of a heap table in insertion order — the order the paper's
/// input-order analysis (Section 4.2) is about. A *partition* scan (see
/// [`SeqScanOp::with_range`]) covers one contiguous row-id range instead;
/// concatenating the partitions of a [`Table::partition_ranges`] split in
/// order reproduces the full scan exactly.
pub struct SeqScanOp {
    table: Arc<Table>,
    start: usize,
    end: usize,
    pos: usize,
    decoder: RowDecoder,
}

impl SeqScanOp {
    pub fn new(table: Arc<Table>) -> SeqScanOp {
        let end = table.len();
        SeqScanOp {
            table,
            start: 0,
            end,
            pos: 0,
            decoder: RowDecoder::new(),
        }
    }

    /// A scan restricted to heap positions `[start, end)`.
    pub fn with_range(table: Arc<Table>, start: usize, end: usize) -> SeqScanOp {
        debug_assert!(start <= end && end <= table.len());
        SeqScanOp {
            table,
            start,
            end,
            pos: start,
            decoder: RowDecoder::new(),
        }
    }
}

impl Operator for SeqScanOp {
    fn open(&mut self) -> ExecResult<()> {
        self.pos = self.start;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.pos < self.end {
            let row = self.table.row(self.pos as RowId);
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        if self.pos >= self.end {
            return Ok(false);
        }
        let take = max.min(self.end - self.pos);
        let rids = self.pos as RowId..(self.pos + take) as RowId;
        self.table.read_range(rids, &mut self.decoder, out);
        self.pos += take;
        Ok(self.pos < self.end)
    }

    fn close(&mut self) {}

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Full heap scan through a [`ScanShare`] registry: attaches to the
/// table's in-flight shared-scan epoch (or starts one) and replays the
/// insertion-order row sequence from its own cursor. Row-for-row
/// equivalent to [`SeqScanOp`] — same rows, same order, same getnext
/// counts — but N concurrent scans of one table cost ~1 physical pass.
pub struct SharedSeqScanOp {
    table: Arc<Table>,
    share: Arc<ScanShare>,
    cursor: Option<SharedCursor>,
}

impl SharedSeqScanOp {
    pub fn new(table: Arc<Table>, share: Arc<ScanShare>) -> SharedSeqScanOp {
        SharedSeqScanOp {
            table,
            share,
            cursor: None,
        }
    }

    fn cursor(&mut self) -> &mut SharedCursor {
        // Attach lazily at first pull, not at build: a plan node that
        // never opens (short-circuited pipeline) must not hold an epoch
        // alive, and `open` semantics want a rewind either way.
        self.cursor
            .get_or_insert_with(|| self.share.attach(&self.table))
    }
}

impl Operator for SharedSeqScanOp {
    fn open(&mut self) -> ExecResult<()> {
        self.cursor().reset();
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        Ok(self.cursor().next())
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        Ok(self.cursor().next_batch(max, out))
    }

    fn close(&mut self) {
        // Detach promptly: an abandoned scan must not pin the epoch (and
        // its window) until the operator tree drops.
        self.cursor = None;
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Range scan over a B+Tree index (`index-seek`). Matching row ids are
/// collected at `open` (the tree iterator borrows the index, and operators
/// are long-lived), then rows are fetched lazily per `next`.
pub struct IndexRangeScanOp {
    table: Arc<Table>,
    index: Arc<IndexMeta>,
    lo: Bound<Vec<Value>>,
    hi: Bound<Vec<Value>>,
    /// `(p, n)`: keep only the `p`-th of `n` balanced contiguous slices of
    /// the matching rid list. `(0, 1)` is the full scan.
    partition: (usize, usize),
    rids: Vec<RowId>,
    pos: usize,
    decoder: RowDecoder,
}

impl IndexRangeScanOp {
    pub fn new(
        table: Arc<Table>,
        index: Arc<IndexMeta>,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
    ) -> IndexRangeScanOp {
        IndexRangeScanOp {
            table,
            index,
            lo,
            hi,
            partition: (0, 1),
            rids: Vec::new(),
            pos: 0,
            decoder: RowDecoder::new(),
        }
    }

    /// Restricts the scan to partition `p` of `n`: the matching rids are
    /// collected in index order as usual, then sliced into `n` balanced
    /// contiguous runs (first `len % n` runs one longer). Concatenating
    /// partitions `0..n` in order reproduces the serial scan exactly.
    pub fn with_partition(mut self, p: usize, n: usize) -> IndexRangeScanOp {
        debug_assert!(n > 0 && p < n);
        self.partition = (p, n.max(1));
        self
    }
}

impl Operator for IndexRangeScanOp {
    fn open(&mut self) -> ExecResult<()> {
        let lo = match &self.lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        self.rids = self
            .index
            .tree
            .range(lo, self.hi.clone())
            .map(|(_, rid)| rid)
            .collect();
        let (p, n) = self.partition;
        if n > 1 {
            let len = self.rids.len();
            let (base, extra) = (len / n, len % n);
            let start = p * base + p.min(extra);
            let end = start + base + usize::from(p < extra);
            self.rids = self.rids[start..end].to_vec();
        }
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.pos < self.rids.len() {
            let row = self.table.row(self.rids[self.pos]);
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        if self.pos >= self.rids.len() {
            return Ok(false);
        }
        let take = max.min(self.rids.len() - self.pos);
        let rids = &self.rids[self.pos..self.pos + take];
        self.table.read_rids(rids, &mut self.decoder, out);
        self.pos += take;
        Ok(self.pos < self.rids.len())
    }

    fn close(&mut self) {
        self.rids = Vec::new();
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Shared per-worker morsel state: the current claim's position window and
/// the worker's *tag* — the morsel index the downstream exchange reads to
/// attribute produced batches for order-restoring merge.
struct MorselCursor {
    dispenser: Arc<MorselDispenser>,
    ctx: Arc<ExecContext>,
    tag: Arc<AtomicUsize>,
    /// Next / one-past-last input position of the current morsel
    /// (`pos == end` ⇒ claim before producing).
    pos: usize,
    end: usize,
    decoder: RowDecoder,
}

impl MorselCursor {
    fn new(
        dispenser: Arc<MorselDispenser>,
        ctx: Arc<ExecContext>,
        tag: Arc<AtomicUsize>,
    ) -> MorselCursor {
        MorselCursor {
            dispenser,
            ctx,
            tag,
            pos: 0,
            end: 0,
            decoder: RowDecoder::new(),
        }
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.end = 0;
    }

    /// Claims the next morsel: publishes its index as this worker's tag
    /// and installs its derived fault schedule into the worker's context.
    /// Returns `false` when the shared input is exhausted.
    fn claim(&mut self) -> bool {
        match self.dispenser.claim() {
            Some(m) => {
                // The tag is read by this worker's own drive loop between
                // batches (same thread), so Relaxed suffices.
                self.tag.store(m.index, Ordering::Relaxed);
                self.ctx
                    .install_morsel_faults(m.index, self.dispenser.morsel_count());
                self.pos = m.start;
                self.end = m.end;
                true
            }
            None => false,
        }
    }
}

/// Work-stealing heap scan: one of several workers pulling fixed-size
/// [`qp_storage::Morsel`]s of a shared table from a shared
/// [`MorselDispenser`]. Rows come out in input order *within* each
/// claimed morsel; the downstream exchange restores the global serial
/// order by merging batches in morsel-index order (tags are published per
/// claim), so the parallel result stays byte-identical to [`SeqScanOp`].
pub struct MorselSeqScanOp {
    table: Arc<Table>,
    cursor: MorselCursor,
}

impl MorselSeqScanOp {
    pub(crate) fn new(
        table: Arc<Table>,
        dispenser: Arc<MorselDispenser>,
        ctx: Arc<ExecContext>,
        tag: Arc<AtomicUsize>,
    ) -> MorselSeqScanOp {
        MorselSeqScanOp {
            table,
            cursor: MorselCursor::new(dispenser, ctx, tag),
        }
    }
}

impl Operator for MorselSeqScanOp {
    fn open(&mut self) -> ExecResult<()> {
        self.cursor.reset();
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        loop {
            if self.cursor.pos < self.cursor.end {
                let row = self.table.row(self.cursor.pos as RowId);
                self.cursor.pos += 1;
                return Ok(Some(row));
            }
            if !self.cursor.claim() {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        // At most one claim per call, and a batch never crosses a morsel
        // boundary: a fully-consumed morsel yields `Ok(true)` with no
        // rows so the caller re-tags before the next batch.
        if self.cursor.pos >= self.cursor.end && !self.cursor.claim() {
            return Ok(false);
        }
        let take = max.min(self.cursor.end - self.cursor.pos);
        let rids = self.cursor.pos as RowId..(self.cursor.pos + take) as RowId;
        self.table.read_range(rids, &mut self.cursor.decoder, out);
        self.cursor.pos += take;
        Ok(true)
    }

    fn close(&mut self) {}

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Work-stealing index range scan: every worker walks the B+Tree range at
/// `open` (identical immutable input ⇒ identical rid list), binds the
/// shared dispenser to the list's length — first bind wins, the rest
/// validate — then pulls morsels of the rid list exactly like
/// [`MorselSeqScanOp`] pulls morsels of the heap.
pub struct MorselIndexScanOp {
    table: Arc<Table>,
    index: Arc<IndexMeta>,
    lo: Bound<Vec<Value>>,
    hi: Bound<Vec<Value>>,
    rids: Vec<RowId>,
    cursor: MorselCursor,
}

impl MorselIndexScanOp {
    pub(crate) fn new(
        table: Arc<Table>,
        index: Arc<IndexMeta>,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
        dispenser: Arc<MorselDispenser>,
        ctx: Arc<ExecContext>,
        tag: Arc<AtomicUsize>,
    ) -> MorselIndexScanOp {
        MorselIndexScanOp {
            table,
            index,
            lo,
            hi,
            rids: Vec::new(),
            cursor: MorselCursor::new(dispenser, ctx, tag),
        }
    }
}

impl Operator for MorselIndexScanOp {
    fn open(&mut self) -> ExecResult<()> {
        let lo = match &self.lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        self.rids = self
            .index
            .tree
            .range(lo, self.hi.clone())
            .map(|(_, rid)| rid)
            .collect();
        self.cursor.dispenser.bind(self.rids.len());
        self.cursor.reset();
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        loop {
            if self.cursor.pos < self.cursor.end {
                let row = self.table.row(self.rids[self.cursor.pos]);
                self.cursor.pos += 1;
                return Ok(Some(row));
            }
            if !self.cursor.claim() {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        // See `MorselSeqScanOp::next_batch`: one claim per call, batches
        // never cross morsel boundaries.
        if self.cursor.pos >= self.cursor.end && !self.cursor.claim() {
            return Ok(false);
        }
        let take = max.min(self.cursor.end - self.cursor.pos);
        let rids = &self.rids[self.cursor.pos..self.cursor.pos + take];
        self.table.read_rids(rids, &mut self.cursor.decoder, out);
        self.cursor.pos += take;
        Ok(true)
    }

    fn close(&mut self) {
        self.rids = Vec::new();
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}
