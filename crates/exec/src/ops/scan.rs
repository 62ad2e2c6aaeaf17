//! The leaf operator: one scan over a row source, for both of the
//! paper's leaf kinds (`scan` and `index-seek`, Section 2.1).
//!
//! A [`ScanOp`] is built from two choices. Its [`Input`] is the sequence
//! of row ids it reads: heap positions `0..table.len()`, or an index
//! range's rid list, collected at `open`. Its [`Claims`] decide which
//! stretch of that input it reads next: the whole input once, morsels
//! from an Exchange's shared [`MorselDispenser`], or a [`SharedCursor`]
//! replaying the table's shared-scan epoch. Rows are read with
//! [`Table::read_range`] or [`Table::read_rids`], so a paged table pins
//! each page once per batch and decodes its cells with the scan's own
//! [`RowDecoder`]; row-at-a-time `next` is a one-row read on the same
//! path. Whatever the choices, the scan produces the same rows in the
//! same order, so it charges the same getnext calls (Section 2.2).

use crate::context::{ExecContext, Operator};
use crate::error::ExecResult;
use qp_storage::{
    IndexMeta, MorselDispenser, Row, RowDecoder, RowId, ScanShare, Schema, SharedCursor, Table,
    Value,
};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The row ids a scan reads, in order.
pub(crate) enum Input {
    /// Heap positions `0..table.len()`: insertion order, the order the
    /// paper's input-order analysis (Section 4.2) is about.
    Heap,
    /// The rids of an index range in key order. They are collected at
    /// `open`: the tree iterator borrows the index, and operators are
    /// long-lived.
    Index {
        index: Arc<IndexMeta>,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
        rids: Vec<RowId>,
    },
}

impl Input {
    pub(crate) fn index(
        index: Arc<IndexMeta>,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
    ) -> Input {
        Input::Index {
            index,
            lo,
            hi,
            rids: Vec::new(),
        }
    }
}

/// Which stretch of the input a scan reads next.
pub(crate) enum Claims {
    /// The whole input, once.
    Whole,
    /// Morsels of the input from an Exchange's shared dispenser. Every
    /// worker binds the dispenser to its input length at `open` (first
    /// bind wins, the rest validate: all derive it from the same
    /// immutable input). Each claim publishes the morsel index through
    /// `tag`, which the exchange reads to restore serial order, and
    /// installs the morsel's share of the fault schedule into `ctx`.
    Morsels {
        dispenser: Arc<MorselDispenser>,
        ctx: Arc<ExecContext>,
        tag: Arc<AtomicUsize>,
    },
    /// Replay of the table's in-flight shared-scan epoch (heap input
    /// only): the same rows in the same order as a solo scan, but N
    /// concurrent scans of one table cost about one physical pass.
    Shared {
        share: Arc<ScanShare>,
        /// Attached at `open`, not at build: a plan node that never
        /// opens must not hold an epoch alive. Dropped at `close`, so an
        /// abandoned scan does not pin the epoch's window.
        cursor: Option<SharedCursor>,
    },
}

/// One leaf scan: reads its [`Input`] in the stretches its [`Claims`]
/// hand out.
pub(crate) struct ScanOp {
    table: Arc<Table>,
    input: Input,
    claims: Claims,
    /// Next / one-past-last input position of the current claim
    /// (`pos == end` ⇒ claim before producing).
    pos: usize,
    end: usize,
    decoder: RowDecoder,
    /// Reused one-row buffer for `next`.
    one: Vec<Row>,
}

impl ScanOp {
    pub(crate) fn new(table: Arc<Table>, input: Input, claims: Claims) -> ScanOp {
        assert!(
            matches!(input, Input::Heap) || !matches!(claims, Claims::Shared { .. }),
            "shared cursors replay heap order only"
        );
        ScanOp {
            table,
            input,
            claims,
            pos: 0,
            end: 0,
            decoder: RowDecoder::new(),
            one: Vec::with_capacity(1),
        }
    }

    /// Claims the next morsel. Returns `false` when the shared input is
    /// exhausted, and always under the other policies: `Whole` sets its
    /// one stretch at `open`, and `Shared` reads through its cursor.
    fn claim(&mut self) -> bool {
        let Claims::Morsels {
            dispenser,
            ctx,
            tag,
        } = &self.claims
        else {
            return false;
        };
        let Some(m) = dispenser.claim() else {
            return false;
        };
        // The tag is read by this worker's own drive loop between
        // batches (same thread), so Relaxed suffices.
        tag.store(m.index, Ordering::Relaxed);
        ctx.install_morsel_faults(m.index, dispenser.morsel_count());
        (self.pos, self.end) = (m.start, m.end);
        true
    }
}

impl Operator for ScanOp {
    fn open(&mut self) -> ExecResult<()> {
        let len = match &mut self.input {
            Input::Heap => self.table.len(),
            Input::Index {
                index,
                lo,
                hi,
                rids,
            } => {
                *rids = index
                    .tree
                    .range(lo.as_ref().map(Vec::as_slice), hi.clone())
                    .map(|(_, rid)| rid)
                    .collect();
                rids.len()
            }
        };
        (self.pos, self.end) = (0, 0);
        match &mut self.claims {
            Claims::Whole => self.end = len,
            Claims::Morsels { dispenser, .. } => dispenser.bind(len),
            Claims::Shared { share, cursor } => cursor
                .get_or_insert_with(|| share.attach(&self.table))
                .reset(),
        }
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        let mut one = std::mem::take(&mut self.one);
        while one.is_empty() && self.next_batch(1, &mut one)? {}
        let row = one.pop();
        self.one = one;
        Ok(row)
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        if let Claims::Shared { share, cursor } = &mut self.claims {
            let cursor = cursor.get_or_insert_with(|| share.attach(&self.table));
            return Ok(cursor.next_batch(max, out));
        }
        // At most one claim per call, and a batch never crosses a morsel
        // boundary: the exchange attributes a whole batch to the morsel
        // the tag names after the pull.
        if self.pos >= self.end && !self.claim() {
            return Ok(false);
        }
        let take = max.min(self.end - self.pos);
        let (start, end) = (self.pos, self.pos + take);
        match &self.input {
            Input::Heap => {
                self.table
                    .read_range(start as RowId..end as RowId, &mut self.decoder, out)
            }
            Input::Index { rids, .. } => {
                self.table
                    .read_rids(&rids[start..end], &mut self.decoder, out)
            }
        }
        self.pos = end;
        // A morsel scan learns it is done only when a claim fails.
        Ok(self.pos < self.end || matches!(self.claims, Claims::Morsels { .. }))
    }

    fn close(&mut self) {
        (self.pos, self.end) = (0, 0);
        if let Input::Index { rids, .. } = &mut self.input {
            *rids = Vec::new();
        }
        if let Claims::Shared { cursor, .. } = &mut self.claims {
            *cursor = None;
        }
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}
