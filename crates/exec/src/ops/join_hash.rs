//! Hash join.
//!
//! The left child is the **build** side (consumed entirely at `open`, in
//! batches, which is the build pipeline of the paper's decomposition); the
//! right child is the **probe** side, streamed a batch at a time when the
//! parent pulls batches and a row at a time when it pulls rows (a `Limit`
//! above must not make the probe side overrun). Example 3 of the paper uses
//! exactly this operator to show why scan-based plans make progress
//! estimation tractable: both inputs are scanned in full, so the total
//! getnext count is tightly bounded.
//!
//! Join types are interpreted relative to the *build* (left) side:
//! `LeftSemi` emits each build row on its first probe match, `LeftAnti`
//! emits unmatched build rows after the probe is exhausted, `LeftOuter`
//! emits matched concatenations during the probe plus NULL-padded
//! unmatched build rows at the end.

use crate::context::{Counted, Operator};
use crate::error::ExecResult;
use crate::ops::filter::key_has_null;
use crate::plan::JoinType;
use qp_storage::{Row, Schema, Value};
use std::collections::HashMap;

/// One build-side entry: the row plus a matched flag (for outer/anti).
struct BuildRow {
    row: Row,
    matched: bool,
}

pub struct HashJoinOp {
    build: Counted,
    probe: Counted,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    join_type: JoinType,
    schema: Schema,
    /// key -> indices into `rows`.
    table: HashMap<Vec<Value>, Vec<usize>>,
    rows: Vec<BuildRow>,
    /// Pending matches for the current probe row (indices into `rows`).
    pending: Vec<usize>,
    pending_pos: usize,
    current_probe: Option<Row>,
    /// Probe rows pulled by one `next_batch` and not yet joined.
    probe_rows: std::vec::IntoIter<Row>,
    /// Whether the probe child may still produce rows.
    probe_more: bool,
    probe_done: bool,
    /// Post-probe sweep position for outer/anti.
    sweep_pos: usize,
    key_buf: Vec<Value>,
}

impl HashJoinOp {
    pub fn new(
        build: Counted,
        probe: Counted,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
        schema: Schema,
    ) -> HashJoinOp {
        HashJoinOp {
            build,
            probe,
            build_keys,
            probe_keys,
            join_type,
            schema,
            table: HashMap::new(),
            rows: Vec::new(),
            pending: Vec::new(),
            pending_pos: 0,
            current_probe: None,
            probe_rows: Vec::new().into_iter(),
            probe_more: true,
            probe_done: false,
            sweep_pos: 0,
            key_buf: Vec::new(),
        }
    }

    /// Emits the next (build row ++ probe row) match, if any remain for the
    /// current probe row.
    fn next_pending(&mut self) -> Option<Row> {
        while self.pending_pos < self.pending.len() {
            let idx = self.pending[self.pending_pos];
            self.pending_pos += 1;
            let first_match = !self.rows[idx].matched;
            self.rows[idx].matched = true;
            match self.join_type {
                JoinType::Inner | JoinType::LeftOuter => {
                    let probe = self.current_probe.as_ref().expect("probe row set");
                    return Some(self.rows[idx].row.concat(probe));
                }
                JoinType::LeftSemi => {
                    if first_match {
                        return Some(self.rows[idx].row.clone());
                    }
                }
                JoinType::LeftAnti => {
                    // Matches only mark; anti rows are swept at the end.
                }
            }
        }
        None
    }

    /// The next probe row: from the buffered probe batch, else pulled
    /// from the probe child — one row when `batch` is `None`, otherwise a
    /// batch of up to `batch` rows.
    fn next_probe(&mut self, batch: Option<usize>) -> ExecResult<Option<Row>> {
        loop {
            if let Some(row) = self.probe_rows.next() {
                return Ok(Some(row));
            }
            if !self.probe_more {
                return Ok(None);
            }
            let Some(max) = batch else {
                let row = self.probe.next()?;
                self.probe_more = row.is_some();
                return Ok(row);
            };
            let mut rows = Vec::with_capacity(max);
            self.probe_more = self.probe.next_batch(max, &mut rows)?;
            self.probe_rows = rows.into_iter();
        }
    }

    /// The next output row, pulling probe rows as [`Self::next_probe`]
    /// does for `batch`.
    fn produce(&mut self, batch: Option<usize>) -> ExecResult<Option<Row>> {
        loop {
            // Drain matches for the current probe row first.
            if let Some(row) = self.next_pending() {
                return Ok(Some(row));
            }
            if !self.probe_done {
                match self.next_probe(batch)? {
                    Some(probe_row) => {
                        probe_row.extract_key_into(&self.probe_keys, &mut self.key_buf);
                        self.pending.clear();
                        self.pending_pos = 0;
                        if !key_has_null(&self.key_buf) {
                            if let Some(idxs) = self.table.get(self.key_buf.as_slice()) {
                                self.pending.extend_from_slice(idxs);
                            }
                        }
                        self.current_probe = Some(probe_row);
                        continue;
                    }
                    None => {
                        self.probe_done = true;
                        self.current_probe = None;
                    }
                }
            }
            // Post-probe sweep for outer / anti.
            match self.join_type {
                JoinType::LeftOuter => {
                    while self.sweep_pos < self.rows.len() {
                        let idx = self.sweep_pos;
                        self.sweep_pos += 1;
                        if !self.rows[idx].matched {
                            let pad = self.probe.schema().arity();
                            return Ok(Some(self.rows[idx].row.concat_nulls(pad)));
                        }
                    }
                }
                JoinType::LeftAnti => {
                    while self.sweep_pos < self.rows.len() {
                        let idx = self.sweep_pos;
                        self.sweep_pos += 1;
                        if !self.rows[idx].matched {
                            return Ok(Some(self.rows[idx].row.clone()));
                        }
                    }
                }
                JoinType::Inner | JoinType::LeftSemi => {}
            }
            return Ok(None);
        }
    }
}

impl Operator for HashJoinOp {
    fn open(&mut self) -> ExecResult<()> {
        self.build.open()?;
        self.table.clear();
        self.rows.clear();
        self.build.drain(|row| {
            row.extract_key_into(&self.build_keys, &mut self.key_buf);
            let idx = self.rows.len();
            self.rows.push(BuildRow {
                row,
                matched: false,
            });
            if !key_has_null(&self.key_buf) {
                self.table
                    .entry(std::mem::take(&mut self.key_buf))
                    .or_default()
                    .push(idx);
            }
            Ok(())
        })?;
        self.probe.open()?;
        self.pending.clear();
        self.pending_pos = 0;
        self.current_probe = None;
        self.probe_rows = Vec::new().into_iter();
        self.probe_more = true;
        self.probe_done = false;
        self.sweep_pos = 0;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        self.produce(None)
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        for _ in 0..max {
            match self.produce(Some(max))? {
                Some(row) => out.push(row),
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    fn close(&mut self) {
        self.table = HashMap::new();
        self.rows = Vec::new();
        self.probe_rows = Vec::new().into_iter();
        self.build.close();
        self.probe.close();
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}
