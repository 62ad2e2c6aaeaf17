//! Blocking sort.

use crate::context::{Counted, Operator};
use crate::error::ExecResult;
use crate::plan::SortKey;
use qp_storage::{Row, Schema};
use std::cmp::Ordering;

/// Blocking sort: drains its child at `open` (that drain is the child
/// pipeline in the paper's decomposition) and then emits rows in order
/// (as the source of the consuming pipeline).
pub struct SortOp {
    child: Counted,
    keys: Vec<SortKey>,
    buffer: Vec<Row>,
    pos: usize,
}

impl SortOp {
    pub fn new(child: Counted, keys: Vec<SortKey>) -> SortOp {
        SortOp {
            child,
            keys,
            buffer: Vec::new(),
            pos: 0,
        }
    }
}

/// Compares two rows by a key list (NULLs first on ascending keys, per the
/// total order on [`qp_storage::Value`]).
pub(crate) fn cmp_rows(a: &Row, b: &Row, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a.get(k.col).cmp(b.get(k.col));
        let ord = if k.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

impl Operator for SortOp {
    fn open(&mut self) -> ExecResult<()> {
        self.child.open()?;
        self.buffer.clear();
        self.child.drain(|row| {
            self.buffer.push(row);
            Ok(())
        })?;
        let keys = self.keys.clone();
        // Stable sort keeps the arrival order of equal keys, which keeps
        // run-to-run output deterministic.
        self.buffer.sort_by(|a, b| cmp_rows(a, b, &keys));
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.pos < self.buffer.len() {
            let row = self.buffer[self.pos].clone();
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.buffer = Vec::new();
        self.child.close();
    }

    fn schema(&self) -> &Schema {
        self.child.schema()
    }
}
