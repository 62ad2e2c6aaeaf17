//! γ — aggregation: hash (blocking) and stream (pipelined over sorted
//! input).

use crate::context::{Counted, Operator};
use crate::error::ExecResult;
use crate::expr::{AggExpr, AggState};
use qp_storage::{Row, Schema, Value};
use std::collections::BTreeMap;

/// Builds the output row for one group.
fn group_output(key: &[Value], states: &[AggState]) -> Row {
    let mut vals = Vec::with_capacity(key.len() + states.len());
    vals.extend_from_slice(key);
    vals.extend(states.iter().map(AggState::finish));
    Row::new(vals)
}

/// Hash aggregation: drains its child at `open` (in batches of
/// `ExecTuning::batch_rows`), groups rows, then emits
/// one row per group. A `BTreeMap` keyed by the group values keeps output
/// order deterministic (sorted by group key), which real systems don't
/// guarantee but which makes the reproduction's results stable.
pub struct HashAggregateOp {
    child: Counted,
    group_by: Vec<usize>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    groups: BTreeMap<Vec<Value>, Vec<AggState>>,
    output: Vec<Row>,
    pos: usize,
    input_schema: Schema,
}

impl HashAggregateOp {
    pub fn new(
        child: Counted,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    ) -> HashAggregateOp {
        let input_schema = child.schema().clone();
        HashAggregateOp {
            child,
            group_by,
            aggs,
            schema,
            groups: BTreeMap::new(),
            output: Vec::new(),
            pos: 0,
            input_schema,
        }
    }
}

impl Operator for HashAggregateOp {
    fn open(&mut self) -> ExecResult<()> {
        self.child.open()?;
        self.groups.clear();
        let mut key_buf = Vec::new();
        let mut saw_input = false;
        self.child.drain(|row| {
            saw_input = true;
            row.extract_key_into(&self.group_by, &mut key_buf);
            if !self.groups.contains_key(&key_buf) {
                let states = self
                    .aggs
                    .iter()
                    .map(|a| AggState::new(a, &self.input_schema))
                    .collect();
                self.groups.insert(key_buf.clone(), states);
            }
            let states = self.groups.get_mut(&key_buf).expect("just inserted");
            for (st, agg) in states.iter_mut().zip(&self.aggs) {
                st.update(agg, &row)?;
            }
            Ok(())
        })?;
        self.output = self
            .groups
            .iter()
            .map(|(k, sts)| group_output(k, sts))
            .collect();
        // SQL scalar aggregation (no GROUP BY) yields one row even over
        // empty input.
        if self.group_by.is_empty() && !saw_input && self.output.is_empty() {
            let states: Vec<AggState> = self
                .aggs
                .iter()
                .map(|a| AggState::new(a, &self.input_schema))
                .collect();
            self.output.push(group_output(&[], &states));
        }
        self.groups.clear();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.pos < self.output.len() {
            let row = self.output[self.pos].clone();
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.output = Vec::new();
        self.child.close();
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Stream aggregation: assumes the input arrives sorted (or at least
/// clustered) on the group columns and emits each group when its key
/// changes — fully pipelined, so it does **not** break the pipeline in the
/// paper's decomposition.
pub struct StreamAggregateOp {
    child: Counted,
    group_by: Vec<usize>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    input_schema: Schema,
    current_key: Option<Vec<Value>>,
    states: Vec<AggState>,
    child_done: bool,
    emitted_any: bool,
    emitted_scalar: bool,
}

impl StreamAggregateOp {
    pub fn new(
        child: Counted,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    ) -> StreamAggregateOp {
        let input_schema = child.schema().clone();
        StreamAggregateOp {
            child,
            group_by,
            aggs,
            schema,
            input_schema,
            current_key: None,
            states: Vec::new(),
            child_done: false,
            emitted_any: false,
            emitted_scalar: false,
        }
    }

    fn fresh_states(&self) -> Vec<AggState> {
        self.aggs
            .iter()
            .map(|a| AggState::new(a, &self.input_schema))
            .collect()
    }
}

impl Operator for StreamAggregateOp {
    fn open(&mut self) -> ExecResult<()> {
        self.child.open()?;
        self.current_key = None;
        self.states = Vec::new();
        self.child_done = false;
        self.emitted_any = false;
        self.emitted_scalar = false;
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        if self.child_done {
            // Possibly the final group (or the scalar row) remains.
            if let Some(key) = self.current_key.take() {
                return Ok(Some(group_output(&key, &self.states)));
            }
            if self.group_by.is_empty() && !self.emitted_any && !self.emitted_scalar {
                self.emitted_scalar = true;
                let states = self.fresh_states();
                return Ok(Some(group_output(&[], &states)));
            }
            return Ok(None);
        }
        let mut key_buf = Vec::new();
        loop {
            match self.child.next()? {
                Some(row) => {
                    row.extract_key_into(&self.group_by, &mut key_buf);
                    match &self.current_key {
                        Some(k) if *k == key_buf => {
                            for (st, agg) in self.states.iter_mut().zip(&self.aggs) {
                                st.update(agg, &row)?;
                            }
                        }
                        Some(_) => {
                            // Key change: emit the finished group, start anew.
                            let done_key = self.current_key.take().expect("checked");
                            let out = group_output(&done_key, &self.states);
                            self.states = self.fresh_states();
                            for (st, agg) in self.states.iter_mut().zip(&self.aggs) {
                                st.update(agg, &row)?;
                            }
                            self.current_key = Some(key_buf.clone());
                            self.emitted_any = true;
                            return Ok(Some(out));
                        }
                        None => {
                            self.states = self.fresh_states();
                            for (st, agg) in self.states.iter_mut().zip(&self.aggs) {
                                st.update(agg, &row)?;
                            }
                            self.current_key = Some(key_buf.clone());
                        }
                    }
                }
                None => {
                    self.child_done = true;
                    if let Some(key) = self.current_key.take() {
                        self.emitted_any = true;
                        return Ok(Some(group_output(&key, &self.states)));
                    }
                    if self.group_by.is_empty() && !self.emitted_any && !self.emitted_scalar {
                        self.emitted_scalar = true;
                        let states = self.fresh_states();
                        return Ok(Some(group_output(&[], &states)));
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn close(&mut self) {
        self.states = Vec::new();
        self.child.close();
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}
