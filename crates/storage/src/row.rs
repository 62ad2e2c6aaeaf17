//! Rows: immutable, cheaply-cloneable tuples.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable tuple of values.
///
/// Rows flow through every operator of the executor and are cloned at
/// pipeline boundaries (sort buffers, hash tables), so they are backed by an
/// `Arc<[Value]>`: cloning a `Row` is a refcount bump, never a deep copy.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Builds a row from a vector of values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// Wraps an already-built value slice without copying it.
    pub(crate) fn from_shared(values: Arc<[Value]>) -> Row {
        Row { values }
    }

    /// The empty row (used by zero-column aggregations).
    pub fn empty() -> Row {
        Row {
            values: Arc::from(Vec::new()),
        }
    }

    /// All values, in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column position `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Concatenation of two rows, used by join operators.
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Row::new(v)
    }

    /// Concatenation of this row with `n` NULLs (outer-join padding).
    pub fn concat_nulls(&self, n: usize) -> Row {
        let mut v = Vec::with_capacity(self.arity() + n);
        v.extend_from_slice(&self.values);
        v.extend(std::iter::repeat_with(|| Value::Null).take(n));
        Row::new(v)
    }

    /// Row consisting of the values at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Extracts the key values at `indices` into a reusable buffer.
    /// Hot-path variant of [`Row::project`] that avoids constructing a `Row`.
    #[inline]
    pub fn extract_key_into(&self, indices: &[usize], out: &mut Vec<Value>) {
        out.clear();
        out.extend(indices.iter().map(|&i| self.values[i].clone()));
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn concat_preserves_order() {
        let r = row(&[1, 2]).concat(&row(&[3]));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(2), &Value::Int(3));
    }

    #[test]
    fn concat_nulls_pads() {
        let r = row(&[1]).concat_nulls(2);
        assert_eq!(r.arity(), 3);
        assert!(r.get(1).is_null());
        assert!(r.get(2).is_null());
    }

    #[test]
    fn project_reorders() {
        let r = row(&[10, 20, 30]).project(&[2, 0]);
        assert_eq!(r.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn clone_is_shallow() {
        let r = row(&[1, 2, 3]);
        let s = r.clone();
        assert!(Arc::ptr_eq(&r.values, &s.values));
    }

    #[test]
    fn extract_key_into_reuses_buffer() {
        let r = row(&[5, 6, 7]);
        let mut buf = Vec::new();
        r.extract_key_into(&[1], &mut buf);
        assert_eq!(buf, vec![Value::Int(6)]);
        r.extract_key_into(&[0, 2], &mut buf);
        assert_eq!(buf, vec![Value::Int(5), Value::Int(7)]);
    }
}
