//! Row serialization for page cells.
//!
//! One cell per row: `u16` arity, then per value a tag byte and a
//! fixed- or length-prefixed payload. The encoding round-trips every
//! [`Value`] *exactly* — floats travel as their IEEE bit pattern — so a
//! query over a paged table is byte-identical to the same query over
//! the heap the table was saved from. All integers little-endian.

use crate::error::{StorageError, StorageResult};
use crate::row::Row;
use crate::value::Value;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DATE: u8 = 5;

/// Appends the encoding of `row` to `out`.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.arity() as u16).to_le_bytes());
    for v in row.values() {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

/// Size of [`encode_row`]'s output for `row`.
pub fn encoded_len(row: &Row) -> usize {
    2 + row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Date(_) => 5,
        })
        .sum::<usize>()
}

/// Decodes one row from a page cell.
pub fn decode_row(cell: &[u8]) -> StorageResult<Row> {
    let mut values = Vec::new();
    decode_values(cell, &mut values, |_, s| Arc::from(s))?;
    Ok(Row::new(values))
}

/// Parses `cell` into `values` (cleared first), building each string
/// through `make_str(column, text)`. Every corrupt-cell error of the
/// format is raised here, for both decoders.
fn decode_values(
    cell: &[u8],
    values: &mut Vec<Value>,
    mut make_str: impl FnMut(usize, &str) -> Arc<str>,
) -> StorageResult<()> {
    values.clear();
    let corrupt = |what: &str| StorageError::ReadFailed(format!("row cell corrupt: {what}"));
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> StorageResult<&[u8]> {
        let end = *pos + n;
        let s = cell.get(*pos..end).ok_or_else(|| corrupt("truncated"))?;
        *pos = end;
        Ok(s)
    };
    let arity = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
    values.reserve(arity);
    for column in 0..arity {
        let tag = take(&mut pos, 1)?[0];
        values.push(match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(take(&mut pos, 1)?[0] != 0),
            TAG_INT => Value::Int(i64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap())),
            TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(
                take(&mut pos, 8)?.try_into().unwrap(),
            ))),
            TAG_STR => {
                let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                let bytes = take(&mut pos, len)?;
                let s = std::str::from_utf8(bytes).map_err(|_| corrupt("non-utf8 string"))?;
                Value::Str(make_str(column, s))
            }
            TAG_DATE => Value::Date(i32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap())),
            _ => return Err(corrupt("unknown value tag")),
        });
    }
    if pos != cell.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(())
}

/// Distinct strings a [`RowDecoder`] remembers per column.
const DICT_ENTRIES: usize = 8;

/// A row decoder reused across the cells of a scan.
///
/// It decodes exactly like [`decode_row`] with two savings. The row's
/// values are staged in a reused buffer and moved into the row's one
/// allocation. Each column remembers up to 8 distinct strings (once
/// full, a new string replaces the oldest one), and a string equal to a
/// remembered one shares its `Arc<str>` instead of allocating, which
/// covers flag, mode and status columns. Strings compare by content, so
/// sharing is invisible to results.
#[derive(Debug, Default)]
pub struct RowDecoder {
    scratch: Vec<Value>,
    /// Per column position: recently decoded strings.
    dicts: Vec<StrDict>,
}

#[derive(Debug, Default)]
struct StrDict {
    entries: Vec<Arc<str>>,
    /// Slot the next new string replaces once the dictionary is full.
    next: usize,
}

impl StrDict {
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(hit) = self.entries.iter().find(|e| e.as_ref() == s) {
            return Arc::clone(hit);
        }
        let fresh: Arc<str> = Arc::from(s);
        if self.entries.len() < DICT_ENTRIES {
            self.entries.push(Arc::clone(&fresh));
        } else {
            self.entries[self.next] = Arc::clone(&fresh);
            self.next = (self.next + 1) % DICT_ENTRIES;
        }
        fresh
    }
}

impl RowDecoder {
    /// A decoder with nothing cached yet.
    pub fn new() -> RowDecoder {
        RowDecoder::default()
    }

    /// Decodes one row from a page cell; same result and same errors
    /// as [`decode_row`].
    pub fn decode(&mut self, cell: &[u8]) -> StorageResult<Row> {
        let dicts = &mut self.dicts;
        decode_values(cell, &mut self.scratch, |column, s| {
            if dicts.len() <= column {
                dicts.resize_with(column + 1, StrDict::default);
            }
            dicts[column].intern(s)
        })?;
        // `Drain` has an exact length, so this is a single allocation.
        Ok(Row::from_shared(self.scratch.drain(..).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_testkit::rng::TestRng;

    #[test]
    fn every_value_kind_round_trips_exactly() {
        let row = Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.1 + 0.2), // not representable "nicely": bits must survive
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("héllo ⋈ wörld"),
            Value::Date(-719468),
        ]);
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), encoded_len(&row));
        let back = decode_row(&buf).unwrap();
        assert_eq!(back.arity(), row.arity());
        for (a, b) in row.values().iter().zip(back.values()) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn truncated_and_garbage_cells_error_cleanly() {
        let row = Row::new(vec![Value::Int(42), Value::str("abc")]);
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_row(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(decode_row(&trailing).is_err());
        let mut bad_tag = buf.clone();
        bad_tag[2] = 99;
        assert!(decode_row(&bad_tag).is_err());
    }

    /// Bit-exact row equality: the encoding carries float bit patterns.
    fn bits(row: &Row) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_row(row, &mut buf);
        buf
    }

    fn random_value(rng: &mut TestRng, strings: &[Arc<str>]) -> Value {
        match rng.u64_below(7) {
            0 => Value::Null,
            1 => Value::Bool(rng.random_bool(0.5)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Float(match rng.u64_below(4) {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64()),
                _ => rng.unit_f64() * 1e6 - 5e5,
            }),
            4 => Value::Date(rng.next_u64() as i32),
            _ => Value::Str(Arc::clone(
                &strings[rng.u64_below(strings.len() as u64) as usize],
            )),
        }
    }

    #[test]
    fn the_reusable_decoder_matches_decode_row_on_random_rows() {
        let mut rng = TestRng::seed_from_u64(0xdec0de);
        // More distinct strings than one column's dictionary holds, so
        // entries get replaced mid-scan.
        let mut strings: Vec<Arc<str>> = vec!["".into(), "héllo ⋈ wörld".into()];
        strings.extend((0..2 * DICT_ENTRIES).map(|i| Arc::from(format!("s{i}"))));
        let mut decoder = RowDecoder::new();
        let mut cell = Vec::new();
        for _ in 0..5_000 {
            let arity = rng.u64_below(9) as usize;
            let row = Row::new(
                (0..arity)
                    .map(|_| random_value(&mut rng, &strings))
                    .collect(),
            );
            cell.clear();
            encode_row(&row, &mut cell);
            let reference = decode_row(&cell).unwrap();
            let reused = decoder.decode(&cell).unwrap();
            assert_eq!(bits(&reference), cell);
            assert_eq!(bits(&reused), cell, "{row:?}");
        }
    }

    #[test]
    fn the_decoder_shares_a_repeated_string_within_a_column() {
        let row = Row::new(vec![Value::str("AIR"), Value::str("AIR")]);
        let mut cell = Vec::new();
        encode_row(&row, &mut cell);
        let mut decoder = RowDecoder::new();
        let (a, b) = (
            decoder.decode(&cell).unwrap(),
            decoder.decode(&cell).unwrap(),
        );
        let ptr = |r: &Row, i: usize| match r.get(i) {
            Value::Str(s) => Arc::as_ptr(s),
            other => panic!("{other:?}"),
        };
        assert_eq!(ptr(&a, 0), ptr(&b, 0), "same column, same string: shared");
        assert_ne!(ptr(&a, 0), ptr(&a, 1), "dictionaries are per column");
    }

    #[test]
    fn both_decoders_reject_every_corrupt_cell() {
        let row = Row::new(vec![Value::Int(42), Value::str("abc")]);
        let mut good = Vec::new();
        encode_row(&row, &mut good);
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_tag = good.clone();
        bad_tag[2] = 99;
        let mut bad_utf8 = good.clone();
        let last = bad_utf8.len() - 1;
        bad_utf8[last] = 0xff;
        let mut cases: Vec<(Vec<u8>, &str)> = (0..good.len())
            .map(|cut| (good[..cut].to_vec(), "truncated"))
            .collect();
        cases.push((trailing, "trailing bytes"));
        cases.push((bad_tag, "unknown value tag"));
        cases.push((bad_utf8, "non-utf8 string"));
        let mut decoder = RowDecoder::new();
        for (cell, what) in &cases {
            for err in [
                decode_row(cell).unwrap_err(),
                decoder.decode(cell).unwrap_err(),
            ] {
                assert!(err.to_string().contains(what), "{err} for {cell:?}");
            }
            // A failed decode leaves the decoder ready for the next cell.
            assert_eq!(bits(&decoder.decode(&good).unwrap()), good);
        }
    }

    #[test]
    fn empty_row_round_trips() {
        let mut buf = Vec::new();
        encode_row(&Row::empty(), &mut buf);
        assert_eq!(buf, vec![0, 0]);
        assert_eq!(decode_row(&buf).unwrap().arity(), 0);
    }
}
