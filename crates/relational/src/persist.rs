//! Columnar segment files: the durable form of one sealed segment — and
//! the one codec for the schema and segment metadata the commit log embeds.
//!
//! A segment file is self-describing — it carries the schema, the
//! column data (with validity bitmaps), and the segment's own metadata
//! (zone maps + verified sort order) — and is covered end-to-end by an
//! FNV-1a checksum, so a torn or bit-flipped file is rejected instead
//! of decoded into wrong rows. Files are written once via an atomic
//! rename and never modified, mirroring the in-memory rule that sealed
//! segments are immutable.
//!
//! Layout: an 8-byte magic, then a wire-format payload (schema, row
//! count, per-column validity + values for the non-null slots, segment
//! metadata), then `fnv1a64(payload)` as a little-endian trailer.
//!
//! [`encode_fields`] and [`encode_segment_meta`] are also how the commit
//! log (`dc-core::durable`) writes table definitions and `SegmentAdded`
//! records, so a schema or a zone map has one byte layout everywhere.
//! Decoding trusts nothing: every length and tag is validated and
//! failures surface as typed [`WireError`]s.

use crate::batch::{schema_ref, Batch};
use crate::column::ColumnBuilder;
use crate::error::{Error, Result};
use crate::schema::{Field, Schema};
use crate::segment::{SealedSegment, Segment, ZoneMap};
use crate::value::{DataType, Value};
use dc_storage::{fnv1a64, ByteReader, ByteWriter, WireError};
use std::collections::HashSet;
use std::sync::Arc;

/// File magic: "DC" + segment-file format version 001.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DCSEG001";

type WireResult<T> = std::result::Result<T, WireError>;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Double => 2,
        DataType::Str => 3,
    }
}

fn tag_dtype(tag: u8) -> WireResult<DataType> {
    match tag {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Double),
        3 => Ok(DataType::Str),
        other => Err(WireError::Malformed(format!("bad dtype tag {other}"))),
    }
}

/// Serialize a field list: count, then per field an optional qualifier,
/// the name and the type tag.
pub fn encode_fields(fields: &[Field], w: &mut ByteWriter) {
    w.put_u32(fields.len() as u32);
    for f in fields {
        match &f.qualifier {
            None => w.put_u8(0),
            Some(q) => {
                w.put_u8(1);
                w.put_str(q);
            }
        }
        w.put_str(&f.name);
        w.put_u8(dtype_tag(f.data_type));
    }
}

/// Deserialize a field list written by [`encode_fields`].
pub fn decode_fields(r: &mut ByteReader<'_>) -> WireResult<Vec<Field>> {
    let n = r.get_count(3)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let qualifier = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_str()?.to_string()),
            other => return Err(WireError::Malformed(format!("bad qualifier tag {other}"))),
        };
        let name = r.get_str()?.to_string();
        let dt = tag_dtype(r.get_u8()?)?;
        fields.push(match qualifier {
            Some(q) => Field::qualified(q, name, dt),
            None => Field::new(name, dt),
        });
    }
    Ok(fields)
}

/// A zone map's min or max: an option tag, then a type-tagged value.
fn put_zone_value(v: &Option<Value>, w: &mut ByteWriter) {
    let Some(v) = v else {
        w.put_u8(0);
        return;
    };
    w.put_u8(1);
    match v {
        Value::Null => w.put_u8(TAG_NULL),
        Value::Bool(b) => {
            w.put_u8(TAG_BOOL);
            w.put_bool(*b);
        }
        Value::Int(i) => {
            w.put_u8(TAG_INT);
            w.put_i64(*i);
        }
        Value::Double(d) => {
            w.put_u8(TAG_DOUBLE);
            w.put_f64(*d);
        }
        Value::Str(s) => {
            w.put_u8(TAG_STR);
            w.put_str(s);
        }
    }
}

fn get_zone_value(r: &mut ByteReader<'_>) -> WireResult<Option<Value>> {
    match r.get_u8()? {
        0 => return Ok(None),
        1 => {}
        other => return Err(WireError::Malformed(format!("bad option tag {other}"))),
    }
    Ok(Some(match r.get_u8()? {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(r.get_bool()?),
        TAG_INT => Value::Int(r.get_i64()?),
        TAG_DOUBLE => Value::Double(r.get_f64()?),
        TAG_STR => Value::str(r.get_str()?),
        other => return Err(WireError::Malformed(format!("bad value tag {other}"))),
    }))
}

/// Serialize one segment's metadata (id, row range, verified order, zones).
pub fn encode_segment_meta(seg: &Segment, w: &mut ByteWriter) {
    w.put_u64(seg.id);
    w.put_u64(seg.start as u64);
    w.put_u64(seg.rows as u64);
    w.put_u32(seg.sorted_by.len() as u32);
    for &c in &seg.sorted_by {
        w.put_u32(c as u32);
    }
    w.put_u32(seg.zones.len() as u32);
    for z in &seg.zones {
        put_zone_value(&z.min, w);
        put_zone_value(&z.max, w);
        w.put_u64(z.null_count);
        w.put_u64(z.row_count);
    }
}

/// Deserialize one segment's metadata written by [`encode_segment_meta`].
pub fn decode_segment_meta(r: &mut ByteReader<'_>) -> WireResult<Segment> {
    let id = r.get_u64()?;
    let start = r.get_u64()? as usize;
    let rows = r.get_u64()? as usize;
    let n_sorted = r.get_count(4)?;
    let mut sorted_by = Vec::with_capacity(n_sorted);
    for _ in 0..n_sorted {
        sorted_by.push(r.get_u32()? as usize);
    }
    let n_zones = r.get_count(18)?; // min tag + max tag + two u64 counts
    let mut zones = Vec::with_capacity(n_zones);
    for _ in 0..n_zones {
        let z = ZoneMap {
            min: get_zone_value(r)?,
            max: get_zone_value(r)?,
            null_count: r.get_u64()?,
            row_count: r.get_u64()?,
        };
        if z.null_count > z.row_count {
            return Err(WireError::Malformed(format!(
                "zone map null_count {} exceeds row_count {}",
                z.null_count, z.row_count
            )));
        }
        if z.row_count != rows as u64 {
            return Err(WireError::Malformed(format!(
                "zone map covers {} rows, segment has {rows}",
                z.row_count
            )));
        }
        zones.push(z);
    }
    Ok(Segment {
        id,
        start,
        rows,
        zones,
        sorted_by,
    })
}

fn corrupt(detail: impl std::fmt::Display) -> Error {
    Error::Execution(format!("segment file: {detail}"))
}

/// Serialize the rows of one sealed segment plus its metadata.
///
/// `rows` must be exactly the segment's row window of the table
/// (`data.slice(seg.start, seg.rows)` flattened or not — values are read
/// through the window accessors).
pub fn encode_segment_file(rows: &Batch, seg: &Segment) -> Result<Vec<u8>> {
    if rows.num_rows() != seg.rows {
        return Err(corrupt(format!(
            "encode of segment {} given {} rows, metadata says {}",
            seg.id,
            rows.num_rows(),
            seg.rows
        )));
    }
    let mut w = ByteWriter::new();
    let schema = rows.schema();
    encode_fields(schema.fields(), &mut w);
    let n = rows.num_rows();
    w.put_u64(n as u64);
    for (ci, f) in schema.fields().iter().enumerate() {
        let col = rows.column(ci);
        w.put_u8(dtype_tag(f.data_type));
        let nulls: Vec<usize> = (0..n).filter(|&i| col.is_null(i)).collect();
        if nulls.is_empty() {
            w.put_u8(0);
        } else {
            w.put_u8(1);
            let mut bits = vec![0u8; n.div_ceil(8)];
            for &i in &nulls {
                bits[i / 8] |= 1 << (i % 8);
            }
            w.put_raw(&bits);
        }
        for i in 0..n {
            if col.is_null(i) {
                continue;
            }
            match col.value(i) {
                Value::Bool(b) => w.put_bool(b),
                Value::Int(v) => w.put_i64(v),
                Value::Double(v) => w.put_f64(v),
                Value::Str(s) => w.put_str(&s),
                Value::Null => unreachable!("is_null filtered"),
            }
        }
    }
    encode_segment_meta(seg, &mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(SEGMENT_MAGIC.len() + payload.len() + 8);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    Ok(out)
}

/// Interned strings: equal cells decoded through one pool share one
/// allocation, across as many segment files as the pool outlives — the
/// sharing the live table gets from appending the same `Arc<str>`s.
#[derive(Debug, Default)]
pub struct StrPool(HashSet<Arc<str>>);

impl StrPool {
    /// The pooled copy of `s`, allocated on first sight.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(pooled) = self.0.get(s) {
            return Arc::clone(pooled);
        }
        let pooled: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&pooled));
        pooled
    }
}

/// Decode a segment file back into the sealed segment it was written from
/// (rows and metadata), validating the magic, the whole-file checksum, and
/// every structural invariant. Never panics on corrupt input. String cells
/// are interned through `pool`.
pub fn decode_segment_file(bytes: &[u8], pool: &mut StrPool) -> Result<SealedSegment> {
    if bytes.len() < SEGMENT_MAGIC.len() + 8 {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let payload = &bytes[SEGMENT_MAGIC.len()..bytes.len() - 8];
    let trailer = &bytes[bytes.len() - 8..];
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a64(payload) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    decode_payload(payload, pool).map_err(corrupt)
}

fn decode_payload(payload: &[u8], pool: &mut StrPool) -> WireResult<SealedSegment> {
    let mut r = ByteReader::new(payload);
    let schema = schema_ref(Schema::new(decode_fields(&mut r)?));
    let n = r.get_u64()? as usize;
    if n > payload.len() {
        return Err(WireError::Malformed(format!(
            "row count {n} exceeds payload size"
        )));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for f in schema.fields() {
        let dt = tag_dtype(r.get_u8()?)?;
        if dt != f.data_type {
            return Err(WireError::Malformed(format!(
                "column '{}' declared {} but encoded {}",
                f.name, f.data_type, dt
            )));
        }
        let nulls: Option<Vec<bool>> = match r.get_u8()? {
            0 => None,
            1 => {
                let nbytes = n.div_ceil(8);
                let mut bits = Vec::with_capacity(n);
                let mut raw = Vec::with_capacity(nbytes);
                for _ in 0..nbytes {
                    raw.push(r.get_u8()?);
                }
                for i in 0..n {
                    bits.push(raw[i / 8] & (1 << (i % 8)) != 0);
                }
                Some(bits)
            }
            other => {
                return Err(WireError::Malformed(format!("bad validity tag {other}")));
            }
        };
        let mut b = ColumnBuilder::new(dt, n);
        for i in 0..n {
            if nulls.as_ref().is_some_and(|bits| bits[i]) {
                b.push_null();
                continue;
            }
            let v = match dt {
                DataType::Bool => Value::Bool(r.get_bool()?),
                DataType::Int => Value::Int(r.get_i64()?),
                DataType::Double => Value::Double(r.get_f64()?),
                DataType::Str => Value::Str(pool.intern(r.get_str()?)),
            };
            b.push(&v)
                .map_err(|e| WireError::Malformed(e.message().to_string()))?;
        }
        columns.push(b.finish());
    }
    let batch =
        Batch::new(schema, columns).map_err(|e| WireError::Malformed(e.message().to_string()))?;
    let seg = decode_segment_meta(&mut r)?;
    if seg.rows != n {
        return Err(WireError::Malformed(format!(
            "metadata says {} rows, file holds {n}",
            seg.rows
        )));
    }
    if seg.zones.len() != batch.schema().len() {
        return Err(WireError::Malformed(format!(
            "metadata has {} zone maps for {} columns",
            seg.zones.len(),
            batch.schema().len()
        )));
    }
    if !r.is_empty() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after segment",
            r.remaining()
        )));
    }
    Ok(SealedSegment::new(seg, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn sample_segment() -> Segment {
        let mut dense = ZoneMap::default();
        for v in [5i64, -2, 9] {
            dense.observe(&Value::Int(v));
        }
        dense.observe_null();
        let mut empty = ZoneMap::default();
        for _ in 0..4 {
            empty.observe_null();
        }
        Segment {
            id: 7,
            start: 128,
            rows: 4,
            zones: vec![dense, empty],
            sorted_by: vec![1, 0],
        }
    }

    #[test]
    fn segment_meta_roundtrip() {
        let seg = sample_segment();
        let mut w = ByteWriter::new();
        encode_segment_meta(&seg, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_segment_meta(&mut r).unwrap();
        assert_eq!(back, seg);
        assert!(r.is_empty());
    }

    #[test]
    fn every_truncation_is_typed() {
        let seg = sample_segment();
        let mut w = ByteWriter::new();
        encode_segment_meta(&seg, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_segment_meta(&mut r).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn inconsistent_counts_are_malformed() {
        let mut z = ZoneMap::default();
        z.observe(&Value::Int(1));
        let seg = Segment {
            id: 0,
            start: 0,
            rows: 2, // zone says 1 row
            zones: vec![z],
            sorted_by: vec![],
        };
        let mut w = ByteWriter::new();
        encode_segment_meta(&seg, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_segment_meta(&mut r),
            Err(WireError::Malformed(_))
        ));
    }

    fn sample_table() -> Table {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("weight", DataType::Double),
            Field::new("ok", DataType::Bool),
        ]));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![
                    Value::str(format!("urn:epc:{i:03}")),
                    if i == 3 {
                        Value::Null
                    } else {
                        Value::Int(i * 7)
                    },
                    Value::Double(i as f64 / 4.0),
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        let batch = Batch::from_rows(schema, &rows).unwrap();
        let mut t = Table::with_segment_rows("reads", batch, 4);
        t.set_sequence_order(&["epc", "rtime"]).unwrap();
        t
    }

    #[test]
    fn roundtrip_every_segment() {
        let t = sample_table();
        assert_eq!(t.segments().len(), 3);
        for seg in t.segments() {
            let rows = seg.data();
            let bytes = encode_segment_file(rows, seg).unwrap();
            let decoded = decode_segment_file(&bytes, &mut StrPool::default()).unwrap();
            assert_eq!(decoded.meta(), seg.meta());
            let back = decoded.data();
            assert_eq!(back.num_rows(), seg.rows);
            assert_eq!(back.schema(), rows.schema());
            for ci in 0..back.schema().len() {
                for i in 0..back.num_rows() {
                    assert_eq!(back.column(ci).value(i), rows.column(ci).value(i));
                }
            }
        }
    }

    #[test]
    fn every_flip_and_truncation_is_rejected_or_equal() {
        let t = sample_table();
        let seg = &t.segments()[0];
        let bytes = encode_segment_file(seg.data(), seg).unwrap();
        // Truncations: all fail (checksum or short-file).
        for cut in 0..bytes.len() {
            assert!(
                decode_segment_file(&bytes[..cut], &mut StrPool::default()).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // Single-byte flips: corrupting the payload or trailer must fail;
        // nothing may decode to different content silently.
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            assert!(
                decode_segment_file(&flipped, &mut StrPool::default()).is_err(),
                "bit flip at {pos} decoded"
            );
        }
    }
}
