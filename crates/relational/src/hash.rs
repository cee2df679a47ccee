//! Vectorized hash machinery: batch hash kernels and normalized-key tables.
//!
//! Every hash-keyed operator in the engine (join build/probe, hash
//! aggregation, DISTINCT, the scatter-gather partial-aggregate merge, and
//! streaming aggregate maintenance) runs on the two primitives in this
//! module instead of `HashMap<Vec<Value>, _>`:
//!
//! * [`encode_keys`] — turns the key columns of a batch into an
//!   [`EncodedKeys`] block: one contiguous byte arena of *normalized keys*
//!   plus one 64-bit hash per row, computed column-at-a-time over the native
//!   `ColumnData` slices (selection-vector aware). Normalization guarantees
//!   **byte equality ⟺ structural `Value` equality**, so downstream tables
//!   never touch `Value` again — equality is a memcmp.
//! * [`RawKeyTable`] — an open-addressing table whose entries are
//!   `(u64 hash, arena range)`. Lookup compares raw hashes first and only
//!   memcmps the arena on a candidate hash match; a full-hash match with
//!   unequal bytes is counted as a genuine 64-bit collision.
//!
//! ## Determinism contract
//!
//! The hash function is seeded with process-independent constants (FNV-1a
//! over normalized bytes for strings, a splitmix64-style finalizer for
//! fixed-width values) so hashes — and therefore every counter derived from
//! them — are identical across processes, runs, and parallelism levels,
//! exactly like the shard router's FNV in `dc-service`. Slot indices are
//! assigned in first-insert order, which keeps group output order equal to
//! the first-seen order the row-at-a-time oracle produces.
//!
//! ## Normalized encoding
//!
//! Each value encodes as a type tag byte (the same tags as the partitioner's
//! `canonical_bytes`: 0=NULL, 1=Bool, 2=Int, 3=Double, 4=Str) followed by a
//! fixed-width payload (Bool: 1 byte; Int: 8-byte LE; Double: 8-byte LE of
//! `to_bits`, matching `Value`'s structural equality for doubles) or a
//! u32-LE length prefix plus bytes for strings. When every key column is
//! fixed-width the arena uses a constant row stride (NULL pads with zeros);
//! otherwise rows are length-prefix packed. Both layouts produce identical
//! per-value bytes for non-NULL values, so keys encoded by different batches
//! (join build vs probe) still compare correctly. Either way the whole block
//! takes O(1) buffer allocations — never one per row.

use crate::column::{Column, ColumnData};
use crate::error::{Error, Result};
use crate::value::Value;

/// Work counters for the hash path. Chunk-size and parallelism independent
/// (hashing happens inside breaker operators over fully collected input), so
/// they are safe to gate on in CI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Per-value hash computations (rows × key columns).
    pub hash_ops: u64,
    /// Full 64-bit hash matches whose keys compared unequal.
    pub hash_collisions: u64,
    /// Arena memcmps performed on candidate (hash-equal) entries.
    pub probe_memcmps: u64,
    /// Bytes written into normalized-key arenas.
    pub key_bytes_encoded: u64,
}

/// How NULL key parts behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullKeys {
    /// NULLs compare equal to each other (GROUP BY / DISTINCT semantics).
    Match,
    /// A row with any NULL key part never joins (SQL equi-join semantics);
    /// such rows are marked non-joinable instead of entering the table.
    Never,
}

// Type tags — shared with `dc_service::partition::canonical_bytes` so the
// normalized encoding stays one vocabulary across the system.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Per-row hash seed. Arbitrary odd constant; fixed so hashes are
/// process-stable.
const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// splitmix64 finalizer: cheap, well-mixed, process-stable.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Fold one value hash into a row hash. Order-sensitive across key columns.
#[inline]
fn combine(row: u64, value: u64) -> u64 {
    mix(row ^ value)
}

#[inline]
fn hash_null() -> u64 {
    mix(TAG_NULL as u64)
}

#[inline]
fn hash_bool(v: bool) -> u64 {
    mix(((TAG_BOOL as u64) << 56) ^ v as u64)
}

#[inline]
fn hash_int(v: i64) -> u64 {
    mix(((TAG_INT as u64) << 56) ^ v as u64)
}

#[inline]
fn hash_double(v: f64) -> u64 {
    mix(((TAG_DOUBLE as u64) << 56) ^ v.to_bits())
}

#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    mix(((TAG_STR as u64) << 56) ^ h)
}

/// Hash a single scalar the same way the column kernels do.
#[inline]
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => hash_null(),
        Value::Bool(b) => hash_bool(*b),
        Value::Int(i) => hash_int(*i),
        Value::Double(d) => hash_double(*d),
        Value::Str(s) => hash_str(s),
    }
}

/// Arena layout of an [`EncodedKeys`] block.
#[derive(Debug)]
enum KeyLayout {
    /// All key columns are fixed-width: constant `stride` bytes per row.
    Fixed { stride: usize },
    /// At least one variable-width column: explicit row offsets (len n+1).
    Var { offsets: Vec<u32> },
}

/// The normalized keys of `n` rows: a byte arena, one 64-bit hash per row,
/// and (for join semantics) a joinability mask. Produced by [`encode_keys`]
/// with O(1) buffer allocations regardless of row count.
#[derive(Debug)]
pub struct EncodedKeys {
    bytes: Vec<u8>,
    layout: KeyLayout,
    hashes: Vec<u64>,
    /// `None` = every row joinable. Only materialized under
    /// [`NullKeys::Never`] when some key part is actually NULL.
    non_joinable: Option<Vec<bool>>,
    rows: usize,
    /// Buffer allocations performed while encoding (asserted O(1) by the
    /// hash-kernel smoke bench).
    alloc_events: u64,
}

impl EncodedKeys {
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }

    /// The normalized key bytes of row `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        match &self.layout {
            KeyLayout::Fixed { stride } => &self.bytes[i * stride..(i + 1) * stride],
            KeyLayout::Var { offsets } => &self.bytes[offsets[i] as usize..offsets[i + 1] as usize],
        }
    }

    /// False when the row has a NULL key part under [`NullKeys::Never`].
    #[inline]
    pub fn is_joinable(&self, i: usize) -> bool {
        match &self.non_joinable {
            Some(mask) => !mask[i],
            None => true,
        }
    }

    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

/// Per-column byte width in the fixed layout (tag byte included), or `None`
/// for variable-width columns.
fn fixed_width(data: &ColumnData) -> Option<usize> {
    match data {
        ColumnData::Bool(_) => Some(1 + 1),
        ColumnData::Int(_) | ColumnData::Double(_) => Some(1 + 8),
        ColumnData::Str(_) => None,
    }
}

/// Map a logical row index through the optional selection vector.
#[inline]
fn phys(sel: Option<&[u32]>, k: usize) -> usize {
    match sel {
        Some(rows) => rows[k] as usize,
        None => k,
    }
}

/// Encode the key columns of `rows` logical rows into an [`EncodedKeys`]
/// block. `sel`, when present, maps logical row `k` to the physical
/// (window-relative) row of every column — the same convention the
/// expression kernels use; dense columns (e.g. from [`Expr::evaluate`],
/// which already resolves the batch selection) pass `None`.
///
/// With zero key columns every row encodes to the empty key (one group) —
/// the global-aggregation case.
///
/// [`Expr::evaluate`]: crate::expr::Expr::evaluate
pub fn encode_keys(
    cols: &[Column],
    sel: Option<&[u32]>,
    rows: usize,
    nulls: NullKeys,
    stats: &mut HashStats,
) -> Result<EncodedKeys> {
    if let Some(s) = sel {
        if s.len() != rows {
            return Err(Error::Internal(format!(
                "encode_keys: selection length {} != rows {rows}",
                s.len()
            )));
        }
    }
    let need = sel
        .and_then(|s| s.iter().max().map(|&m| m as usize + 1))
        .unwrap_or(rows);
    for c in cols {
        if c.len() < need {
            return Err(Error::Internal(format!(
                "encode_keys: key column of {} rows, need {need}",
                c.len()
            )));
        }
    }
    let mut alloc_events = 0u64;
    let mut hashes = vec![HASH_SEED; rows];
    alloc_events += 1;
    let mut non_joinable: Option<Vec<bool>> = None;

    let fixed: Option<usize> = cols
        .iter()
        .map(|c| fixed_width(c.data()))
        .try_fold(0usize, |acc, w| w.map(|w| acc + w));

    let mark_null = |mask: &mut Option<Vec<bool>>, events: &mut u64, k: usize| {
        if nulls == NullKeys::Never {
            let m = mask.get_or_insert_with(|| {
                *events += 1;
                vec![false; rows]
            });
            m[k] = true;
        }
    };

    let (bytes, layout) = if let Some(stride) = fixed {
        // Fixed layout: pre-zeroed arena, constant stride. NULL cells keep
        // their zero padding (tag 0 is already there), so the null branch
        // writes nothing.
        let mut bytes = vec![0u8; stride * rows];
        if stride * rows > 0 {
            alloc_events += 1;
        }
        let mut col_off = 0usize;
        for c in cols {
            let w = fixed_width(c.data()).expect("fixed layout implies fixed width");
            let nullable = c.has_nulls();
            match c.data() {
                ColumnData::Bool(_) => {
                    let vals = c.bool_values().expect("bool column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let base = k * stride + col_off;
                        if nullable && c.is_null(i) {
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[base] = TAG_BOOL;
                            bytes[base + 1] = vals[i] as u8;
                            *h = combine(*h, hash_bool(vals[i]));
                        }
                    }
                }
                ColumnData::Int(_) => {
                    let vals = c.int_values().expect("int column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let base = k * stride + col_off;
                        if nullable && c.is_null(i) {
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[base] = TAG_INT;
                            bytes[base + 1..base + 9].copy_from_slice(&vals[i].to_le_bytes());
                            *h = combine(*h, hash_int(vals[i]));
                        }
                    }
                }
                ColumnData::Double(_) => {
                    let vals = c.double_values().expect("double column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let base = k * stride + col_off;
                        if nullable && c.is_null(i) {
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[base] = TAG_DOUBLE;
                            bytes[base + 1..base + 9]
                                .copy_from_slice(&vals[i].to_bits().to_le_bytes());
                            *h = combine(*h, hash_double(vals[i]));
                        }
                    }
                }
                ColumnData::Str(_) => unreachable!("str column in fixed layout"),
            }
            col_off += w;
        }
        (bytes, KeyLayout::Fixed { stride })
    } else {
        // Variable layout: length pass → prefix sum → column-at-a-time fill
        // through a per-row write cursor. Still O(1) allocations.
        let mut offsets = vec![0u32; rows + 1];
        alloc_events += 1;
        for c in cols {
            match c.data() {
                ColumnData::Str(_) => {
                    let vals = c.str_values().expect("str column");
                    let nullable = c.has_nulls();
                    for (k, o) in offsets[1..].iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let len = if nullable && c.is_null(i) {
                            1
                        } else {
                            1 + 4 + vals[i].len()
                        };
                        *o = grown(*o, len)?;
                    }
                }
                other => {
                    let w = fixed_width(other).expect("non-str is fixed width");
                    let nullable = c.has_nulls();
                    for (k, o) in offsets[1..].iter_mut().enumerate() {
                        let len = if nullable && c.is_null(phys(sel, k)) {
                            1
                        } else {
                            w
                        };
                        *o = grown(*o, len)?;
                    }
                }
            }
        }
        for k in 1..=rows {
            offsets[k] = grown(offsets[k - 1], offsets[k] as usize)?;
        }
        let total = offsets[rows] as usize;
        let mut bytes = vec![0u8; total];
        if total > 0 {
            alloc_events += 1;
        }
        let mut cursor: Vec<u32> = offsets[..rows].to_vec();
        if rows > 0 {
            alloc_events += 1;
        }
        for c in cols {
            let nullable = c.has_nulls();
            match c.data() {
                ColumnData::Bool(_) => {
                    let vals = c.bool_values().expect("bool column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let at = cursor[k] as usize;
                        if nullable && c.is_null(i) {
                            bytes[at] = TAG_NULL;
                            cursor[k] += 1;
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[at] = TAG_BOOL;
                            bytes[at + 1] = vals[i] as u8;
                            cursor[k] += 2;
                            *h = combine(*h, hash_bool(vals[i]));
                        }
                    }
                }
                ColumnData::Int(_) => {
                    let vals = c.int_values().expect("int column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let at = cursor[k] as usize;
                        if nullable && c.is_null(i) {
                            bytes[at] = TAG_NULL;
                            cursor[k] += 1;
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[at] = TAG_INT;
                            bytes[at + 1..at + 9].copy_from_slice(&vals[i].to_le_bytes());
                            cursor[k] += 9;
                            *h = combine(*h, hash_int(vals[i]));
                        }
                    }
                }
                ColumnData::Double(_) => {
                    let vals = c.double_values().expect("double column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let at = cursor[k] as usize;
                        if nullable && c.is_null(i) {
                            bytes[at] = TAG_NULL;
                            cursor[k] += 1;
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            bytes[at] = TAG_DOUBLE;
                            bytes[at + 1..at + 9].copy_from_slice(&vals[i].to_bits().to_le_bytes());
                            cursor[k] += 9;
                            *h = combine(*h, hash_double(vals[i]));
                        }
                    }
                }
                ColumnData::Str(_) => {
                    let vals = c.str_values().expect("str column");
                    for (k, h) in hashes.iter_mut().enumerate() {
                        let i = phys(sel, k);
                        let at = cursor[k] as usize;
                        if nullable && c.is_null(i) {
                            bytes[at] = TAG_NULL;
                            cursor[k] += 1;
                            *h = combine(*h, hash_null());
                            mark_null(&mut non_joinable, &mut alloc_events, k);
                        } else {
                            let s = vals[i].as_bytes();
                            bytes[at] = TAG_STR;
                            bytes[at + 1..at + 5].copy_from_slice(&(s.len() as u32).to_le_bytes());
                            bytes[at + 5..at + 5 + s.len()].copy_from_slice(s);
                            cursor[k] += 5 + s.len() as u32;
                            *h = combine(*h, hash_str(&vals[i]));
                        }
                    }
                }
            }
        }
        (bytes, KeyLayout::Var { offsets })
    };

    stats.hash_ops += (rows * cols.len()) as u64;
    stats.key_bytes_encoded += bytes.len() as u64;
    Ok(EncodedKeys {
        bytes,
        layout,
        hashes,
        non_joinable,
        rows,
        alloc_events,
    })
}

/// Encode one `Value` row into a reusable buffer (clears it first) and
/// return its row hash. Same normalized encoding and hash as the column
/// kernels — this is the single-row entry point streaming maintenance uses
/// for its group table.
pub fn encode_value_row(values: &[Value], out: &mut Vec<u8>) -> u64 {
    out.clear();
    let mut h = HASH_SEED;
    for v in values {
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
            Value::Double(d) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        h = combine(h, hash_value(v));
    }
    h
}

const EMPTY_BUCKET: u32 = u32::MAX;

/// `offset + len` as an offset into a normalized-key arena, which addresses
/// its bytes with `u32`s: an error, not a wrap-around, past 4 GiB.
fn grown(offset: u32, len: usize) -> Result<u32> {
    u32::try_from(len)
        .ok()
        .and_then(|len| offset.checked_add(len))
        .ok_or_else(|| {
            Error::Execution(
                "normalized keys exceed the 4 GiB a key arena addresses (u32 offsets)".into(),
            )
        })
}

/// The `(start, len)` entry of a `len`-byte key appended to an arena that
/// holds `used` bytes.
fn arena_range(used: usize, len: usize) -> Result<(u32, u32)> {
    let start = grown(0, used)?;
    let end = grown(start, len)?;
    Ok((start, end - start))
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    hash: u64,
    start: u32,
    len: u32,
}

/// An open-addressing hash table over normalized key bytes.
///
/// Keys live in one contiguous arena; entries are `(hash, arena range)` and
/// dense slot indices are handed out in first-insert order, so a slot index
/// doubles as the deterministic "first seen" group ordinal. Lookups probe
/// linearly, compare the full 64-bit hash first, and memcmp the arena only
/// on a hash match — every memcmp is counted in
/// [`HashStats::probe_memcmps`], and a hash match with unequal bytes counts
/// one [`HashStats::hash_collisions`].
#[derive(Debug)]
pub struct RawKeyTable {
    arena: Vec<u8>,
    entries: Vec<TableEntry>,
    /// Power-of-two bucket array of slot indices; `EMPTY_BUCKET` = free.
    buckets: Vec<u32>,
}

impl Default for RawKeyTable {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl RawKeyTable {
    /// A table pre-sized for about `n` distinct keys.
    pub fn with_capacity(n: usize) -> Self {
        let cap = (n.max(8) * 8 / 7).next_power_of_two();
        RawKeyTable {
            arena: Vec::new(),
            entries: Vec::with_capacity(n),
            buckets: vec![EMPTY_BUCKET; cap],
        }
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The normalized key bytes stored at `slot`.
    pub fn key_at(&self, slot: usize) -> &[u8] {
        let e = &self.entries[slot];
        &self.arena[e.start as usize..(e.start + e.len) as usize]
    }

    #[inline]
    fn entry_matches(&self, slot: u32, hash: u64, key: &[u8], stats: &mut HashStats) -> bool {
        let e = &self.entries[slot as usize];
        if e.hash != hash {
            return false;
        }
        stats.probe_memcmps += 1;
        // The empty key (global aggregation) is settled by its length: a
        // zero-length memcmp at the empty arena's dangling address costs
        // ~100 ns where the libc routine probes it with a masked load.
        let stored = &self.arena[e.start as usize..(e.start + e.len) as usize];
        if stored.len() == key.len() && (key.is_empty() || stored == key) {
            true
        } else {
            stats.hash_collisions += 1;
            false
        }
    }

    /// Find-or-insert. Returns `(slot, inserted)`; slots are dense and
    /// first-insert ordered. Fails, inserting nothing, when the key would
    /// take the arena past the 4 GiB its `u32` offsets address.
    pub fn insert(
        &mut self,
        hash: u64,
        key: &[u8],
        stats: &mut HashStats,
    ) -> Result<(usize, bool)> {
        if (self.entries.len() + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut b = (hash as usize) & mask;
        loop {
            let slot = self.buckets[b];
            if slot == EMPTY_BUCKET {
                let (start, len) = arena_range(self.arena.len(), key.len())?;
                self.arena.extend_from_slice(key);
                let idx = self.entries.len() as u32;
                self.entries.push(TableEntry { hash, start, len });
                self.buckets[b] = idx;
                return Ok((idx as usize, true));
            }
            if self.entry_matches(slot, hash, key, stats) {
                return Ok((slot as usize, false));
            }
            b = (b + 1) & mask;
        }
    }

    /// Lookup without insertion. Returns the slot of the matching key.
    pub fn get(&self, hash: u64, key: &[u8], stats: &mut HashStats) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = (hash as usize) & mask;
        loop {
            let slot = self.buckets[b];
            if slot == EMPTY_BUCKET {
                return None;
            }
            if self.entry_matches(slot, hash, key, stats) {
                return Some(slot as usize);
            }
            b = (b + 1) & mask;
        }
    }

    /// Double the bucket array and re-place every entry. No equality checks
    /// happen here (entries are already distinct), so growth never perturbs
    /// the memcmp/collision counters.
    fn grow(&mut self) {
        let new_cap = (self.buckets.len() * 2).max(16);
        let mut buckets = vec![EMPTY_BUCKET; new_cap];
        let mask = new_cap - 1;
        for (idx, e) in self.entries.iter().enumerate() {
            let mut b = (e.hash as usize) & mask;
            while buckets[b] != EMPTY_BUCKET {
                b = (b + 1) & mask;
            }
            buckets[b] = idx as u32;
        }
        self.buckets = buckets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn col(dt: DataType, vals: &[Value]) -> Column {
        Column::from_values(dt, vals).unwrap()
    }

    #[test]
    fn fixed_and_var_layouts_agree_per_value() {
        // The same Int values encode to identical bytes whether the row is
        // all-fixed or forced variable-width by a Str sibling.
        let ints = col(DataType::Int, &[Value::Int(7), Value::Int(-1)]);
        let strs = col(DataType::Str, &[Value::str("a"), Value::str("b")]);
        let mut st = HashStats::default();
        let fixed = encode_keys(
            std::slice::from_ref(&ints),
            None,
            2,
            NullKeys::Match,
            &mut st,
        )
        .unwrap();
        let var = encode_keys(&[ints, strs], None, 2, NullKeys::Match, &mut st).unwrap();
        // Int part of the var-layout key equals the whole fixed-layout key.
        assert_eq!(&var.key(0)[..9], fixed.key(0));
        assert_eq!(&var.key(1)[..9], fixed.key(1));
    }

    #[test]
    fn byte_equality_matches_structural_equality() {
        let rows = [
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::str("y")],
            vec![Value::Null, Value::str("x")],
            vec![Value::Null, Value::str("x")],
            vec![Value::Int(0), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        let c0 = col(
            DataType::Int,
            &rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        );
        let c1 = col(
            DataType::Str,
            &rows.iter().map(|r| r[1].clone()).collect::<Vec<_>>(),
        );
        let mut st = HashStats::default();
        let ek = encode_keys(&[c0, c1], None, rows.len(), NullKeys::Match, &mut st).unwrap();
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                assert_eq!(
                    ek.key(i) == ek.key(j),
                    rows[i] == rows[j],
                    "rows {i} vs {j}"
                );
                if rows[i] == rows[j] {
                    assert_eq!(ek.hash(i), ek.hash(j), "hash {i} vs {j}");
                }
            }
        }
    }

    #[test]
    fn single_row_encoder_matches_column_encoder() {
        let rows = [
            vec![Value::Int(42), Value::str("abc"), Value::Double(1.5)],
            vec![Value::Null, Value::str(""), Value::Double(-0.0)],
        ];
        let cols = vec![
            col(
                DataType::Int,
                &rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            ),
            col(
                DataType::Str,
                &rows.iter().map(|r| r[1].clone()).collect::<Vec<_>>(),
            ),
            col(
                DataType::Double,
                &rows.iter().map(|r| r[2].clone()).collect::<Vec<_>>(),
            ),
        ];
        let mut st = HashStats::default();
        let ek = encode_keys(&cols, None, rows.len(), NullKeys::Match, &mut st).unwrap();
        let mut buf = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let h = encode_value_row(row, &mut buf);
            assert_eq!(buf.as_slice(), ek.key(i), "row {i} bytes");
            assert_eq!(h, ek.hash(i), "row {i} hash");
        }
    }

    #[test]
    fn selection_vector_is_honored() {
        let c = col(
            DataType::Int,
            &[Value::Int(10), Value::Int(20), Value::Int(30)],
        );
        let sel: Vec<u32> = vec![2, 0];
        let mut st = HashStats::default();
        let ek = encode_keys(&[c], Some(&sel), 2, NullKeys::Match, &mut st).unwrap();
        let mut buf = Vec::new();
        assert_eq!(encode_value_row(&[Value::Int(30)], &mut buf), ek.hash(0));
        assert_eq!(buf.as_slice(), ek.key(0));
        assert_eq!(encode_value_row(&[Value::Int(10)], &mut buf), ek.hash(1));
    }

    #[test]
    fn null_policy_never_marks_rows_non_joinable() {
        let c = col(DataType::Int, &[Value::Int(1), Value::Null]);
        let mut st = HashStats::default();
        let ek = encode_keys(std::slice::from_ref(&c), None, 2, NullKeys::Never, &mut st).unwrap();
        assert!(ek.is_joinable(0));
        assert!(!ek.is_joinable(1));
        let ek = encode_keys(&[c], None, 2, NullKeys::Match, &mut st).unwrap();
        assert!(ek.is_joinable(1));
    }

    #[test]
    fn zero_key_columns_form_one_group() {
        let mut st = HashStats::default();
        let ek = encode_keys(&[], None, 3, NullKeys::Match, &mut st).unwrap();
        assert_eq!(ek.rows(), 3);
        assert_eq!(ek.key(0), ek.key(2));
        assert_eq!(ek.hash(0), ek.hash(2));
        assert_eq!(st.hash_ops, 0);
    }

    #[test]
    fn encoding_allocations_are_constant_in_row_count() {
        for &n in &[16usize, 64, 256, 1024] {
            let vals: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            let dbls: Vec<Value> = (0..n).map(|i| Value::Double(i as f64)).collect();
            let mut st = HashStats::default();
            let ek = encode_keys(
                &[col(DataType::Int, &vals), col(DataType::Double, &dbls)],
                None,
                n,
                NullKeys::Match,
                &mut st,
            )
            .unwrap();
            assert!(
                ek.alloc_events() <= 4,
                "fixed path allocated {} times for {n} rows",
                ek.alloc_events()
            );
        }
    }

    #[test]
    fn table_insert_get_roundtrip_counts_memcmps() {
        let mut t = RawKeyTable::with_capacity(4);
        let mut st = HashStats::default();
        let (s0, fresh0) = t
            .insert(hash_value(&Value::Int(1)), b"k1", &mut st)
            .unwrap();
        let (s1, fresh1) = t
            .insert(hash_value(&Value::Int(2)), b"k2", &mut st)
            .unwrap();
        assert!(fresh0 && fresh1);
        assert_eq!((s0, s1), (0, 1));
        // Re-insert: one memcmp (the match), no collision.
        let before = st.probe_memcmps;
        let (s, fresh) = t
            .insert(hash_value(&Value::Int(1)), b"k1", &mut st)
            .unwrap();
        assert!(!fresh);
        assert_eq!(s, 0);
        assert_eq!(st.probe_memcmps, before + 1);
        assert_eq!(st.hash_collisions, 0);
        assert_eq!(t.get(hash_value(&Value::Int(2)), b"k2", &mut st), Some(1));
        assert_eq!(t.get(hash_value(&Value::Int(9)), b"k9", &mut st), None);
    }

    #[test]
    fn equal_hash_distinct_keys_disambiguate_by_memcmp() {
        // Fabricate a full 64-bit collision: distinct keys, same hash.
        let mut t = RawKeyTable::with_capacity(4);
        let mut st = HashStats::default();
        let (a, fa) = t.insert(42, b"alpha", &mut st).unwrap();
        let (b, fb) = t.insert(42, b"beta", &mut st).unwrap();
        assert!(fa && fb);
        assert_ne!(a, b);
        assert_eq!(st.hash_collisions, 1, "insert of beta collided with alpha");
        assert_eq!(t.get(42, b"alpha", &mut st), Some(a));
        assert_eq!(t.get(42, b"beta", &mut st), Some(b));
        assert!(
            st.hash_collisions >= 2,
            "lookups re-walk the collided chain"
        );
        assert_eq!(t.get(42, b"gamma", &mut st), None);
    }

    #[test]
    fn offsets_past_the_arena_limit_are_errors_not_wraparound() {
        // Fabricated offsets stand in for 4 GiB of keys.
        assert_eq!(grown(u32::MAX - 9, 9).unwrap(), u32::MAX);
        for (offset, len) in [
            (u32::MAX - 9, 10),
            (0, u32::MAX as usize + 1),
            (7, usize::MAX),
        ] {
            let err = grown(offset, len).unwrap_err();
            assert!(
                matches!(&err, Error::Execution(m) if m.contains("4 GiB")),
                "{offset} + {len}: {err:?}"
            );
        }
        assert_eq!(arena_range(100, 28).unwrap(), (100, 28));
        assert!(arena_range(u32::MAX as usize - 4, 5).is_err());
        assert!(arena_range(u32::MAX as usize + 1, 0).is_err());
    }

    #[test]
    fn table_growth_preserves_entries_and_counters() {
        let mut t = RawKeyTable::with_capacity(0);
        let mut st = HashStats::default();
        let keys: Vec<Vec<u8>> = (0..1000i64).map(|i| i.to_le_bytes().to_vec()).collect();
        // Only 13 distinct hashes for 1000 keys ⇒ heavy deliberate
        // collisions; every key must still be found after multiple growths.
        for (i, k) in keys.iter().enumerate() {
            t.insert(mix(i as u64 % 13), k, &mut st).unwrap();
        }
        assert_eq!(t.len(), 1000);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(mix(i as u64 % 13), k, &mut st), Some(i));
        }
        assert!(st.hash_collisions > 0 && st.probe_memcmps >= 2000);
    }
}
