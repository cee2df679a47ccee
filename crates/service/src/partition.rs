//! Catalog partitioning and the shard router.
//!
//! Cleansing rules cluster by one key (the paper's `CLUSTER BY`, in
//! practice the EPC), and a rule only ever relates readings *within* one
//! cluster sequence. Partitioning every key-bearing table on that key
//! therefore never splits a sequence across shards: each shard cleanses
//! its clusters exactly as an unsharded system would, and cleansing is
//! embarrassingly parallel. Tables without the key column (dimension
//! tables) are **replicated** — every shard holds the same `Arc<Table>`,
//! so replication costs one map entry, not a copy.
//!
//! The [`HashPartitioner`] decides which shard owns a key value. It is a
//! pure function of the value: the router applies it at initial partition
//! time *and* on every routed append.

use dc_relational::batch::Batch;
use dc_relational::error::{Error, Result};
use dc_relational::scatter::ShardingSpec;
use dc_relational::table::{Catalog, Table};
use dc_relational::value::Value;

/// Canonical byte form of a value for hashing: a type tag followed by the
/// value's natural encoding, so e.g. `Int(1)` and `Str("1")` never collide
/// structurally.
fn canonical_bytes(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// FNV-1a over the key's canonical bytes, reduced modulo the shard count.
/// Stable across processes and platforms (no per-process seed), so shard
/// assignment survives restarts and is reproducible in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The owning shard for `key`, in `0..shards`. Deterministic: the same
    /// value always routes to the same shard.
    pub fn shard_of(&self, key: &Value, shards: usize) -> usize {
        let mut buf = Vec::with_capacity(16);
        canonical_bytes(key, &mut buf);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &buf {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h % shards.max(1) as u64) as usize
    }
}

/// Split `batch` into `shards` batches by routing each row on its key
/// column. Row order is preserved within every output batch (routing is a
/// stable partition of the input), so per-shard append order matches the
/// order the rows arrived in. Each output gathers its rows column by column.
pub fn split_batch(
    batch: &Batch,
    key_idx: usize,
    partitioner: &HashPartitioner,
    shards: usize,
) -> Result<Vec<Batch>> {
    if key_idx >= batch.num_columns() {
        return Err(Error::Execution(format!(
            "split_batch: key column index {key_idx} out of bounds for batch with {} columns",
            batch.num_columns()
        )));
    }
    let key_col = batch.column(key_idx);
    let selection = batch.selection();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); shards.max(1)];
    for i in 0..batch.num_rows() {
        let physical = selection.map_or(i, |sel| sel[i] as usize);
        rows[partitioner.shard_of(&key_col.value(physical), shards)].push(i);
    }
    Ok(rows.iter().map(|r| batch.take(r)).collect())
}

/// Rebuild `table`'s data as a new table with the same name, secondary
/// indexes, and sequence-order declaration.
fn table_like(template: &Table, data: Batch) -> Result<Table> {
    let mut t = Table::new(template.name(), data);
    for col in template.indexed_columns() {
        t.create_index(col)?;
    }
    let seq: Vec<&str> = template
        .sequence_order()
        .iter()
        .map(|&i| template.schema().fields()[i].name.as_str())
        .collect();
    if !seq.is_empty() {
        t.set_sequence_order(&seq)?;
    }
    Ok(t)
}

/// Partition `catalog` into `shards` shard catalogs per `spec`: tables in
/// `spec.partitioned` are split row-wise on the key via `partitioner`
/// (order-preserving, with the source table's indexes and sequence order
/// rebuilt per shard); every other table is replicated by sharing its
/// `Arc<Table>`. The union of the shard catalogs is exactly the input
/// catalog's rows.
pub fn partition_catalog(
    catalog: &Catalog,
    spec: &ShardingSpec,
    partitioner: &HashPartitioner,
    shards: usize,
) -> Result<Vec<Catalog>> {
    let out: Vec<Catalog> = (0..shards.max(1)).map(|_| Catalog::new()).collect();
    for name in catalog.table_names() {
        let table = catalog.get(&name)?;
        if spec.partitioned.contains(&name) {
            let key_idx = table.schema().index_of_name(&spec.key)?;
            let parts = split_batch(table.data(), key_idx, partitioner, out.len())?;
            for (cat, part) in out.iter().zip(parts) {
                cat.register(table_like(&table, part)?);
            }
        } else {
            for cat in &out {
                cat.register_shared(std::sync::Arc::clone(&table));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::value::DataType;
    use std::collections::BTreeSet;

    fn reads(n: i64) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::str(format!("e{}", i % 7)), Value::Int(i)])
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_total() {
        let p = HashPartitioner;
        for i in 0..100 {
            let v = Value::str(format!("epc-{i}"));
            let s = p.shard_of(&v, 4);
            assert!(s < 4);
            assert_eq!(s, p.shard_of(&v, 4));
        }
        // One shard swallows everything.
        assert_eq!(p.shard_of(&Value::str("x"), 1), 0);
    }

    #[test]
    fn split_batch_preserves_order_and_loses_nothing() {
        // A flat batch, and one whose selection vector keeps two rows in
        // three: routing must read the key of the selected row.
        let selected = reads(60).with_selection((0..60).filter(|i| i % 3 != 1).collect());
        for batch in [reads(50), selected] {
            let parts = split_batch(&batch, 0, &HashPartitioner, 3).unwrap();
            assert_eq!(parts.len(), 3);
            let mut got: Vec<Vec<Value>> = Vec::new();
            for (shard, part) in parts.iter().enumerate() {
                for i in 0..part.num_rows() {
                    let row = part.row(i);
                    assert_eq!(HashPartitioner.shard_of(&row[0], 3), shard);
                    got.push(row);
                }
                // rtime is monotone in the input, so order-preservation
                // means it stays monotone in every split.
                let col = part.column(1);
                for i in 1..part.num_rows() {
                    assert!(col.value(i - 1).total_cmp(&col.value(i)).is_lt());
                }
            }
            let want: Vec<Vec<Value>> = (0..batch.num_rows()).map(|i| batch.row(i)).collect();
            got.sort_by_key(|row| row[1].as_int());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn split_batch_rejects_bad_key_index() {
        let err = split_batch(&reads(3), 9, &HashPartitioner, 2).unwrap_err();
        assert!(err.to_string().contains("key column index 9"));
    }

    #[test]
    fn partition_catalog_splits_keyed_and_shares_dimension_tables() {
        let catalog = Catalog::new();
        let mut t = Table::new("caser", reads(40));
        t.create_index("epc").unwrap();
        catalog.register(t);
        let dim_schema = schema_ref(Schema::new(vec![Field::new("loc", DataType::Str)]));
        catalog.register(Table::new(
            "dim",
            Batch::from_rows(dim_schema, &[vec![Value::str("dock")]]).unwrap(),
        ));

        let spec = ShardingSpec {
            key: "epc".into(),
            partitioned: BTreeSet::from(["caser".to_string()]),
        };
        let shards = partition_catalog(&catalog, &spec, &HashPartitioner, 4).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards
            .iter()
            .map(|c| c.get("caser").unwrap().num_rows())
            .sum();
        assert_eq!(total, 40);
        for shard in &shards {
            // Indexes were rebuilt on the partitioned table.
            assert!(shard.get("caser").unwrap().index("epc").is_some());
            // The dimension table is the same allocation everywhere.
            assert!(std::sync::Arc::ptr_eq(
                &shard.get("dim").unwrap(),
                &catalog.get("dim").unwrap()
            ));
        }
    }
}
