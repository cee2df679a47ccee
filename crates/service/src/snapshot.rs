//! Epoch-stamped catalog snapshots and their publication cell.
//!
//! The storage layer already makes every table version immutable
//! ([`Catalog::append`] builds the next version — sharing the current one's
//! sealed segments and index bases, sealing only the appended rows — and
//! swaps the `Arc<Table>`), so a *catalog* snapshot only has to freeze the
//! name → table map: an [`Catalog::overlay`] shares every `Arc<Table>` and
//! costs one shallow map clone. The service stamps each published overlay with a monotonically
//! increasing **epoch** and swaps an `Arc<Snapshot>` pointer; queries load
//! the pointer once at dispatch and run entirely against that immutable
//! world.
//!
//! Publication discipline:
//!
//! * a snapshot's catalog is **never mutated after publish** — the ingest
//!   path builds the next overlay off the current snapshot, appends into
//!   it, and only then publishes;
//! * readers take the read side of the cell's lock only for the duration
//!   of one `Arc` clone, and the single writer holds the write side only
//!   for the pointer swap — the append work itself (segment sealing,
//!   index and statistics folding) happens strictly outside the critical
//!   section, so readers never wait on ingest work;
//! * epochs are dense: epoch *n+1* differs from epoch *n* by exactly one
//!   append.

use dc_relational::table::{Catalog, CatalogRef};
use std::sync::{Arc, RwLock};

// The epoch vector-clock now lives in `dc-stream` (every change set a
// standing query emits is tagged with one); the service re-exports it so
// existing callers keep their import path.
pub use dc_stream::EpochVector;

/// An immutable, epoch-stamped view of the whole catalog. Everything a
/// query needs is reachable from here and guaranteed not to change.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Dense publication counter; the initial snapshot is epoch 0.
    pub epoch: u64,
    /// The frozen catalog: shares `Arc<Table>` storage with every other
    /// epoch that has not diverged on that table.
    pub catalog: CatalogRef,
}

/// The publication point: a swap-only cell holding the current snapshot.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Seal `catalog` as epoch 0.
    pub fn new(catalog: CatalogRef) -> Self {
        Self::at_epoch(catalog, 0)
    }

    /// Seal `catalog` as a specific starting epoch. Recovery uses this to
    /// resume publication exactly where the durable log left off, so
    /// post-restart epochs continue the same dense history.
    pub fn at_epoch(catalog: CatalogRef, epoch: u64) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(Snapshot { epoch, catalog })),
        }
    }

    /// The current snapshot. The read lock is held only while cloning the
    /// `Arc`; the returned handle stays valid (and immutable) forever.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// Publish `catalog` as the next epoch and return the new snapshot.
    /// The write lock covers exactly one pointer swap. Callers must
    /// serialize publications (the service's ingest lock does) and must
    /// never mutate `catalog` afterwards.
    pub fn publish(&self, catalog: Catalog) -> Arc<Snapshot> {
        let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
        let next = Arc::new(Snapshot {
            epoch: cur.epoch + 1,
            catalog: Arc::new(catalog),
        });
        *cur = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::schema::{Field, Schema};
    use dc_relational::table::Table;
    use dc_relational::value::{DataType, Value};

    fn catalog_with_rows(n: i64) -> CatalogRef {
        let schema = schema_ref(Schema::new(vec![Field::new("x", DataType::Int)]));
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        let cat = Catalog::new();
        cat.register(Table::new("t", Batch::from_rows(schema, &rows).unwrap()));
        Arc::new(cat)
    }

    #[test]
    fn publish_bumps_epoch_and_old_handles_stay_frozen() {
        let cell = SnapshotCell::new(catalog_with_rows(2));
        let s0 = cell.load();
        assert_eq!(s0.epoch, 0);

        let next = s0.catalog.overlay();
        next.append(
            "t",
            Batch::from_rows(
                s0.catalog.get("t").unwrap().schema().clone(),
                &[vec![Value::Int(99)]],
            )
            .unwrap(),
        )
        .unwrap();
        let s1 = cell.publish(next);
        assert_eq!(s1.epoch, 1);
        assert_eq!(cell.epoch(), 1);

        // The old snapshot still sees the pre-append world.
        assert_eq!(s0.catalog.get("t").unwrap().num_rows(), 2);
        assert_eq!(s1.catalog.get("t").unwrap().num_rows(), 3);
    }
}
