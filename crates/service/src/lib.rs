//! # dc-service — concurrent snapshot query service
//!
//! Serves deferred-cleansing queries from a worker pool while a live ingest
//! path appends new RFID reads, without readers ever blocking on writers.
//! The design leans entirely on the storage layer's copy-on-write tables:
//!
//! * every published catalog is an immutable, **epoch-stamped snapshot**
//!   ([`Snapshot`]); queries run start-to-finish against the epoch they were
//!   dispatched on;
//! * [`QueryService::append`] builds the next epoch on a private overlay and
//!   publishes it with a single pointer swap ([`SnapshotCell`]);
//! * every query runs under a [`QueryBudget`] — deadline (anchored at submit
//!   time, so queue wait counts), row limit, and cooperative cancellation
//!   via [`Ticket::cancel`] — and aborts with a typed error, never a panic
//!   or partial rows;
//! * admission is a bounded queue with **reject-on-full** backpressure
//!   ([`ServiceError::Overloaded`]);
//! * there is **one topology**: [`QueryService::start`] is
//!   [`QueryService::start_sharded`] with one shard (nothing partitioned or
//!   copied); [`QueryService::start_sharded_durable`] logs every append
//!   before it publishes, and [`QueryService::recover`] restarts from that;
//! * [`QueryService::subscribe`] registers a **standing query**: the caller
//!   gets the full result once, then one [`ChangeSet`] per published epoch,
//!   maintained incrementally by re-cleansing only the cluster keys each
//!   append touched (see the `dc-stream` crate). Slow consumers lag on a
//!   bounded queue ([`StreamError::Lagged`]) instead of stalling ingest.
//!
//! ```
//! use dc_core::DeferredCleansingSystem;
//! use dc_relational::prelude::*;
//! use dc_service::{QueryRequest, QueryService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(Catalog::new());
//! let schema = schema_ref(Schema::new(vec![
//!     Field::new("epc", DataType::Str),
//!     Field::new("rtime", DataType::Int),
//!     Field::new("biz_loc", DataType::Str),
//! ]));
//! catalog.register(Table::new("caser", Batch::from_rows(schema.clone(), &[
//!     vec![Value::str("e1"), Value::Int(0), Value::str("shelf")],
//!     vec![Value::str("e1"), Value::Int(60), Value::str("shelf")], // duplicate
//! ]).unwrap()));
//! let sys = DeferredCleansingSystem::with_catalog(catalog);
//! sys.define_rule("app",
//!     "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime \
//!      AS (A, B) WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins \
//!      ACTION DELETE B").unwrap();
//!
//! let svc = QueryService::start(sys, ServiceConfig::default());
//! let r0 = svc.execute(QueryRequest::new("app", "select epc from caser")).unwrap();
//! assert_eq!((r0.batch.num_rows(), r0.service.snapshot_epoch), (1, 0));
//!
//! // A concurrent append publishes epoch 1; new queries see it.
//! svc.append("caser", Batch::from_rows(schema, &[
//!     vec![Value::str("e2"), Value::Int(5), Value::str("dock")],
//! ]).unwrap()).unwrap();
//! let r1 = svc.execute(QueryRequest::new("app", "select epc from caser")).unwrap();
//! assert_eq!((r1.batch.num_rows(), r1.service.snapshot_epoch), (2, 1));
//! ```

pub mod durable;
pub mod partition;
pub mod queue;
pub mod service;
pub mod snapshot;

pub use dc_core::{AbortReason, QueryBudget};
pub use dc_log::{FailPoint, LogError};
pub use dc_stream::{ChangeChannel, ChangeSet, MaintenanceStats, PushOutcome, StreamError};
pub use durable::{DurableOptions, DurableStats, MANIFEST_LOG};
pub use partition::{partition_catalog, split_batch, HashPartitioner};
pub use queue::{Bounded, PushError};
pub use service::subscribe::{AppendOutcome, SubscribeOptions, SubscriptionHandle};
pub use service::{
    QueryRequest, QueryResponse, QueryService, ServiceConfig, ServiceCounters, ServiceError,
    ServiceStats, ShardConfig, Ticket,
};
pub use snapshot::{EpochVector, Snapshot, SnapshotCell};
