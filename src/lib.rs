//! # deferred-cleansing
//!
//! A Rust reproduction of *"A Deferred Cleansing Method for RFID Data
//! Analytics"* (VLDB 2006): application-specific, query-time cleansing of
//! RFID read data through declarative sequence rules and automatic query
//! rewriting.
//!
//! This root crate re-exports the public API of the workspace crates:
//!
//! * [`relational`] — the in-memory DBMS substrate (SQL subset, SQL/OLAP
//!   window functions, indexes, optimizer, cost model),
//! * [`sqlts`] — the extended SQL-TS cleansing-rule language,
//! * [`rules`] — rule compilation to SQL/OLAP templates and Φ execution,
//! * [`rewrite`] — the expanded and join-back query rewrites,
//! * [`rfidgen`] — the RFIDGen synthetic workload generator,
//! * [`core`] — the [`core::DeferredCleansingSystem`] facade tying it all
//!   together,
//! * [`service`] — the concurrent snapshot query service
//!   ([`service::QueryService`]): worker pool over epoch-stamped catalog
//!   snapshots, live append ingest, deadlines and cancellation,
//! * [`log`] — the fault-injectable durable log primitives backing
//!   [`service::QueryService::start_sharded_durable`]: crash-safe appends,
//!   recovery, and `AS OF epoch` time travel.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use dc_core as core;
pub use dc_log as log;
pub use dc_relational as relational;
pub use dc_rewrite as rewrite;
pub use dc_rfidgen as rfidgen;
pub use dc_rules as rules;
pub use dc_service as service;
pub use dc_sqlts as sqlts;

pub use dc_core::DeferredCleansingSystem;
