//! # dc-relational — the DBMS substrate
//!
//! An in-memory columnar relational engine providing everything the deferred
//! cleansing system (paper: *"A Deferred Cleansing Method for RFID Data
//! Analytics"*, VLDB 2006) needs from its DBMS:
//!
//! * typed columnar storage with NULL bitmaps ([`mod@column`], [`batch`]),
//! * ordered secondary indexes with range scans ([`index`]),
//! * scalar expressions with SQL three-valued logic ([`expr`]),
//! * physical operators — sort, hash join/semi-join, hash aggregation, and
//!   the SQL/OLAP window functions the paper compiles cleansing rules into
//!   ([`sort`], [`join`], [`agg`], [`window`]),
//! * logical plans with output-ordering properties ([`plan`]), an optimizer
//!   that pushes predicates into index scans and shares sort orders
//!   ([`optimizer`]), a statistics-driven cost estimator ([`cost`]), a
//!   lowering pass to explicit physical operator trees with
//!   partition-parallel window evaluation ([`physical`]), and an executor
//!   facade with deterministic work counters ([`exec`]),
//! * a SQL subset front end (WITH, select-project-join, GROUP BY, OLAP
//!   windows) sufficient for the paper's benchmark queries ([`sql`]).
//!
//! ## Quick example
//!
//! ```
//! use dc_relational::prelude::*;
//!
//! // Build a tiny reads table.
//! let schema = schema_ref(Schema::new(vec![
//!     Field::new("epc", DataType::Str),
//!     Field::new("rtime", DataType::Int),
//! ]));
//! let batch = Batch::from_rows(schema, &[
//!     vec![Value::str("e1"), Value::Int(10)],
//!     vec![Value::str("e1"), Value::Int(20)],
//! ]).unwrap();
//! let catalog = Catalog::new();
//! catalog.register(Table::new("r", batch));
//!
//! // Run SQL against it.
//! let out = dc_relational::sql::run_sql(
//!     "select epc, count(*) as n from r group by epc", &catalog).unwrap();
//! assert_eq!(out.num_rows(), 1);
//! ```

pub mod agg;
pub mod batch;
pub mod column;
pub mod constraint;
pub mod cost;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod hash;
pub mod index;
pub mod join;
pub mod optimizer;
pub mod persist;
pub mod physical;
pub mod plan;
pub mod scatter;
pub mod schema;
pub mod segment;
pub mod sort;
pub mod sql;
pub mod stats;
pub mod table;
pub mod value;
pub mod window;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::agg::{AggExpr, AggFunc};
    pub use crate::batch::{schema_ref, Batch};
    pub use crate::column::{Column, ColumnBuilder, ColumnData};
    pub use crate::constraint::{
        normalize_conjunct, CmpOp, ConstConstraint, DiffConstraint, Normalized,
    };
    pub use crate::cost::{estimate, Estimate};
    pub use crate::error::{AbortReason, Error, Result};
    pub use crate::exec::{ExecStats, Executor};
    pub use crate::explain::{logical_to_json, physical_to_json};
    pub use crate::expr::{conjoin, disjoin, split_conjuncts, BinaryOp, ColumnRef, Expr};
    pub use crate::hash::{encode_keys, EncodedKeys, HashStats, NullKeys, RawKeyTable};
    pub use crate::join::JoinType;
    pub use crate::optimizer::{optimize, optimize_default, OptimizerConfig};
    pub use crate::persist::{decode_segment_file, encode_segment_file, StrPool};
    pub use crate::physical::{
        display_physical, lower, ExecContext, ExecOptions, MetricsCollector, OperatorMetrics,
        PhysicalOperator, QueryBudget,
    };
    pub use crate::plan::{ordering_satisfies, window_sort_keys, LogicalPlan};
    pub use crate::scatter::{gather, sharding_spec_for, split_scatter, ScatterPlan, ShardingSpec};
    pub use crate::schema::{Field, Schema, SchemaRef};
    pub use crate::sort::SortKey;
    pub use crate::table::{Catalog, CatalogRef, Table};
    pub use crate::value::{DataType, Value};
    pub use crate::window::{Frame, FrameBound, FrameUnits, WindowExpr, WindowFuncKind};
}
