//! SQL front end: lexer, parser, and planner for the subset used by the
//! paper's workloads (WITH, select-project-join, GROUP BY, OLAP windows).

pub mod ast;
pub mod display;
pub mod lexer;
pub mod parser;
pub mod planner;

use crate::batch::Batch;
use crate::error::Result;
use crate::exec::Executor;
use crate::optimizer::optimize_default;
use crate::plan::LogicalPlan;
use crate::table::Catalog;

pub use parser::{parse_expr, parse_query};
pub use planner::{plan_query, to_scalar_expr};

/// Parse and plan SQL, returning the optimized logical plan.
pub fn plan_sql(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    let query = parse_query(sql)?;
    let plan = plan_query(&query, catalog)?;
    Ok(optimize_default(plan, catalog))
}

/// Parse, plan, optimize, and execute SQL.
pub fn run_sql(sql: &str, catalog: &Catalog) -> Result<Batch> {
    let plan = plan_sql(sql, catalog)?;
    Executor::new(catalog).execute(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    #[test]
    fn run_sql_end_to_end() {
        let cat = Catalog::new();
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::str(format!("e{}", i % 2)), Value::Int(i)])
            .collect();
        let mut t = Table::new("r", Batch::from_rows(schema, &rows).unwrap());
        t.create_index("rtime").unwrap();
        cat.register(t);

        let plan = plan_sql(
            "select epc, count(*) as n from r where rtime < 4 group by epc",
            &cat,
        )
        .unwrap();
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        // Pushdown + index: only 4 rows fetched.
        assert_eq!(ex.stats.rows_scanned, 4);
    }
}
