//! Edge-case coverage for the SQL front end and executor against small,
//! hand-checkable inputs — the behaviours a DBMS user would trip over first.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::sql::{parse_query, run_sql};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]));
    let rows = vec![
        vec![Value::str("e1"), Value::Int(10), Value::str("a")],
        vec![Value::str("e1"), Value::Int(20), Value::Null],
        vec![Value::str("e2"), Value::Int(30), Value::str("b")],
        vec![Value::str("e3"), Value::Int(40), Value::str("a")],
    ];
    let mut t = Table::new("r", Batch::from_rows(schema, &rows).unwrap());
    t.create_index("rtime").unwrap();
    catalog.register(t);
    catalog
}

#[test]
fn null_location_never_matches_equality_or_inequality() {
    let cat = catalog();
    let eq = run_sql("select epc from r where biz_loc = 'a'", &cat).unwrap();
    assert_eq!(eq.num_rows(), 2);
    let ne = run_sql("select epc from r where biz_loc != 'a'", &cat).unwrap();
    assert_eq!(ne.num_rows(), 1); // the NULL row matches neither
    let isnull = run_sql("select epc from r where biz_loc is null", &cat).unwrap();
    assert_eq!(isnull.num_rows(), 1);
}

#[test]
fn between_and_not_between() {
    let cat = catalog();
    let b = run_sql("select epc from r where rtime between 15 and 35", &cat).unwrap();
    assert_eq!(b.num_rows(), 2);
    let nb = run_sql("select epc from r where rtime not between 15 and 35", &cat).unwrap();
    assert_eq!(nb.num_rows(), 2);
}

#[test]
fn contradictory_ranges_on_an_indexed_column_select_nothing() {
    let cat = catalog();
    for sql in [
        "select epc from r where rtime > 30 and rtime < 20",
        "select epc from r where rtime > 20 and rtime < 20",
        "select epc from r where rtime >= 20 and rtime < 20",
    ] {
        assert_eq!(run_sql(sql, &cat).unwrap().num_rows(), 0, "{sql}");
    }
    let point = run_sql("select epc from r where rtime >= 20 and rtime <= 20", &cat).unwrap();
    assert_eq!(point.num_rows(), 1);
}

#[test]
fn empty_result_aggregates() {
    let cat = catalog();
    let out = run_sql(
        "select count(*) as n, max(rtime) as mx, avg(rtime) as a from r where rtime > 999",
        &cat,
    )
    .unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.row(0)[0], Value::Int(0));
    assert_eq!(out.row(0)[1], Value::Null);
    assert_eq!(out.row(0)[2], Value::Null);
}

#[test]
fn group_by_with_empty_input_yields_no_groups() {
    let cat = catalog();
    let out = run_sql(
        "select epc, count(*) as n from r where rtime > 999 group by epc",
        &cat,
    )
    .unwrap();
    assert_eq!(out.num_rows(), 0);
}

#[test]
fn order_by_desc_with_limit() {
    let cat = catalog();
    let out = run_sql("select rtime from r order by rtime desc limit 2", &cat).unwrap();
    assert_eq!(out.row(0)[0], Value::Int(40));
    assert_eq!(out.row(1)[0], Value::Int(30));
}

#[test]
fn limit_zero_and_oversized() {
    let cat = catalog();
    assert_eq!(
        run_sql("select * from r limit 0", &cat).unwrap().num_rows(),
        0
    );
    assert_eq!(
        run_sql("select * from r limit 999", &cat)
            .unwrap()
            .num_rows(),
        4
    );
}

#[test]
fn distinct_respects_nulls() {
    let cat = catalog();
    let out = run_sql("select distinct biz_loc from r", &cat).unwrap();
    assert_eq!(out.num_rows(), 3); // 'a', NULL, 'b'
}

#[test]
fn nested_ctes() {
    let cat = catalog();
    let out = run_sql(
        "with a as (select epc, rtime from r where rtime >= 20), \
              b as (select epc from a where rtime <= 30) \
         select count(*) as n from b",
        &cat,
    )
    .unwrap();
    assert_eq!(out.row(0)[0], Value::Int(2));
}

#[test]
fn window_default_frame_is_running() {
    // With ORDER BY and no frame, the default frame is UNBOUNDED PRECEDING
    // .. CURRENT ROW: a running aggregate.
    let cat = catalog();
    let out = run_sql(
        "select epc, rtime, sum(rtime) over (order by rtime) as running from r",
        &cat,
    )
    .unwrap();
    let running = out.column_by_name("running").unwrap();
    assert_eq!(running.int_at(0), Some(10));
    assert_eq!(running.int_at(3), Some(100));
}

#[test]
fn two_windows_one_partition_share_one_node() {
    let cat = catalog();
    let plan = deferred_cleansing::relational::sql::plan_sql(
        "select max(rtime) over (partition by epc order by rtime) as a, \
                min(rtime) over (partition by epc order by rtime) as b from r",
        &cat,
    )
    .unwrap();
    let rendered = plan.display_indent();
    assert_eq!(rendered.matches("Window").count(), 1, "{rendered}");
}

#[test]
fn division_produces_double_and_div_by_zero_is_null() {
    let cat = catalog();
    let out = run_sql(
        "select rtime / 4 as q, rtime / 0 as z from r where rtime = 10",
        &cat,
    )
    .unwrap();
    assert_eq!(out.row(0)[0], Value::Double(2.5));
    assert_eq!(out.row(0)[1], Value::Null);
}

#[test]
fn string_comparison_and_in_list() {
    let cat = catalog();
    let out = run_sql("select epc from r where epc > 'e1'", &cat).unwrap();
    assert_eq!(out.num_rows(), 2);
    let out = run_sql("select epc from r where epc in ('e1', 'e3')", &cat).unwrap();
    assert_eq!(out.num_rows(), 3);
    let out = run_sql("select epc from r where epc not in ('e1', 'e3')", &cat).unwrap();
    assert_eq!(out.num_rows(), 1);
}

#[test]
fn case_insensitive_keywords_and_identifiers() {
    let cat = catalog();
    let out = run_sql("SELECT EPC FROM R WHERE RTIME < 25 ORDER BY RTIME", &cat).unwrap();
    assert_eq!(out.num_rows(), 2);
}

#[test]
fn useful_parse_and_plan_errors() {
    let cat = catalog();
    let err = run_sql("select epc from r where", &cat).unwrap_err();
    assert_eq!(err.kind(), "parse");
    let err = run_sql("select nosuch from r", &cat).unwrap_err();
    assert!(err.to_string().contains("nosuch"));
    let err = run_sql("select epc from missing_table", &cat).unwrap_err();
    assert!(err.to_string().contains("missing_table"));
    // Ambiguity across a self-join must be reported, not guessed.
    let err = run_sql("select epc from r a, r b where a.rtime = b.rtime", &cat).unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn parse_query_roundtrips_quoted_strings() {
    let q = parse_query("select epc from r where biz_loc = 'it''s here'").unwrap();
    assert!(format!("{:?}", q).contains("it's here"));
}

#[test]
fn aggregate_of_expression_and_alias_reference() {
    let cat = catalog();
    let out = run_sql(
        "select epc, sum(rtime * 2) as double_total from r group by epc order by epc",
        &cat,
    )
    .unwrap();
    assert_eq!(out.row(0)[1], Value::Int(60)); // e1: (10+20)*2
}
