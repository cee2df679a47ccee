//! Guard against an O(table) copy on the append path: a durable two-shard
//! ingest of 16-row batches, with the two standing queries of the
//! `ingest_durable` workload maintained after every append and an
//! index-scoped q1 every eighth op, never copies the reads table's segments
//! into one batch (`Table::data` flattens nothing).
//!
//! The flatten counter is process-wide, so this file holds one test.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::table::flatten_count;
use deferred_cleansing::rfidgen::{generate_into, GenConfig};
use deferred_cleansing::service::{
    DurableOptions, QueryRequest, QueryService, ServiceConfig, ShardConfig, SubscribeOptions,
};
use deferred_cleansing::DeferredCleansingSystem;
use std::sync::Arc;

const APP: &str = "rules-3";
const APPEND_ROWS: usize = 16;

#[test]
fn appends_standing_queries_and_an_index_scoped_q1_flatten_nothing() {
    let catalog = Arc::new(Catalog::new());
    let ds = generate_into(&catalog, GenConfig::tiny(2, 10.0, 2006)).unwrap();
    let base = catalog.get("caser").unwrap();
    let system = DeferredCleansingSystem::with_catalog(Arc::clone(&catalog));
    for text in ds.benchmark_rules(3) {
        system.define_rule(APP, &text).unwrap();
    }
    // Suffix batches: consecutive base reads with `rtime` shifted past
    // everything appended before them.
    let data = base.data().clone();
    let rtime = data.schema().index_of_name("rtime").unwrap();
    let horizon = (0..data.num_rows())
        .filter_map(|i| data.column(rtime).value(i).as_int())
        .max()
        .unwrap();
    let suffix = |k: usize| {
        let rows: Vec<Vec<Value>> = (0..APPEND_ROWS)
            .map(|r| {
                let mut row = data.row((k * APPEND_ROWS + r) % data.num_rows());
                if let Value::Int(t) = row[rtime] {
                    row[rtime] = Value::Int(t + (k as i64 + 1) * (horizon + 1));
                }
                row
            })
            .collect();
        Batch::from_rows(data.schema().clone(), &rows).unwrap()
    };

    let dir = std::env::temp_dir().join(format!("dc-append-flattens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = QueryService::start_sharded_durable(
        system,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ShardConfig::new(2, "epc"),
        DurableOptions::new(&dir),
    )
    .unwrap();
    let mid = ds.rtime_quantile(0.5);
    let standing = [
        format!("select epc, rtime, biz_loc from caser where rtime >= {mid}"),
        "select biz_loc, count(*) as n, avg(rtime) as a from caser group by biz_loc".to_string(),
    ];
    let handles: Vec<_> = standing
        .iter()
        .map(|sql| {
            svc.subscribe(APP, sql, SubscribeOptions::default())
                .unwrap()
        })
        .collect();
    assert_eq!(handles[0].mode(), "scoped");
    assert_eq!(handles[1].mode(), "aggregate");
    let q1 = ds.q1(ds.rtime_quantile(0.05));

    let before = flatten_count();
    let (mut appends, mut op) = (0, 0u64);
    while appends < 100 {
        if op % 8 == 7 {
            let resp = svc.execute(QueryRequest::new(APP, &q1)).unwrap();
            assert!(resp.report.stats.index_scans > 0, "q1 is index-scoped");
        } else {
            svc.append("caser", suffix(appends)).unwrap();
            appends += 1;
            for h in &handles {
                while let Ok(Some(_)) = h.try_next() {}
            }
        }
        op += 1;
    }
    assert_eq!(
        flatten_count() - before,
        0,
        "an append path flattened a table"
    );
    let rows: usize = (0..2)
        .map(|s| {
            svc.shard_snapshot(s)
                .catalog
                .get("caser")
                .unwrap()
                .num_rows()
        })
        .sum();
    assert_eq!(rows, base.num_rows() + 100 * APPEND_ROWS);
    drop(handles);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
