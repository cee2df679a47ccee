//! Deadline / row-limit / cancellation behavior of the query service.
//!
//! The contract under test: a tripped budget yields a **typed**
//! [`ServiceError::Aborted`] — never a panic, never partial rows — and an
//! immediate unbudgeted re-run of the same request succeeds with exactly
//! the rows an uncancelled serial run produces.

use deferred_cleansing::core::{AbortReason, QueryBudget};
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::rewrite::Strategy;
use deferred_cleansing::service::{
    DurableOptions, QueryRequest, QueryService, ServiceConfig, ServiceError, ShardConfig,
};
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]))
}

/// A reads table big enough that cleansing does real work.
fn big_system(rows: usize) -> DeferredCleansingSystem {
    let mut rng = StdRng::seed_from_u64(0xDC05_ABCD);
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0u16..200))),
                Value::Int(rng.gen_range(0i64..100_000)),
                Value::str(format!("loc{}", rng.gen_range(0u8..4))),
            ]
        })
        .collect();
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &data).unwrap(),
    ));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    sys
}

fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

const SQL: &str = "select epc, rtime from caser where rtime < 90000";

/// The aggregation and DISTINCT passes check the budget too.
const AGG_SQL: &str = "select biz_loc, count(distinct epc) as tags, max(rtime) as last_seen \
    from caser where rtime < 90000 group by biz_loc order by biz_loc";
const DISTINCT_SQL: &str = "select distinct epc, biz_loc from caser where rtime < 90000";

fn assert_deadline_abort(err: &ServiceError) {
    match err {
        ServiceError::Aborted { reason, service } => {
            assert_eq!(*reason, AbortReason::DeadlineExceeded);
            assert_eq!(service.abort_reason, Some(AbortReason::DeadlineExceeded));
        }
        other => panic!("expected deadline abort, got: {other}"),
    }
}

#[test]
fn zero_deadline_aborts_then_rerun_matches_uncancelled() {
    let svc = QueryService::start(big_system(3000), ServiceConfig::default());

    for (aborted, sql) in [SQL, AGG_SQL, DISTINCT_SQL].into_iter().enumerate() {
        // Deadline anchored at submit time: a zero deadline is already
        // expired when the worker dispatches, so the abort is deterministic.
        let err = svc
            .execute(QueryRequest::new("app", sql).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert_deadline_abort(&err);
        assert_eq!(svc.counters().aborted, aborted as u64 + 1);

        // The immediate re-run without a budget succeeds and matches a
        // fresh serial run on the same (unchanged, epoch-0) data.
        let resp = svc.execute(QueryRequest::new("app", sql)).unwrap();
        let serial = big_system(3000).query("app", sql).unwrap();
        assert_eq!(rows_of(&resp.batch), rows_of(&serial), "{sql}");
        assert_eq!(resp.service.snapshot_epoch, 0);
    }
}

/// Inline queries (`query_as_of`, `explain_analyze`) are counted like
/// queued ones: an expired deadline is an abort carrying its reason, a
/// refused time travel is a failure, a finished run is a completion.
#[test]
fn inline_queries_are_counted_like_queued_ones() {
    let dir = std::env::temp_dir().join(format!("dc-inline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = QueryService::start_sharded_durable(
        big_system(2000),
        ServiceConfig::default(),
        ShardConfig::new(1, "epc"),
        DurableOptions::new(&dir),
    )
    .unwrap();
    let expired = QueryRequest::new("app", SQL).with_deadline(Duration::ZERO);
    assert_deadline_abort(&svc.query_as_of(&expired, 0).unwrap_err());
    assert_deadline_abort(&svc.explain_analyze(&expired).unwrap_err());
    assert!(svc.query_as_of(&QueryRequest::new("app", SQL), 99).is_err());
    svc.query_as_of(&QueryRequest::new("app", SQL), 0).unwrap();
    svc.explain_analyze(&QueryRequest::new("app", SQL)).unwrap();
    let c = svc.counters();
    assert_eq!((c.aborted, c.failed, c.completed), (2, 1, 2));
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn row_limit_aborts_without_partial_rows() {
    let svc = QueryService::start(big_system(2000), ServiceConfig::default());

    let err = svc
        .execute(QueryRequest::new("app", SQL).with_row_limit(5))
        .unwrap_err();
    assert_eq!(err.abort_reason(), Some(AbortReason::RowLimitExceeded));
    // The typed error carries no batch: aborts are partial-result-free by
    // construction. Re-run clean and compare to serial.
    let resp = svc.execute(QueryRequest::new("app", SQL)).unwrap();
    let serial = big_system(2000).query("app", SQL).unwrap();
    assert_eq!(rows_of(&resp.batch), rows_of(&serial));
}

#[test]
fn default_budgets_apply_when_request_sets_none() {
    let sys = big_system(2000);
    let svc = QueryService::start(
        sys,
        ServiceConfig {
            default_row_limit: Some(5),
            ..ServiceConfig::default()
        },
    );
    let err = svc.execute(QueryRequest::new("app", SQL)).unwrap_err();
    assert_eq!(err.abort_reason(), Some(AbortReason::RowLimitExceeded));
    // A per-request budget overrides the default.
    let resp = svc
        .execute(QueryRequest::new("app", SQL).with_row_limit(u64::MAX))
        .unwrap();
    assert!(resp.batch.num_rows() > 5);
}

#[test]
fn cancelled_queued_query_aborts_and_rerun_succeeds() {
    // One worker: occupy it with a slow query so the victim is still
    // queued when the cancel lands — the abort is then deterministic.
    let svc = QueryService::start(
        big_system(4000),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let slow = svc
        .submit(QueryRequest::new("app", SQL).with_strategy(Strategy::JoinBack))
        .unwrap();
    let victim = svc.submit(QueryRequest::new("app", SQL)).unwrap();
    victim.cancel();

    match victim.wait() {
        Err(ServiceError::Aborted { reason, service }) => {
            assert_eq!(reason, AbortReason::Cancelled);
            assert_eq!(service.abort_reason, Some(AbortReason::Cancelled));
        }
        Ok(_) => panic!("cancelled-before-dispatch query must not return rows"),
        Err(other) => panic!("unexpected error: {other}"),
    }
    slow.wait().unwrap();

    // Re-running the cancelled request immediately succeeds and matches.
    let resp = svc.execute(QueryRequest::new("app", SQL)).unwrap();
    let serial = big_system(4000).query("app", SQL).unwrap();
    assert_eq!(rows_of(&resp.batch), rows_of(&serial));
}

#[test]
fn cancel_token_trips_mid_execution() {
    // Drive the engine directly with a pre-tripped token at each budget
    // checkpoint style: pre-set, and set-after-start via a second thread.
    let sys = big_system(4000);
    let cancel = Arc::new(std::sync::atomic::AtomicBool::new(false));
    cancel.store(true, std::sync::atomic::Ordering::Relaxed);
    let budget = QueryBudget::unlimited().with_cancel(Arc::clone(&cancel));
    for sql in [SQL, AGG_SQL, DISTINCT_SQL] {
        let err = sys
            .query_with_budget("app", sql, Strategy::Auto, budget.clone())
            .unwrap_err();
        assert!(matches!(
            err,
            deferred_cleansing::relational::error::Error::Aborted(AbortReason::Cancelled)
        ));
        // The system stays healthy after the abort.
        assert!(sys.query("app", sql).is_ok());
    }
}

#[test]
fn aborts_never_poison_the_cleanse_cache() {
    // Abort a join-back query mid-flight, then verify cached execution
    // still agrees with an uncached system: cache stores only happen after
    // a fully successful cleansing pass, so an abort must leave no torn
    // entries behind.
    let mut sys = big_system(1500);
    sys.enable_cleanse_cache(128);
    let svc = QueryService::start(sys, ServiceConfig::default());

    let _ = svc
        .execute(
            QueryRequest::new("app", SQL)
                .with_strategy(Strategy::JoinBack)
                .with_row_limit(3),
        )
        .unwrap_err();

    let warm = svc
        .execute(QueryRequest::new("app", SQL).with_strategy(Strategy::JoinBack))
        .unwrap();
    let clean = big_system(1500).query("app", SQL).unwrap();
    assert_eq!(rows_of(&warm.batch), rows_of(&clean));
}
