//! Work coalescing: concurrent queries with equal [`FlightKey`]s share one
//! execution — the first dispatcher leads, the rest wait on its in-flight
//! slot and clone the result.

use super::Shared;
use crate::snapshot::EpochVector;
use dc_core::{QueryReport, Strategy};
use dc_relational::batch::Batch;
use std::sync::{Arc, Condvar, Mutex};

/// Identity of an execution whose result is a pure function of service
/// state: two jobs with equal keys must produce byte-identical batches, so
/// their executions may be shared. The key carries the full epoch vector —
/// any shard advancing breaks the match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct FlightKey {
    pub(super) epochs: EpochVector,
    pub(super) rules_version: u64,
    pub(super) application: String,
    pub(super) sql: String,
    pub(super) strategy: Strategy,
}

/// One in-flight shared execution: the leader publishes, followers wait.
pub(super) struct Flight {
    slot: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    /// The leader failed or aborted — never shared; followers re-execute
    /// under their own budgets.
    NotShared,
    Done(Box<(Batch, QueryReport)>),
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        }
    }

    /// Block until the leader publishes; `None` means run it yourself.
    pub(super) fn wait(&self) -> Option<(Batch, QueryReport)> {
        let mut s = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        while matches!(*s, FlightState::Running) {
            s = self.done.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        match &*s {
            FlightState::Done(shared) => Some((**shared).clone()),
            _ => None,
        }
    }

    pub(super) fn publish(&self, result: Option<(Batch, QueryReport)>) {
        let mut s = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *s = match result {
            Some(pair) => FlightState::Done(Box::new(pair)),
            None => FlightState::NotShared,
        };
        self.done.notify_all();
    }
}

pub(super) enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

impl Shared {
    /// Join an identical in-flight execution as a follower, or register a
    /// new one and lead it.
    pub(super) fn join_or_lead(&self, key: &FlightKey) -> Role {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(f) => Role::Follower(Arc::clone(f)),
            None => {
                let f = Arc::new(Flight::new());
                map.insert(key.clone(), Arc::clone(&f));
                Role::Leader(f)
            }
        }
    }

    /// Remove a led flight so later duplicates execute afresh (results are
    /// only shared between *concurrent* queries; nothing is memoized across
    /// time).
    pub(super) fn release(&self, key: &FlightKey) {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }
}

#[cfg(test)]
mod tests {
    use crate::service::tests::{row, system};
    use crate::{QueryRequest, QueryService, ServiceConfig};
    use dc_relational::value::Value;

    #[test]
    fn concurrent_duplicates_coalesce_and_match() {
        let rows: Vec<Vec<Value>> = (0..512)
            .map(|i| {
                row(
                    &format!("e{}", i % 64),
                    i,
                    if i % 2 == 0 { "shelf" } else { "dock" },
                )
            })
            .collect();
        let svc = QueryService::start(
            system(&rows),
            ServiceConfig {
                workers: 4,
                queue_capacity: 32,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..16)
            .map(|_| {
                svc.submit(QueryRequest::new("app", "select epc, rtime from caser"))
                    .unwrap()
            })
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // Coalesced or not, every reply is byte-identical.
        let expected = responses[0].batch.sorted_rows();
        for r in &responses {
            assert_eq!(r.batch.sorted_rows(), expected);
        }
        // With 4 workers draining 16 identical queued jobs, some must have
        // overlapped with a leader's execution.
        assert!(
            svc.counters().coalesced > 0,
            "expected at least one coalesced reply: {:?}",
            svc.counters()
        );
        assert!(responses.iter().any(|r| r.service.coalesced));
    }
}
