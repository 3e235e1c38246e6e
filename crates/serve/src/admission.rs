//! Bounded admission queue between query producers and scoring workers.
//!
//! Overload policy is *reject at the door*: the queue holds at most
//! `capacity` queries, and a submit against a full queue fails
//! immediately with the query handed back — tail latency for admitted
//! queries stays bounded by queue depth × per-query cost instead of
//! growing without bound. Workers drain with a timed wait so they can
//! periodically re-check for a newer published version (and for
//! shutdown) even when the queue is idle.

use osn_graph::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One admitted query: top-`k` (server-configured) predicted friends of
/// `source` under metric index `metric`, answered on `resp`.
#[derive(Debug)]
pub struct Query {
    /// Index into the server's configured metric list.
    pub metric: u32,
    /// The user being recommended for.
    pub source: NodeId,
    /// Where the worker sends the answer.
    pub resp: Sender<QueryResult>,
}

/// A served answer, stamped with the snapshot version it was computed at.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The version the worker had pinned.
    pub version: u64,
    /// Top-k canonical pairs, best first (evaluator tie-break order).
    pub topk: std::sync::Arc<Vec<(NodeId, NodeId)>>,
    /// Whether the answer came out of the result cache.
    pub cache_hit: bool,
}

/// Cumulative admission counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries accepted into the queue.
    pub accepted: u64,
    /// Queries rejected because the queue was full (backpressure).
    pub rejected: u64,
    /// Current queue depth.
    pub depth: usize,
}

/// The queued queries and the shutdown flag, guarded by one lock: a
/// submit reads the flag and pushes under it, and
/// [`Admission::close`] sets the flag under it. A query is therefore
/// either queued before the close, where a worker still finds it, or
/// rejected.
#[derive(Debug, Default)]
struct Queue {
    items: VecDeque<Query>,
    closed: bool,
}

/// The bounded queue itself.
#[derive(Debug)]
pub struct Admission {
    queue: Mutex<Queue>,
    nonempty: Condvar,
    capacity: usize,
    accepted: AtomicU64,
    rejected: AtomicU64,
}

impl Admission {
    /// Creates a queue admitting at most `capacity` concurrent queries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Admission {
            queue: Mutex::new(Queue::default()),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Queue> {
        match self.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admits `q`, or hands it back when the queue is full or closed.
    pub fn submit(&self, q: Query) -> Result<(), Query> {
        let mut guard = self.locked();
        if guard.closed || guard.items.len() >= self.capacity {
            drop(guard);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(q);
        }
        guard.items.push_back(q);
        drop(guard);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Takes the oldest admitted query, waiting up to `timeout` for one
    /// to arrive. `None` on timeout (callers re-check version / shutdown
    /// state and come back).
    pub fn pop(&self, timeout: Duration) -> Option<Query> {
        let guard = self.locked();
        let (mut guard, _) = match self
            .nonempty
            .wait_timeout_while(guard, timeout, |q| q.items.is_empty() && !q.closed)
        {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.items.pop_front()
    }

    /// Closes the queue: pending queries still drain, new submits are
    /// rejected, and idle workers wake up.
    pub fn close(&self) {
        self.locked().closed = true;
        self.nonempty.notify_all();
    }

    /// True once the queue is closed and empty. Both are read under the
    /// lock every submit holds, so no query can be admitted after this
    /// returns true: a worker that sees it may exit without stranding
    /// one.
    pub fn is_drained(&self) -> bool {
        let guard = self.locked();
        guard.closed && guard.items.is_empty()
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            depth: self.locked().items.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn query(source: NodeId) -> (Query, std::sync::mpsc::Receiver<QueryResult>) {
        let (tx, rx) = channel();
        (Query { metric: 0, source, resp: tx }, rx)
    }

    #[test]
    fn full_queue_rejects_with_backpressure_stats() {
        let a = Admission::new(2);
        let (q1, _r1) = query(1);
        let (q2, _r2) = query(2);
        let (q3, _r3) = query(3);
        assert!(a.submit(q1).is_ok());
        assert!(a.submit(q2).is_ok());
        assert!(a.submit(q3).is_err(), "third submit exceeds capacity");
        let s = a.stats();
        assert_eq!((s.accepted, s.rejected, s.depth), (2, 1, 2));
        assert_eq!(a.pop(Duration::from_millis(1)).map(|q| q.source), Some(1), "FIFO order");
        assert_eq!(a.stats().depth, 1);
    }

    #[test]
    fn pop_times_out_on_empty_and_drains_after_close() {
        let a = Admission::new(1);
        assert!(a.pop(Duration::from_millis(1)).is_none());
        let (q, _r) = query(5);
        a.submit(q).unwrap();
        a.close();
        let (q2, _r2) = query(6);
        assert!(a.submit(q2).is_err(), "closed queue rejects");
        assert!(!a.is_drained(), "a closed queue still holding a query is not drained");
        assert_eq!(a.pop(Duration::from_millis(1)).map(|q| q.source), Some(5), "pending drains");
        assert!(a.pop(Duration::from_millis(1)).is_none());
        assert!(a.is_drained());
    }

    #[test]
    fn submits_racing_close_are_drained_or_rejected() {
        for round in 0..200 {
            let a = Admission::new(1 << 12);
            let (accepted, drained) = std::thread::scope(|scope| {
                let submitters: Vec<_> = (0..3)
                    .map(|t| {
                        let a = &a;
                        scope.spawn(move || {
                            let mut receivers = Vec::new();
                            for i in 0..64 {
                                let (q, r) = query(t * 64 + i);
                                match a.submit(q) {
                                    Ok(()) => receivers.push(r),
                                    Err(_) => break,
                                }
                            }
                            receivers.len()
                        })
                    })
                    .collect();
                // One drain loop, as a worker runs it: pop until the queue
                // is drained, then return.
                let drain = scope.spawn(|| {
                    let mut popped = 0;
                    loop {
                        match a.pop(Duration::from_millis(1)) {
                            Some(_) => popped += 1,
                            None if a.is_drained() => return popped,
                            None => {}
                        }
                    }
                });
                std::thread::yield_now();
                a.close();
                let accepted: usize = submitters.into_iter().map(|h| h.join().unwrap()).sum();
                (accepted, drain.join().unwrap())
            });
            assert_eq!(drained, accepted, "round {round}: an accepted query was stranded");
            assert_eq!(a.stats().accepted as usize, accepted);
        }
    }
}
