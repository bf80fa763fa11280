//! The bounded ingest queue between connection handlers and the apply
//! worker.
//!
//! The daemon never buffers without bound: when the queue is at capacity,
//! `try_push` fails *immediately* and the connection handler turns that
//! into an explicit `Reject(QueueFull)` with a retry hint — backpressure
//! the client can see, instead of latency it can only suffer. The hint is
//! **adaptive**: it scales with current occupancy, so a briefly-full
//! queue tells clients to come back soon while a saturated one spreads
//! them out.
//!
//! [`IngestQueue`] is one FIFO behind one mutex and one condvar. Every
//! push and pop takes that one lock, so the apply worker sees each
//! connection's batches in the order the connection sent them, and a
//! push either lands before [`IngestQueue::close`] (and is drained) or
//! is refused.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tomo_obs::{LazyCounter, LazyGauge};

static DEPTH: LazyGauge = LazyGauge::new("serve.queue.depth");
static REJECTS: LazyCounter = LazyCounter::new("serve.queue.rejects");

/// The error returned when the queue is at capacity (or closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Suggested client backoff before retrying, in milliseconds.
    /// Derived from occupancy at reject time, not a fixed constant.
    pub retry_after_ms: u32,
}

/// Scales the base retry hint by occupancy: a queue rejecting while
/// near-empty (only possible once closed) hints a quick retry; a
/// saturated queue hints the full base backoff. Always at least 1 ms so
/// clients never spin.
fn adaptive_retry_ms(base: u32, depth: usize, capacity: usize) -> u32 {
    let occupancy = if capacity == 0 {
        1.0
    } else {
        (depth as f64 / capacity as f64).clamp(0.0, 1.0)
    };
    let scaled = (f64::from(base) * (0.25 + 0.75 * occupancy)).ceil();
    (scaled as u32).max(1)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A point-in-time view of the queue, for `/stats` and the load sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Items currently queued.
    pub depth: usize,
    /// Items ever admitted.
    pub pushed: u64,
    /// Pushes refused at capacity or after close.
    pub rejects: u64,
}

/// What one [`IngestQueue::pop`] returned.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing arrived within the timeout; the queue is still open.
    Empty,
    /// The queue is closed and drained: nothing will ever arrive.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    pushed: u64,
    rejects: u64,
}

/// A bounded multi-producer FIFO with a blocking, closable pop.
pub struct IngestQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    base_retry_ms: u32,
}

impl<T> IngestQueue<T> {
    /// Creates a queue holding at most `capacity` items whose rejects
    /// hint an occupancy-scaled fraction of `base_retry_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, base_retry_ms: u32) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        IngestQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                pushed: 0,
                rejects: 0,
            }),
            ready: Condvar::new(),
            capacity,
            base_retry_ms,
        }
    }

    /// Enqueues `item`, or fails immediately when the queue is at
    /// capacity or closed.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] with an adaptive retry hint (scaled by
    /// occupancy at reject time). The item is dropped.
    pub fn try_push(&self, item: T) -> Result<(), QueueFull> {
        let mut state = lock(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            state.rejects += 1;
            let depth = state.items.len();
            drop(state);
            REJECTS.inc();
            return Err(QueueFull {
                retry_after_ms: adaptive_retry_ms(self.base_retry_ms, depth, self.capacity),
            });
        }
        state.items.push_back(item);
        state.pushed += 1;
        DEPTH.set(state.items.len() as f64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, waiting up to `timeout` for one.
    pub fn pop(&self, timeout: Duration) -> Pop<T> {
        let (mut state, _) = self
            .ready
            .wait_timeout_while(lock(&self.state), timeout, |s| {
                s.items.is_empty() && !s.closed
            })
            .unwrap_or_else(PoisonError::into_inner);
        match state.items.pop_front() {
            Some(item) => {
                DEPTH.set(state.items.len() as f64);
                Pop::Item(item)
            }
            None if state.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Items currently queued.
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// Depth, admitted and refused counts, read under one lock.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let state = lock(&self.state);
        QueueStats {
            depth: state.items.len(),
            pushed: state.pushed,
            rejects: state.rejects,
        }
    }

    /// Closes the queue: pushes start failing, and `pop` drains what
    /// remains before it returns [`Pop::Closed`].
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(1);

    #[test]
    fn adaptive_hint_scales_with_occupancy() {
        // Full queue hints the whole base; a near-empty one hints a
        // quarter of it (floor 1 ms).
        assert_eq!(adaptive_retry_ms(100, 100, 100), 100);
        assert_eq!(adaptive_retry_ms(100, 0, 100), 25);
        assert_eq!(adaptive_retry_ms(100, 50, 100), 63);
        assert_eq!(adaptive_retry_ms(1, 0, 100), 1);
    }

    #[test]
    fn pops_in_push_order() {
        let q = IngestQueue::new(8, 10);
        for v in [20, 1, 2, 10, 21, 11] {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.depth(), 6);
        let mut order = Vec::new();
        while let Pop::Item(v) = q.pop(TICK) {
            order.push(v);
        }
        assert_eq!(order, vec![20, 1, 2, 10, 21, 11]);
        assert_eq!(q.pop(TICK), Pop::Empty, "open and empty is not closed");
    }

    #[test]
    fn rejects_at_capacity_with_the_adaptive_hint() {
        let q = IngestQueue::new(2, 40);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let err = q.try_push(3).unwrap_err();
        assert_eq!(err.retry_after_ms, adaptive_retry_ms(40, 2, 2));
        assert_eq!(err.retry_after_ms, 40, "a full queue hints the whole base");
        assert_eq!(
            q.stats(),
            QueueStats {
                depth: 2,
                pushed: 2,
                rejects: 1
            }
        );
        // Draining one slot readmits.
        assert_eq!(q.pop(TICK), Pop::Item(1));
        q.try_push(3).unwrap();
        assert_eq!(q.stats().pushed, 3);
    }

    #[test]
    fn push_after_close_is_refused() {
        let q = IngestQueue::new(4, 40);
        q.close();
        let err = q.try_push(1).unwrap_err();
        assert_eq!(err.retry_after_ms, adaptive_retry_ms(40, 0, 4));
        assert_eq!(q.stats().rejects, 1);
        assert_eq!(q.depth(), 0, "the refused item was dropped");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngestQueue::new(8, 10);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop(TICK), Pop::Item(1));
        assert_eq!(q.pop(TICK), Pop::Item(2));
        assert_eq!(q.pop(TICK), Pop::Closed);
        assert_eq!(q.pop(TICK), Pop::Closed, "closed stays closed");
    }

    #[test]
    fn cross_thread_handoff_keeps_each_producers_order() {
        let q = Arc::new(IngestQueue::new(16, 10));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        while q.try_push(p * 1000 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.pop(Duration::from_secs(5)) {
                        Pop::Item(v) => got.push(v),
                        Pop::Empty => {}
                        Pop::Closed => return got,
                    }
                }
            })
        };
        for t in producers {
            t.join().unwrap();
        }
        // Closing ends the consumer once it has drained everything.
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 200);
        for p in 0..4u32 {
            let mine: Vec<u32> = got.iter().copied().filter(|v| v / 1000 == p).collect();
            assert_eq!(mine, (0..50u32).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
        assert_eq!(q.stats().pushed, 200);
    }
}
