//! Bounded MPSC hand-offs between connection handlers and the apply
//! worker.
//!
//! The daemon never buffers without bound: when a queue is at capacity,
//! `try_push` fails *immediately* and the connection handler turns that
//! into an explicit `Reject(QueueFull)` with a retry hint —
//! backpressure the client can see, instead of latency it can only
//! suffer. The hint is **adaptive**: it scales with current occupancy,
//! so a briefly-full queue tells clients to come back soon while a
//! saturated one spreads them out.
//!
//! [`ShardedQueue`] partitions capacity into per-path-group shards —
//! producers hash their path group to a shard and only contend with
//! producers on the same shard — drained by the single apply worker in
//! **deterministic round-robin** order so the applied-batch sequence
//! (and hence the journal and every artifact) does not depend on which
//! producer thread won a lock race.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The error returned when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Suggested client backoff before retrying, in milliseconds.
    /// Derived from occupancy at reject time, not a fixed constant.
    pub retry_after_ms: u32,
}

/// Scales the base retry hint by occupancy: a queue rejecting while the
/// system as a whole is near-empty (one hot shard) hints a quick retry;
/// a saturated system hints the full base backoff. Always at least 1 ms
/// so clients never spin.
fn adaptive_retry_ms(base: u32, depth: usize, capacity: usize) -> u32 {
    let occupancy = if capacity == 0 {
        1.0
    } else {
        (depth as f64 / capacity as f64).clamp(0.0, 1.0)
    };
    let scaled = (f64::from(base) * (0.25 + 0.75 * occupancy)).ceil();
    (scaled as u32).max(1)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A point-in-time view of one shard, for `/stats` and the load sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Items currently queued in this shard.
    pub depth: usize,
    /// Items ever admitted to this shard.
    pub pushed: u64,
    /// Pushes refused at capacity.
    pub rejects: u64,
}

struct Shard<T> {
    items: Mutex<VecDeque<T>>,
    pushed: AtomicU64,
    rejects: AtomicU64,
    depth_gauge: &'static tomo_obs::Gauge,
    reject_counter: &'static tomo_obs::Counter,
}

struct Doorbell {
    /// Items queued across all shards and not yet popped.
    pending: u64,
    closed: bool,
}

/// A bounded multi-producer single-consumer queue partitioned into
/// per-path-group shards.
///
/// Producers hash their batch's path group to a shard
/// ([`ShardedQueue::shard_for`]) and push under that shard's mutex
/// only, so clients covering different path groups never contend. A
/// shared *doorbell* (count + condvar) wakes the single consumer, which
/// drains shards in round-robin order starting from a cursor — a
/// deterministic merge, so which shard a batch landed in never changes
/// the applied sequence's dependence on batch *content* (and the engine
/// is order-independent anyway; see `engine.rs`).
///
/// Capacity is split evenly: each shard holds at most
/// `ceil(total / shards)` items, and rejects carry an adaptive retry
/// hint scaled by **total** occupancy — one hot shard in an otherwise
/// idle daemon hints a fast retry.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    doorbell: Mutex<Doorbell>,
    bell: Condvar,
    per_shard_capacity: usize,
    base_retry_ms: u32,
    /// Round-robin scan start; owned by the single consumer.
    cursor: AtomicUsize,
}

impl<T> ShardedQueue<T> {
    /// Creates a queue with `shards` shards sharing `total_capacity`
    /// items (split as `ceil(total/shards)` each) whose rejects hint an
    /// occupancy-scaled fraction of `base_retry_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `total_capacity` or `shards` is zero.
    #[must_use]
    pub fn new(total_capacity: usize, shards: usize, base_retry_ms: u32) -> Arc<Self> {
        assert!(total_capacity > 0, "queue capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let per_shard_capacity = total_capacity.div_ceil(shards);
        let shards = (0..shards)
            .map(|i| Shard {
                items: Mutex::new(VecDeque::with_capacity(per_shard_capacity)),
                pushed: AtomicU64::new(0),
                rejects: AtomicU64::new(0),
                depth_gauge: tomo_obs::indexed_gauge("serve.queue.shard_depth", i),
                reject_counter: tomo_obs::indexed_counter("serve.queue.shard_rejects", i),
            })
            .collect();
        Arc::new(ShardedQueue {
            shards,
            doorbell: Mutex::new(Doorbell {
                pending: 0,
                closed: false,
            }),
            bell: Condvar::new(),
            per_shard_capacity,
            base_retry_ms,
            cursor: AtomicUsize::new(0),
        })
    }

    /// Maps a path-group key (e.g. a batch's smallest path id) to its
    /// shard, via FNV-1a so adjacent groups spread across shards.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> usize {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in key.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Enqueues `item` on `shard`, or fails immediately when that shard
    /// is at capacity or the queue is closed.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] with an adaptive retry hint (scaled by
    /// total occupancy at reject time). The item is dropped in the
    /// closed case, which only happens during shutdown.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn try_push(&self, shard: usize, item: T) -> Result<(), QueueFull> {
        let s = &self.shards[shard];
        {
            // The closed check, the push, and the pending increment are
            // one atomic step under shard-then-doorbell nesting (the
            // consumer never holds the doorbell while taking a shard
            // lock, so this order cannot deadlock). Checking `closed`
            // before taking the shard lock would leave a window where
            // close() lands in between and the consumer exits after
            // draining pending to zero — the item would be enqueued and
            // acknowledged by Ok(()) but never consumed, stranding the
            // client until its ack timeout.
            let mut items = lock(&s.items);
            let mut bell = lock(&self.doorbell);
            if bell.closed || items.len() >= self.per_shard_capacity {
                drop(bell);
                drop(items);
                s.rejects.fetch_add(1, Ordering::Relaxed);
                s.reject_counter.inc();
                return Err(QueueFull {
                    retry_after_ms: adaptive_retry_ms(
                        self.base_retry_ms,
                        self.depth(),
                        self.per_shard_capacity * self.shards.len(),
                    ),
                });
            }
            items.push_back(item);
            s.pushed.fetch_add(1, Ordering::Relaxed);
            s.depth_gauge.set(items.len() as f64);
            bell.pending += 1;
        }
        self.bell.notify_one();
        Ok(())
    }

    /// Dequeues the next item in round-robin shard order, waiting up to
    /// `timeout`. Returns the shard it came from alongside the item.
    ///
    /// Returns `None` on timeout, or when the queue is closed *and*
    /// drained — the consumer's signal to exit. Single-consumer only:
    /// the round-robin cursor is not synchronized between consumers.
    pub fn pop_next(&self, timeout: Duration) -> Option<(usize, T)> {
        let mut bell = lock(&self.doorbell);
        loop {
            if bell.pending > 0 {
                bell.pending -= 1;
                drop(bell);
                return Some(self.take_round_robin());
            }
            if bell.closed {
                return None;
            }
            let (guard, result) = self
                .bell
                .wait_timeout(bell, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            bell = guard;
            if result.timed_out() {
                if bell.pending > 0 {
                    bell.pending -= 1;
                    drop(bell);
                    return Some(self.take_round_robin());
                }
                return None;
            }
        }
    }

    /// Pops from the first non-empty shard at/after the cursor. Only
    /// called when the doorbell guaranteed at least one queued item,
    /// and only items the single consumer hasn't taken yet — so a full
    /// scan always finds one.
    fn take_round_robin(&self) -> (usize, T) {
        let n = self.shards.len();
        let start = self.cursor.load(Ordering::Relaxed);
        for offset in 0..n {
            let idx = (start + offset) % n;
            let mut items = lock(&self.shards[idx].items);
            if let Some(item) = items.pop_front() {
                self.shards[idx].depth_gauge.set(items.len() as f64);
                drop(items);
                self.cursor.store((idx + 1) % n, Ordering::Relaxed);
                return (idx, item);
            }
        }
        unreachable!("doorbell said an item was pending but every shard was empty");
    }

    /// Total queued items across all shards.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.items).len()).sum()
    }

    /// Per-shard depth / pushed / reject counts.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                depth: lock(&s.items).len(),
                pushed: s.pushed.load(Ordering::Relaxed),
                rejects: s.rejects.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Closes the queue: pushes start failing, and the consumer drains
    /// what remains before `pop_next` returns `None`.
    pub fn close(&self) {
        lock(&self.doorbell).closed = true;
        self.bell.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_hint_scales_with_occupancy() {
        // Full queue hints the whole base; a near-empty system hints a
        // quarter of it (floor 1 ms).
        assert_eq!(adaptive_retry_ms(100, 100, 100), 100);
        assert_eq!(adaptive_retry_ms(100, 0, 100), 25);
        assert_eq!(adaptive_retry_ms(100, 50, 100), 63);
        assert_eq!(adaptive_retry_ms(1, 0, 100), 1);
    }

    #[test]
    fn sharded_round_robin_merge_is_deterministic() {
        let q = ShardedQueue::new(12, 3, 10);
        // Interleave pushes across shards in a scrambled order.
        for (shard, v) in [(2, 20), (0, 1), (0, 2), (1, 10), (2, 21), (1, 11)] {
            q.try_push(shard, v).unwrap();
        }
        assert_eq!(q.depth(), 6);
        let mut order = Vec::new();
        while let Some((shard, v)) = q.pop_next(Duration::from_millis(1)) {
            order.push((shard, v));
        }
        // Cursor starts at 0: scan finds 0,1,2,0,1,2 — FIFO per shard.
        assert_eq!(
            order,
            vec![(0, 1), (1, 10), (2, 20), (0, 2), (1, 11), (2, 21)]
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn sharded_rejects_only_the_full_shard() {
        let q = ShardedQueue::new(4, 2, 40); // 2 per shard
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        let err = q.try_push(0, 3).unwrap_err();
        // Half the total capacity is occupied: hint is scaled down.
        assert_eq!(err.retry_after_ms, adaptive_retry_ms(40, 2, 4));
        assert!(err.retry_after_ms < 40);
        // The other shard still admits.
        q.try_push(1, 9).unwrap();
        let stats = q.shard_stats();
        assert_eq!(stats[0].rejects, 1);
        assert_eq!(stats[0].pushed, 2);
        assert_eq!(stats[1].rejects, 0);
        assert_eq!(stats[1].depth, 1);
        // Draining one slot of the full shard readmits.
        assert_eq!(q.pop_next(Duration::from_millis(10)), Some((0, 1)));
        q.try_push(0, 3).unwrap();
    }

    #[test]
    fn sharded_close_drains_then_ends() {
        let q = ShardedQueue::new(8, 2, 10);
        q.try_push(0, 1).unwrap();
        q.try_push(1, 2).unwrap();
        q.close();
        assert!(q.try_push(0, 3).is_err(), "closed queue refuses pushes");
        assert_eq!(q.pop_next(Duration::from_millis(10)), Some((0, 1)));
        assert_eq!(q.pop_next(Duration::from_millis(10)), Some((1, 2)));
        assert_eq!(q.pop_next(Duration::from_millis(10)), None);
    }

    #[test]
    fn shard_for_is_stable_and_in_range() {
        let q: Arc<ShardedQueue<u32>> = ShardedQueue::new(8, 4, 10);
        for key in 0..64u64 {
            let s = q.shard_for(key);
            assert!(s < 4);
            assert_eq!(s, q.shard_for(key), "same key, same shard");
        }
        // FNV spreads consecutive keys over more than one shard.
        let distinct: std::collections::BTreeSet<usize> =
            (0..64u64).map(|k| q.shard_for(k)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn sharded_cross_thread_handoff_delivers_everything() {
        let q = ShardedQueue::new(16, 4, 10);
        let mut producers = Vec::new();
        for p in 0..4u32 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let v = p * 1000 + i;
                    let shard = q.shard_for(u64::from(p));
                    while q.try_push(shard, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((_, v)) = q.pop_next(Duration::from_secs(5)) {
                    got.push(v);
                }
                got
            })
        };
        for t in producers {
            t.join().unwrap();
        }
        // Closing from this thread ends the consumer once it has drained
        // everything.
        q.close();
        let got = consumer.join().unwrap();
        // Each producer pushes to one shard, so its items arrive in the
        // order it pushed them.
        for p in 0..4u32 {
            let mine: Vec<u32> = got.iter().copied().filter(|v| v / 1000 == p).collect();
            assert_eq!(mine, (0..50u32).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
        assert_eq!(got.len(), 200);
        let stats = q.shard_stats();
        assert_eq!(stats.iter().map(|s| s.pushed).sum::<u64>(), 200);
    }
}
