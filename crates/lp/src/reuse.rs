//! Per-thread reuse of solver buffers.
//!
//! A dropped [`LpProblem`](crate::LpProblem) hands its term store, and a
//! dropped dense tableau its basis, pivot scratch and (if it was one
//! block) its block, to a thread-local slot; the thread's next problem
//! or dense solve starts from them, so a worker that solves one small LP
//! after another allocates almost nothing once warm. A buffer is kept
//! only while it holds at most [`KEEP_BYTES`], so what a thread keeps
//! stays small.

use std::cell::Cell;
use std::thread::LocalKey;

/// Bytes one kept buffer may hold at most: 16,000 `f64`, under glibc's
/// default 128 KiB mmap threshold.
pub(crate) const KEEP_BYTES: usize = 128_000;

/// A thread-local slot for one kind of spare buffers.
pub(crate) type Slot<T> = LocalKey<Cell<Option<T>>>;

/// `v`, emptied, if a thread may keep it; an unallocated vector otherwise.
pub(crate) fn kept<T>(mut v: Vec<T>) -> Vec<T> {
    if v.capacity() * std::mem::size_of::<T>() > KEEP_BYTES {
        return Vec::new();
    }
    v.clear();
    v
}

/// Takes this thread's spare from `slot`, or a default one.
pub(crate) fn take<T: Default>(slot: &'static Slot<T>) -> T {
    slot.try_with(Cell::take).ok().flatten().unwrap_or_default()
}

/// Leaves `spare` in `slot` for this thread's next use. During thread
/// teardown the slot is gone and `spare` is simply freed.
pub(crate) fn put<T>(slot: &'static Slot<T>, spare: T) {
    let _ = slot.try_with(|s| s.set(Some(spare)));
}
