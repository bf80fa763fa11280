//! Deterministic solver-fault seam for chaos testing.
//!
//! The fault layer (`tomo-fault`) decides *when* a solve should break;
//! this module is *how*: the caller arms a [`SolveFault`] on the current
//! thread immediately before a solve, and the simplex driver consumes it
//! once the solve is counted and before phase 1, turning it into a typed
//! [`LpError`](crate::LpError) instead of a wrong answer or a panic.
//!
//! The armed slot is thread-local. Monte-Carlo trials run entirely on one
//! worker thread (the `tomo-par` contract), so an armed fault can only
//! fire in the trial that armed it — the injection is deterministic no
//! matter how trials are scheduled across threads. Callers must
//! [`disarm`] in all paths after the solve returns (the simplex consumes
//! the slot when it fires, but an error *before* the seam — e.g. a
//! malformed model — would otherwise leak the fault into the next trial
//! on the same worker).

use std::cell::Cell;

use tomo_obs::LazyCounter;

static FAULT_ITERATION: LazyCounter = LazyCounter::new("lp.simplex.fault.iteration");
static FAULT_SINGULAR: LazyCounter = LazyCounter::new("lp.simplex.fault.singular_basis");

thread_local! {
    static ARMED: Cell<Option<SolveFault>> = const { Cell::new(None) };
}

/// A solver fault to inject into the next solve on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveFault {
    /// The solve reports [`LpError::IterationLimit`](crate::LpError::IterationLimit)
    /// as if the simplex had cycled to exhaustion.
    IterationExhaustion,
    /// The solve reports
    /// [`LpError::SingularBasis`](crate::LpError::SingularBasis) as if
    /// the basis matrix had turned out singular.
    SingularBasis,
}

/// Arms `fault` for the next solve on the current thread, replacing any
/// previously armed fault.
pub fn arm(fault: SolveFault) {
    ARMED.with(|a| a.set(Some(fault)));
}

/// Clears the current thread's armed fault (idempotent). Call after every
/// faulted solve so nothing leaks into the next trial on this worker.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// Consumes and returns the armed fault, if any. Called by the simplex.
pub(crate) fn take() -> Option<SolveFault> {
    let fault = ARMED.with(Cell::take);
    match fault {
        Some(SolveFault::IterationExhaustion) => FAULT_ITERATION.inc(),
        Some(SolveFault::SingularBasis) => FAULT_SINGULAR.inc(),
        None => {}
    }
    fault
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_take_disarm_cycle() {
        assert_eq!(take(), None);
        arm(SolveFault::IterationExhaustion);
        assert_eq!(take(), Some(SolveFault::IterationExhaustion));
        assert_eq!(take(), None, "take consumes");
        arm(SolveFault::SingularBasis);
        disarm();
        assert_eq!(take(), None, "disarm clears");
    }

    #[test]
    fn armed_fault_is_thread_local() {
        arm(SolveFault::IterationExhaustion);
        std::thread::spawn(|| {
            assert_eq!(take(), None, "other threads see nothing");
        })
        .join()
        .unwrap();
        assert_eq!(take(), Some(SolveFault::IterationExhaustion));
    }
}
