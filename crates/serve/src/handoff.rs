//! Spin-then-park thread handoff, shared by the client → shard command
//! queue ([`crate::shard::ShardQueue`]) and the shard → client one-shot
//! cell ([`OneShot`]).
//!
//! Waking a parked thread costs a futex wake on the sender and a
//! scheduler wake-up, often on another CPU, on the receiver — several µs
//! each way, more than a depth-1 request spends in the engine. So a
//! receiver first polls an atomic hint for at most [`SPIN_BUDGET`] and
//! parks on its condvar only after that; a sender notifies only when the
//! receiver recorded, under the lock, that it parked. Spinning is bounded
//! because a peer that stays busy longer (a WAL sync, a GC step, an idle
//! client) must not cost a CPU for as long as it takes, and it is skipped
//! on a one-CPU host, where the peer cannot run while we spin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long a receiver polls before it parks. Longer than a depth-1
/// request's engine time on the serving path (a few µs to a few tens of
/// µs), short enough that an idle shard or client gives its CPU back
/// almost at once.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Whether spinning can pay off: it needs a second CPU for the peer.
/// A property of the host, read once.
fn spin_allowed() -> bool {
    static ALLOWED: OnceLock<bool> = OnceLock::new();
    *ALLOWED.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Poll `ready` for at most [`SPIN_BUDGET`] (not at all on one CPU),
/// yielding the CPU between batches of polls; returns whether it became
/// true.
pub(crate) fn spin_until(ready: impl Fn() -> bool) -> bool {
    if !spin_allowed() {
        return ready();
    }
    let start = Instant::now();
    loop {
        // Read the clock once per batch of polls, not per poll.
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_BUDGET {
            return ready();
        }
        // With more runnable threads than CPUs (several shards, many
        // clients, the engine's pool) the peer may be waiting for this
        // CPU: offer it between batches. With a CPU each it returns at
        // once.
        std::thread::yield_now();
    }
}

/// One-shot cell: one thread fills it once, another takes the value,
/// spinning briefly before it parks. Carries request completions and
/// control-command replies.
#[derive(Debug)]
pub(crate) struct OneShot<T> {
    /// Set once the value is in; a hint that lets `take` spin and
    /// `try_take` skip the lock. The value itself moves under `state`.
    filled: AtomicBool,
    state: Mutex<CellState<T>>,
    cv: Condvar,
}

#[derive(Debug)]
struct CellState<T> {
    value: Option<T>,
    /// The taker is (or is about to be) waiting on the condvar.
    parked: bool,
}

const POISONED: &str = "one-shot cell lock poisoned by a panicking thread";

impl<T> OneShot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            filled: AtomicBool::new(false),
            state: Mutex::new(CellState { value: None, parked: false }),
            cv: Condvar::new(),
        })
    }

    /// Fill the cell, waking the taker only if it parked. Filling twice
    /// is a bug.
    pub(crate) fn fill(&self, value: T) {
        let mut s = self.state.lock().expect(POISONED);
        debug_assert!(s.value.is_none(), "one-shot cell filled twice");
        s.value = Some(value);
        // Release pairs with the Acquire loads in `take`/`try_take`.
        self.filled.store(true, Ordering::Release);
        let parked = s.parked;
        drop(s);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Block until the cell is filled and take the value.
    pub(crate) fn take(&self) -> T {
        spin_until(|| self.filled.load(Ordering::Acquire));
        let mut s = self.state.lock().expect(POISONED);
        loop {
            if let Some(v) = s.value.take() {
                return v;
            }
            // Set under the lock `fill` takes, so a fill either sees it
            // and notifies, or ran before and left the value above.
            s.parked = true;
            s = self.cv.wait(s).expect(POISONED);
        }
    }

    /// Non-blocking probe: take the value if it is already there.
    pub(crate) fn try_take(&self) -> Option<T> {
        if !self.filled.load(Ordering::Acquire) {
            return None;
        }
        self.state.lock().expect(POISONED).value.take()
    }

    /// Whether a taker has parked (tests force the park path with it).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> bool {
        self.state.lock().expect(POISONED).parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fill that lands after the taker parked must wake it: the park
    /// path, not the spin, delivers the value.
    #[test]
    fn fill_after_the_taker_parked_wakes_it() {
        let cell = OneShot::new();
        let taker = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.take())
        };
        while !cell.parked() {
            std::thread::yield_now();
        }
        cell.fill(7u32);
        assert_eq!(taker.join().expect("taker panicked"), 7);
    }

    #[test]
    fn spin_until_reports_the_condition() {
        assert!(spin_until(|| true));
        let t0 = Instant::now();
        assert!(!spin_until(|| false));
        // Bounded: gives up after the budget (or at once on one CPU).
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
