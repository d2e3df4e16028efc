//! The shared adaptive wait strategy: spin briefly, yield occasionally,
//! then fall back to a timed condvar park.
//!
//! Every blocking primitive on the hot path — the fabric's lane send
//! queues and receive stores, the runtime's address-board fetches and
//! flag waits — used to park on its condvar immediately. At the message
//! rates the paper targets (millions of small messages per second) the
//! park/unpark round trip through the scheduler costs far more than the
//! wait itself: the counterpart thread typically produces the awaited
//! state within microseconds. A short spin phase keeps the waiter on-CPU
//! across that window and only parks when the wait turns out to be long.
//!
//! Tuning: `PIPMCOLL_SPIN_US` is the spin budget in microseconds
//! (default 50; 0 disables spinning and parks immediately, the pre-spin
//! behaviour — the right setting for heavily oversubscribed hosts).
//!
//! The spin phase makes most waits end without a park, so most wakes
//! find nobody parked. [`GatedCondvar`] makes those wakes free: it
//! counts its parked waiters and skips the condvar signal (a
//! `futex_wake` syscall even when uncontended) while the count is zero.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, MutexGuard, OnceLock, WaitTimeoutResult};
use std::time::{Duration, Instant};

/// Spin budget before a waiter parks on its condvar. Parsed once;
/// override with `PIPMCOLL_SPIN_US`. Malformed values fall back to the
/// default — [`crate::env::validate`] rejects them loudly at fabric
/// construction.
pub fn spin_budget() -> Duration {
    static US: OnceLock<u64> = OnceLock::new();
    let us = *US.get_or_init(|| crate::env::read_u64_or("PIPMCOLL_SPIN_US", 50));
    Duration::from_micros(us)
}

/// Whether the host exposes exactly one hardware thread. Busy-spinning
/// is pure waste there: the state being awaited can only be produced by
/// another thread, and that thread needs this core to produce it.
fn single_hw_thread() -> bool {
    static ONE: OnceLock<bool> = OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// One wait's spin state. Create a `Spinner` at the top of a blocking
/// wait; each time the awaited condition is still false, call
/// [`Spinner::turn`]: while it returns `true` the caller should drop its
/// lock, let the spinner burn a few cycles, and re-check; once it
/// returns `false` the budget is spent and the caller should park on its
/// condvar as before. The budget clock starts at the first `turn`, so a
/// wait that never blocks never reads the clock.
#[derive(Default)]
pub struct Spinner {
    until: Option<Instant>,
    rounds: u32,
}

impl Spinner {
    /// A fresh spinner with the full [`spin_budget`].
    pub fn new() -> Spinner {
        Spinner::default()
    }

    /// Burn one spin round. Returns `true` while the spin budget lasts
    /// (re-check the condition), `false` once it is time to park.
    pub fn turn(&mut self) -> bool {
        let budget = spin_budget();
        if budget.is_zero() {
            return false;
        }
        let until = *self.until.get_or_insert_with(|| Instant::now() + budget);
        if Instant::now() >= until {
            return false;
        }
        self.rounds = self.rounds.wrapping_add(1);
        if single_hw_thread() || self.rounds.is_multiple_of(16) {
            // Cede the core — every round on a single-hardware-thread
            // host (the counterpart literally cannot progress while we
            // hold the CPU), every 16th otherwise, in case the host is
            // oversubscribed and the counterpart needs this core.
            std::thread::yield_now();
        } else {
            for _ in 0..32 {
                std::hint::spin_loop();
            }
        }
        true
    }
}

/// A condvar that only signals when a waiter is parked on it: the park
/// primitive of every hot-path blocking wait (receive stores, send-queue
/// backpressure, the runtime's address boards, flags and barrier).
///
/// Both sides hold the caller's mutex — the one that guards the awaited
/// state — around their use of the count:
/// - [`GatedCondvar::wait_timeout`] increments the count under the mutex
///   before it parks and decrements it after it wakes (the mutex is held
///   again by then);
/// - [`GatedCondvar::wake_all`] must be called with the mutex held,
///   after the state change it announces, and signals only when the
///   count is nonzero.
///
/// No wakeup can be lost. The mutex orders the waker's critical section
/// against the waiter's check-then-register. If the waker runs first,
/// the waiter's check sees the new state and never parks. If the waiter
/// registers first, the waker sees a nonzero count and signals; the
/// waiter released the mutex and entered the condvar atomically, so
/// the signal reaches it.
#[derive(Default)]
pub struct GatedCondvar {
    cv: Condvar,
    /// Waiters parked (or about to park) on `cv`. Only touched with the
    /// caller's mutex held, so relaxed ordering suffices.
    waiters: AtomicUsize,
}

impl GatedCondvar {
    /// A condvar with no waiters.
    pub fn new() -> GatedCondvar {
        GatedCondvar::default()
    }

    /// Park on the condvar for at most `dur`, exactly like
    /// [`Condvar::wait_timeout`], counted so that [`GatedCondvar::wake_all`]
    /// knows to signal.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let r = self.cv.wait_timeout(guard, dur);
        // Poisoned or not, the guard is held again here.
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        r
    }

    /// Wake every parked waiter; a relaxed load and nothing else when
    /// nobody is parked. Call with the waiters' mutex held.
    pub fn wake_all(&self) {
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.cv.notify_all();
        }
    }
}

/// A wakeup channel for the fabric's progress pool: callers with new
/// work (a frame pushed onto a send queue, a repair request, shutdown)
/// `notify()`, and idle progress threads `wait()` until something
/// changes or a timer deadline arrives.
///
/// The epoch counter makes the fast paths cheap and race-free:
/// - `notify()` is a single `fetch_add` plus a conditional condvar
///   signal — it only takes the mutex when a waiter has registered, so
///   the steady-state (workers busy, nobody parked) costs one atomic.
/// - A worker reads the epoch *before* scanning its endpoints, does the
///   scan, and parks only if the epoch is unchanged — work enqueued
///   mid-scan bumps the epoch and the park returns immediately instead
///   of being missed.
#[derive(Default)]
pub struct WorkSignal {
    epoch: std::sync::atomic::AtomicU64,
    sleepers: std::sync::atomic::AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl WorkSignal {
    /// A fresh signal at epoch 0.
    pub fn new() -> WorkSignal {
        WorkSignal::default()
    }

    /// The current epoch. Read this *before* checking for work; pass it
    /// to [`WorkSignal::wait`] so a notification between the check and
    /// the park is never lost.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Announce new work. Wakes every parked waiter; costs one atomic
    /// add when nobody is parked.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        if self.sleepers.load(std::sync::atomic::Ordering::Acquire) > 0 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Park until the epoch moves past `seen` or `timeout` elapses.
    /// Returns immediately if a notification already happened since
    /// `seen` was read.
    pub fn wait(&self, seen: u64, timeout: Duration) {
        self.sleepers
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        let deadline = Instant::now() + timeout;
        let mut g = self.lock.lock().unwrap();
        while self.epoch.load(std::sync::atomic::Ordering::Acquire) == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g2, _res) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
        drop(g);
        self.sleepers
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_fifty_micros() {
        // The test environment does not set the variable.
        assert_eq!(spin_budget(), Duration::from_micros(50));
    }

    #[test]
    fn spinner_exhausts_its_budget() {
        let mut s = Spinner::new();
        let start = Instant::now();
        let mut turns = 0u64;
        while s.turn() {
            turns += 1;
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "spinner must terminate"
            );
        }
        assert!(turns > 0, "a 50µs budget affords at least one turn");
        // Once exhausted, it stays exhausted.
        assert!(!s.turn());
    }

    #[test]
    fn gated_condvar_wakes_a_parked_waiter() {
        use std::sync::{Arc, Mutex};
        let state = Arc::new((Mutex::new(false), GatedCondvar::new()));
        // Nobody parked: the wake is a no-op.
        state.1.wake_all();
        let s2 = Arc::clone(&state);
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            let mut g = s2.0.lock().unwrap();
            while !*g {
                g = s2.1.wait_timeout(g, Duration::from_secs(10)).unwrap().0;
            }
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let mut g = state.0.lock().unwrap();
            *g = true;
            state.1.wake_all();
        }
        let waited = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(1), "woken late: {waited:?}");
        assert_eq!(state.1.waiters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn signal_wakes_a_parked_waiter() {
        let sig = std::sync::Arc::new(WorkSignal::new());
        let seen = sig.epoch();
        let s2 = sig.clone();
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            s2.wait(seen, Duration::from_secs(10));
            start.elapsed()
        });
        // Give the waiter a moment to park, then notify.
        std::thread::sleep(Duration::from_millis(20));
        sig.notify();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "notify must cut the wait short, waited {waited:?}"
        );
    }

    #[test]
    fn stale_epoch_returns_immediately() {
        let sig = WorkSignal::new();
        let seen = sig.epoch();
        sig.notify();
        let start = Instant::now();
        sig.wait(seen, Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a notification before the wait must not be lost"
        );
    }

    #[test]
    fn wait_times_out_without_notification() {
        let sig = WorkSignal::new();
        let start = Instant::now();
        sig.wait(sig.epoch(), Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }
}
