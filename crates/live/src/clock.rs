//! Time as an input: the one place in the live and serving tiers that
//! reads a clock.
//!
//! Two kinds of time run through these tiers, and they are kept apart:
//!
//! * **Policy time** is what the system decides from, and it reads the
//!   engine's clock ([`LiveCity::clock`]): the sealer's staleness
//!   force-seal ([`LiveConfig::max_pane_staleness`]), and in the serving
//!   tier every frame's seal stamp, the lag grace a fresh frame gets, and
//!   the age a TCP frame carries. An engine built
//!   [`LiveCity::with_clock`] over a [`Clock::Manual`] runs these policies
//!   on time a test steps, so they answer exactly and no test waits wall
//!   time out.
//! * **A caller's budget** is how long a caller is willing to block —
//!   [`LiveCity::wait_sealed`], [`LiveSubscription::wait_next`], the
//!   serving tier's subscription waits and client reads — and it is real
//!   time whatever the engine's clock: a manual clock nobody advances must
//!   not turn a 10 ms budget into a hang. Budgets wait through
//!   [`Clock::Real`]'s same [`wait_timeout_while`](Clock::wait_timeout_while).
//!   Socket timeouts are kernel time, out of any clock's reach.
//!
//! The manual clock is a seam for tests, not a knob: no configuration
//! field selects it, and every engine constructor but
//! [`LiveCity::with_clock`] runs on [`Clock::Real`].
//!
//! [`LiveCity::clock`]: crate::LiveCity::clock
//! [`LiveCity::with_clock`]: crate::LiveCity::with_clock
//! [`LiveCity::wait_sealed`]: crate::LiveCity::wait_sealed
//! [`LiveConfig::max_pane_staleness`]: crate::LiveConfig::max_pane_staleness
//! [`LiveSubscription::wait_next`]: crate::LiveSubscription::wait_next

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often a wait on a [`ManualClock`] re-reads it. Advancing wakes no
/// condvar, so a waiter notices its deadline has passed within one slice
/// of real time.
const MANUAL_SLICE: Duration = Duration::from_millis(1);

/// A source of `now` and of timed condvar waits: the machine's monotonic
/// clock, or a [`ManualClock`] that moves only when a test advances it.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// The machine's monotonic clock.
    #[default]
    Real,
    /// Time that stands still until [`ManualClock::advance`] moves it.
    Manual(Arc<ManualClock>),
}

impl Clock {
    /// The current instant on this clock.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            Clock::Manual(manual) => *manual.now.lock().expect("manual clock"),
        }
    }

    /// Blocks on `condvar` while `condition` holds, for at most `timeout`
    /// of this clock's time, like [`Condvar::wait_timeout_while`]; returns
    /// the guard and whether the wait timed out with the condition still
    /// holding. A timeout too large to add to the clock waits with no
    /// deadline. On a manual clock the wait returns once the condition
    /// clears (tested on every notify) or once the clock has been advanced
    /// to the deadline.
    pub fn wait_timeout_while<'a, T>(
        &self,
        condvar: &Condvar,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let poisoned = "lock poisoned in a clock wait";
        let Some(deadline) = self.now().checked_add(timeout) else {
            return (condvar.wait_while(guard, condition).expect(poisoned), false);
        };
        if let Clock::Real = self {
            let (guard, waited) = condvar
                .wait_timeout_while(guard, timeout, condition)
                .expect(poisoned);
            return (guard, waited.timed_out());
        }
        loop {
            if !condition(&mut *guard) {
                return (guard, false);
            }
            if self.now() >= deadline {
                return (guard, true);
            }
            guard = condvar.wait_timeout(guard, MANUAL_SLICE).expect(poisoned).0;
        }
    }
}

/// A clock that stands still until it is advanced. Its time starts at the
/// real instant it was created, so every stamp it gives is an ordinary
/// [`Instant`].
#[derive(Debug)]
pub struct ManualClock {
    now: Mutex<Instant>,
}

impl ManualClock {
    /// A clock standing at the current real instant.
    pub fn new() -> Self {
        Self {
            now: Mutex::new(Instant::now()),
        }
    }

    /// Moves the clock forward by `by`. Waits whose deadline it reaches
    /// return within a millisecond of real time.
    pub fn advance(&self, by: Duration) {
        let mut now = self.now.lock().expect("manual clock");
        *now = now.checked_add(by).expect("manual clock past an Instant");
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A flag and the condvar its setter notifies.
    type Flag = (Mutex<bool>, Condvar);

    fn manual() -> (Clock, Arc<ManualClock>) {
        let manual = Arc::new(ManualClock::new());
        (Clock::Manual(Arc::clone(&manual)), manual)
    }

    fn raise(flag: &Flag) {
        *flag.0.lock().expect("flag") = true;
        flag.1.notify_all();
    }

    #[test]
    fn a_timeout_too_large_for_the_clock_waits_for_the_condition_alone() {
        for clock in [Clock::Real, manual().0] {
            let flag: Flag = (Mutex::new(false), Condvar::new());
            std::thread::scope(|scope| {
                scope.spawn(|| raise(&flag));
                let guard = flag.0.lock().expect("flag");
                let (guard, timed_out) =
                    clock.wait_timeout_while(&flag.1, guard, Duration::MAX, |up| !*up);
                assert!(*guard && !timed_out, "{clock:?}");
            });
        }
    }

    #[test]
    fn a_manual_wait_times_out_when_the_clock_is_advanced_to_its_deadline() {
        let (clock, manual) = manual();
        let flag: Flag = (Mutex::new(false), Condvar::new());
        let (parked_tx, parked) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // The deadline is fixed before the condition is first
                // tested, so this advance lands after it.
                parked.recv().expect("waiter parked");
                manual.advance(Duration::from_secs(3600));
            });
            let start = clock.now();
            let guard = flag.0.lock().expect("flag");
            let (guard, timed_out) =
                clock.wait_timeout_while(&flag.1, guard, Duration::from_secs(3600), |up| {
                    let _ = parked_tx.send(());
                    !*up
                });
            assert!(!*guard && timed_out);
            assert_eq!(clock.now() - start, Duration::from_secs(3600));
        });
    }

    #[test]
    fn a_manual_wait_returns_on_notify_before_its_deadline() {
        let (clock, _manual) = manual();
        let flag: Flag = (Mutex::new(false), Condvar::new());
        let start = clock.now();
        std::thread::scope(|scope| {
            scope.spawn(|| raise(&flag));
            let guard = flag.0.lock().expect("flag");
            let (guard, timed_out) =
                clock.wait_timeout_while(&flag.1, guard, Duration::from_secs(1), |up| !*up);
            assert!(*guard && !timed_out);
        });
        assert_eq!(clock.now(), start, "waiting moved no manual time");
    }

    #[test]
    fn manual_time_is_monotone_and_moves_by_exactly_what_is_advanced() {
        let (clock, manual) = manual();
        let start = clock.now();
        let mut last = start;
        for step in [0u64, 1, 7, 0, 200_000] {
            manual.advance(Duration::from_micros(step));
            let now = clock.now();
            assert!(now >= last);
            assert_eq!(now - last, Duration::from_micros(step));
            last = now;
        }
        assert_eq!(last - start, Duration::from_micros(200_008));
        let real = Clock::Real.now();
        assert!(Clock::Real.now() >= real);
    }
}
