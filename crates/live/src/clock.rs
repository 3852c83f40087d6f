//! Time as an input: the one place in the live and serving tiers that
//! reads a clock.
//!
//! Two kinds of time run through these tiers, and they are kept apart:
//!
//! * **Policy time** is what the system decides from, and it reads the
//!   engine's clock ([`LiveCity::clock`]): the staleness force-seal
//!   ([`LiveConfig::max_pane_staleness`]), and in the serving tier every
//!   frame's seal stamp, the lag grace a fresh frame gets, and the age a
//!   TCP frame carries. Policy time is only ever *read*: a decision is made
//!   by whoever runs the step it belongs to, and nothing waits on policy
//!   time. An engine built [`LiveCity::with_clock`] over a
//!   [`Clock::Manual`] is stepped — its caller runs each seal step and each
//!   hub fan-out round — so these policies answer exactly on time a test
//!   steps, and no test waits wall time out.
//! * **A caller's budget** is how long a caller is willing to block —
//!   [`LiveCity::wait_sealed`], [`LiveSubscription::wait_next`], the
//!   serving tier's subscription waits and client reads, and a threaded
//!   engine's sealer thread between wake-ups — and it is real time, always:
//!   every timed wait goes through the one real-time
//!   [`Clock::wait_timeout_while`]. Socket timeouts are kernel time, out of
//!   any clock's reach.
//!
//! The manual clock is a seam for tests, not a knob: no configuration
//! field selects it, and every engine constructor but
//! [`LiveCity::with_clock`] is threaded and runs on [`Clock::Real`].
//!
//! [`LiveCity::clock`]: crate::LiveCity::clock
//! [`LiveCity::with_clock`]: crate::LiveCity::with_clock
//! [`LiveCity::wait_sealed`]: crate::LiveCity::wait_sealed
//! [`LiveConfig::max_pane_staleness`]: crate::LiveConfig::max_pane_staleness
//! [`LiveSubscription::wait_next`]: crate::LiveSubscription::wait_next

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A source of `now`: the machine's monotonic clock, or a [`ManualClock`]
/// that moves only when a test advances it.
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
    /// of real time, like [`Condvar::wait_timeout_while`]; returns the
    /// guard and whether the wait timed out with the condition still
    /// holding. A timeout too large to add to the clock waits with no
    /// deadline. Real time only: every wait is a caller's budget.
    pub fn wait_timeout_while<'a, T>(
        condvar: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
        condition: impl FnMut(&mut T) -> bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let poisoned = "lock poisoned in a clock wait";
        if Instant::now().checked_add(timeout).is_none() {
            return (condvar.wait_while(guard, condition).expect(poisoned), false);
        }
        let (guard, waited) = condvar
            .wait_timeout_while(guard, timeout, condition)
            .expect(poisoned);
        (guard, waited.timed_out())
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

    /// Moves the clock forward by `by`.
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

    #[test]
    fn a_timeout_too_large_for_the_clock_waits_for_the_condition_alone() {
        let flag = (Mutex::new(false), Condvar::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                *flag.0.lock().expect("flag") = true;
                flag.1.notify_all();
            });
            let guard = flag.0.lock().expect("flag");
            let (guard, timed_out) =
                Clock::wait_timeout_while(&flag.1, guard, Duration::MAX, |up| !*up);
            assert!(*guard && !timed_out);
        });
    }

    #[test]
    fn manual_time_is_monotone_and_moves_by_exactly_what_is_advanced() {
        let manual = Arc::new(ManualClock::new());
        let clock = Clock::Manual(Arc::clone(&manual));
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
