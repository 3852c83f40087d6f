//! Event-time watermark tracking.
//!
//! The live engine's notion of "now" is an **event-time low watermark**, the
//! discipline streaming analytics systems use for out-of-order input: every
//! pole's reports carry monotone timestamps, the clock tracks each pole's
//! *frontier* (latest timestamp heard from it), and the watermark is the
//! largest pane boundary that **every** live pole's frontier has passed:
//! `min over live poles of frontier / pane_us`, nothing more. Once the
//! watermark passes a pane, no in-contract delivery can add observations to
//! it, so the pane can be sealed — aggregated, fingerprinted and evicted —
//! deterministically.
//!
//! The contract that makes this cheap and exact: delivery must be **FIFO per
//! pole** (any interleaving *across* poles is fine). Reports that violate it
//! by more than the engine's lateness allowance are counted and shed, never
//! silently merged (see [`crate::engine::LiveCity`]).
//!
//! # A minimum, kept as one
//!
//! Every transition of the clock happens under a mutex, so it is a
//! sequential state machine per stripe plus one combine — checkable by
//! enumerating operation orders (the tests below do), with no memory-order
//! argument to believe.
//!
//! * **Clock stripes** — `POLE_STRIPES` (16) mutexes chosen by
//!   `pole % POLE_STRIPES`, each guarding its poles' frontiers and dead
//!   flags plus two derived values: the stripe's *floor* (the lowest pane
//!   boundary any of its live poles stands on) and how many stand there.
//!   `observe` stores the frontier and is done unless the pole was the last
//!   one on the floor pane and has just left it; only then is the stripe
//!   rescanned for its new floor (`n_poles / POLE_STRIPES` loads). A rescan
//!   strictly raises the floor, so it happens at most once per stripe per
//!   pane.
//! * **Clock floors** — one mutex guarding every stripe's published floor
//!   and the live-pole count. A stripe whose floor rose publishes it here,
//!   still holding its own lock so its publications land in order; the
//!   minimum over stripes is the new `completed`, stored into the one atomic
//!   the lock-free readers ([`WatermarkClock::watermark_us`],
//!   [`WatermarkClock::completed`]) load, and returned to exactly the
//!   caller that raised it.
//!
//! Lock order: **clock stripe → clock floors**, and nothing else is ever
//! acquired under either — both are leaves. The engine calls `observe` after
//! releasing the report's ingest stripe and reads `poles_behind` /
//! `dead_poles` while holding its sealer state and log sink, so the clock
//! stays a leaf under the engine's own order (see [`crate::engine`]).
//!
//! Complexity: an `observe` is one uncontended lock (ingest threads that
//! partition work by pole never meet on a stripe) and O(1), plus the
//! amortized rescan above. `max_frontier_us`, `poles_behind` and
//! `dead_poles` scan every stripe under its lock; they run on the final
//! flush, forced seals and snapshots only. Clock state is 9 bytes per pole.

use caraoke_city::PoleId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many stripes per-pole state is split over, here and in the engine's
/// ingest buffers: pole `p` belongs to stripe `p % POLE_STRIPES`. An ingest
/// pool that partitions work *by pole* — thread `w` of `W` owns poles
/// `w, w + W, …` — puts each thread on its own stripes for every
/// power-of-two `W` up to this, so a stripe's mutex is contended only by
/// whoever reads across stripes (the sealer's drain, a telemetry scan).
pub(crate) const POLE_STRIPES: usize = 16;

/// The frontiers of the poles congruent to one index mod [`POLE_STRIPES`];
/// pole `p` is slot `p / POLE_STRIPES`.
#[derive(Debug)]
struct StripeClock {
    /// Latest timestamp heard from each pole (µs). Starts at 0, which counts
    /// as "has passed boundary 0": the watermark cannot advance until every
    /// pole has reported.
    frontier: Vec<u64>,
    /// Poles removed from the seal quorum (`declare_dead`). A dead pole's
    /// frontier freezes — its `observe` calls are ignored — and the floor is
    /// taken over the others.
    dead: Vec<bool>,
    /// Lowest pane boundary a live pole of this stripe stands on
    /// (`frontier / pane_us`); `u64::MAX` when the stripe has no live pole.
    floor: u64,
    /// How many live poles stand on `floor`.
    at_floor: usize,
}

impl StripeClock {
    /// Recomputes `floor` and `at_floor` from the frontiers.
    fn rescan(&mut self, pane_us: u64) {
        self.floor = u64::MAX;
        self.at_floor = 0;
        for (frontier, dead) in self.frontier.iter().zip(&self.dead) {
            let boundary = frontier / pane_us;
            if *dead || boundary > self.floor {
                continue;
            }
            if boundary < self.floor {
                self.floor = boundary;
                self.at_floor = 0;
            }
            self.at_floor += 1;
        }
    }
}

/// One clock stripe on its own cache line, so threads advancing poles of
/// neighbouring stripes never false-share the lock words.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe(Mutex<StripeClock>);

/// What the stripes have published: the combine side of the minimum.
#[derive(Debug)]
struct Floors {
    /// Each stripe's floor as of its last publication.
    floor: [u64; POLE_STRIPES],
    /// Poles not declared dead; never drops below one.
    live: usize,
}

/// Tracks per-pole frontiers and derives the monotone low watermark, in
/// units of fixed-width *panes* (see [`crate::window`]).
#[derive(Debug)]
pub struct WatermarkClock {
    pane_us: u64,
    stripes: Box<[Stripe]>,
    floors: Mutex<Floors>,
    /// Boundary index every live pole has passed — the minimum of
    /// `floors.floor`, written only under the floors lock. The watermark is
    /// `completed * pane_us`, saturated: the last pane below `u64::MAX` µs
    /// ends there.
    completed: AtomicU64,
}

impl WatermarkClock {
    /// Creates a clock over `n_poles` poles with the given pane width.
    pub fn new(n_poles: usize, pane_us: u64) -> Self {
        Self::resume(n_poles, pane_us, 0, &[])
    }

    /// Rebuilds a clock from recovered state: every frontier (and the
    /// watermark) starts at the recovery floor `completed * pane_us`, and
    /// previously-declared dead poles stay dead (ids past `n_poles` name
    /// nothing and are skipped). Sources re-deliver from the floor, so
    /// frontiers catch up naturally.
    pub fn resume(n_poles: usize, pane_us: u64, completed: u64, dead: &[u32]) -> Self {
        assert!(n_poles > 0, "a deployment needs at least one pole");
        assert!(pane_us > 0, "panes must have nonzero width");
        let mut clocks: Vec<StripeClock> = (0..POLE_STRIPES)
            .map(|k| {
                let len = (n_poles + POLE_STRIPES - 1 - k) / POLE_STRIPES;
                StripeClock {
                    frontier: vec![completed.saturating_mul(pane_us); len],
                    dead: vec![false; len],
                    floor: u64::MAX,
                    at_floor: 0,
                }
            })
            .collect();
        let mut floors = Floors {
            floor: [u64::MAX; POLE_STRIPES],
            live: n_poles,
        };
        for &pole in dead {
            let (k, slot) = Self::slot(PoleId(pole));
            if let Some(flag) = clocks[k].dead.get_mut(slot) {
                if !std::mem::replace(flag, true) {
                    floors.live -= 1;
                }
            }
        }
        for (k, clock) in clocks.iter_mut().enumerate() {
            clock.rescan(pane_us);
            floors.floor[k] = clock.floor;
        }
        Self {
            pane_us,
            stripes: clocks.into_iter().map(|c| Stripe(Mutex::new(c))).collect(),
            floors: Mutex::new(floors),
            completed: AtomicU64::new(completed),
        }
    }

    /// The stripe a pole belongs to and its slot there.
    fn slot(pole: PoleId) -> (usize, usize) {
        let p = pole.0 as usize;
        (p % POLE_STRIPES, p / POLE_STRIPES)
    }

    fn lock(&self, stripe: usize) -> MutexGuard<'_, StripeClock> {
        self.stripes[stripe].0.lock().expect("clock stripe")
    }

    /// Publishes stripe `k`'s floor (the caller holds that stripe's lock, so
    /// one stripe's publications arrive in order) and raises `completed` to
    /// the minimum over stripes. Returns the new value when it rose: every
    /// rise happens here, under the floors lock, so exactly one caller is
    /// told of each.
    fn publish(&self, floors: &mut Floors, k: usize, floor: u64) -> Option<u64> {
        floors.floor[k] = floor;
        let min = floors.floor.iter().copied().min().expect("stripes");
        if min <= self.completed() {
            return None;
        }
        self.completed.store(min, Ordering::Release);
        Some(min)
    }

    /// Feeds one pole report timestamp. Returns `Some(completed)` — the new
    /// highest completed boundary index — when the watermark advanced.
    ///
    /// Out-of-order timestamps (below the pole's frontier) are accepted and
    /// simply don't move the frontier; whether the *observations* they carry
    /// are still usable is the engine's lateness decision, not the clock's.
    /// A dead pole's frontier is frozen: its stragglers are ignored.
    ///
    /// Safe to call from many threads at once; each pole's stream must still
    /// be FIFO (the watermark contract).
    pub fn observe(&self, pole: PoleId, timestamp_us: u64) -> Option<u64> {
        let (k, slot) = Self::slot(pole);
        let mut stripe = self.lock(k);
        let old = stripe.frontier[slot];
        if stripe.dead[slot] || timestamp_us <= old {
            return None;
        }
        stripe.frontier[slot] = timestamp_us;
        let stood = old / self.pane_us;
        if stood != stripe.floor || timestamp_us / self.pane_us == stood {
            return None;
        }
        stripe.at_floor -= 1;
        if stripe.at_floor > 0 {
            return None;
        }
        stripe.rescan(self.pane_us);
        let mut floors = self.floors.lock().expect("clock floors");
        self.publish(&mut floors, k, stripe.floor)
    }

    /// The current low watermark, µs: every pole has reported up to here.
    pub fn watermark_us(&self) -> u64 {
        self.completed().saturating_mul(self.pane_us)
    }

    /// Highest boundary index every pole has passed.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// The largest frontier over all poles, µs — how far ahead of the
    /// watermark the fastest pole is (used by `finish` to flush). An
    /// O(poles) scan; it runs on the final flush and the staleness timeout,
    /// never on ingest.
    pub fn max_frontier_us(&self) -> u64 {
        (0..POLE_STRIPES)
            .filter_map(|k| self.lock(k).frontier.iter().copied().max())
            .max()
            .expect("at least one pole")
    }

    /// How many poles' frontiers have *not* reached `timestamp_us` — the
    /// poles a wall-clock forced seal of the pane ending there would cut
    /// off. An O(poles) scan, but it only runs on the staleness-timeout
    /// path (a pole died mid-run), never on ingest.
    pub fn poles_behind(&self, timestamp_us: u64) -> usize {
        let behind = |f: &&u64| **f < timestamp_us;
        (0..POLE_STRIPES)
            .map(|k| self.lock(k).frontier.iter().filter(behind).count())
            .sum()
    }

    /// Removes a stalled pole from the seal quorum: boundaries beyond its
    /// frozen frontier complete without it, so event-time sealing resumes
    /// instead of waiting for wall-clock forced seals. Returns `false` if
    /// the pole is already dead or is the last live pole (a clock needs at
    /// least one live frontier to define event time).
    ///
    /// **Contract:** only declare a pole dead after its delivery stream
    /// has stopped — the same class of caller obligation as FIFO-per-pole
    /// delivery. (An `observe` racing this call lands wholly before or
    /// wholly after it; which one is the caller's race.)
    pub fn declare_dead(&self, pole: PoleId) -> bool {
        let (k, slot) = Self::slot(pole);
        let mut stripe = self.lock(k);
        let mut floors = self.floors.lock().expect("clock floors");
        if stripe.dead[slot] || floors.live == 1 {
            return false;
        }
        floors.live -= 1;
        stripe.dead[slot] = true;
        // Boundaries that were only waiting on this pole can complete now.
        stripe.rescan(self.pane_us);
        self.publish(&mut floors, k, stripe.floor);
        true
    }

    /// Poles declared dead so far, ascending.
    pub fn dead_poles(&self) -> Vec<u32> {
        let mut dead = Vec::new();
        for k in 0..POLE_STRIPES {
            let stripe = self.lock(k);
            let slots = (0..stripe.dead.len()).filter(|&slot| stripe.dead[slot]);
            dead.extend(slots.map(|slot| (slot * POLE_STRIPES + k) as u32));
        }
        dead.sort_unstable();
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_waits_for_the_slowest_pole() {
        let clock = WatermarkClock::new(3, 1_000);
        // Two poles race ahead; the watermark stays at 0.
        assert_eq!(clock.observe(PoleId(0), 5_500), None);
        assert_eq!(clock.observe(PoleId(1), 9_000), None);
        assert_eq!(clock.watermark_us(), 0);
        // The slowest pole reaches 3.2 ms: boundaries 1..=3 complete.
        assert_eq!(clock.observe(PoleId(2), 3_200), Some(3));
        assert_eq!(clock.watermark_us(), 3_000);
        // It advances again: the watermark follows min(frontier), not max.
        assert_eq!(clock.observe(PoleId(2), 5_100), Some(5));
        assert_eq!(clock.watermark_us(), 5_000);
        assert_eq!(clock.max_frontier_us(), 9_000);
    }

    #[test]
    fn watermark_is_monotone_under_any_interleaving() {
        let deliveries: &[(u32, u64)] = &[
            (0, 1_500),
            (1, 900),
            (1, 2_100),
            (0, 700), // out of order for pole 0: ignored by the frontier
            (2, 4_000),
            (0, 3_800),
            (1, 4_400),
            (2, 2_000), // out of order for pole 2
        ];
        let clock = WatermarkClock::new(3, 1_000);
        let mut last = 0;
        for &(pole, ts) in deliveries {
            clock.observe(PoleId(pole), ts);
            let w = clock.watermark_us();
            assert!(w >= last, "watermark regressed: {w} < {last}");
            last = w;
        }
        // min frontier = min(3_800, 4_400, 4_000) -> boundary 3.
        assert_eq!(clock.watermark_us(), 3_000);
    }

    #[test]
    fn single_pole_watermark_tracks_its_frontier() {
        let clock = WatermarkClock::new(1, 500);
        assert_eq!(clock.observe(PoleId(0), 1_700), Some(3));
        assert_eq!(clock.watermark_us(), 1_500);
    }

    #[test]
    fn max_frontier_is_a_running_max_not_a_scan() {
        // Regression test for the running-max satellite: the max must track
        // every frontier advance (including through out-of-order deliveries
        // that do not move the frontier) without rescanning poles.
        let clock = WatermarkClock::new(4, 1_000);
        assert_eq!(clock.max_frontier_us(), 0);
        clock.observe(PoleId(2), 7_300);
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(0), 4_000); // behind the max: no change
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(2), 6_000); // out of order: frontier unmoved
        assert_eq!(clock.max_frontier_us(), 7_300);
        clock.observe(PoleId(3), 11_111);
        assert_eq!(clock.max_frontier_us(), 11_111);
        // The max is independent of the watermark (pole 1 never reported).
        assert_eq!(clock.watermark_us(), 0);
    }

    #[test]
    fn frontier_accessors_expose_per_pole_lag() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 5_500);
        clock.observe(PoleId(1), 2_000);
        assert_eq!(clock.max_frontier_us(), 5_500);
        // Poles behind the pane-3 boundary (3 000 µs): pole 1 and pole 2.
        assert_eq!(clock.poles_behind(3_000), 2);
        assert_eq!(clock.poles_behind(1), 1, "only the silent pole");
        assert_eq!(clock.poles_behind(6_000), 3);
    }

    #[test]
    fn a_pole_racing_past_the_ring_horizon_still_counts() {
        // Pole 0 sprints thousands of panes ahead — far beyond the counter
        // ring — before pole 1 starts. Credits must survive the overflow
        // path: once pole 1 catches up, the watermark covers the full range.
        let far = (256 + 1_000) * 1_000;
        let clock = WatermarkClock::new(2, 1_000);
        assert_eq!(clock.observe(PoleId(0), far), None);
        assert_eq!(clock.max_frontier_us(), far);
        // Pole 1 walks up in steps that repeatedly cross the old horizon.
        let mut last = 0;
        for step in 1..=(256 + 1_000) {
            clock.observe(PoleId(1), step * 1_000);
            let w = clock.watermark_us();
            assert!(w >= last, "watermark regressed: {w} < {last}");
            last = w;
        }
        assert_eq!(clock.watermark_us(), far / 1_000 * 1_000);
        assert_eq!(clock.completed(), 256 + 1_000);
    }

    #[test]
    fn declaring_a_pole_dead_resumes_event_time_sealing() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 5_500);
        clock.observe(PoleId(1), 5_200);
        clock.observe(PoleId(2), 1_400); // then it goes silent
        assert_eq!(clock.watermark_us(), 1_000);
        // Pole 2 is declared dead: boundaries past its frozen frontier
        // complete from the surviving quorum alone.
        assert!(clock.declare_dead(PoleId(2)));
        assert_eq!(clock.watermark_us(), 5_000);
        // Dead is idempotent-false, and its stragglers are ignored.
        assert!(!clock.declare_dead(PoleId(2)));
        assert_eq!(clock.observe(PoleId(2), 9_000), None);
        assert_eq!(clock.poles_behind(1_400), 0);
        assert_eq!(clock.poles_behind(1_401), 1, "its frontier stays frozen");
        // The survivors keep advancing the watermark without pole 2.
        clock.observe(PoleId(0), 8_000);
        assert_eq!(clock.observe(PoleId(1), 7_000), Some(7));
        assert_eq!(clock.dead_poles(), vec![2]);
    }

    #[test]
    fn the_last_live_pole_cannot_be_declared_dead() {
        let clock = WatermarkClock::new(2, 1_000);
        assert!(clock.declare_dead(PoleId(0)));
        assert!(!clock.declare_dead(PoleId(1)), "one frontier must survive");
        clock.observe(PoleId(1), 3_000);
        assert_eq!(clock.watermark_us(), 3_000);
    }

    #[test]
    fn a_dead_pole_ahead_of_a_boundary_still_counts_toward_it() {
        let clock = WatermarkClock::new(3, 1_000);
        clock.observe(PoleId(0), 4_000);
        clock.observe(PoleId(1), 900);
        // Pole 0 credited boundaries 1..=4 while alive, then died.
        assert!(clock.declare_dead(PoleId(0)));
        // Its past credits must still count: once poles 1 and 2 pass a
        // boundary below 4 000 µs, the full 3-credit quorum is met.
        clock.observe(PoleId(1), 2_500);
        assert_eq!(clock.observe(PoleId(2), 2_100), Some(2));
        // Beyond the dead pole's frontier the quorum shrinks to 2.
        clock.observe(PoleId(1), 6_000);
        assert_eq!(clock.observe(PoleId(2), 6_000), Some(6));
    }

    #[test]
    fn resume_restores_floor_and_dead_set() {
        let clock = WatermarkClock::resume(3, 1_000, 7, &[1]);
        assert_eq!(clock.completed(), 7);
        assert_eq!(clock.watermark_us(), 7_000);
        assert_eq!(clock.max_frontier_us(), 7_000);
        assert_eq!(clock.poles_behind(7_000), 0, "every frontier at the floor");
        assert_eq!(clock.poles_behind(7_001), 3);
        assert_eq!(clock.dead_poles(), vec![1]);
        assert_eq!(clock.observe(PoleId(1), 9_000), None);
        // Live poles advance the resumed watermark from the floor, without
        // the dead pole.
        clock.observe(PoleId(0), 9_000);
        assert_eq!(clock.observe(PoleId(2), 8_200), Some(8));
    }

    #[test]
    fn concurrent_observes_agree_with_a_sequential_run() {
        // 8 threads, one pole each, every pole walking to the same horizon:
        // the final watermark must equal the sequential answer and no
        // boundary may be lost or double-counted along the way.
        let n_poles = 8;
        let epochs = 2_000u64;
        let clock = WatermarkClock::new(n_poles, 1_000);
        std::thread::scope(|scope| {
            for p in 0..n_poles as u32 {
                let clock = &clock;
                scope.spawn(move || {
                    // Stagger the walks so fast poles outrun slow ones by
                    // more than the ring at times (p = 0 is the laggard).
                    let stride = 1 + p as u64;
                    let mut t = 0;
                    while t < epochs * 1_000 {
                        t += stride * 337;
                        clock.observe(PoleId(p), t.min(epochs * 1_000));
                    }
                });
            }
        });
        assert_eq!(clock.completed(), epochs);
        assert_eq!(clock.watermark_us(), epochs * 1_000);
        assert_eq!(clock.max_frontier_us(), epochs * 1_000);
    }

    /// The definition — `min over live poles of frontier / pane_us` —
    /// recomputed from plain vectors at every step.
    struct Oracle {
        pane_us: u64,
        frontier: Vec<u64>,
        dead: Vec<bool>,
        completed: u64,
    }

    impl Oracle {
        fn new(n_poles: usize, pane_us: u64) -> Self {
            Self {
                pane_us,
                frontier: vec![0; n_poles],
                dead: vec![false; n_poles],
                completed: 0,
            }
        }

        fn live(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.dead.len()).filter(|&p| !self.dead[p])
        }

        /// `Some(min)` exactly when the minimum rose.
        fn rise(&mut self) -> Option<u64> {
            let min = self.live().map(|p| self.frontier[p] / self.pane_us).min();
            let min = min.expect("a live pole");
            (min > self.completed).then(|| {
                self.completed = min;
                min
            })
        }

        fn observe(&mut self, pole: usize, timestamp_us: u64) -> Option<u64> {
            if !self.dead[pole] {
                self.frontier[pole] = self.frontier[pole].max(timestamp_us);
            }
            self.rise()
        }

        fn declare_dead(&mut self, pole: usize) -> bool {
            if self.dead[pole] || self.live().count() == 1 {
                return false;
            }
            self.dead[pole] = true;
            self.rise();
            true
        }

        fn dead_poles(&self) -> Vec<u32> {
            let dead = (0..self.dead.len()).filter(|&p| self.dead[p]);
            dead.map(|p| p as u32).collect()
        }

        /// What recovery does: the clock rebuilt from `completed` and the
        /// dead set, every frontier parked on the floor.
        fn resume(&mut self) -> WatermarkClock {
            self.frontier.fill(self.completed * self.pane_us);
            let dead = self.dead_poles();
            WatermarkClock::resume(self.dead.len(), self.pane_us, self.completed, &dead)
        }

        /// Every read the clock offers agrees with the definition.
        fn check(&self, clock: &WatermarkClock) {
            assert_eq!(clock.completed(), self.completed);
            assert_eq!(clock.watermark_us(), self.completed * self.pane_us);
            assert_eq!(clock.dead_poles(), self.dead_poles());
            let max = *self.frontier.iter().max().expect("poles");
            assert_eq!(clock.max_frontier_us(), max);
            let mut probes: Vec<u64> = self.frontier.iter().flat_map(|&f| [f, f + 1]).collect();
            probes.sort_unstable();
            probes.dedup();
            for t in probes {
                let behind = self.frontier.iter().filter(|&&f| f < t).count();
                assert_eq!(clock.poles_behind(t), behind, "behind {t}");
            }
        }
    }

    /// Every interleaving of three FIFO streams of three items each, as
    /// sequences of stream indices.
    fn merge_orders(left: [usize; 3], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left == [0; 3] {
            out.push(prefix.clone());
        }
        for stream in 0..3 {
            if left[stream] > 0 {
                let mut rest = left;
                rest[stream] -= 1;
                prefix.push(stream);
                merge_orders(rest, prefix, out);
                prefix.pop();
            }
        }
    }

    #[test]
    fn every_merge_order_and_every_death_position_match_the_definition() {
        // Three streams: one crosses two boundaries at once and repeats a
        // timestamp, one crawls, one jumps three panes and runs ahead.
        const STREAMS: [[u64; 3]; 3] = [
            [500, 2_300, 2_300],
            [1_200, 1_900, 4_100],
            [3_500, 3_600, 5_000],
        ];
        let mut orders = Vec::new();
        merge_orders([3; 3], &mut Vec::new(), &mut orders);
        assert_eq!(orders.len(), 1_680);
        // The three poles on three stripes, then two sharing stripe 0 and
        // the third sharing stripe 1 with a dead neighbour (every pole
        // outside the cast is declared dead before the walk starts).
        for (n_poles, cast) in [(3, [0, 1, 2]), (18, [0, 16, 17])] {
            for order in &orders {
                for victim in 0..3 {
                    for death_at in 0..=order.len() {
                        let clock = WatermarkClock::new(n_poles, 1_000);
                        let mut oracle = Oracle::new(n_poles, 1_000);
                        for pole in (0..n_poles).filter(|p| !cast.contains(p)) {
                            assert!(oracle.declare_dead(pole));
                            assert!(clock.declare_dead(PoleId(pole as u32)));
                        }
                        let mut next = [0; 3];
                        for step in 0..=order.len() {
                            if step == death_at {
                                let pole = cast[victim];
                                let expect = oracle.declare_dead(pole);
                                assert_eq!(clock.declare_dead(PoleId(pole as u32)), expect);
                                oracle.check(&clock);
                            }
                            let Some(&stream) = order.get(step) else {
                                break;
                            };
                            let (pole, ts) = (cast[stream], STREAMS[stream][next[stream]]);
                            next[stream] += 1;
                            let expect = oracle.observe(pole, ts);
                            assert_eq!(
                                clock.observe(PoleId(pole as u32), ts),
                                expect,
                                "{order:?}, pole {victim} dead at {death_at}, step {step}"
                            );
                            oracle.check(&clock);
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn random_walks_with_deaths_and_resumes_match_the_definition(
            shape in 0usize..5,
            script in proptest::collection::vec(
                (0u8..12, proptest::any::<u64>(), proptest::any::<u64>()),
                1..120,
            ),
        ) {
            // One pole, a ragged handful (eleven empty stripes), exactly one
            // per stripe, one stripe of two, and two to three per stripe.
            let n_poles = [1, 5, 16, 17, 40][shape];
            let mut clock = WatermarkClock::new(n_poles, 1_000);
            let mut oracle = Oracle::new(n_poles, 1_000);
            for (op, x, y) in script {
                // Half the moves go to the slowest live pole, or the
                // watermark of forty poles would never leave zero.
                let laggard = oracle.live().min_by_key(|&p| oracle.frontier[p]);
                let pole = match x % 2 {
                    0 => laggard.expect("a live pole"),
                    _ => (x / 2) as usize % n_poles,
                };
                match op {
                    0 => clock = oracle.resume(),
                    1 | 2 => {
                        let expect = oracle.declare_dead(pole);
                        proptest::prop_assert_eq!(clock.declare_dead(PoleId(pole as u32)), expect);
                    }
                    _ => {
                        // Up to three panes ahead, sometimes behind the
                        // pole's own frontier (out of order: ignored).
                        let ts = (oracle.frontier[pole] + y % 3_300).saturating_sub(300);
                        let expect = oracle.observe(pole, ts);
                        proptest::prop_assert_eq!(clock.observe(PoleId(pole as u32), ts), expect);
                    }
                }
                oracle.check(&clock);
            }
        }
    }

    #[test]
    fn a_death_mid_run_releases_racing_observers_without_a_regression() {
        // The walk of `concurrent_observes_agree_with_a_sequential_run`,
        // with a ninth pole that never reports: nothing completes until the
        // main thread declares it dead halfway through, then everything the
        // eight have passed completes at once while they keep walking.
        let n_walkers = 8u32;
        let epochs = 2_000u64;
        let clock = WatermarkClock::new(n_walkers as usize + 1, 1_000);
        let (done, is_done) = std::sync::mpsc::channel::<()>();
        let mut advances: Vec<u64> = std::thread::scope(|scope| {
            let walkers: Vec<_> = (0..n_walkers)
                .map(|p| {
                    let clock = &clock;
                    scope.spawn(move || {
                        let stride = 1 + p as u64;
                        let mut told = Vec::new();
                        let mut t = 0;
                        while t < epochs * 1_000 {
                            t += stride * 337;
                            told.extend(clock.observe(PoleId(p), t.min(epochs * 1_000)));
                        }
                        told
                    })
                })
                .collect();
            let sampled = &clock;
            scope.spawn(move || {
                let mut last = 0;
                while is_done.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                    let w = sampled.watermark_us();
                    assert!(w >= last, "watermark regressed: {w} < {last}");
                    last = w;
                }
            });
            while clock.max_frontier_us() < epochs * 500 {
                std::thread::yield_now();
            }
            assert_eq!(clock.completed(), 0, "the silent pole holds everything");
            assert!(clock.declare_dead(PoleId(n_walkers)));
            let told = walkers.into_iter().map(|w| w.join().expect("walker"));
            let told = told.flatten().collect();
            drop(done);
            told
        });
        assert_eq!(clock.completed(), epochs);
        assert_eq!(clock.dead_poles(), vec![n_walkers]);
        // Each advance was returned to exactly one observer: no value twice,
        // and the last one is the final watermark (unless the declaration
        // itself, which returns no value, completed it).
        advances.sort_unstable();
        assert!(
            advances.windows(2).all(|w| w[0] < w[1]),
            "an advance told twice"
        );
        assert!(advances.last().is_none_or(|&last| last == epochs));
    }
}
