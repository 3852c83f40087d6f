//! The read side of the live engine: point-in-time queries, snapshots, and
//! a pollable subscription over sealed window panes.
//!
//! Queries answer over **sealed** state only — the watermark guarantees a
//! sealed pane can never change, so two dashboards asking the same question
//! at the same watermark get the same answer regardless of what is still
//! buffered above it.
//!
//! Every read here — [`LiveCity::query`], [`LiveCity::query_sealed`],
//! [`LiveCity::snapshot`], [`LiveSubscription::poll`] — locks only the
//! engine's published ring, a [`CityWindows`] the sealer appends each pass's
//! panes to once the pass's log commit has returned. None of them touches
//! the sealer's own state, so a query never waits behind a fold, a log
//! retry or an fsync, and never sees a pane ahead of its log commit.
//!
//! # What a window query reads
//!
//! A window is *defined* as the merge of the trailing `k` sealed panes
//! (`k` = [`WindowSpec::panes`], capped at what the ring retains);
//! [`CityWindows::answer`] never builds that merge. `Occupancy` folds one
//! segment's [`SegmentStats`] over those panes, `SpeedPercentile` the speed
//! histograms, `PositionAccuracy` the position counters — a few hundred
//! integer additions each. `TopOd` is the exception: a window's OD matrix
//! is tens of thousands of pairs, so it is answered from a **running**
//! union [`CityWindows`] keeps beside the ring.
//!
//! **Warm == cold.** A running window answers exactly what the definition
//! answers — same pairs, same order, same bytes on the wire — whatever was
//! asked before it. Asking brings it up to date: the panes sealed since the
//! last answer are added, the panes that slid out are subtracted (both are
//! still in the ring), and a pair that reaches zero is dropped. It is
//! rebuilt from the ring, by the same code started from an empty union,
//! when
//!
//! * the width has no running window yet (first use, a recovered engine, a
//!   fresh log follower) or lost it as the least recently used of
//!   [`MAX_OD_WINDOWS`](crate::window::MAX_OD_WINDOWS);
//! * the pane the running window starts at has been evicted from the ring —
//!   the window went unasked for longer than retention has slack, or spans
//!   the whole ring, where every seal evicts its oldest pane;
//! * the delta would fold at least as many panes as the window holds.
//!
//! Nothing is maintained at seal time: an engine nobody queries pays
//! nothing, and the sealer thread never touches a running window.

use crate::engine::{LiveCity, LiveStats};
use crate::window::{CityWindows, Pane, WindowSpec};
use caraoke_city::{PositionCounters, SegmentId, SegmentStats, SpeedHistogram};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// A point-in-time question against the live engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveQuery {
    /// Occupancy of one segment over a trailing window: mean and peak
    /// simultaneous count (the Fig. 13 workload, windowed).
    Occupancy {
        /// Segment to inspect.
        segment: SegmentId,
        /// Trailing window to aggregate over.
        window: WindowSpec,
    },
    /// Vehicle flow through one segment over the last `k` traffic-light
    /// cycles (the Fig. 12 workload, windowed).
    Flow {
        /// Segment to inspect.
        segment: SegmentId,
        /// Number of trailing light cycles to sum.
        last_cycles: u32,
    },
    /// A speed percentile over a trailing window (§7).
    SpeedPercentile {
        /// Percentile, 0–100.
        p: f64,
        /// Trailing window to aggregate over.
        window: WindowSpec,
    },
    /// The `n` busiest origin–destination pole pairs over a trailing window.
    TopOd {
        /// How many pairs to return.
        n: usize,
        /// Trailing window to aggregate over.
        window: WindowSpec,
    },
    /// Localization accuracy over a trailing window (§6): how the
    /// position ladder performed — per-method fix counts, the
    /// localized fraction, the mean position uncertainty, and which speed
    /// samples came from position tracks vs arrival-time fallbacks.
    PositionAccuracy {
        /// Trailing window to aggregate over.
        window: WindowSpec,
    },
    /// Where event time stands: watermark and sealed-pane count.
    Watermark,
}

/// The answer to a [`LiveQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum LiveAnswer {
    /// Occupancy over the queried window.
    Occupancy {
        /// Mean simultaneous occupancy over the window's reports.
        mean: f64,
        /// Peak single-query count in the window.
        peak: u32,
        /// Pole reports the window aggregated.
        reports: u64,
    },
    /// Flow over the queried cycles.
    Flow {
        /// Total flow events in the cycle range.
        total: u64,
        /// Mean flow per cycle over the queried range.
        mean_per_cycle: f64,
    },
    /// Speed percentile over the queried window.
    Speed {
        /// The percentile value, mph.
        mph: f64,
        /// Speed samples the window held.
        samples: u64,
    },
    /// Busiest OD pairs over the queried window.
    TopOd {
        /// `((from pole, to pole), transitions)`, busiest first.
        pairs: Vec<((u32, u32), u64)>,
    },
    /// Localization accuracy over the queried window.
    PositionAccuracy {
        /// Observations positioned by a two-reader conic fix.
        two_reader_fixes: u64,
        /// Observations positioned by an AoA-only fix.
        aoa_only_fixes: u64,
        /// Observations that fell back to the pole position.
        pole_fallbacks: u64,
        /// Fraction of observations carrying a real fix.
        localized_fraction: f64,
        /// Mean 1-σ position uncertainty, metres.
        mean_sigma_m: f64,
        /// Speed samples regressed from position tracks.
        track_speed_samples: u64,
        /// Speed samples from arrival-time fallbacks.
        arrival_speed_samples: u64,
    },
    /// Event-time position.
    Watermark {
        /// Current low watermark, µs.
        watermark_us: u64,
        /// Panes sealed so far.
        sealed_panes: u64,
    },
}

impl LiveCity {
    /// Answers a point-in-time question from sealed window state.
    ///
    /// Windows wider than the engine's retention ([`crate::LiveConfig::retain_panes`])
    /// aggregate what is retained; [`LiveCity::snapshot`] exposes the
    /// retention so callers can size windows to fit.
    pub fn query(&self, query: &LiveQuery) -> LiveAnswer {
        let (_, mut answers) = self.query_sealed(std::slice::from_ref(query));
        answers.pop().expect("one query, one answer")
    }

    /// Answers a whole batch of queries under **one** acquisition of the
    /// published pane ring, returning the pane horizon (`next_pane`, the
    /// first still-unsealed pane) every answer was computed at.
    ///
    /// This is the serving tier's per-seal hook: a fan-out layer registers
    /// each distinct query once, calls `query_sealed` when a seal lands, and
    /// distributes the shared answers — every subscriber of the same query
    /// sees the identical (byte-identical, the answers come from the same
    /// code path as [`query`](Self::query)) result for the same pane.
    pub fn query_sealed(&self, queries: &[LiveQuery]) -> (u64, Vec<LiveAnswer>) {
        let (pane_us, cycle_us) = (self.config().pane_us, self.config().store.light_cycle_us);
        self.with_windows(|windows| {
            // Read under the lock: the watermark only grows, so it is at
            // least where it stood when the ring's newest pane sealed.
            let watermark_us = self.watermark_us();
            let answers = queries
                .iter()
                .map(|q| windows.answer(q, watermark_us, pane_us, cycle_us))
                .collect();
            (windows.next_pane(), answers)
        })
    }
}

impl CityWindows {
    /// Answers one [`LiveQuery`] as of this state's pane horizon and the
    /// event-time watermark `watermark_us`; `pane_us` and `cycle_us` are the
    /// pane width and light-cycle length the panes were sealed under. What
    /// each query kind reads, and why `self` is `&mut`, is in the module
    /// docs.
    ///
    /// This is the *single* evaluation code path: [`LiveCity::query`] and
    /// [`LiveCity::query_sealed`] answer from the engine's published ring
    /// through it, and so does any layer that rebuilds such a ring from the
    /// durable pane log (the serving tier's lagging-cursor catch-up). One
    /// code path is what makes a served answer byte-identical to the
    /// in-process answer for the same pane.
    pub fn answer(
        &mut self,
        query: &LiveQuery,
        watermark_us: u64,
        pane_us: u64,
        cycle_us: u64,
    ) -> LiveAnswer {
        match *query {
            LiveQuery::Occupancy { segment, window } => {
                let mut stats = SegmentStats::default();
                for pane in self.last(window.panes(pane_us)) {
                    if let Some(s) = pane.segments.get(&segment.0) {
                        stats.merge(s);
                    }
                }
                LiveAnswer::Occupancy {
                    mean: stats.mean_occupancy(),
                    peak: stats.peak_count,
                    reports: stats.reports,
                }
            }
            LiveQuery::Flow {
                segment,
                last_cycles,
            } => {
                // Cycles are event-time buckets; "last k" counts back from
                // the cycle the watermark is in.
                let now_cycle = (watermark_us / cycle_us) as u32;
                let first = now_cycle.saturating_sub(last_cycles.saturating_sub(1));
                let sum: u64 = self
                    .flow
                    .per_cycle
                    .range((segment.0, first)..=(segment.0, now_cycle))
                    .map(|(_, &v)| v)
                    .sum();
                let span = (now_cycle - first + 1) as f64;
                LiveAnswer::Flow {
                    total: sum,
                    mean_per_cycle: sum as f64 / span,
                }
            }
            LiveQuery::SpeedPercentile { p, window } => {
                let mut speeds = SpeedHistogram::new();
                for pane in self.last(window.panes(pane_us)) {
                    speeds.merge(&pane.speeds);
                }
                LiveAnswer::Speed {
                    mph: speeds.percentile_mph(p),
                    samples: speeds.samples(),
                }
            }
            LiveQuery::TopOd { n, window } => LiveAnswer::TopOd {
                pairs: self.top_od(window.panes(pane_us), n),
            },
            LiveQuery::PositionAccuracy { window } => {
                let mut p = PositionCounters::default();
                for pane in self.last(window.panes(pane_us)) {
                    p.merge(&pane.positions);
                }
                LiveAnswer::PositionAccuracy {
                    two_reader_fixes: p.two_reader_fixes,
                    aoa_only_fixes: p.aoa_only_fixes,
                    pole_fallbacks: p.pole_fallbacks,
                    localized_fraction: p.localized_fraction(),
                    mean_sigma_m: p.mean_sigma_m(),
                    track_speed_samples: p.track_speed_samples,
                    arrival_speed_samples: p.arrival_speed_samples,
                }
            }
            LiveQuery::Watermark => LiveAnswer::Watermark {
                watermark_us,
                sealed_panes: self.next_pane(),
            },
        }
    }
}

impl LiveCity {
    /// A cheap, pollable snapshot: telemetry plus summaries of the most
    /// recent `last` sealed panes. The dashboard's poll target.
    pub fn snapshot(&self, last: usize) -> LiveSnapshot {
        let stats = self.stats();
        let recent = self.with_windows(|windows| {
            let panes = windows.panes();
            panes
                .range(panes.len().saturating_sub(last)..)
                .map(|pane| PaneSummary::new(pane, self.config().pane_us))
                .collect()
        });
        LiveSnapshot {
            watermark_us: stats.watermark_us,
            retain_panes: self.config().retain_panes,
            stats,
            recent,
        }
    }
}

/// Headline numbers of one sealed pane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaneSummary {
    /// Pane index (event time / pane width).
    pub pane: u64,
    /// Pane start, µs of event time.
    pub start_us: u64,
    /// Observations sealed into the pane.
    pub observations: u64,
    /// Flow events in the pane.
    pub flow_events: u64,
    /// Speed samples in the pane.
    pub speed_samples: u64,
    /// Median speed in the pane, mph (0 when no samples).
    pub p50_speed_mph: f64,
    /// OD transitions in the pane.
    pub od_transitions: u64,
    /// The pane's aggregate fingerprint.
    pub fingerprint: u64,
}

impl PaneSummary {
    fn new(pane: &Pane, pane_us: u64) -> Self {
        let agg = &pane.agg;
        Self {
            pane: pane.index,
            start_us: pane.index * pane_us,
            observations: agg.observations,
            flow_events: agg.flow.total(),
            speed_samples: agg.speeds.samples(),
            p50_speed_mph: agg.speeds.percentile_mph(50.0),
            od_transitions: agg.od.total(),
            fingerprint: pane.fingerprint,
        }
    }
}

/// A pollable view of the engine: telemetry plus recent sealed panes.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Current low watermark, µs.
    pub watermark_us: u64,
    /// How many sealed panes the engine retains for window queries.
    pub retain_panes: usize,
    /// Telemetry counters.
    pub stats: LiveStats,
    /// Summaries of the most recent sealed panes, oldest first.
    pub recent: Vec<PaneSummary>,
}

/// A cursor over the sealed-pane stream: each [`poll`] returns the panes
/// sealed since the previous poll. This is the subscription hook a
/// dashboard drives — pull-based, so a slow consumer can never stall
/// ingest; panes that fell out of retention between polls are reported as
/// `missed`, not silently skipped.
///
/// [`wait_next`] is the push-flavoured variant: instead of busy-polling, it
/// blocks on a condvar the sealer thread signals at every pane seal, waking
/// the moment a new pane lands (or the timeout expires).
///
/// [`poll`]: LiveSubscription::poll
/// [`wait_next`]: LiveSubscription::wait_next
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveSubscription {
    /// Next pane index this subscription has not yet seen.
    cursor: u64,
}

impl LiveSubscription {
    /// Starts a subscription at the beginning of the pane stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns summaries of every pane sealed since the last poll (oldest
    /// first) and the number of panes that were sealed but already evicted
    /// from retention before this poll could see them.
    pub fn poll(&mut self, live: &LiveCity) -> (Vec<PaneSummary>, u64) {
        let cursor = self.cursor;
        let pane_us = live.config().pane_us;
        let (summaries, next, oldest_retained) = live.with_windows(|windows| {
            let panes = windows.panes();
            let summaries: Vec<PaneSummary> = panes
                .iter()
                .filter(|pane| pane.index >= cursor)
                .map(|pane| PaneSummary::new(pane, pane_us))
                .collect();
            let oldest = panes.front().map(|pane| pane.index);
            (summaries, windows.next_pane(), oldest)
        });
        self.cursor = next;
        (summaries, Self::missed(oldest_retained, next, cursor))
    }

    /// Blocks until at least one pane past the cursor has been sealed (the
    /// sealer thread signals every seal) or `timeout` elapses, then returns
    /// exactly what [`poll`](Self::poll) would: the newly sealed panes
    /// (empty on timeout) and the count that fell out of retention unseen.
    ///
    /// This is the dashboard hook that replaces busy-polling: a consumer
    /// sleeping in `wait_next` costs ingest nothing and wakes within one
    /// condvar signal of the pane landing.
    pub fn wait_next(&mut self, live: &LiveCity, timeout: Duration) -> (Vec<PaneSummary>, u64) {
        // Nothing stops this wait but a seal or its timeout.
        live.wait_sealed(self.cursor, timeout, &AtomicBool::new(false));
        self.poll(live)
    }

    fn missed(oldest_retained: Option<u64>, next: u64, cursor: u64) -> u64 {
        match oldest_retained {
            Some(oldest) if oldest > cursor && next > cursor => {
                (oldest - cursor).min(next - cursor)
            }
            None if next > cursor => next - cursor,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LiveConfig;
    use crate::window::MAX_OD_WINDOWS;
    use caraoke_city::position::PositionMethod;
    use caraoke_city::{
        CityAggregates, FlowCounter, PoleDirectory, PoleId, PoleReport, PoleSite, TagKey,
        TagObservation,
    };
    use caraoke_geom::Vec3;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn obs(tag: u64, pole: u32, segment: u16, t_us: u64) -> TagObservation {
        TagObservation {
            tag: TagKey(tag),
            pole: PoleId(pole),
            segment: SegmentId(segment),
            cfo_bin: (tag % 615) as u32,
            cfo_hz: 0.0,
            aoa_rad: 0.0,
            has_aoa: false,
            rssi_db: -40.0,
            timestamp_us: t_us,
            multi_occupied: false,
            decoded: None,
            position: None,
        }
    }

    fn walk_city() -> LiveCity {
        walk_city_for(4)
    }

    /// One tag circling poles 0 -> 1 -> 2 -> 3 -> 0 ..., one pole per
    /// one-second pane, for `epochs` panes (retention 8).
    fn walk_city_for(epochs: u64) -> LiveCity {
        let directory = PoleDirectory::new(
            (0..4)
                .map(|i| PoleSite {
                    segment: SegmentId(0),
                    position: Vec3::new(i as f64 * 30.0, -5.0, 3.8),
                })
                .collect(),
        );
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 8,
            ..Default::default()
        };
        let live = LiveCity::new(directory, config);
        // One tag walks pole 0 -> 1 -> 2 -> 3, one pole per second (30 m/s);
        // every pole reports every epoch so the watermark keeps up.
        for epoch in 0..epochs {
            let t = epoch * 1_000_000;
            for pole in 0..4u32 {
                let observations = if pole as u64 == epoch % 4 {
                    vec![obs(5, pole, 0, t)]
                } else {
                    vec![]
                };
                live.ingest(&PoleReport {
                    pole: PoleId(pole),
                    segment: SegmentId(0),
                    timestamp_us: t,
                    count: observations.len() as u32,
                    peaks: observations.len() as u32,
                    observations,
                });
            }
        }
        live.finish();
        live
    }

    /// The definition the evaluator is held to: merge the trailing `k`
    /// panes whole and read the answer off the merge, sorting every OD pair
    /// — what the evaluator did before it projected and kept windows
    /// running.
    fn answer_by_definition(
        query: &LiveQuery,
        ring: &CityWindows,
        flow: &FlowCounter,
        next_pane: u64,
        watermark_us: u64,
        pane_us: u64,
        cycle_us: u64,
    ) -> LiveAnswer {
        match *query {
            LiveQuery::Occupancy { segment, window } => {
                let agg = ring.merge_last(window.panes(pane_us));
                let stats = agg.segments.get(&segment.0).copied().unwrap_or_default();
                LiveAnswer::Occupancy {
                    mean: stats.mean_occupancy(),
                    peak: stats.peak_count,
                    reports: stats.reports,
                }
            }
            LiveQuery::Flow {
                segment,
                last_cycles,
            } => {
                let now_cycle = (watermark_us / cycle_us) as u32;
                let first = now_cycle.saturating_sub(last_cycles.saturating_sub(1));
                let sum: u64 = flow
                    .per_cycle
                    .iter()
                    .filter(|(&(s, c), _)| s == segment.0 && (first..=now_cycle).contains(&c))
                    .map(|(_, &v)| v)
                    .sum();
                LiveAnswer::Flow {
                    total: sum,
                    mean_per_cycle: sum as f64 / (now_cycle - first + 1) as f64,
                }
            }
            LiveQuery::SpeedPercentile { p, window } => {
                let agg = ring.merge_last(window.panes(pane_us));
                LiveAnswer::Speed {
                    mph: agg.speeds.percentile_mph(p),
                    samples: agg.speeds.samples(),
                }
            }
            LiveQuery::TopOd { n, window } => {
                let agg = ring.merge_last(window.panes(pane_us));
                let mut pairs: Vec<((u32, u32), u64)> = agg.od.iter().collect();
                pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                pairs.truncate(n);
                LiveAnswer::TopOd { pairs }
            }
            LiveQuery::PositionAccuracy { window } => {
                let p = ring.merge_last(window.panes(pane_us)).positions;
                LiveAnswer::PositionAccuracy {
                    two_reader_fixes: p.two_reader_fixes,
                    aoa_only_fixes: p.aoa_only_fixes,
                    pole_fallbacks: p.pole_fallbacks,
                    localized_fraction: p.localized_fraction(),
                    mean_sigma_m: p.mean_sigma_m(),
                    track_speed_samples: p.track_speed_samples,
                    arrival_speed_samples: p.arrival_speed_samples,
                }
            }
            LiveQuery::Watermark => LiveAnswer::Watermark {
                watermark_us,
                sealed_panes: next_pane,
            },
        }
    }

    /// One pane of seeded content over a small universe (3 segments, 4
    /// poles), so panes share segments and OD pairs, counts tie, and some
    /// panes hold no OD pair at all.
    fn seeded_pane(seed: u64, pane: u64) -> CityAggregates {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = CityAggregates::new();
        for _ in 0..rng.random_range(0..4usize) {
            let count = rng.random_range(0..6u32);
            agg.record_report(SegmentId(rng.random_range(0..3u16)), count, count, 0);
            agg.observations += count as u64;
        }
        for _ in 0..rng.random_range(0..5usize) {
            agg.speeds.record(rng.random_range(0.0..90.0f64));
        }
        for _ in 0..rng.random_range(0..8usize) {
            agg.od.record(
                PoleId(rng.random_range(0..4u32)),
                PoleId(rng.random_range(0..4u32)),
            );
        }
        for _ in 0..rng.random_range(0..4usize) {
            let method = [
                PositionMethod::TwoReaderFix,
                PositionMethod::AoaOnly,
                PositionMethod::PolePosition,
            ][rng.random_range(0..3usize)];
            agg.positions
                .record_method(method, rng.random_range(0.5..10.0f64));
        }
        agg.flow
            .record(SegmentId(rng.random_range(0..3u16)), (pane / 3) as u32);
        agg
    }

    proptest! {
        #[test]
        fn warm_answers_equal_the_definition_through_bursts_and_evictions(
            capacity in 1usize..10,
            script in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..60),
        ) {
            let (pane_us, cycle_us) = (1_000_000u64, 3_000_000u64);
            let mut windows = CityWindows::new(capacity);
            let mut flow = FlowCounter::default();
            let mut next_pane = 0u64;
            for (op, x, y) in script {
                if op < 4 {
                    // Mostly a pane or two seal between answers (the delta
                    // the running windows exist for); one burst in four is
                    // up to twice the retention, evicting whole running
                    // windows. Pane indices may skip (a recovered ring).
                    let burst = if op < 3 { 2 } else { 2 * capacity as u64 + 1 };
                    for i in 0..1 + x % burst {
                        let pane = next_pane + (y >> (i % 64)) % 2;
                        let agg = seeded_pane(y ^ i, pane);
                        flow.merge(&agg.flow);
                        windows.push(pane, agg.fingerprint(), agg);
                        next_pane = pane + 1;
                    }
                    continue;
                }
                // Widths run past the retention; n from nothing to the
                // largest the wire can carry.
                let window = WindowSpec::tumbling((1 + x % (capacity as u64 + 3)) * pane_us);
                let segment = SegmentId((y % 4) as u16);
                let query = match op {
                    4..=7 => LiveQuery::TopOd {
                        n: [0, 1, 2, 3, 5, 1_000, usize::MAX][(y % 7) as usize],
                        window,
                    },
                    8 => LiveQuery::Occupancy { segment, window },
                    9 => LiveQuery::SpeedPercentile { p: (y % 101) as f64, window },
                    10 => LiveQuery::PositionAccuracy { window },
                    _ => LiveQuery::Flow { segment, last_cycles: 1 + (x % 5) as u32 },
                };
                let watermark_us = next_pane * pane_us;
                let warm = windows.answer(&query, watermark_us, pane_us, cycle_us);
                let cold = answer_by_definition(
                    &query, &windows, &flow, next_pane, watermark_us, pane_us, cycle_us,
                );
                prop_assert_eq!(warm, cold);
                prop_assert!(windows.running_od_windows() <= MAX_OD_WINDOWS);
            }
        }
    }

    #[test]
    fn a_thousand_client_chosen_widths_share_a_bounded_set_of_running_windows() {
        // 12 panes sealed, 8 retained; every width past 8 panes is the
        // whole ring, so a thousand distinct widths are eight windows.
        let live = walk_city_for(12);
        for w in 1..=1_000u64 {
            let query = LiveQuery::TopOd {
                n: 3,
                window: WindowSpec::tumbling(w * 400_000),
            };
            let warm = live.query(&query);
            live.with_windows(|windows| {
                let cold = answer_by_definition(
                    &query,
                    windows,
                    &windows.flow,
                    windows.next_pane(),
                    live.watermark_us(),
                    live.config().pane_us,
                    live.config().store.light_cycle_us,
                );
                assert_eq!(warm, cold, "width {w}");
                assert!(windows.running_od_windows() <= MAX_OD_WINDOWS);
            });
        }
        // The whole ring holds the circuit's four hops, twice each.
        match live.query(&LiveQuery::TopOd {
            n: usize::MAX,
            window: WindowSpec::tumbling(u64::MAX),
        }) {
            LiveAnswer::TopOd { pairs } => assert_eq!(
                pairs,
                vec![((0, 1), 2), ((1, 2), 2), ((2, 3), 2), ((3, 0), 2)]
            ),
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn queries_answer_from_sealed_windows() {
        let live = walk_city();
        // Occupancy over the whole run: 16 reports, each holding <=1 tag.
        let occupancy = live.query(&LiveQuery::Occupancy {
            segment: SegmentId(0),
            window: WindowSpec::tumbling(4_000_000),
        });
        match occupancy {
            LiveAnswer::Occupancy { peak, reports, .. } => {
                assert_eq!(peak, 1);
                assert_eq!(reports, 16);
            }
            other => panic!("unexpected answer {other:?}"),
        }
        // Speeds: three 30 m / 1 s hops ≈ 67.1 mph each.
        let speed = live.query(&LiveQuery::SpeedPercentile {
            p: 50.0,
            window: WindowSpec::sliding(4_000_000, 1_000_000),
        });
        match speed {
            LiveAnswer::Speed { mph, samples } => {
                assert_eq!(samples, 3);
                assert!((mph - caraoke_geom::mps_to_mph(30.0)).abs() < 0.5, "{mph}");
            }
            other => panic!("unexpected answer {other:?}"),
        }
        // OD: the walk's three hops, one transition each.
        let od = live.query(&LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(4_000_000),
        });
        match od {
            LiveAnswer::TopOd { pairs } => {
                assert_eq!(pairs.len(), 3);
                assert!(pairs.contains(&((0, 1), 1)));
            }
            other => panic!("unexpected answer {other:?}"),
        }
        // Flow over the last cycle (60 s default cycle: everything is in
        // cycle 0, which the watermark is also in).
        let flow = live.query(&LiveQuery::Flow {
            segment: SegmentId(0),
            last_cycles: 1,
        });
        match flow {
            LiveAnswer::Flow {
                total,
                mean_per_cycle,
            } => {
                assert_eq!(total, 1, "one tag entered segment 0 once");
                assert!((mean_per_cycle - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected answer {other:?}"),
        }
        match live.query(&LiveQuery::Watermark) {
            LiveAnswer::Watermark {
                watermark_us,
                sealed_panes,
            } => {
                assert_eq!(sealed_panes, 4);
                assert!(watermark_us >= 3_000_000);
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn position_accuracy_query_reports_the_method_ladder() {
        use caraoke_city::position::PositionEstimate;
        let directory = PoleDirectory::new(
            (0..2)
                .map(|i| PoleSite {
                    segment: SegmentId(0),
                    position: Vec3::new(i as f64 * 30.0, -5.0, 3.8),
                })
                .collect(),
        );
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 8,
            ..Default::default()
        };
        let live = LiveCity::new(directory, config);
        // A tag walks pole 0 -> 1 with two-reader fixes at the true 12 m/s;
        // a parked tag never localizes (pole fallback).
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            let mut walker = obs(5, (epoch as u32).min(1), 0, t);
            walker.position = Some(PositionEstimate::two_reader(12.0 * epoch as f64, -1.5, 1.0));
            let mut parked = obs(6, 0, 0, t);
            parked.position = None;
            let pole1_obs = if epoch >= 1 { vec![walker] } else { vec![] };
            let pole0_obs = if epoch == 0 {
                vec![walker, parked]
            } else {
                vec![parked]
            };
            for (pole, observations) in [(0u32, pole0_obs), (1, pole1_obs)] {
                live.ingest(&PoleReport {
                    pole: PoleId(pole),
                    segment: SegmentId(0),
                    timestamp_us: t,
                    count: observations.len() as u32,
                    peaks: observations.len() as u32,
                    observations,
                });
            }
        }
        live.finish();
        match live.query(&LiveQuery::PositionAccuracy {
            window: WindowSpec::tumbling(3_000_000),
        }) {
            LiveAnswer::PositionAccuracy {
                two_reader_fixes,
                aoa_only_fixes,
                pole_fallbacks,
                localized_fraction,
                mean_sigma_m,
                track_speed_samples,
                arrival_speed_samples,
            } => {
                assert_eq!(two_reader_fixes, 3);
                assert_eq!(aoa_only_fixes, 0);
                assert_eq!(pole_fallbacks, 3);
                assert!((localized_fraction - 0.5).abs() < 1e-12);
                // Half the observations are sigma = 1 m fixes, half the
                // 10 m pole fallback.
                assert!((mean_sigma_m - 5.5).abs() < 1e-9);
                assert_eq!(track_speed_samples, 1, "the walk regresses once");
                assert_eq!(arrival_speed_samples, 0);
            }
            other => panic!("unexpected answer {other:?}"),
        }
        // The speed product consumed the track, not the pole spacing: the
        // 30 m pole gap over 1 s would fake ~67 mph, the track says ~27.
        match live.query(&LiveQuery::SpeedPercentile {
            p: 50.0,
            window: WindowSpec::tumbling(3_000_000),
        }) {
            LiveAnswer::Speed { mph, samples } => {
                assert_eq!(samples, 1);
                assert!(
                    (mph - caraoke_geom::mps_to_mph(12.0)).abs() < 0.5,
                    "track speed, got {mph}"
                );
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn query_sealed_batches_match_individual_queries() {
        let live = walk_city();
        let queries = [
            LiveQuery::Occupancy {
                segment: SegmentId(0),
                window: WindowSpec::tumbling(4_000_000),
            },
            LiveQuery::SpeedPercentile {
                p: 50.0,
                window: WindowSpec::sliding(4_000_000, 1_000_000),
            },
            LiveQuery::TopOd {
                n: 5,
                window: WindowSpec::tumbling(4_000_000),
            },
            LiveQuery::Flow {
                segment: SegmentId(0),
                last_cycles: 1,
            },
            LiveQuery::Watermark,
        ];
        let (horizon, answers) = live.query_sealed(&queries);
        assert_eq!(horizon, 4, "four panes sealed");
        assert_eq!(answers.len(), queries.len());
        // One lock acquisition or many: the answers are identical.
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(&live.query(q), a, "{q:?}");
        }
    }

    #[test]
    fn snapshot_and_subscription_follow_the_pane_stream() {
        let live = walk_city();
        let snap = live.snapshot(2);
        assert_eq!(snap.recent.len(), 2);
        assert_eq!(snap.recent[0].pane, 2);
        assert_eq!(snap.recent[1].pane, 3);
        assert!(snap.recent.iter().all(|p| p.fingerprint != 0));
        assert_eq!(snap.stats.observations, 4);

        let mut sub = LiveSubscription::new();
        let (panes, missed) = sub.poll(&live);
        assert_eq!(missed, 0, "retention (8) covers all 4 panes");
        assert_eq!(panes.len(), 4);
        // Nothing new sealed since: the next poll is empty.
        let (panes, missed) = sub.poll(&live);
        assert!(panes.is_empty());
        assert_eq!(missed, 0);
    }

    #[test]
    fn wait_next_blocks_until_the_sealer_lands_a_pane() {
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 8,
            ..Default::default()
        };
        let live = LiveCity::new(directory, config);
        let mut sub = LiveSubscription::new();
        // Nothing sealed yet: a short wait must time out empty-handed.
        let (panes, missed) = sub.wait_next(&live, std::time::Duration::from_millis(20));
        assert!(panes.is_empty());
        assert_eq!(missed, 0);
        // A waiter blocked in wait_next is woken by the seal that the
        // concurrent ingest below triggers.
        std::thread::scope(|scope| {
            let live = &live;
            let waiter = scope.spawn(move || {
                let mut sub = LiveSubscription::new();
                sub.wait_next(live, std::time::Duration::from_secs(30))
            });
            // Two epochs for the single pole: pane 0 seals.
            for epoch in 0..2u64 {
                let t = epoch * 1_000_000;
                live.ingest(&PoleReport {
                    pole: PoleId(0),
                    segment: SegmentId(0),
                    timestamp_us: t,
                    count: 1,
                    peaks: 1,
                    observations: vec![obs(4, 0, 0, t)],
                });
            }
            let (panes, missed) = waiter.join().expect("waiter thread");
            assert_eq!(missed, 0);
            assert_eq!(panes.len(), 1, "woken by the first sealed pane");
            assert_eq!(panes[0].pane, 0);
            assert_eq!(panes[0].observations, 1);
        });
        // The outer subscription sees the same pane on its next wait.
        let (panes, missed) = sub.wait_next(&live, std::time::Duration::from_secs(30));
        assert_eq!(missed, 0);
        assert_eq!(panes.len(), 1);
    }

    #[test]
    fn a_wait_next_with_no_representable_deadline_returns_the_sealed_pane() {
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            ..Default::default()
        };
        let live = LiveCity::new(directory, config);
        for epoch in 0..2u64 {
            let t = epoch * 1_000_000;
            live.ingest(&PoleReport {
                pole: PoleId(0),
                segment: SegmentId(0),
                timestamp_us: t,
                count: 1,
                peaks: 1,
                observations: vec![obs(4, 0, 0, t)],
            });
        }
        // `Instant::now() + Duration::MAX` overflows: no deadline at all.
        let (panes, missed) = LiveSubscription::new().wait_next(&live, Duration::MAX);
        assert_eq!(missed, 0);
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].pane, 0);
    }

    #[test]
    fn subscription_reports_evicted_panes_as_missed() {
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 2,
            ..Default::default()
        };
        let live = LiveCity::new(directory, config);
        for epoch in 0..6u64 {
            let t = epoch * 1_000_000;
            live.ingest(&PoleReport {
                pole: PoleId(0),
                segment: SegmentId(0),
                timestamp_us: t,
                count: 0,
                peaks: 0,
                observations: vec![],
            });
        }
        live.finish();
        // 6 panes sealed, 2 retained: a fresh subscriber missed 4.
        let mut sub = LiveSubscription::new();
        let (panes, missed) = sub.poll(&live);
        assert_eq!(panes.len(), 2);
        assert_eq!(missed, 4);
    }
}
