//! Window-keyed aggregate state.
//!
//! The batch tier's aggregators ([`CityAggregates`] and its parts) are
//! whole-run accumulators. The live tier generalizes them into **panes**:
//! fixed-width slices of event time (the watermark's granularity, see
//! [`crate::watermark`]). Each pane accumulates its own aggregate state;
//! *windows* — tumbling or sliding — are unions of consecutive panes, so one
//! set of sealed panes answers every window query:
//!
//! * a **tumbling** window of width `W = k · pane` is every aligned run of
//!   `k` panes;
//! * a **sliding** window of width `W` sliding by the pane width is the run
//!   of `k` panes ending at any pane.
//!
//! [`CityWindows`] is the published pane ring every reader answers from: a
//! bounded ring that admits sealed panes in pane order and evicts the oldest
//! beyond its retention, which makes eviction deterministic — a property
//! pinned by the live determinism tests. Beside the ring it keeps what an
//! answer reads of the whole run — the pane horizon, the flow counter and
//! the observation count — so one value is a complete answering state. The
//! engine's sealer pushes each pass's panes into it once the pass's log
//! commit has returned; a log follower pushes the panes it verified.
//!
//! A window query does **not** merge whole panes. It walks the trailing `k`
//! panes and folds only the field it answers from — one segment's
//! [`SegmentStats`](caraoke_city::SegmentStats), the speed histogram, the
//! position counters — and the one product too big to fold per query, the OD
//! matrix, is answered from the running windows [`CityWindows`] keeps beside
//! the ring: per window width, a union of the trailing panes' matrices,
//! brought up to date by delta when it is asked.
//! The evaluator ([`CityWindows::answer`]) and its warm/cold contract are in
//! [`crate::query`].

use caraoke_city::{CityAggregates, FlowCounter, OdPair, OdUnion};
use std::collections::VecDeque;

/// An event-time window shape: `width_us` of data re-evaluated every
/// `slide_us`. `slide == width` is a tumbling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width, µs.
    pub width_us: u64,
    /// Slide interval, µs (how often the window re-evaluates).
    pub slide_us: u64,
}

impl WindowSpec {
    /// A tumbling window: disjoint, back-to-back slices of width `width_us`.
    pub fn tumbling(width_us: u64) -> Self {
        assert!(width_us > 0, "windows must have nonzero width");
        Self {
            width_us,
            slide_us: width_us,
        }
    }

    /// A sliding window: `width_us` of data re-evaluated every `slide_us`.
    pub fn sliding(width_us: u64, slide_us: u64) -> Self {
        assert!(slide_us > 0, "slide must be nonzero");
        assert!(
            width_us >= slide_us,
            "a window narrower than its slide would skip data"
        );
        Self { width_us, slide_us }
    }

    /// Number of panes the window spans at the given pane width (rounds up,
    /// never below one pane).
    ///
    /// Widths arrive from clients unchecked, so this can be far more panes
    /// than a ring retains. Every window at least as wide as the ring's
    /// capacity *is* the same window — all the ring holds — and the query
    /// layer treats it as such (one answer, one running window).
    pub fn panes(&self, pane_us: u64) -> usize {
        (self.width_us.div_ceil(pane_us).max(1)) as usize
    }
}

/// One retained sealed pane.
#[derive(Debug, Clone)]
pub(crate) struct Pane {
    /// Pane index (event time / pane width).
    pub(crate) index: u64,
    /// `agg.fingerprint()`, computed once by whoever sealed or verified the
    /// pane.
    pub(crate) fingerprint: u64,
    pub(crate) agg: CityAggregates,
}

/// How many running OD windows one [`CityWindows`] keeps, least recently
/// used out. Window widths come from clients, so the set must be bounded;
/// dashboards share a handful of widths.
pub const MAX_OD_WINDOWS: usize = 4;

/// One running window: the union of the OD matrices of the `width` most
/// recent panes as of the last answer.
#[derive(Debug, Clone)]
struct OdWindow {
    /// Window width in panes, clamped to the ring's capacity — the cache key.
    width: usize,
    /// Pane indices of the oldest and newest pane in `union`; `None` while
    /// it is empty.
    span: Option<(u64, u64)>,
    union: OdUnion,
}

impl OdWindow {
    /// Brings the union to the trailing `width` panes of `panes`.
    ///
    /// The ring only appends at the back and evicts at the front, so while
    /// the pane the union starts at is still retained, the panes between its
    /// two ends are the ones that were added, and the window has moved by
    /// subtracting what fell off its old end and adding what sealed since.
    /// When that does not line up — first use, the old start evicted, a
    /// pane the union turns out never to have held — or would fold more
    /// panes than the window holds, the adding loop runs from an empty union
    /// over the whole window: the cold path.
    fn advance(&mut self, panes: &VecDeque<Pane>) {
        let len = panes.len();
        let start = len.saturating_sub(self.width);
        let position = |pane: u64| panes.binary_search_by_key(&pane, |p| p.index).ok();
        let delta = self
            .span
            .and_then(|(oldest, newest)| Some((position(oldest)?, position(newest)?)))
            .filter(|&(a, b)| {
                a <= start && start <= b && (start - a) + (len - 1 - b) < len - start
            });
        // A pane the union never held (its bookkeeping is wrong) is not a
        // panic under the ring's lock: it is one more reason to go cold.
        let warm = delta.filter(|&(a, _)| {
            panes
                .range(a..start)
                .all(|pane| self.union.subtract(&pane.agg.od))
        });
        let entered = match warm {
            Some((_, b)) => b + 1..len,
            None => {
                self.union.clear();
                start..len
            }
        };
        for pane in panes.range(entered) {
            self.union.add(&pane.agg.od);
        }
        self.span = panes
            .back()
            .map(|newest| (panes[start].index, newest.index));
    }
}

/// A city's answering state: the ring of retained sealed panes, the
/// running OD windows that summarise it, and the whole-run flow,
/// observation count and pane horizon — what the engine publishes to and a
/// log follower replays into, and what [`answer`](Self::answer) reads.
///
/// Panes are pushed in pane order as the watermark seals them; the ring
/// retains the most recent `retain_panes` and evicts the oldest —
/// deterministically, since seal order is pane order. It only grows through
/// [`push`](Self::push), so a running window can never be paired with panes it
/// was not built from. Nothing runs for the windows when a pane is pushed: a
/// window is brought up to date when a query asks for it, and a city nobody
/// queries holds an empty `Vec`.
#[derive(Debug, Clone)]
pub struct CityWindows {
    capacity: usize,
    panes: VecDeque<Pane>,
    /// Most recently used first; at most [`MAX_OD_WINDOWS`].
    od: Vec<OdWindow>,
    /// Flow over every pane pushed or adopted — all a `Flow` answer reads.
    pub(crate) flow: FlowCounter,
    /// Observations over every pane pushed or adopted.
    pub(crate) observations: u64,
    /// The pane horizon: the first pane not yet pushed or adopted.
    next_pane: u64,
}

impl CityWindows {
    /// Windowed state retaining at most `retain_panes` sealed panes (min 1).
    pub fn new(retain_panes: usize) -> Self {
        let capacity = retain_panes.max(1);
        Self {
            capacity,
            panes: VecDeque::with_capacity(capacity),
            od: Vec::new(),
            flow: FlowCounter::default(),
            observations: 0,
            next_pane: 0,
        }
    }

    /// Admits one sealed pane with its aggregate `fingerprint` (panes must
    /// arrive in increasing pane order), evicting the oldest when retention
    /// overflows, and moves the horizon past it.
    pub fn push(&mut self, pane: u64, fingerprint: u64, agg: CityAggregates) {
        if let Some(last) = self.panes.back() {
            assert!(
                pane > last.index,
                "panes must seal in order: {pane} after {}",
                last.index
            );
        }
        self.flow.merge(&agg.flow);
        self.observations += agg.observations;
        self.next_pane = pane + 1;
        self.panes.push_back(Pane {
            index: pane,
            fingerprint,
            agg,
        });
        if self.panes.len() > self.capacity {
            self.panes.pop_front();
        }
    }

    /// Adopts `total`, the merge of every pane below `next_pane` (a
    /// snapshot's or a recovery's): its flow and observation count replace
    /// the running ones and the horizon moves up to `next_pane`. Retained
    /// panes stay; panes pushed afterwards add on.
    pub fn adopt(&mut self, next_pane: u64, total: &CityAggregates) {
        self.flow = total.flow.clone();
        self.observations = total.observations;
        self.next_pane = self.next_pane.max(next_pane);
    }

    /// The pane horizon: one past the newest pane pushed, or the adopted
    /// horizon if that is further.
    pub fn next_pane(&self) -> u64 {
        self.next_pane
    }

    /// The retained panes, oldest first.
    pub(crate) fn panes(&self) -> &VecDeque<Pane> {
        &self.panes
    }

    /// The `k` most recent panes (fewer if the ring holds fewer), oldest
    /// first — what a window query folds over.
    pub(crate) fn last(&self, k: usize) -> impl Iterator<Item = &CityAggregates> {
        let start = self.panes.len().saturating_sub(k);
        self.panes.range(start..).map(|pane| &pane.agg)
    }

    /// Merges the `k` most recent panes into one window aggregate: the
    /// *definition* of a window, kept as the oracle the projected and
    /// running evaluation is tested against.
    #[cfg(test)]
    pub(crate) fn merge_last(&self, k: usize) -> CityAggregates {
        let mut out = CityAggregates::new();
        for agg in self.last(k) {
            out.merge(agg);
        }
        out
    }

    /// Running OD windows currently held (at most [`MAX_OD_WINDOWS`]).
    #[cfg(test)]
    pub(crate) fn running_od_windows(&self) -> usize {
        self.od.len()
    }

    /// The `n` busiest OD pairs over the `k` most recent panes — what merging
    /// those panes and calling [`caraoke_city::OdMatrix::top`] returns.
    pub fn top_od(&mut self, k: usize, n: usize) -> Vec<OdPair> {
        let width = k.min(self.capacity);
        let at = match self.od.iter().position(|w| w.width == width) {
            Some(at) => at,
            None => {
                self.od.truncate(MAX_OD_WINDOWS - 1);
                self.od.push(OdWindow {
                    width,
                    span: None,
                    union: OdUnion::default(),
                });
                self.od.len() - 1
            }
        };
        self.od[..=at].rotate_right(1);
        let window = &mut self.od[0];
        window.advance(&self.panes);
        window.union.top(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleId, SegmentId};

    /// Pushes `agg` under its own fingerprint, as the sealer does.
    fn push(windows: &mut CityWindows, pane: u64, agg: CityAggregates) {
        windows.push(pane, agg.fingerprint(), agg);
    }

    #[test]
    fn tumbling_and_sliding_specs_span_the_right_pane_counts() {
        let tumbling = WindowSpec::tumbling(6_000_000);
        assert_eq!(tumbling.panes(1_500_000), 4);
        let sliding = WindowSpec::sliding(6_000_000, 1_500_000);
        assert_eq!(sliding.panes(1_500_000), 4);
        // Ragged widths round up; a sub-pane window still spans one pane.
        assert_eq!(WindowSpec::tumbling(4_000_000).panes(1_500_000), 3);
        assert_eq!(WindowSpec::tumbling(100).panes(1_500_000), 1);
    }

    #[test]
    fn occupancy_window_merges_segment_stats_panes() {
        // Tumbling occupancy (the "last N traffic-light cycles" workload):
        // each pane holds one cycle's report for segment 0.
        let mut windows = CityWindows::new(8);
        for pane in 0..5u64 {
            let mut agg = CityAggregates::new();
            agg.record_report(SegmentId(0), pane as u32 + 1, pane as u32 + 1, 0);
            push(&mut windows, pane, agg);
        }
        let last3 = windows.merge_last(3).segments[&0];
        assert_eq!(last3.reports, 3);
        assert_eq!(last3.sum_count, 3 + 4 + 5);
        assert_eq!(last3.peak_count, 5);
        assert!((last3.mean_occupancy() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn flow_window_keeps_per_cycle_counts_per_pane() {
        let mut windows = CityWindows::new(4);
        for pane in 0..4u64 {
            let mut agg = CityAggregates::new();
            for _ in 0..=pane {
                agg.flow.record(SegmentId(2), pane as u32);
            }
            push(&mut windows, pane, agg);
        }
        let last2 = windows.merge_last(2).flow;
        assert_eq!(last2.total(), 3 + 4);
        assert_eq!(last2.per_cycle.get(&(2, 3)), Some(&4));
        assert_eq!(last2.per_cycle.get(&(2, 0)), None, "outside the window");
    }

    #[test]
    fn speed_percentiles_come_from_the_merged_window() {
        let mut windows = CityWindows::new(8);
        let mut slow = CityAggregates::new();
        slow.speeds.record(20.0);
        push(&mut windows, 0, slow);
        let mut fast = CityAggregates::new();
        fast.speeds.record(60.0);
        push(&mut windows, 1, fast);
        // One-pane window sees only the fast pane; two-pane window both.
        let newest = windows.merge_last(1).speeds;
        assert!((newest.percentile_mph(50.0) - 60.25).abs() < 1e-9);
        let both = windows
            .merge_last(WindowSpec::sliding(2, 1).panes(1))
            .speeds;
        assert_eq!(both.samples(), 2);
        assert!((both.percentile_mph(50.0) - 20.25).abs() < 1e-9);
        assert!((both.percentile_mph(100.0) - 60.25).abs() < 1e-9);
    }

    #[test]
    fn od_top_pairs_are_windowed_and_eviction_is_deterministic() {
        let mut windows = CityWindows::new(2);
        for pane in 0..5u64 {
            let mut agg = CityAggregates::new();
            agg.od.record(PoleId(pane as u32), PoleId(pane as u32 + 1));
            agg.od.record(PoleId(9), PoleId(9 + pane as u32));
            push(&mut windows, pane, agg);
            // Retention 2: pane p evicts pane p-2, in order.
            let retained: Vec<u64> = windows.panes().iter().map(|p| p.index).collect();
            assert_eq!(
                retained,
                (pane.saturating_sub(1)..=pane).collect::<Vec<_>>()
            );
        }
        let window = windows.merge_last(2).od;
        assert_eq!(window.total(), 4);
        let top = window.top(2);
        // Ties broken by pole ids: (3,4) before (4,5) before the 9-pairs.
        assert_eq!(top[0], ((3, 4), 1));
        assert_eq!(top[1], ((4, 5), 1));
        // The running window answers what the merge answers.
        assert_eq!(windows.top_od(2, 2), top);
    }

    #[test]
    fn a_window_that_never_held_a_pane_it_claims_rebuilds_cold() {
        let od_pane = |pane: u64| {
            let mut agg = CityAggregates::new();
            agg.od.record(PoleId(pane as u32), PoleId(pane as u32 + 1));
            agg.od.record(PoleId(9), PoleId(10));
            agg
        };
        let mut windows = CityWindows::new(8);
        for pane in 0..6u64 {
            push(&mut windows, pane, od_pane(pane));
        }
        assert_eq!(windows.top_od(4, 9), windows.merge_last(4).od.top(9));
        // Forge the bookkeeping: the union holds panes 2..=5 but now says it
        // starts at pane 1, so the next slide subtracts a pane never added.
        assert_eq!(windows.od[0].span, Some((2, 5)));
        windows.od[0].span = Some((1, 5));
        push(&mut windows, 6, od_pane(6));
        assert_eq!(windows.top_od(4, 9), windows.merge_last(4).od.top(9));
        assert_eq!(windows.od[0].span, Some((3, 6)));
        // The rebuilt window slides warm again.
        push(&mut windows, 7, od_pane(7));
        assert_eq!(windows.top_od(4, 9), windows.merge_last(4).od.top(9));
    }

    #[test]
    fn window_aggregate_fingerprints_distinguish_states() {
        let mut windows = CityWindows::new(2);
        let mut a = CityAggregates::new();
        a.speeds.record(30.0);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.speeds.record(31.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // The ring hands back the fingerprint each pane was pushed under.
        push(&mut windows, 0, a.clone());
        push(&mut windows, 1, b.clone());
        let stored: Vec<u64> = windows.panes().iter().map(|p| p.fingerprint).collect();
        assert_eq!(stored, vec![a.fingerprint(), b.fingerprint()]);
    }
}
