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
//! [`WindowRing`] is the pane store: a bounded ring that admits sealed panes
//! in pane order and evicts the oldest beyond its retention, which makes
//! eviction deterministic — a property pinned by the live determinism tests.
//! Any aggregate implementing [`WindowAggregate`] (merge + fingerprint) can
//! be window-keyed; all four city products implement it.
//!
//! A window query does **not** merge whole panes. It walks the trailing `k`
//! panes ([`WindowRing::last`]) and folds only the field it answers from —
//! one segment's [`SegmentStats`], the speed histogram, the position
//! counters — and the one product too big to fold per query, the OD matrix,
//! is answered from the running windows [`CityWindows`] keeps beside the
//! ring: per window width, a union of the trailing panes' matrices, brought
//! up to date by delta when it is asked.
//! The evaluator and its warm/cold contract are in [`crate::query`].

use caraoke_city::aggregate::Fingerprint;
use caraoke_city::{
    CityAggregates, FlowCounter, OdMatrix, OdPair, OdUnion, SegmentStats, SpeedHistogram,
};
use std::collections::VecDeque;

/// State that can live in window panes: mergeable across panes (and shards)
/// and fingerprintable for determinism checks.
pub trait WindowAggregate: Clone + Default {
    /// Folds another pane's state in (associative, commutative).
    fn merge(&mut self, other: &Self);

    /// 64-bit fingerprint of the canonical byte encoding.
    fn fingerprint64(&self) -> u64;
}

impl WindowAggregate for CityAggregates {
    fn merge(&mut self, other: &Self) {
        CityAggregates::merge(self, other);
    }

    fn fingerprint64(&self) -> u64 {
        self.fingerprint()
    }
}

macro_rules! impl_window_aggregate {
    ($($t:ty),*) => {$(
        impl WindowAggregate for $t {
            fn merge(&mut self, other: &Self) {
                <$t>::merge(self, other);
            }

            fn fingerprint64(&self) -> u64 {
                let mut fp = Fingerprint::new();
                self.fingerprint_into(&mut fp);
                fp.finish()
            }
        }
    )*};
}
impl_window_aggregate!(SegmentStats, FlowCounter, SpeedHistogram, OdMatrix);

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

    /// Whether the window tumbles (slide == width).
    pub fn is_tumbling(&self) -> bool {
        self.slide_us == self.width_us
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

/// A bounded, pane-indexed ring of sealed window aggregates.
///
/// Panes are pushed in pane order as the watermark seals them; the ring
/// retains the most recent `capacity` panes and evicts the oldest —
/// deterministically, since seal order is pane order. Window queries walk
/// the trailing `k` panes ([`last`](Self::last)) and fold the one field they
/// answer from.
#[derive(Debug, Clone)]
pub struct WindowRing<A> {
    capacity: usize,
    panes: VecDeque<(u64, A)>,
    evicted: u64,
}

impl<A: WindowAggregate> WindowRing<A> {
    /// Creates a ring retaining at most `capacity` sealed panes (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            panes: VecDeque::with_capacity(capacity),
            evicted: 0,
        }
    }

    /// Admits one sealed pane (panes must arrive in increasing pane order),
    /// returning the evicted pane when retention overflows.
    pub fn push(&mut self, pane: u64, agg: A) -> Option<(u64, A)> {
        if let Some(&(last, _)) = self.panes.back() {
            assert!(pane > last, "panes must seal in order: {pane} after {last}");
        }
        self.panes.push_back((pane, agg));
        if self.panes.len() > self.capacity {
            self.evicted += 1;
            self.panes.pop_front()
        } else {
            None
        }
    }

    /// Number of panes currently retained.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// Whether no pane has been retained.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// Panes evicted over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The most recent sealed pane index.
    pub fn latest_pane(&self) -> Option<u64> {
        self.panes.back().map(|&(p, _)| p)
    }

    /// Iterates over `(pane index, aggregate)`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &A)> {
        self.panes.iter().map(|(p, a)| (*p, a))
    }

    /// The `k` most recent panes (fewer if the ring holds fewer), oldest
    /// first — what a window query folds over.
    pub fn last(&self, k: usize) -> impl Iterator<Item = &A> {
        let start = self.panes.len().saturating_sub(k);
        self.panes.range(start..).map(|(_, agg)| agg)
    }

    /// Merges the `k` most recent panes into one window aggregate: the
    /// *definition* of a window, kept as the oracle the projected and
    /// running evaluation is tested against.
    #[cfg(test)]
    pub(crate) fn merge_last(&self, k: usize) -> A {
        let mut out = A::default();
        for agg in self.last(k) {
            out.merge(agg);
        }
        out
    }
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
    /// When that does not line up — first use, the old start evicted — or
    /// would fold more panes than the window holds, the same two loops run
    /// from an empty union over the whole window: the cold path.
    fn advance(&mut self, panes: &VecDeque<(u64, CityAggregates)>) {
        let len = panes.len();
        let start = len.saturating_sub(self.width);
        let position = |pane: u64| panes.binary_search_by_key(&pane, |&(p, _)| p).ok();
        let delta = self
            .span
            .and_then(|(oldest, newest)| Some((position(oldest)?, position(newest)?)))
            .filter(|&(a, b)| {
                a <= start && start <= b && (start - a) + (len - 1 - b) < len - start
            });
        let (left, entered) = match delta {
            Some((a, b)) => (a..start, b + 1..len),
            None => {
                self.union.clear();
                (0..0, start..len)
            }
        };
        for (_, agg) in panes.range(left) {
            self.union.subtract(&agg.od);
        }
        for (_, agg) in panes.range(entered) {
            self.union.add(&agg.od);
        }
        self.span = panes.back().map(|&(newest, _)| (panes[start].0, newest));
    }
}

/// A city's windowed state: the retained pane ring plus the running OD
/// windows that summarise it — what the engine, a log follower and a replay
/// hub each hold, and what the evaluator ([`crate::answer_windowed`]) reads.
///
/// The ring is private and only grows through [`push`](Self::push), so a
/// running window can never be paired with panes it was not built from.
/// Nothing runs for the windows when a pane is pushed: a window is brought
/// up to date when a query asks for it, and a city nobody queries holds an
/// empty `Vec`.
#[derive(Debug, Clone)]
pub struct CityWindows {
    ring: WindowRing<CityAggregates>,
    /// Most recently used first; at most [`MAX_OD_WINDOWS`].
    od: Vec<OdWindow>,
}

impl CityWindows {
    /// Windowed state retaining at most `retain_panes` sealed panes (min 1).
    pub fn new(retain_panes: usize) -> Self {
        Self {
            ring: WindowRing::new(retain_panes),
            od: Vec::new(),
        }
    }

    /// Admits one sealed pane (see [`WindowRing::push`]).
    pub fn push(&mut self, pane: u64, agg: CityAggregates) {
        self.ring.push(pane, agg);
    }

    /// The retained panes.
    pub fn ring(&self) -> &WindowRing<CityAggregates> {
        &self.ring
    }

    /// Running OD windows currently held (at most [`MAX_OD_WINDOWS`]).
    #[cfg(test)]
    pub(crate) fn running_od_windows(&self) -> usize {
        self.od.len()
    }

    /// The `n` busiest OD pairs over the `k` most recent panes — what
    /// merging those panes and calling [`OdMatrix::top`] returns.
    pub fn top_od(&mut self, k: usize, n: usize) -> Vec<OdPair> {
        let width = k.min(self.ring.capacity);
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
        window.advance(&self.ring.panes);
        window.union.top(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleId, SegmentId};

    #[test]
    fn tumbling_and_sliding_specs_span_the_right_pane_counts() {
        let tumbling = WindowSpec::tumbling(6_000_000);
        assert!(tumbling.is_tumbling());
        assert_eq!(tumbling.panes(1_500_000), 4);
        let sliding = WindowSpec::sliding(6_000_000, 1_500_000);
        assert!(!sliding.is_tumbling());
        assert_eq!(sliding.panes(1_500_000), 4);
        // Ragged widths round up; a sub-pane window still spans one pane.
        assert_eq!(WindowSpec::tumbling(4_000_000).panes(1_500_000), 3);
        assert_eq!(WindowSpec::tumbling(100).panes(1_500_000), 1);
    }

    #[test]
    fn occupancy_window_merges_segment_stats_panes() {
        // Tumbling occupancy (the "last N traffic-light cycles" workload):
        // each pane holds one cycle's SegmentStats.
        let mut ring: WindowRing<SegmentStats> = WindowRing::new(8);
        for pane in 0..5u64 {
            let mut stats = SegmentStats::default();
            stats.record_report(pane as u32 + 1, pane as u32 + 1, 0);
            ring.push(pane, stats);
        }
        let last3 = ring.merge_last(3);
        assert_eq!(last3.reports, 3);
        assert_eq!(last3.sum_count, 3 + 4 + 5);
        assert_eq!(last3.peak_count, 5);
        assert!((last3.mean_occupancy() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn flow_window_keeps_per_cycle_counts_per_pane() {
        let mut ring: WindowRing<FlowCounter> = WindowRing::new(4);
        for pane in 0..4u64 {
            let mut flow = FlowCounter::default();
            for _ in 0..=pane {
                flow.record(SegmentId(2), pane as u32);
            }
            ring.push(pane, flow);
        }
        let last2 = ring.merge_last(2);
        assert_eq!(last2.total(), 3 + 4);
        assert_eq!(last2.per_cycle.get(&(2, 3)), Some(&4));
        assert_eq!(last2.per_cycle.get(&(2, 0)), None, "outside the window");
    }

    #[test]
    fn speed_percentiles_come_from_the_merged_window() {
        let mut ring: WindowRing<SpeedHistogram> = WindowRing::new(8);
        let mut slow = SpeedHistogram::new();
        slow.record(20.0);
        ring.push(0, slow);
        let mut fast = SpeedHistogram::new();
        fast.record(60.0);
        ring.push(1, fast);
        // One-pane window sees only the fast pane; two-pane window both.
        assert!((ring.merge_last(1).percentile_mph(50.0) - 60.25).abs() < 1e-9);
        let both = ring.merge_last(WindowSpec::sliding(2, 1).panes(1));
        assert_eq!(both.samples(), 2);
        assert!((both.percentile_mph(50.0) - 20.25).abs() < 1e-9);
        assert!((both.percentile_mph(100.0) - 60.25).abs() < 1e-9);
    }

    #[test]
    fn od_top_pairs_are_windowed_and_eviction_is_deterministic() {
        let mut ring: WindowRing<OdMatrix> = WindowRing::new(2);
        for pane in 0..5u64 {
            let mut od = OdMatrix::default();
            od.record(PoleId(pane as u32), PoleId(pane as u32 + 1));
            od.record(PoleId(9), PoleId(9 + pane as u32));
            let evicted = ring.push(pane, od);
            // Retention 2: pane p evicts pane p-2, in order.
            assert_eq!(evicted.map(|(p, _)| p), (pane >= 2).then(|| pane - 2));
        }
        assert_eq!(ring.evicted(), 3);
        assert_eq!(ring.latest_pane(), Some(4));
        let window = ring.merge_last(2);
        assert_eq!(window.total(), 4);
        let top = window.top(2);
        // Ties broken by pole ids: (3,4) before (4,5) before the 9-pairs.
        assert_eq!(top[0], ((3, 4), 1));
        assert_eq!(top[1], ((4, 5), 1));
    }

    #[test]
    fn window_aggregate_fingerprints_distinguish_states() {
        let mut a = SpeedHistogram::new();
        a.record(30.0);
        let mut b = a.clone();
        assert_eq!(a.fingerprint64(), b.fingerprint64());
        b.record(31.0);
        assert_ne!(a.fingerprint64(), b.fingerprint64());
    }
}
