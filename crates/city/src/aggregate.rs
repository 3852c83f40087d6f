//! Streaming aggregators, computed incrementally on ingest.
//!
//! Every aggregator here accumulates **integer counters only** (counts,
//! quantized sums, histogram bins). Integer addition is associative and
//! commutative, so aggregates merged from any number of shards in any
//! grouping are *byte-identical* — the property the shard-count-invariance
//! tests pin down. Floating-point output (means, percentiles) is derived
//! from the integer state only at snapshot time.
//!
//! The five city products map to the paper's evaluation workloads:
//!
//! * [`SegmentStats`] — per-street occupancy (the Fig. 13 parking workload).
//! * [`FlowCounter`] — vehicles per traffic-light cycle (Fig. 12).
//! * [`SpeedHistogram`] — speed percentiles from position tracks (§7).
//! * [`OdMatrix`] — origin–destination transitions from tag re-sightings.
//! * [`PositionCounters`] — per-method localization accuracy bookkeeping
//!   (§6): how many observations carried a two-reader fix vs an AoA-only
//!   fix vs the pole-position fallback, and which speed samples came from
//!   position-track regression vs arrival-time deltas.
//!
//! An [`OdMatrix`] — a pane's, a window's, the whole run's — is one run of
//! `(from << 32 | to, transitions)` pairs, strictly ascending by key
//! (integer order is `(from, to)` order), no count 0, and one in-place
//! merge adds one run to another. [`OdUnion`] is a hash table instead: it
//! is kept by adding and subtracting single panes. [`FlowCounter`] stays a
//! `BTreeMap`: flow queries read the whole-run counter by key range, and
//! three holders merge into it one pane at a time.
//!
//! Two accumulators sit beside the products, for the paths that fold many
//! events into one state:
//!
//! * [`AggregateBuilder`] — one pane (or one batch shard) while it is being
//!   folded. The O(1) counters go straight into a [`CityAggregates`]; OD
//!   and flow events are appended to two packed `u64` columns (`from << 32
//!   | to`, `segment << 32 | cycle`) and canonicalised once, when the pane
//!   is [`finish`](AggregateBuilder::finish)ed: sort and count equal runs.
//! * [`RunTotals`] — the whole-run totals: a [`CityAggregates`] whose OD
//!   run holds every pane merged so far, plus the OD pairs of the panes
//!   added since. Pending pairs are merged in once they reach a quarter of
//!   the run, so adding a pane costs amortised O(1) moves per pair instead
//!   of one O(run) merge per pane.

use crate::event::{PoleId, SegmentId};
use crate::position::PositionMethod;
use crate::store::{DerivedEvent, SpeedSource, TagKeyHasher};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

/// Offset-basis and prime of 64-bit FNV-1a, used for aggregate fingerprints.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over an aggregate's canonical byte encoding.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Finishes the hash.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Resumes a fingerprint from a previously [`finish`](Self::finish)ed
    /// state. FNV-1a's state *is* its digest, so a persisted chain (the
    /// durable pane log) can continue exactly where it left off after a
    /// restart.
    pub fn resume(state: u64) -> Self {
        Self(state)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-street-segment occupancy statistics (the parking workload, Fig. 13).
///
/// Each pole report contributes its §5 count; the segment's mean simultaneous
/// occupancy and its peak fall out of the integer sums at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Pole reports folded into this segment.
    pub reports: u64,
    /// Tag observations folded into this segment.
    pub observations: u64,
    /// Sum over reports of the per-query transponder count.
    pub sum_count: u64,
    /// Largest single-query count seen (peak occupancy).
    pub peak_count: u32,
    /// Spikes the §5 time-shift test flagged as holding two tags.
    pub multi_occupied_peaks: u64,
}

impl SegmentStats {
    /// Folds one pole report's headline numbers in.
    pub fn record_report(&mut self, count: u32, observations: u32, multi_occupied: u32) {
        self.reports += 1;
        self.observations += observations as u64;
        self.sum_count += count as u64;
        self.peak_count = self.peak_count.max(count);
        self.multi_occupied_peaks += multi_occupied as u64;
    }

    /// Mean simultaneous occupancy over all reports.
    pub fn mean_occupancy(&self) -> f64 {
        if self.reports == 0 {
            0.0
        } else {
            self.sum_count as f64 / self.reports as f64
        }
    }

    /// Merges another segment's counters (associative, commutative).
    pub fn merge(&mut self, other: &SegmentStats) {
        self.reports += other.reports;
        self.observations += other.observations;
        self.sum_count += other.sum_count;
        self.peak_count = self.peak_count.max(other.peak_count);
        self.multi_occupied_peaks += other.multi_occupied_peaks;
    }

    /// Feeds this aggregate's canonical byte encoding into a [`Fingerprint`]
    /// (used by the window-keyed live layer as well as [`CityAggregates`]).
    pub fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.reports);
        fp.write_u64(self.observations);
        fp.write_u64(self.sum_count);
        fp.write_u64(self.peak_count as u64);
        fp.write_u64(self.multi_occupied_peaks);
    }
}

/// Vehicles per traffic-light cycle per segment (the Fig. 12 workload).
///
/// A "flow event" is a tag entering a `(segment, cycle)` bucket it was not in
/// before — the streaming analogue of the paper's queue counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowCounter {
    /// Flow events per `(segment, light cycle index)`.
    pub per_cycle: BTreeMap<(u16, u32), u64>,
}

impl FlowCounter {
    /// Records one flow event.
    pub fn record(&mut self, segment: SegmentId, cycle: u32) {
        *self.per_cycle.entry((segment.0, cycle)).or_insert(0) += 1;
    }

    /// Total flow events.
    pub fn total(&self) -> u64 {
        self.per_cycle.values().sum()
    }

    /// Mean flow per cycle for one segment, averaged over the segment's
    /// observed cycle span (first to last active cycle, inclusive) so idle
    /// cycles inside the span count as zero.
    pub fn mean_flow(&self, segment: SegmentId) -> f64 {
        let mut total = 0u64;
        let mut first = u32::MAX;
        let mut last = 0u32;
        for (&(s, cycle), &v) in &self.per_cycle {
            if s == segment.0 {
                total += v;
                first = first.min(cycle);
                last = last.max(cycle);
            }
        }
        if total == 0 {
            0.0
        } else {
            total as f64 / (last - first + 1) as f64
        }
    }

    /// Merges another counter (associative, commutative).
    pub fn merge(&mut self, other: &FlowCounter) {
        for (&key, &v) in &other.per_cycle {
            *self.per_cycle.entry(key).or_insert(0) += v;
        }
    }

    /// Feeds this counter's canonical byte encoding into a [`Fingerprint`].
    pub fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.per_cycle.len() as u64);
        for (&(seg, cycle), &v) in &self.per_cycle {
            fp.write_u64((seg as u64) << 32 | cycle as u64);
            fp.write_u64(v);
        }
    }
}

/// Streaming speed distribution from cross-pole re-sightings (§7).
///
/// Speeds are quantized into fixed-width bins, so any merge order yields the
/// same state and percentiles are exact to half a bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeedHistogram {
    /// Samples per bin; bin `i` covers `[i, i+1) * BIN_WIDTH_MPH`.
    bins: Vec<u64>,
    /// Total samples, including clamped outliers.
    samples: u64,
    /// Sum of speeds quantized to hundredths of a mph.
    sum_centi_mph: u64,
}

impl SpeedHistogram {
    /// Width of one histogram bin, mph.
    pub const BIN_WIDTH_MPH: f64 = 0.5;
    /// Number of bins (covers 0–150 mph; faster samples clamp to the top).
    pub const N_BINS: usize = 300;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            bins: vec![0; Self::N_BINS],
            samples: 0,
            sum_centi_mph: 0,
        }
    }

    /// Records one speed sample. Outliers clamp to the histogram ceiling in
    /// both the bin index and the mean's sum, so `mean_mph` and the
    /// percentiles stay mutually consistent.
    pub fn record(&mut self, speed_mph: f64) {
        if !speed_mph.is_finite() || speed_mph < 0.0 {
            return;
        }
        let ceiling = Self::N_BINS as f64 * Self::BIN_WIDTH_MPH;
        let clamped = speed_mph.min(ceiling);
        let bin = ((clamped / Self::BIN_WIDTH_MPH) as usize).min(Self::N_BINS - 1);
        self.bins[bin] += 1;
        self.samples += 1;
        self.sum_centi_mph += (clamped * 100.0).round() as u64;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The per-bin sample counts (always [`N_BINS`](Self::N_BINS) entries) —
    /// the integer state a codec must persist to round-trip the histogram.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Sum of samples quantized to hundredths of a mph (the mean's exact
    /// integer numerator).
    pub fn sum_centi_mph(&self) -> u64 {
        self.sum_centi_mph
    }

    /// Rebuilds a histogram from its integer parts (the pane-log decode
    /// path). Panics unless `bins` holds exactly [`N_BINS`](Self::N_BINS)
    /// counts: a bin the histogram lacks cannot be kept, nor dropped.
    pub fn from_parts(bins: Vec<u64>, samples: u64, sum_centi_mph: u64) -> Self {
        assert_eq!(bins.len(), Self::N_BINS, "one count per bin");
        Self {
            bins,
            samples,
            sum_centi_mph,
        }
    }

    /// Mean speed, mph.
    pub fn mean_mph(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_centi_mph as f64 / 100.0 / self.samples as f64
        }
    }

    /// The `p`-th percentile (0–100), reported at the owning bin's midpoint.
    ///
    /// Edge cases are pinned down by tests: an empty histogram reports
    /// `0.0`; a NaN `p` is treated as 0; `p` is clamped into `[0, 100]`, so
    /// `p <= 0` names the lowest occupied bin and `p >= 100` the highest
    /// occupied bin (never an empty bin above it); with a single sample every
    /// percentile is that sample's bin midpoint.
    pub fn percentile_mph(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        // rank ∈ [1, samples]: the ceil can exceed `samples` by rounding when
        // p = 100, and must not walk past the highest occupied bin.
        let rank = (((p / 100.0) * self.samples as f64).ceil().max(1.0) as u64).min(self.samples);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (i as f64 + 0.5) * Self::BIN_WIDTH_MPH;
            }
        }
        (Self::N_BINS as f64 - 0.5) * Self::BIN_WIDTH_MPH
    }

    /// Merges another histogram (associative, commutative).
    pub fn merge(&mut self, other: &SpeedHistogram) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.samples += other.samples;
        self.sum_centi_mph += other.sum_centi_mph;
    }

    /// Feeds this histogram's canonical byte encoding into a [`Fingerprint`].
    pub fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.samples);
        fp.write_u64(self.sum_centi_mph);
        for &b in &self.bins {
            fp.write_u64(b);
        }
    }
}

impl Default for SpeedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-method localization counters (§6): the observability half of the
/// position ladder.
///
/// Every observation is positioned by exactly one method — a two-reader
/// conic fix, an AoA-only fix, or the pole-position fallback — and every
/// speed sample comes from either position-track regression or the legacy
/// arrival-time delta. Counting both per method makes the localization
/// coverage (and the quality of the speed product) observable at any
/// aggregation granularity: whole runs, shards, or live window panes.
/// Integer counters only, so merges stay order-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PositionCounters {
    /// Observations carrying a two-reader conic fix.
    pub two_reader_fixes: u64,
    /// Observations carrying an AoA-only fix.
    pub aoa_only_fixes: u64,
    /// Observations positioned by the pole fallback (no estimate attached).
    pub pole_fallbacks: u64,
    /// Speed samples regressed from a position track (§7).
    pub track_speed_samples: u64,
    /// Speed samples from the legacy arrival-time delta (no usable track).
    pub arrival_speed_samples: u64,
    /// Sum over observations of the estimate's 1-σ uncertainty, centimetres
    /// (integer-quantized so merges commute); pole fallbacks contribute
    /// their nominal coverage-radius sigma.
    pub sum_sigma_cm: u64,
}

impl PositionCounters {
    /// Folds one observation's effective positioning method in.
    pub fn record_method(&mut self, method: PositionMethod, sigma_m: f64) {
        match method {
            PositionMethod::TwoReaderFix => self.two_reader_fixes += 1,
            PositionMethod::AoaOnly => self.aoa_only_fixes += 1,
            PositionMethod::PolePosition => self.pole_fallbacks += 1,
        }
        self.sum_sigma_cm += (sigma_m.max(0.0) * 100.0).round() as u64;
    }

    /// Total observations counted.
    pub fn observations(&self) -> u64 {
        self.two_reader_fixes + self.aoa_only_fixes + self.pole_fallbacks
    }

    /// Fraction of observations carrying a real fix (two-reader or
    /// AoA-only) rather than the pole fallback; 0 when nothing was counted.
    pub fn localized_fraction(&self) -> f64 {
        let total = self.observations();
        if total == 0 {
            0.0
        } else {
            (self.two_reader_fixes + self.aoa_only_fixes) as f64 / total as f64
        }
    }

    /// Mean 1-σ position uncertainty over all counted observations, metres.
    pub fn mean_sigma_m(&self) -> f64 {
        let total = self.observations();
        if total == 0 {
            0.0
        } else {
            self.sum_sigma_cm as f64 / 100.0 / total as f64
        }
    }

    /// Merges another counter set (associative, commutative).
    pub fn merge(&mut self, other: &PositionCounters) {
        self.two_reader_fixes += other.two_reader_fixes;
        self.aoa_only_fixes += other.aoa_only_fixes;
        self.pole_fallbacks += other.pole_fallbacks;
        self.track_speed_samples += other.track_speed_samples;
        self.arrival_speed_samples += other.arrival_speed_samples;
        self.sum_sigma_cm += other.sum_sigma_cm;
    }

    /// Feeds this counter's canonical byte encoding into a [`Fingerprint`].
    pub fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.two_reader_fixes);
        fp.write_u64(self.aoa_only_fixes);
        fp.write_u64(self.pole_fallbacks);
        fp.write_u64(self.track_speed_samples);
        fp.write_u64(self.arrival_speed_samples);
        fp.write_u64(self.sum_sigma_cm);
    }
}

/// One origin–destination pair and its transition count:
/// `((from pole, to pole), transitions)`.
pub type OdPair = ((u32, u32), u64);

/// The total order of OD answers: count descending, then `(from, to)`
/// ascending. Pairs are distinct, so no two compare equal.
fn od_order(a: &OdPair, b: &OdPair) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The first `n` of `pairs` under [`od_order`], in that order — the one
/// selection behind [`OdMatrix::top`] and [`OdUnion::top`].
///
/// `n` may come straight from a client, so nothing is sized by it: the
/// candidate buffer holds at most twice `min(n, pairs)` entries (never more
/// than there are pairs) and is cut back to the best half whenever it
/// fills, after which a pair behind the worst kept one is skipped without
/// being stored.
fn top_pairs(pairs: impl ExactSizeIterator<Item = OdPair>, n: usize) -> Vec<OdPair> {
    let keep = n.min(pairs.len());
    if keep == 0 {
        return Vec::new();
    }
    let mut best: Vec<OdPair> = Vec::with_capacity((2 * keep).min(pairs.len()));
    let mut floor: Option<OdPair> = None;
    for pair in pairs {
        if floor.is_some_and(|f| od_order(&pair, &f) == Ordering::Greater) {
            continue;
        }
        best.push(pair);
        if best.len() == 2 * keep {
            best.select_nth_unstable_by(keep - 1, od_order);
            best.truncate(keep);
            floor = Some(best[keep - 1]);
        }
    }
    best.sort_unstable_by(od_order);
    best.truncate(keep);
    best
}

/// Origin–destination matrix over poles, from tag re-sightings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OdMatrix {
    /// `(from << 32 | to, transitions)`, strictly ascending by key; no
    /// count is 0.
    run: Vec<(u64, u64)>,
}

impl OdMatrix {
    /// The matrix holding exactly `pairs`, which must be in strictly
    /// ascending `(from, to)` order with no count of 0.
    pub fn from_pairs(pairs: Vec<OdPair>) -> Result<Self, String> {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) || pairs.iter().any(|&(_, n)| n == 0) {
            return Err("OD rows repeat, are out of order or count nothing".into());
        }
        let run = pairs
            .into_iter()
            .map(|((from, to), n)| (od_key(from, to), n));
        Ok(Self { run: run.collect() })
    }

    /// Records one tag moving from `from` to `to` (a binary-search insert,
    /// for tests and oracles: the fold counts a pane's events at once).
    pub fn record(&mut self, from: PoleId, to: PoleId) {
        let key = od_key(from.0, to.0);
        match self.run.binary_search_by_key(&key, |&(held, _)| held) {
            Ok(at) => self.run[at].1 += 1,
            Err(at) => self.run.insert(at, (key, 1)),
        }
    }

    /// Distinct pairs held.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether no pair is held.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Every pair in `(from, to)` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OdPair> + '_ {
        self.run.iter().map(|&(key, n)| (od_pair(key), n))
    }

    /// The transitions counted from `from` to `to`, if any.
    pub fn get(&self, from: u32, to: u32) -> Option<u64> {
        let at = self
            .run
            .binary_search_by_key(&od_key(from, to), |&(key, _)| key);
        at.ok().map(|at| self.run[at].1)
    }

    /// Total recorded transitions.
    pub fn total(&self) -> u64 {
        self.run.iter().map(|&(_, n)| n).sum()
    }

    /// The `n` busiest origin–destination pairs, by count descending (ties
    /// broken by pole ids so the order is deterministic). `n` past the
    /// number of distinct pairs returns every pair, fully ordered.
    pub fn top(&self, n: usize) -> Vec<OdPair> {
        top_pairs(self.iter(), n)
    }

    /// Merges another matrix (associative, commutative).
    pub fn merge(&mut self, other: &OdMatrix) {
        merge_runs(&mut self.run, &other.run);
    }

    /// Feeds this matrix's canonical byte encoding into a [`Fingerprint`].
    pub fn fingerprint_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.run.len() as u64);
        for &(key, n) in &self.run {
            fp.write_u64(key);
            fp.write_u64(n);
        }
    }
}

/// Merges `sorted` — strictly ascending by key — into `run`, summing the
/// counts of keys both hold: count the shared keys, grow `run` once, then
/// merge from the back so `run`'s head stays where it is. The one sorted
/// merge of OD runs, behind [`OdMatrix::merge`] and [`RunTotals`].
fn merge_runs(run: &mut Vec<(u64, u64)>, sorted: &[(u64, u64)]) {
    let mut shared = 0;
    let (mut i, mut j) = (0, 0);
    while i < run.len() && j < sorted.len() {
        match run[i].0.cmp(&sorted[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let (mut i, mut j) = (run.len(), sorted.len());
    let mut k = i + j - shared;
    run.reserve_exact(k - i);
    run.resize(k, (0, 0));
    while j > 0 {
        k -= 1;
        let (key, n) = sorted[j - 1];
        run[k] = match i.checked_sub(1).map(|h| run[h]) {
            Some((held, m)) if held > key => {
                i -= 1;
                (held, m)
            }
            Some((held, m)) if held == key => {
                i -= 1;
                j -= 1;
                (key, m + n)
            }
            _ => {
                j -= 1;
                (key, n)
            }
        };
    }
    debug_assert_eq!(k, i, "the run's untouched head is already in place");
}

/// The running union of a sliding window's [`OdMatrix`] panes: a flat table
/// that panes are [`add`](Self::add)ed to as they enter the window and
/// [`subtract`](Self::subtract)ed from as they leave, so a window query
/// pays for the panes that moved, not for the window.
///
/// Answers read it through [`top`](Self::top), which selects under the same
/// total order as [`OdMatrix::top`]: the union of panes `a..b` kept by delta
/// answers exactly what merging those panes and calling `top` would. The
/// table's iteration order never reaches an answer. Pole ids come from the
/// deployment's directory, not from clients, so the fixed [`TagKeyHasher`]
/// is safe here for the reason it is in the tracker.
#[derive(Debug, Clone, Default)]
pub struct OdUnion {
    /// Transition counts keyed by `from << 32 | to`; a count that reaches
    /// zero is removed, so every entry is a pair the window holds.
    pairs: HashMap<u64, u64, BuildHasherDefault<TagKeyHasher>>,
}

impl OdUnion {
    /// Distinct pairs currently held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair is held.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Forgets every pair (the allocation is kept for the rebuild).
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Adds one pane's transitions.
    pub fn add(&mut self, od: &OdMatrix) {
        for &(key, n) in &od.run {
            *self.pairs.entry(key).or_insert(0) += n;
        }
    }

    /// Takes one pane's transitions back out, dropping pairs that reach
    /// zero.
    ///
    /// Returns `false` — stopping there — if `od` holds more of a pair than
    /// the union does: the pane was never added, the union no longer
    /// describes any window, and the caller must [`clear`](Self::clear) it
    /// and rebuild.
    #[must_use]
    pub fn subtract(&mut self, od: &OdMatrix) -> bool {
        for &(key, n) in &od.run {
            let Entry::Occupied(held) = self.pairs.entry(key) else {
                return false;
            };
            match held.get().checked_sub(n) {
                Some(0) => {
                    held.remove();
                }
                Some(left) => *held.into_mut() = left,
                None => return false,
            }
        }
        true
    }

    /// The `n` busiest pairs, ordered exactly as [`OdMatrix::top`] orders
    /// them.
    pub fn top(&self, n: usize) -> Vec<OdPair> {
        top_pairs(self.pairs.iter().map(|(&key, &v)| (od_pair(key), v)), n)
    }
}

/// The complete city-wide aggregate state: everything the analytics tier
/// knows, mergeable across shards and fingerprintable for determinism checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CityAggregates {
    /// Per-segment occupancy statistics.
    pub segments: BTreeMap<u16, SegmentStats>,
    /// Flow per traffic-light cycle.
    pub flow: FlowCounter,
    /// Cross-pole speed distribution.
    pub speeds: SpeedHistogram,
    /// Origin–destination matrix.
    pub od: OdMatrix,
    /// Per-method localization counters (§6).
    pub positions: PositionCounters,
    /// Total tag observations ingested.
    pub observations: u64,
}

impl CityAggregates {
    /// Creates an empty aggregate state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a pole report's headline numbers into the per-segment stats.
    pub fn record_report(&mut self, segment: SegmentId, count: u32, obs: u32, multi: u32) {
        self.segments
            .entry(segment.0)
            .or_default()
            .record_report(count, obs, multi);
    }

    /// Merges another aggregate state (associative, commutative).
    pub fn merge(&mut self, other: &CityAggregates) {
        self.merge_counters(other);
        self.od.merge(&other.od);
    }

    /// [`merge`](Self::merge) but for `od`, which [`RunTotals`] merges
    /// later, a quarter-run at a time.
    fn merge_counters(&mut self, other: &CityAggregates) {
        for (&seg, stats) in &other.segments {
            self.segments.entry(seg).or_default().merge(stats);
        }
        self.flow.merge(&other.flow);
        self.speeds.merge(&other.speeds);
        self.positions.merge(&other.positions);
        self.observations += other.observations;
    }

    /// 64-bit FNV-1a fingerprint of the canonical byte encoding of the whole
    /// aggregate state. Two states with equal fingerprints under the
    /// determinism tests are byte-identical.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.observations);
        fp.write_u64(self.segments.len() as u64);
        for (&seg, stats) in &self.segments {
            fp.write_u64(seg as u64);
            stats.fingerprint_into(&mut fp);
        }
        self.flow.fingerprint_into(&mut fp);
        self.speeds.fingerprint_into(&mut fp);
        self.od.fingerprint_into(&mut fp);
        self.positions.fingerprint_into(&mut fp);
        fp.finish()
    }
}

/// An OD pair packed so that `u64` order is `(from, to)` order.
fn od_key(from: u32, to: u32) -> u64 {
    (from as u64) << 32 | to as u64
}

/// The pair [`od_key`] packed.
fn od_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// One pane's (or one batch shard's) aggregate while it is being folded:
/// the counters that cost O(1) per event are kept in place, OD and flow
/// events are appended as packed keys and counted once, by
/// [`finish`](Self::finish). Reusable — `finish` keeps the columns'
/// capacity for the next pane.
#[derive(Debug, Default)]
pub struct AggregateBuilder {
    /// Everything but OD and flow, counted as it happens.
    counters: CityAggregates,
    /// One `from << 32 | to` per OD transition.
    od: Vec<u64>,
    /// One `segment << 32 | cycle` per flow event.
    flow: Vec<u64>,
}

impl AggregateBuilder {
    /// Counts one observation and the method that positioned it.
    #[inline]
    pub(crate) fn record_observation(&mut self, method: PositionMethod, sigma_m: f64) {
        self.counters.observations += 1;
        self.counters.positions.record_method(method, sigma_m);
    }

    /// Folds one event a [`TagTracker`](crate::store::TagTracker) derived.
    #[inline]
    pub(crate) fn record(&mut self, event: DerivedEvent) {
        match event {
            DerivedEvent::Flow { segment, cycle } => {
                self.flow.push((segment.0 as u64) << 32 | cycle as u64)
            }
            DerivedEvent::Od { from, to } => self.od.push(od_key(from.0, to.0)),
            DerivedEvent::Speed { mph, source } => {
                self.counters.speeds.record(mph);
                let positions = &mut self.counters.positions;
                match source {
                    SpeedSource::PositionTrack => positions.track_speed_samples += 1,
                    SpeedSource::ArrivalTime => positions.arrival_speed_samples += 1,
                }
            }
        }
    }

    /// Everything folded since the last `finish`, with OD and flow exactly
    /// as per-event [`OdMatrix::record`] / [`FlowCounter::record`] would
    /// have counted them; the builder starts over empty.
    pub fn finish(&mut self) -> CityAggregates {
        let mut agg = std::mem::take(&mut self.counters);
        agg.od.run = count_runs(&mut self.od);
        let flow = count_runs(&mut self.flow).into_iter();
        agg.flow.per_cycle = flow
            .map(|(key, n)| (((key >> 32) as u16, key as u32), n))
            .collect();
        agg
    }
}

/// Sorts `column` and counts each distinct key, in key order, into a `Vec`
/// with no growth slack (the window ring keeps pane runs); the column is
/// emptied, keeping its capacity.
fn count_runs(column: &mut Vec<u64>) -> Vec<(u64, u64)> {
    column.sort_unstable();
    let runs = column.chunk_by(|a, b| a == b);
    let mut counted = Vec::with_capacity(runs.clone().count());
    counted.extend(runs.map(|run| (run[0], run.len() as u64)));
    column.clear();
    counted
}

/// Pending pairs are merged into a [`RunTotals`] run once there are at
/// least this many of them and at least a quarter as many as the run
/// holds.
const OD_MERGE_MIN: usize = 16 * 1024;

/// Whole-run totals, added to one pane at a time (see the module docs).
#[derive(Debug, Default)]
pub struct RunTotals {
    /// Every pane added, the pending pairs excepted.
    merged: CityAggregates,
    /// `(from << 32 | to, transitions)` of the panes added since the last
    /// merge, in arrival order (keys repeat).
    pending: Vec<(u64, u64)>,
}

impl RunTotals {
    /// Adds one sealed (or replayed) pane.
    pub fn add_pane(&mut self, pane: &CityAggregates) {
        self.merged.merge_counters(pane);
        self.pending.extend_from_slice(&pane.od.run);
        if self.pending.len() >= (self.merged.od.run.len() / 4).max(OD_MERGE_MIN) {
            self.merge_pending();
        }
    }

    /// The whole-run totals, as a copy. The pending pairs are merged in
    /// place first, so the copy is the only second run held at once.
    pub fn totals(&mut self) -> CityAggregates {
        self.merge_pending();
        self.merged.clone()
    }

    fn merge_pending(&mut self) {
        sort_and_combine(&mut self.pending);
        merge_runs(&mut self.merged.od.run, &self.pending);
        self.pending.clear();
    }

    /// Observations over every pane added.
    pub fn observations(&self) -> u64 {
        self.merged.observations
    }

    /// Flow over every pane added.
    pub fn flow(&self) -> &FlowCounter {
        &self.merged.flow
    }
}

impl From<CityAggregates> for RunTotals {
    /// Totals holding exactly `totals` (a snapshot's or a recovery's).
    fn from(totals: CityAggregates) -> Self {
        Self {
            merged: totals,
            pending: Vec::new(),
        }
    }
}

/// Sorts packed pairs by key and sums the counts of equal keys.
fn sort_and_combine(pairs: &mut Vec<(u64, u64)>) {
    pairs.sort_unstable_by_key(|&(key, _)| key);
    pairs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn segment_stats_mean_and_peak() {
        let mut s = SegmentStats::default();
        s.record_report(3, 3, 0);
        s.record_report(5, 4, 1);
        s.record_report(4, 4, 0);
        assert_eq!(s.reports, 3);
        assert_eq!(s.peak_count, 5);
        assert!((s.mean_occupancy() - 4.0).abs() < 1e-12);
        assert_eq!(s.multi_occupied_peaks, 1);
    }

    #[test]
    fn flow_counter_buckets_by_segment_and_cycle() {
        let mut f = FlowCounter::default();
        f.record(SegmentId(1), 0);
        f.record(SegmentId(1), 0);
        f.record(SegmentId(1), 1);
        f.record(SegmentId(2), 0);
        assert_eq!(f.total(), 4);
        assert!((f.mean_flow(SegmentId(1)) - 1.5).abs() < 1e-12);
        assert!((f.mean_flow(SegmentId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(f.mean_flow(SegmentId(9)), 0.0);
        // Idle cycles inside the observed span dilute the mean.
        f.record(SegmentId(3), 0);
        f.record(SegmentId(3), 10);
        assert!((f.mean_flow(SegmentId(3)) - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn speed_histogram_percentiles_are_ordered_and_clamped() {
        let mut h = SpeedHistogram::new();
        for mph in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
            h.record(mph);
        }
        h.record(1e9); // clamps to the top bin
        h.record(-5.0); // dropped
        h.record(f64::NAN); // dropped
        assert_eq!(h.samples(), 11);
        let p50 = h.percentile_mph(50.0);
        let p90 = h.percentile_mph(90.0);
        let p99 = h.percentile_mph(99.0);
        assert!(p50 < p90 && p90 <= p99);
        // 11 samples: rank ceil(0.5 * 11) = 6 ⇒ the 60 mph sample's bin.
        assert!((p50 - 60.25).abs() < 0.5, "p50 {p50}");
        let ceiling = SpeedHistogram::N_BINS as f64 * SpeedHistogram::BIN_WIDTH_MPH;
        assert!(p99 <= ceiling);
        // Outliers clamp in the mean too, keeping it consistent with the
        // percentiles.
        assert!(h.mean_mph() <= ceiling, "mean {}", h.mean_mph());
    }

    #[test]
    fn speed_histogram_percentile_edge_cases() {
        // Empty histogram: every percentile is 0.
        let empty = SpeedHistogram::new();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(empty.percentile_mph(p), 0.0, "empty at p={p}");
        }
        // Single sample: every percentile is that sample's bin midpoint.
        let mut one = SpeedHistogram::new();
        one.record(33.3);
        let expect = one.percentile_mph(50.0);
        for p in [0.0, 1.0, 99.0, 100.0] {
            assert_eq!(one.percentile_mph(p), expect, "single sample at p={p}");
        }
        assert!((expect - 33.25).abs() < 1e-9);
        // p clamps: p<=0 names the lowest occupied bin, p>=100 the highest
        // occupied bin — never an empty bin above it.
        let mut h = SpeedHistogram::new();
        h.record(10.0);
        h.record(20.0);
        h.record(30.0);
        assert_eq!(h.percentile_mph(-5.0), h.percentile_mph(0.0));
        assert!((h.percentile_mph(0.0) - 10.25).abs() < 1e-9);
        assert_eq!(h.percentile_mph(100.0), h.percentile_mph(170.0));
        assert!((h.percentile_mph(100.0) - 30.25).abs() < 1e-9);
        // NaN p behaves like p = 0.
        assert_eq!(h.percentile_mph(f64::NAN), h.percentile_mph(0.0));
    }

    #[test]
    fn position_counters_track_methods_and_uncertainty() {
        let mut p = PositionCounters::default();
        p.record_method(PositionMethod::TwoReaderFix, 1.0);
        p.record_method(PositionMethod::TwoReaderFix, 1.5);
        p.record_method(PositionMethod::AoaOnly, 3.0);
        p.record_method(PositionMethod::PolePosition, 10.0);
        p.track_speed_samples += 2;
        p.arrival_speed_samples += 1;
        assert_eq!(p.observations(), 4);
        assert_eq!(p.two_reader_fixes, 2);
        assert_eq!(p.aoa_only_fixes, 1);
        assert_eq!(p.pole_fallbacks, 1);
        assert!((p.localized_fraction() - 0.75).abs() < 1e-12);
        assert!((p.mean_sigma_m() - (1.0 + 1.5 + 3.0 + 10.0) / 4.0).abs() < 1e-9);
        // Merge is commutative and the fingerprint covers every field.
        let mut q = PositionCounters::default();
        q.record_method(PositionMethod::AoaOnly, 2.0);
        let mut ab = p;
        ab.merge(&q);
        let mut ba = q;
        ba.merge(&p);
        assert_eq!(ab, ba);
        let fp = |c: &PositionCounters| {
            let mut f = Fingerprint::new();
            c.fingerprint_into(&mut f);
            f.finish()
        };
        assert_eq!(fp(&ab), fp(&ba));
        assert_ne!(fp(&p), fp(&ab));
        // Empty counters: well-defined ratios.
        let empty = PositionCounters::default();
        assert_eq!(empty.localized_fraction(), 0.0);
        assert_eq!(empty.mean_sigma_m(), 0.0);
    }

    #[test]
    fn od_matrix_top_pairs_are_deterministic() {
        let mut od = OdMatrix::default();
        od.record(PoleId(0), PoleId(1));
        od.record(PoleId(0), PoleId(1));
        od.record(PoleId(1), PoleId(2));
        od.record(PoleId(5), PoleId(6));
        let top = od.top(2);
        assert_eq!(top[0], ((0, 1), 2));
        assert_eq!(top[1], ((1, 2), 1), "ties break by pole id");
        assert_eq!(od.total(), 4);
    }

    /// The independent OD oracle: transitions counted in a tree.
    type Tree = BTreeMap<(u32, u32), u64>;

    fn count_into(tree: &mut Tree, pairs: &[(u32, u32)]) {
        for &pair in pairs {
            *tree.entry(pair).or_insert(0) += 1;
        }
    }

    fn recorded(pairs: &[(u32, u32)]) -> OdMatrix {
        let mut od = OdMatrix::default();
        for &(from, to) in pairs {
            od.record(PoleId(from), PoleId(to));
        }
        od
    }

    /// A pane's worth of re-sightings over a small pole universe, so panes
    /// share pairs and counts tie.
    fn scattered_pairs(seed: u64, records: usize) -> Vec<(u32, u32)> {
        let mut x = seed;
        (0..records)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 33) as u32 % 13, (x >> 45) as u32 % 11)
            })
            .collect()
    }

    fn scattered_od(seed: u64, records: usize) -> OdMatrix {
        recorded(&scattered_pairs(seed, records))
    }

    /// What `top` returned while it sorted every pair: the reference order.
    fn full_sort_top(tree: &Tree, n: usize) -> Vec<OdPair> {
        let mut pairs: Vec<OdPair> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }

    #[test]
    fn top_selects_what_sorting_every_pair_would_for_any_n() {
        let pairs = scattered_pairs(7, 600);
        let od = recorded(&pairs);
        let mut tree = Tree::new();
        count_into(&mut tree, &pairs);
        let distinct = tree.len();
        assert!(distinct > 60, "workload too small: {distinct} pairs");
        let mut union = OdUnion::default();
        union.add(&od);
        // n = 0, small n (several prune rounds), n around and past the pair
        // count, and the largest n the wire can carry.
        for n in [
            0,
            1,
            2,
            7,
            31,
            distinct - 1,
            distinct,
            distinct + 1,
            usize::MAX,
        ] {
            let expect = full_sort_top(&tree, n);
            assert_eq!(expect.len(), n.min(distinct));
            assert_eq!(od.top(n), expect, "matrix, n = {n}");
            assert_eq!(union.top(n), expect, "union, n = {n}");
        }
        assert!(OdMatrix::default().top(usize::MAX).is_empty());
    }

    #[test]
    fn od_union_kept_by_delta_equals_the_merge_of_the_panes_it_holds() {
        let panes: Vec<Vec<(u32, u32)>> = (0..9).map(|i| scattered_pairs(100 + i, 12)).collect();
        let width = 3;
        let mut union = OdUnion::default();
        for (i, pane) in panes.iter().enumerate() {
            union.add(&recorded(pane));
            if i >= width {
                assert!(union.subtract(&recorded(&panes[i - width])));
            }
            let mut merged = Tree::new();
            for held in &panes[(i + 1).saturating_sub(width)..=i] {
                count_into(&mut merged, held);
            }
            // Pairs only the subtracted pane held are gone, not left at zero.
            assert_eq!(union.len(), merged.len(), "after pane {i}");
            assert_eq!(union.top(usize::MAX), full_sort_top(&merged, usize::MAX));
        }
        for pane in &panes[panes.len() - width..] {
            assert!(union.subtract(&recorded(pane)));
        }
        assert!(union.is_empty());
    }

    #[test]
    fn od_union_refuses_to_subtract_a_pane_it_never_held() {
        let mut union = OdUnion::default();
        let held = scattered_od(1, 4);
        union.add(&held);
        let mut stranger = OdMatrix::default();
        stranger.record(PoleId(900), PoleId(901));
        assert!(!union.clone().subtract(&stranger), "a pair it never held");
        let mut doubled = held.clone();
        doubled.merge(&held);
        assert!(!union.subtract(&doubled), "more of a pair than it holds");
    }

    #[test]
    fn merge_is_order_independent_and_fingerprint_stable() {
        let mut parts = Vec::new();
        for i in 0..4u32 {
            let mut a = CityAggregates::new();
            a.record_report(SegmentId(i as u16 % 2), i + 1, i, 0);
            a.flow.record(SegmentId(i as u16 % 2), i);
            a.speeds.record(10.0 * (i + 1) as f64);
            a.od.record(PoleId(i), PoleId(i + 1));
            a.observations += i as u64;
            parts.push(a);
        }
        let mut forward = CityAggregates::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = CityAggregates::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.fingerprint(), backward.fingerprint());
        // Different state ⇒ different fingerprint (with overwhelming odds).
        let mut changed = forward.clone();
        changed.speeds.record(12.0);
        assert_ne!(forward.fingerprint(), changed.fingerprint());

        // OD matrices of every relative layout, merged both ways, against
        // the tree: disjoint (all before / all after), interleaved with a
        // shared pair, identical, and empty, at the extreme pole ids.
        const MAX: u32 = u32::MAX;
        type Pairs = &'static [(u32, u32)];
        let cases: [(Pairs, Pairs); 7] = [
            (&[(0, 1), (0, 2), (0, 1)], &[(5, 6), (MAX, 0)]),
            (&[(MAX, MAX)], &[(0, 0), (0, MAX), (0, 0)]),
            (
                &[(0, 0), (2, 2), (4, 4), (2, 2)],
                &[(1, 1), (2, 2), (3, 3), (MAX, 1)],
            ),
            (&[(0, MAX), (7, 7), (MAX, 0)], &[(0, MAX), (7, 7), (MAX, 0)]),
            (&[], &[(MAX, 0), (0, 0)]),
            (&[(0, 0)], &[]),
            (&[], &[]),
        ];
        for (a, b) in cases {
            let mut tree = Tree::new();
            count_into(&mut tree, a);
            count_into(&mut tree, b);
            let expect: Vec<OdPair> = tree.into_iter().collect();
            let (a, b) = (recorded(a), recorded(b));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab.iter().collect::<Vec<_>>(), expect);
            assert_eq!(ab.len(), expect.len());
            assert_eq!(ab.total(), expect.iter().map(|&(_, n)| n).sum::<u64>());
            assert_eq!(ab, ba);
            assert_eq!(OdMatrix::from_pairs(expect), Ok(ab.clone()));
            let fp = |od: &OdMatrix| {
                let mut f = Fingerprint::new();
                od.fingerprint_into(&mut f);
                f.finish()
            };
            assert_eq!(fp(&ab), fp(&ba));
        }
    }

    /// A pole id (or light cycle) from a small universe, so keys repeat,
    /// or one of the extremes a packed key must keep apart.
    fn id(rng: &mut StdRng, universe: u32) -> u32 {
        match rng.random_range(0..8u32) {
            0 => u32::MAX,
            1 => 0,
            _ => rng.random_range(0..universe),
        }
    }

    #[test]
    fn a_reused_builder_finishes_what_per_event_records_build() {
        // The oracle is the per-event path the builder replaced: every OD
        // and flow event recorded into its map as it happens. One builder
        // serves every pane, empty panes included.
        let mut rng = StdRng::seed_from_u64(0xB11D);
        let mut builder = AggregateBuilder::default();
        let methods = [
            PositionMethod::TwoReaderFix,
            PositionMethod::AoaOnly,
            PositionMethod::PolePosition,
        ];
        for pane in 0..256 {
            let events = [0, 1, 9, 200, 1_500][pane % 5];
            let mut oracle = CityAggregates::new();
            let mut od = Tree::new();
            for _ in 0..events {
                match rng.random_range(0..4u32) {
                    0 => {
                        let segment = match rng.random_range(0..4u32) {
                            0 => u16::MAX,
                            _ => rng.random_range(0..6u16),
                        };
                        let cycle = id(&mut rng, 9);
                        let (segment, cycle) = (SegmentId(segment), cycle);
                        builder.record(DerivedEvent::Flow { segment, cycle });
                        oracle.flow.record(segment, cycle);
                    }
                    1 => {
                        let from = PoleId(id(&mut rng, 12));
                        let to = PoleId(id(&mut rng, 12));
                        builder.record(DerivedEvent::Od { from, to });
                        count_into(&mut od, &[(from.0, to.0)]);
                    }
                    2 => {
                        let mph = rng.random_range(0.0..200.0f64);
                        let source = if rng.random_range(0..2u32) == 0 {
                            oracle.positions.track_speed_samples += 1;
                            SpeedSource::PositionTrack
                        } else {
                            oracle.positions.arrival_speed_samples += 1;
                            SpeedSource::ArrivalTime
                        };
                        builder.record(DerivedEvent::Speed { mph, source });
                        oracle.speeds.record(mph);
                    }
                    _ => {
                        let method = methods[rng.random_range(0..3usize)];
                        let sigma_m = rng.random_range(0.0..20.0f64);
                        builder.record_observation(method, sigma_m);
                        oracle.observations += 1;
                        oracle.positions.record_method(method, sigma_m);
                    }
                }
            }
            let built = builder.finish();
            let od: Vec<OdPair> = od.into_iter().collect();
            assert_eq!(built.od.iter().collect::<Vec<_>>(), od, "pane {pane}");
            oracle.od = OdMatrix::from_pairs(od).expect("a tree's pairs are canonical");
            assert_eq!(built, oracle, "pane {pane}");
            assert_eq!(built.fingerprint(), oracle.fingerprint(), "pane {pane}");
        }
    }

    #[test]
    fn od_totals_sum_like_a_tree_merge_across_merges_and_reads() {
        // 240 panes, some without OD, over a universe wide enough that the
        // pending pairs cross the merge threshold several times; read
        // mid-run, and adopted into fresh totals (the snapshot path)
        // half-way, both of which keep adding afterwards.
        let mut rng = StdRng::seed_from_u64(0x0D70);
        let mut totals = RunTotals::default();
        let mut adopted: Option<RunTotals> = None;
        let mut oracle = Tree::new();
        let pairs = |tree: &Tree| tree.iter().map(|(&k, &n)| (k, n)).collect::<Vec<_>>();
        let mut merges = 0;
        for pane in 0..240u64 {
            let mut agg = CityAggregates::new();
            agg.observations = pane;
            let records = if pane % 17 == 0 { 0 } else { 700 };
            let recorded: Vec<(u32, u32)> = (0..records)
                .map(|_| (id(&mut rng, 400), id(&mut rng, 400)))
                .collect();
            for &(from, to) in &recorded {
                agg.od.record(PoleId(from), PoleId(to));
            }
            let queued = totals.pending.len() + agg.od.len();
            totals.add_pane(&agg);
            if totals.pending.len() < queued {
                merges += 1;
            }
            if let Some(adopted) = adopted.as_mut() {
                adopted.add_pane(&agg);
            }
            count_into(&mut oracle, &recorded);
            if pane % 37 == 0 {
                let read = totals.totals().od.iter().collect::<Vec<_>>();
                assert_eq!(read, pairs(&oracle), "read after pane {pane}");
            }
            if pane == 120 {
                let mut snapshot = totals.totals();
                snapshot.od = OdMatrix::from_pairs(pairs(&oracle)).expect("canonical");
                adopted = Some(RunTotals::from(snapshot));
            }
        }
        assert!(merges >= 3, "only {merges} merges");
        let run = &totals.merged.od.run;
        assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        let read = totals.totals();
        assert_eq!(read.od.iter().collect::<Vec<_>>(), pairs(&oracle));
        let adopted = adopted.expect("adopted at pane 120").totals();
        assert_eq!(adopted.od.iter().collect::<Vec<_>>(), pairs(&oracle));
        assert_eq!(read.observations, (0..240).sum::<u64>());
        assert_eq!(totals.observations(), read.observations);
        assert_eq!(adopted, read);
    }
}
