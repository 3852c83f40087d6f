//! The sharded in-memory store behind the batch reference fold.
//!
//! Observations are keyed two ways, mirroring the two query patterns of the
//! analytics tier:
//!
//! * **by tag** — tag shards hold per-tag sighting state (last pole, last
//!   time), from which the re-sighting analytics (speed samples, OD
//!   transitions, flow events) are derived. Observations are routed to
//!   shards by **CFO bin**, so a tag's whole history — including the
//!   decoded-id observations that alias its CFO-signature key (§8) — lands
//!   on one shard and is totally ordered no matter how many shards are
//!   configured.
//! * **by street segment** — report-level occupancy counters, one map
//!   keyed by segment.
//!
//! [`ShardedStore`] is owned by one thread: [`ShardedStore::scatter`] takes
//! `&mut self`, and [`ShardedStore::finalize`] splits the shards into
//! disjoint runs for its scoped threads, so nothing in it is locked.
//!
//! The per-tag transition state machine lives in [`TagTracker`], shared with
//! the online engine in `caraoke-live`: it consumes observations in
//! canonical order and emits [`DerivedEvent`]s (flow, OD transition, speed
//! sample) which the caller folds into whichever aggregate state it keeps —
//! whole-run [`CityAggregates`] here, window-keyed panes in the live layer.
//!
//! Determinism contract: report order is arbitrary (the batch driver's
//! producers deliver in any interleaving), but [`ShardedStore::finalize`]
//! stably sorts each shard's buffered observations by
//! [`canonical_obs_key`] before applying them, and every aggregator is an
//! integer CRDT-style counter (see [`crate::aggregate`]). The final
//! [`CityAggregates`] is therefore byte-identical for any shard count,
//! thread count, or delivery order — the property the shard-invariance
//! tests pin.

use crate::aggregate::{AggregateBuilder, CityAggregates, SegmentStats};
use crate::event::{PoleId, PoleReport, SegmentId, TagKey, TagObservation};
use crate::position::{resolve_position, track_speed_mps, PositionMethod};
use caraoke_geom::Vec3;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

/// Deterministic multiply-mix hasher for the tracker's `u64` keys.
///
/// The tracker does two to three hash lookups per observation; with the
/// std `HashMap`'s randomly-seeded SipHash those lookups dominate the seal
/// hot path. Tag keys are already well-mixed identifiers (synthetic keys,
/// CFO signatures, decoded ids), so a single SplitMix64-style finalizer
/// round is plenty of avalanche. Determinism is safe: the hasher is fixed
/// (no per-process seed), and nothing the tracker emits depends on map
/// iteration order anyway — deltas and exports are sorted on the way out.
#[derive(Debug, Default, Clone, Copy)]
pub struct TagKeyHasher(u64);

impl std::hash::Hasher for TagKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the tracker's u64 keys never take it.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// A `u64`-keyed map using [`TagKeyHasher`].
type TagKeyMap<V> = HashMap<u64, V, BuildHasherDefault<TagKeyHasher>>;

/// Static description of one pole: where it is and which segment it watches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoleSite {
    /// Street segment the pole monitors.
    pub segment: SegmentId,
    /// Position of the pole top, metres.
    pub position: Vec3,
}

/// The deployment's pole directory, indexed by [`PoleId`].
#[derive(Debug, Clone, Default)]
pub struct PoleDirectory {
    sites: Vec<PoleSite>,
}

impl PoleDirectory {
    /// Builds a directory from pole sites (index = pole id).
    pub fn new(sites: Vec<PoleSite>) -> Self {
        Self { sites }
    }

    /// Number of poles.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site of a pole.
    pub fn site(&self, pole: PoleId) -> &PoleSite {
        &self.sites[pole.0 as usize]
    }

    /// Straight-line distance between two poles, metres.
    pub fn distance_m(&self, a: PoleId, b: PoleId) -> f64 {
        self.site(a).position.distance(self.site(b).position)
    }

    /// Iterates over `(PoleId, &PoleSite)`.
    pub fn iter(&self) -> impl Iterator<Item = (PoleId, &PoleSite)> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, s)| (PoleId(i as u32), s))
    }
}

/// Tuning knobs for the re-sighting analytics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Number of tag shards (partitions of per-tag state).
    pub shards: usize,
    /// Traffic-light cycle length used to bucket flow events, µs (Fig. 12
    /// uses 90 s cycles; 60 s is a common default).
    pub light_cycle_us: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            light_cycle_us: 60_000_000,
        }
    }
}

/// Re-sightings farther apart than this are treated as unrelated trips (no
/// speed sample, still an OD transition), µs.
pub const MAX_SPEED_GAP_US: u64 = 120_000_000;

/// Re-sightings closer together than this are ignored for speed (the
/// AoA/NTP error would dominate, §7), µs.
pub const MIN_SPEED_GAP_US: u64 = 200_000;

/// Speed samples above this are discarded as implausible (CFO-key aliasing
/// or tags re-entering a looping deployment can otherwise fake
/// teleport-grade fixes), mph.
pub const MAX_PLAUSIBLE_SPEED_MPH: f64 = 120.0;

/// Most recent position fixes retained per tag for track regression (§7).
/// Six fixes cover several epochs of a pole-to-pole traversal while keeping
/// the per-tag state small and `Copy`. Public because [`TagRecord`] — the
/// serializable image of the per-tag state — carries the same fixed-size
/// ring.
pub const TRACK_CAP: usize = 6;

/// Per-tag sighting state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TagState {
    /// Pole visited before `last_pole` (`u32::MAX` while unknown); used to
    /// suppress ping-pong between two poles with overlapping coverage.
    prev_pole: u32,
    last_pole: PoleId,
    /// Segment before `last_segment` (`u16::MAX` while unknown); suppresses
    /// flow-event ping-pong when the overlapping poles straddle a segment
    /// boundary.
    prev_segment: u16,
    last_segment: SegmentId,
    /// First time the tag was heard at `last_pole`. Arrival-to-arrival
    /// timing is the speed fallback when no position track is available:
    /// two poles' coverage circles have the same radius, so the
    /// arrival-time difference spans exactly the pole spacing (§7).
    arrival_us: u64,
    last_seen_us: u64,
    last_cycle: u32,
    sightings: u64,
    /// Ring of recent *real* position fixes `(timestamp µs, x, y)` — only
    /// two-reader and AoA-only estimates; pole fallbacks never enter the
    /// track (they would regress to the pole-hop staircase the refactor
    /// replaces). `track_len` entries are valid; once full, `track_head`
    /// marks the oldest and a push overwrites it in place — a shift here
    /// would memmove the whole array on nearly every observation of a
    /// long-lived tag, squarely on the seal hot path.
    track: [(u64, f64, f64); TRACK_CAP],
    track_len: u8,
    /// Index of the oldest valid fix (always 0 until the ring fills).
    track_head: u8,
    /// Whether the key is on its traced tracker's dirty list: set at the
    /// state's first change since the last drain, so later changes skip
    /// the push. Never set while tracing is off.
    dirty: bool,
}

impl TagState {
    /// Filler for unoccupied [`TagStateMap`] slots (the map's value array is
    /// fully materialized); never observable through the map API.
    const fn vacant() -> Self {
        Self {
            prev_pole: u32::MAX,
            last_pole: PoleId(u32::MAX),
            prev_segment: u16::MAX,
            last_segment: SegmentId(u16::MAX),
            arrival_us: 0,
            last_seen_us: 0,
            last_cycle: 0,
            sightings: 0,
            track: [(0, 0.0, 0.0); TRACK_CAP],
            track_len: 0,
            track_head: 0,
            dirty: false,
        }
    }

    fn push_track(&mut self, timestamp_us: u64, xy: (f64, f64)) {
        if (self.track_len as usize) < TRACK_CAP {
            self.track[self.track_len as usize] = (timestamp_us, xy.0, xy.1);
            self.track_len += 1;
        } else {
            let head = self.track_head as usize;
            self.track[head] = (timestamp_us, xy.0, xy.1);
            self.track_head = if head + 1 == TRACK_CAP {
                0
            } else {
                self.track_head + 1
            };
        }
    }

    /// The retained fixes with timestamps in `[since_us, until_us]`, oldest
    /// first — the same order the pre-ring shifted array held, so the
    /// float-summation order downstream (and with it every fingerprint) is
    /// unchanged.
    fn track_window(&self, since_us: u64, until_us: u64) -> ([(u64, f64, f64); TRACK_CAP], usize) {
        let mut out = [(0u64, 0.0, 0.0); TRACK_CAP];
        let mut n = 0;
        let len = self.track_len as usize;
        for k in 0..len {
            let (t, x, y) = self.track[(self.track_head as usize + k) % TRACK_CAP];
            if t >= since_us && t <= until_us {
                out[n] = (t, x, y);
                n += 1;
            }
        }
        (out, n)
    }

    /// The track linearized oldest-first (head unrolled), for export into
    /// the head-free [`TagRecord`] wire form.
    fn track_linear(&self) -> [(u64, f64, f64); TRACK_CAP] {
        let mut out = [(0u64, 0.0, 0.0); TRACK_CAP];
        let len = self.track_len as usize;
        for (k, slot) in out.iter_mut().enumerate().take(len) {
            *slot = self.track[(self.track_head as usize + k) % TRACK_CAP];
        }
        out
    }
}

/// An analytics event derived from one observation by a [`TagTracker`].
///
/// The tracker owns the *ordering-sensitive* logic (re-sighting detection,
/// ping-pong suppression, alias upgrades); folding the emitted events into
/// counters is order-free, so callers may key them however they like —
/// whole-run aggregates in the batch store, watermark-sealed window panes in
/// the live engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DerivedEvent {
    /// A tag entered a `(segment, light cycle)` bucket it was not in before
    /// (one Fig. 12 flow event).
    Flow {
        /// Segment the tag entered.
        segment: SegmentId,
        /// Light-cycle index of the entry.
        cycle: u32,
    },
    /// A tag was re-sighted at a different pole (one OD transition).
    Od {
        /// Pole the tag came from.
        from: PoleId,
        /// Pole the tag was re-sighted at.
        to: PoleId,
    },
    /// A plausible cross-pole speed fix (§7).
    Speed {
        /// Estimated speed, mph.
        mph: f64,
        /// How the estimate was obtained.
        source: SpeedSource,
    },
}

/// How a [`DerivedEvent::Speed`] sample was estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedSource {
    /// Least-squares regression over the tag's position track (§7 via §6
    /// localization — the preferred path).
    PositionTrack,
    /// Arrival-time delta between pole fixes (used when no usable track
    /// exists).
    ArrivalTime,
}

/// Counters describing the mid-stream [`TagKey`] alias upgrades (§8).
///
/// At high tag density many transponders share a CFO bin, so a
/// CFO-signature key is an *ambiguous* identity; these counters make the
/// aliasing rate observable. `alias_collisions / decode_upgrades` is how
/// often decodes found their CFO key already claimed by a different decoded
/// tag, per first claim — it exceeds 1 when several tags keep re-claiming a
/// shared bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasStats {
    /// First decodes: a CFO-signature key upgraded to a decoded key, its
    /// sighting history migrated.
    pub decode_upgrades: u64,
    /// Undecoded observations resolved through the alias table onto a
    /// decoded key.
    pub alias_hits: u64,
    /// Decodes that found the CFO key already aliased to a *different*
    /// decoded id — two tags sharing a bin (the §5 shared-bin regime).
    pub alias_collisions: u64,
}

impl AliasStats {
    /// Merges another shard's counters.
    pub fn merge(&mut self, other: &AliasStats) {
        self.decode_upgrades += other.decode_upgrades;
        self.alias_hits += other.alias_hits;
        self.alias_collisions += other.alias_collisions;
    }

    /// Shared-bin collisions per first-decode upgrade (0 when nothing was
    /// decoded; exceeds 1 when tags keep re-claiming a shared bin).
    pub fn collision_rate(&self) -> f64 {
        if self.decode_upgrades == 0 {
            0.0
        } else {
            self.alias_collisions as f64 / self.decode_upgrades as f64
        }
    }
}

/// Serializable image of one tag's tracker state — field-for-field mirror
/// of the private per-tag state, exposed for the durable pane log's
/// snapshot/delta records ([`TagTracker::take_delta`] /
/// [`TagTracker::apply_delta`]). Track coordinates round-trip exactly
/// through their IEEE-754 bit patterns, so a recovered tracker is
/// byte-identical to the one that was persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagRecord {
    /// Resolved tag key this state is stored under.
    pub key: u64,
    /// Pole visited before `last_pole` (`u32::MAX` while unknown).
    pub prev_pole: u32,
    /// Latest pole the tag was heard at.
    pub last_pole: u32,
    /// Segment before `last_segment` (`u16::MAX` while unknown).
    pub prev_segment: u16,
    /// Latest segment the tag was heard in.
    pub last_segment: u16,
    /// First time the tag was heard at `last_pole`, µs.
    pub arrival_us: u64,
    /// Latest sighting time, µs.
    pub last_seen_us: u64,
    /// Light-cycle index of the latest sighting.
    pub last_cycle: u32,
    /// Total sightings of this tag.
    pub sightings: u64,
    /// Ring of recent real position fixes `(timestamp µs, x, y)`; only the
    /// first `track_len` entries are valid.
    pub track: [(u64, f64, f64); TRACK_CAP],
    /// Number of valid `track` entries.
    pub track_len: u8,
}

/// The changes a [`TagTracker`] accumulated since the previous
/// [`take_delta`](TagTracker::take_delta) drain — or, from
/// [`export`](TagTracker::export), the full tracker state as one delta from
/// empty. All lists are sorted by key, so equal tracker histories always
/// produce byte-identical deltas (the pane log's deterministic encoding
/// relies on this).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackerDelta {
    /// Tags created or modified since the drain: full post-state per key.
    pub upserts: Vec<TagRecord>,
    /// Keys removed since the drain (a first decode migrates a
    /// CFO-signature key's state to its decoded key).
    pub removals: Vec<u64>,
    /// Alias-table entries added or re-pointed: `(raw key, decoded key)`.
    pub aliases: Vec<(u64, u64)>,
    /// Absolute alias counters at drain time (not a diff — on replay the
    /// last applied delta's counters win).
    pub stats: AliasStats,
}

impl TrackerDelta {
    /// Whether the delta carries no changes at all (stats aside).
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removals.is_empty() && self.aliases.is_empty()
    }
}

fn record_of(key: u64, state: &TagState) -> TagRecord {
    TagRecord {
        key,
        prev_pole: state.prev_pole,
        last_pole: state.last_pole.0,
        prev_segment: state.prev_segment,
        last_segment: state.last_segment.0,
        arrival_us: state.arrival_us,
        last_seen_us: state.last_seen_us,
        last_cycle: state.last_cycle,
        sightings: state.sightings,
        track: state.track_linear(),
        track_len: state.track_len,
    }
}

fn state_of(rec: &TagRecord) -> TagState {
    TagState {
        prev_pole: rec.prev_pole,
        last_pole: PoleId(rec.last_pole),
        prev_segment: rec.prev_segment,
        last_segment: SegmentId(rec.last_segment),
        arrival_us: rec.arrival_us,
        last_seen_us: rec.last_seen_us,
        last_cycle: rec.last_cycle,
        sightings: rec.sightings,
        track: rec.track,
        track_len: rec.track_len,
        track_head: 0,
        dirty: false,
    }
}

/// The per-tag transition state machine: consumes observations in canonical
/// `(timestamp, pole, tag)` order and emits [`DerivedEvent`]s.
///
/// Identity resolution happens here too: an observation carrying a decoded
/// id (§8) upgrades the tag's CFO-signature key to the decoded key on first
/// decode — the existing sighting state migrates, and later undecoded
/// observations of the same CFO signature resolve through the alias table.
/// Observations must be routed to trackers by CFO bin so an aliased pair
/// always meets the same tracker.
#[derive(Debug, Default)]
pub struct TagTracker {
    /// Per-tag state, keyed by resolved tag key. An open-addressing table
    /// (see [`TagStateMap`]) rather than a `HashMap` so the seal walk can
    /// prefetch upcoming tags' state through [`TagTracker::prefetch`].
    tags: TagStateMap,
    /// CFO-signature key → decoded key upgrades.
    aliases: TagKeyMap<u64>,
    stats: AliasStats,
    /// When set, every mutation pushes its key onto the dirty lists so
    /// [`take_delta`](Self::take_delta) can emit a per-pane change log.
    /// Off by default: stores that never persist pay nothing but one
    /// branch per mutation. A sighting pushes its key only at the state's
    /// first change since the last drain (the state's `dirty` flag);
    /// alias changes, key migrations and evictions push theirs every time.
    /// `take_delta` sorts and dedups each list once per drain, which gives
    /// the deltas their key order.
    trace: bool,
    dirty_tags: Vec<u64>,
    dirty_aliases: Vec<u64>,
}

impl TagTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (resolved) tags tracked.
    pub fn distinct_tags(&self) -> usize {
        self.tags.len()
    }

    /// The tracker's alias-upgrade counters.
    pub fn alias_stats(&self) -> AliasStats {
        self.stats
    }

    /// Resolves the row's tag identity through the alias table,
    /// registering a new alias when the row carries a decode.
    fn resolve(&mut self, row: &FoldRow) -> u64 {
        let raw = row.tag.0;
        if row.has_decoded {
            let decoded = row.decoded.0;
            if raw != decoded {
                match self.aliases.get(&raw).copied() {
                    None => {
                        // First decode of this CFO signature: migrate its
                        // history to the decoded key (unless the decoded tag
                        // was already tracked in its own right, which wins).
                        self.aliases.insert(raw, decoded);
                        self.stats.decode_upgrades += 1;
                        if self.trace {
                            self.dirty_aliases.push(raw);
                        }
                        if let Some(state) = self.tags.remove(raw) {
                            self.tags.insert_if_absent(decoded, state);
                            if self.trace {
                                self.dirty_tags.extend([raw, decoded]);
                            }
                        }
                    }
                    Some(existing) if existing != decoded => {
                        // Two tags share the bin: latest decode claims the
                        // signature (the §5 shared-bin regime).
                        self.stats.alias_collisions += 1;
                        self.aliases.insert(raw, decoded);
                        if self.trace {
                            self.dirty_aliases.push(raw);
                        }
                    }
                    Some(_) => {}
                }
            }
            decoded
        } else if let Some(&decoded) = self.aliases.get(&raw) {
            self.stats.alias_hits += 1;
            decoded
        } else {
            raw
        }
    }

    /// Hints the cache at the per-tag state `row` will touch when it is
    /// folded shortly ([`fold_row`]): resolves the row's key through the
    /// alias table (read-only — no stats, no upgrades) and prefetches its
    /// slot in the state table. Callers walking a sorted batch issue this a
    /// few rows ahead so the state-table miss — the dominant cost of the
    /// fold on large deployments — overlaps earlier folds. Purely a hint;
    /// results are identical with or without it.
    #[inline]
    pub fn prefetch(&self, row: &FoldRow) {
        let raw = row.tag.0;
        let key = if row.has_decoded {
            row.decoded.0
        } else {
            self.aliases.get(&raw).copied().unwrap_or(raw)
        };
        self.tags.prefetch(key);
    }

    /// Applies one observation (which must arrive in canonical order) and
    /// emits the derived analytics events: resolves it into a [`FoldRow`]
    /// and folds that.
    pub fn apply(
        &mut self,
        obs: &TagObservation,
        directory: &PoleDirectory,
        config: &StoreConfig,
        emit: impl FnMut(DerivedEvent),
    ) {
        let row = FoldRow::resolve(obs, directory.site(obs.pole));
        self.fold(&row, directory, config, emit);
    }

    /// The per-tag transition for one row, in canonical order.
    fn fold(
        &mut self,
        row: &FoldRow,
        directory: &PoleDirectory,
        config: &StoreConfig,
        mut emit: impl FnMut(DerivedEvent),
    ) {
        let key = self.resolve(row);
        let cycle = (row.timestamp_us / config.light_cycle_us) as u32;
        // Only real fixes feed the position track; the pole fallback would
        // regress to the pole-hop staircase the track is meant to replace.
        let fix = row.method != PositionMethod::PolePosition;
        match self.tags.get_mut(key) {
            None => {
                emit(DerivedEvent::Flow {
                    segment: row.segment,
                    cycle,
                });
                let mut state = TagState {
                    prev_pole: u32::MAX,
                    last_pole: row.pole,
                    prev_segment: u16::MAX,
                    last_segment: row.segment,
                    arrival_us: row.timestamp_us,
                    last_seen_us: row.timestamp_us,
                    last_cycle: cycle,
                    sightings: 1,
                    track: [(0, 0.0, 0.0); TRACK_CAP],
                    track_len: 0,
                    track_head: 0,
                    dirty: self.trace,
                };
                if fix {
                    state.push_track(row.timestamp_us, row.xy);
                }
                self.tags.insert(key, state);
                if self.trace {
                    self.dirty_tags.push(key);
                }
            }
            Some(state) => {
                if self.trace && !state.dirty {
                    state.dirty = true;
                    self.dirty_tags.push(key);
                }
                if fix {
                    state.push_track(row.timestamp_us, row.xy);
                }
                // A tag entering a (segment, light-cycle) bucket it was
                // not in before is one flow event (Fig. 12). Bouncing
                // back to the previous segment within the same cycle is
                // coverage-overlap ping-pong, not new flow. Segment
                // tracking resets at every cycle boundary so a tag
                // straddling two segments is credited to both, once per
                // cycle each.
                if cycle != state.last_cycle {
                    emit(DerivedEvent::Flow {
                        segment: row.segment,
                        cycle,
                    });
                    state.prev_segment = u16::MAX;
                    state.last_segment = row.segment;
                } else if row.segment != state.last_segment && row.segment.0 != state.prev_segment {
                    emit(DerivedEvent::Flow {
                        segment: row.segment,
                        cycle,
                    });
                    state.prev_segment = state.last_segment.0;
                    state.last_segment = row.segment;
                }
                // Ping-pong suppression: overlapping pole coverage makes
                // a tag alternate between two poles while physically in
                // both ranges; bouncing back to the previous pole is not
                // forward progress.
                let pingpong = row.pole.0 == state.prev_pole;
                if row.pole != state.last_pole && !pingpong {
                    emit(DerivedEvent::Od {
                        from: state.last_pole,
                        to: row.pole,
                    });
                    let gap = row.timestamp_us.saturating_sub(state.arrival_us);
                    if (MIN_SPEED_GAP_US..=MAX_SPEED_GAP_US).contains(&gap) {
                        // Preferred path: regress the tag's position track
                        // over this traversal (every fix since arrival at
                        // the previous pole). Falls back to the
                        // arrival-to-arrival delta — which spans exactly
                        // the pole spacing when both poles share a
                        // coverage radius — when the track is too thin.
                        let (window, n) = state.track_window(state.arrival_us, row.timestamp_us);
                        // Span via min/max, not first/last: late fixes from a
                        // previous finalize batch can sit out of order in the
                        // ring, and a positional difference would underflow.
                        let track_span = if n >= 2 {
                            let min = window[..n].iter().map(|p| p.0).min().expect("n >= 2");
                            let max = window[..n].iter().map(|p| p.0).max().expect("n >= 2");
                            max - min
                        } else {
                            0
                        };
                        let speed = if track_span >= MIN_SPEED_GAP_US {
                            track_speed_mps(&window[..n])
                                .map(|mps| (mps, SpeedSource::PositionTrack))
                        } else {
                            None
                        };
                        let (mps, source) = speed.unwrap_or_else(|| {
                            let dist = directory.distance_m(state.last_pole, row.pole);
                            (dist / (gap as f64 / 1e6), SpeedSource::ArrivalTime)
                        });
                        let mph = caraoke_geom::mps_to_mph(mps);
                        if mph <= MAX_PLAUSIBLE_SPEED_MPH {
                            emit(DerivedEvent::Speed { mph, source });
                        }
                    }
                    state.prev_pole = state.last_pole.0;
                    state.last_pole = row.pole;
                    state.arrival_us = row.timestamp_us;
                }
                state.last_seen_us = state.last_seen_us.max(row.timestamp_us);
                state.last_cycle = cycle;
                state.sightings += 1;
            }
        }
    }

    /// Turns per-mutation dirty tracking on or off. Switching (either way)
    /// clears the dirty lists, so the first [`take_delta`](Self::take_delta)
    /// after enabling covers exactly the mutations since the switch.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
        for key in self.dirty_tags.drain(..) {
            if let Some(state) = self.tags.get_mut(key) {
                state.dirty = false;
            }
        }
        self.dirty_aliases.clear();
    }

    /// Drains the dirty lists into a [`TrackerDelta`] covering every
    /// mutation since the last drain. Requires tracing (see
    /// [`set_trace`](Self::set_trace)); the delta lists each changed key
    /// once, sorted, so the encoding downstream is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if tracing is off — a silent empty delta would corrupt any log
    /// built from it.
    pub fn take_delta(&mut self) -> TrackerDelta {
        assert!(self.trace, "take_delta requires set_trace(true)");
        self.dirty_tags.sort_unstable();
        self.dirty_tags.dedup();
        self.dirty_aliases.sort_unstable();
        self.dirty_aliases.dedup();
        let keys = &self.dirty_tags;
        let mut delta = TrackerDelta {
            upserts: Vec::with_capacity(keys.len()),
            stats: self.stats,
            ..TrackerDelta::default()
        };
        // Sorted keys land in unrelated slots of the state table, so each
        // lookup is a miss; hinting a few keys ahead overlaps them.
        for (n, &key) in keys.iter().enumerate() {
            if let Some(&ahead) = keys.get(n + DELTA_PREFETCH_AHEAD) {
                self.tags.prefetch(ahead);
            }
            match self.tags.get_mut(key) {
                Some(state) => {
                    state.dirty = false;
                    delta.upserts.push(record_of(key, state));
                }
                None => delta.removals.push(key),
            }
        }
        for &raw in &self.dirty_aliases {
            if let Some(&decoded) = self.aliases.get(&raw) {
                delta.aliases.push((raw, decoded));
            }
        }
        self.dirty_tags.clear();
        self.dirty_aliases.clear();
        delta
    }

    /// Exports the tracker's *entire* state as one delta (sorted, removals
    /// empty) — the snapshot form of [`take_delta`](Self::take_delta). Does
    /// not touch the dirty lists.
    pub fn export(&self) -> TrackerDelta {
        let mut upserts: Vec<TagRecord> = self
            .tags
            .iter()
            .map(|(key, state)| record_of(key, state))
            .collect();
        upserts.sort_unstable_by_key(|rec| rec.key);
        let mut aliases: Vec<(u64, u64)> = self.aliases.iter().map(|(&r, &d)| (r, d)).collect();
        aliases.sort_unstable();
        TrackerDelta {
            upserts,
            removals: Vec::new(),
            aliases,
            stats: self.stats,
        }
    }

    /// Evicts every tag whose last sighting is older than `cutoff_us`,
    /// returning how many were removed. This is the compaction primitive
    /// bounding long-lived-tag state: without it a tracker (and every
    /// snapshot exported from it) grows with the distinct tags *ever*
    /// seen, not the tags still active.
    ///
    /// When tracing is on, evictions land in the dirty list, so the next
    /// [`take_delta`](Self::take_delta) carries them as removals and a
    /// delta-by-delta replay converges to the same compacted state.
    /// Aliases are kept: a reappearing signature still resolves to its
    /// decoded key and simply starts fresh sighting state there, exactly
    /// like a never-seen tag. Determinism note: drive `cutoff_us` from
    /// event time (pane boundaries), never wall clock, or equal runs
    /// diverge.
    pub fn evict_idle(&mut self, cutoff_us: u64) -> u64 {
        let before = self.tags.len();
        if self.trace {
            let dirty = &mut self.dirty_tags;
            self.tags.retain(|key, state| {
                let keep = state.last_seen_us >= cutoff_us;
                if !keep {
                    dirty.push(key);
                }
                keep
            });
        } else {
            self.tags.retain(|_, state| state.last_seen_us >= cutoff_us);
        }
        (before - self.tags.len()) as u64
    }

    /// Applies a delta produced by [`take_delta`](Self::take_delta) or
    /// [`export`](Self::export). Deltas must be applied in the order they
    /// were taken; stats are absolute, not cumulative. Replay does not mark
    /// anything dirty — the applied state is by definition already durable.
    pub fn apply_delta(&mut self, delta: &TrackerDelta) {
        for &key in &delta.removals {
            self.tags.remove(key);
        }
        for rec in &delta.upserts {
            self.tags.insert(rec.key, state_of(rec));
        }
        for &(raw, decoded) in &delta.aliases {
            self.aliases.insert(raw, decoded);
        }
        self.stats = delta.stats;
    }
}

/// Dirty keys ahead that [`TagTracker::take_delta`] hints the state table
/// at ([`TagStateMap::prefetch`]).
const DELTA_PREFETCH_AHEAD: usize = 4;

/// Open-addressing storage for per-tag state, replacing `HashMap<u64,
/// TagState>` on the tracker's hot path.
///
/// The seal walk does one state lookup per observation, in canonical
/// `(timestamp, pole, tag)` order — i.e. effectively random tag order — so
/// each lookup is a cache miss on a ~200-byte `TagState`. A `std` map hides
/// its buckets, so that miss cannot be overlapped; this table keys with
/// plain parallel arrays (keys, states), letting
/// [`TagStateMap::prefetch`] compute the home slot of an *upcoming*
/// observation and pull its key and state lines into cache
/// while the current observation folds. Linear probing with backshift
/// deletion (no tombstones) keeps probe chains short at the 3/4 load factor.
///
/// Determinism is unaffected: iteration order is only ever observed through
/// [`TagTracker::export`], which sorts, and [`TagTracker::evict_idle`],
/// whose predicate is order-independent.
#[derive(Default)]
struct TagStateMap {
    /// Slot keys; [`Self::EMPTY`] marks a free slot, so probe loops touch
    /// exactly one array (one cache line per step) until a candidate
    /// matches. A genuine `EMPTY` key is legal input and lives in
    /// `sentinel_val` instead of the table.
    keys: Vec<u64>,
    vals: Vec<TagState>,
    /// Entries in `keys`/`vals` (excludes `sentinel_val`).
    table_len: usize,
    /// `capacity - 1`; capacity is always a power of two (0 while empty).
    mask: usize,
    /// State for the one key equal to [`Self::EMPTY`], should it ever occur.
    sentinel_val: Option<TagState>,
}

impl std::fmt::Debug for TagStateMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagStateMap")
            .field("len", &self.len())
            .field("capacity", &self.keys.len())
            .finish()
    }
}

impl TagStateMap {
    /// The free-slot marker. No synthetic, CFO-signature, or decoded tag key
    /// is all-ones in practice, but the map stays correct if one is: that
    /// key is diverted to `sentinel_val`.
    const EMPTY: u64 = u64::MAX;

    /// SplitMix64 finalizer — the same mix [`TagKeyHasher`] uses, applied
    /// directly since the key is already a `u64`.
    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        let mut z = key ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize & self.mask
    }

    fn len(&self) -> usize {
        self.table_len + usize::from(self.sentinel_val.is_some())
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)` of the first empty slot on
    /// its probe chain. Callers must ensure the table is non-empty and
    /// `key != EMPTY`.
    #[inline(always)]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Ok(i);
            }
            if k == Self::EMPTY {
                return Err(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline(always)]
    fn get_mut(&mut self, key: u64) -> Option<&mut TagState> {
        if key == Self::EMPTY {
            return self.sentinel_val.as_mut();
        }
        if self.table_len == 0 {
            return None;
        }
        match self.probe(key) {
            Ok(i) => Some(&mut self.vals[i]),
            Err(_) => None,
        }
    }

    /// Inserts or replaces, `HashMap::insert`-style.
    fn insert(&mut self, key: u64, val: TagState) {
        if key == Self::EMPTY {
            self.sentinel_val = Some(val);
            return;
        }
        self.reserve_one();
        match self.probe(key) {
            Ok(i) => self.vals[i] = val,
            Err(i) => {
                self.keys[i] = key;
                self.vals[i] = val;
                self.table_len += 1;
            }
        }
    }

    /// Inserts only when absent (`entry(key).or_insert(val)`).
    fn insert_if_absent(&mut self, key: u64, val: TagState) {
        if key == Self::EMPTY {
            self.sentinel_val.get_or_insert(val);
            return;
        }
        self.reserve_one();
        if let Err(i) = self.probe(key) {
            self.keys[i] = key;
            self.vals[i] = val;
            self.table_len += 1;
        }
    }

    fn remove(&mut self, key: u64) -> Option<TagState> {
        if key == Self::EMPTY {
            return self.sentinel_val.take();
        }
        if self.table_len == 0 {
            return None;
        }
        let mut hole = self.probe(key).ok()?;
        let out = self.vals[hole];
        // Backshift: walk the cluster after the hole; any element whose home
        // slot is cyclically at-or-before the hole slides back into it, so
        // every surviving element stays reachable without tombstones.
        let mask = self.mask;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == Self::EMPTY {
                break;
            }
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = Self::EMPTY;
        self.table_len -= 1;
        Some(out)
    }

    /// Keeps only entries satisfying the predicate. Rebuilds in place
    /// (removal-during-scan would skip elements the backshift moves behind
    /// the cursor); callers are cold compaction paths.
    fn retain(&mut self, mut keep: impl FnMut(u64, &TagState) -> bool) {
        if let Some(state) = &self.sentinel_val {
            if !keep(Self::EMPTY, state) {
                self.sentinel_val = None;
            }
        }
        if self.table_len == 0 {
            return;
        }
        let cap = self.keys.len();
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![TagState::vacant(); cap];
        self.table_len = 0;
        for i in 0..cap {
            if old_keys[i] != Self::EMPTY && keep(old_keys[i], &old_vals[i]) {
                let mut j = self.home(old_keys[i]);
                while self.keys[j] != Self::EMPTY {
                    j = (j + 1) & self.mask;
                }
                self.keys[j] = old_keys[i];
                self.vals[j] = old_vals[i];
                self.table_len += 1;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &TagState)> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != Self::EMPTY)
            .map(|(i, &k)| (k, &self.vals[i]))
            .chain(self.sentinel_val.iter().map(|s| (Self::EMPTY, s)))
    }

    /// Grows (doubling) when one more insert would pass the 3/4 load
    /// factor, rehashing every element into the wider table.
    fn reserve_one(&mut self) {
        let cap = self.keys.len();
        if cap == 0 || self.table_len + 1 > cap - cap / 4 {
            let new_cap = (cap * 2).max(64);
            let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; new_cap]);
            let old_vals = std::mem::replace(&mut self.vals, vec![TagState::vacant(); new_cap]);
            self.mask = new_cap - 1;
            for i in 0..old_keys.len() {
                if old_keys[i] != Self::EMPTY {
                    let mut j = self.home(old_keys[i]);
                    while self.keys[j] != Self::EMPTY {
                        j = (j + 1) & self.mask;
                    }
                    self.keys[j] = old_keys[i];
                    self.vals[j] = old_vals[i];
                }
            }
        }
    }

    /// Pulls `key`'s home slot — key word and the first lines of its state —
    /// toward L1 ahead of the lookup the caller is about to make. Purely a
    /// hint: wrong or stale guesses cost nothing but bandwidth. (The one
    /// `unsafe` in this crate: `_mm_prefetch` never faults, even on wild
    /// addresses.)
    #[allow(unsafe_code)]
    #[inline(always)]
    fn prefetch(&self, key: u64) {
        if self.table_len == 0 || key == Self::EMPTY {
            return;
        }
        let i = self.home(key);
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(&self.keys[i] as *const u64 as *const i8, _MM_HINT_T0);
            let v = &self.vals[i] as *const TagState as *const i8;
            _mm_prefetch(v, _MM_HINT_T0);
            _mm_prefetch(v.add(64), _MM_HINT_T0);
            _mm_prefetch(v.add(128), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }
}

/// One tag shard of the batch store.
#[derive(Debug, Default)]
struct TagShard {
    /// Observations buffered by scatter, applied (sorted) by finalize.
    pending: Vec<TagObservation>,
    /// The shard's per-tag state machine, built during apply.
    tracker: TagTracker,
    /// Aggregates derived from this shard's tags.
    agg: CityAggregates,
}

impl TagShard {
    /// Applies the buffered observations in canonical order. The sort is
    /// stable, so observations with equal keys — which only one report can
    /// produce — keep the order that report listed them in.
    fn apply(&mut self, directory: &PoleDirectory, config: &StoreConfig) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(canonical_obs_key);
        let mut builder = AggregateBuilder::default();
        for obs in &pending {
            fold_observation(&mut builder, &mut self.tracker, obs, directory, config);
        }
        self.agg.merge(&builder.finish());
    }
}

/// The city's sharded in-memory store, owned by one thread.
pub struct ShardedStore {
    tag_shards: Vec<TagShard>,
    segments: BTreeMap<u16, SegmentStats>,
    directory: PoleDirectory,
    config: StoreConfig,
    report_count: u64,
}

/// Fibonacci hash spreading CFO bins across shards. Routing by bin (rather
/// than by tag key) keeps a CFO-signature key and the decoded key that
/// aliases it (§4: a tag's CFO is stable to within a bin) on the same shard,
/// so alias upgrades are shard-local.
pub fn shard_of_bin(cfo_bin: u32, shards: usize) -> usize {
    ((cfo_bin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// The canonical per-shard observation order — `(timestamp, pole, tag,
/// cfo_bin)` — shared by the batch store's sort-at-finalize and the live
/// engine's pane sealing, so both tiers run the [`TagTracker`] state machine
/// over the exact same sequence. The key includes the CFO bin because
/// observations carry per-sighting position estimates, so two same-tag
/// spikes in one report must order by a stable physical attribute, not by
/// delivery luck. Observations with fully equal keys can only come from a
/// single report (a pole emits one report per timestamp); callers that need
/// a total order disambiguate with the within-report index.
pub fn canonical_obs_key(obs: &TagObservation) -> (u64, u32, u64, u32) {
    (obs.timestamp_us, obs.pole.0, obs.tag.0, obs.cfo_bin)
}

/// One observation as the fold reads it, resolved once: every field
/// [`fold_row`] and the [`TagTracker`] read of a [`TagObservation`], and
/// nothing else — 56 bytes against the observation's 120. The position is
/// [`resolve_position`]'s and the σ is its
/// [`sigma_m`](crate::position::PositionEstimate::sigma_m), the same
/// arithmetic on the same `f64`s as folding the observation itself, so
/// every field is bit for bit what that fold computes. The live engine
/// buffers these rows at ingest; the batch store resolves each observation
/// as it folds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldRow {
    /// Time of the sighting, microseconds since deployment start.
    pub timestamp_us: u64,
    /// The observation's tag key (decoded id or CFO signature).
    pub tag: TagKey,
    /// The decoded id's key ([`TagKey::from_decoded`]) when `has_decoded`.
    pub decoded: TagKey,
    /// The resolved position on the road plane, metres.
    pub xy: (f64, f64),
    /// RMS 1-σ uncertainty of the resolved position, metres.
    pub sigma_m: f64,
    /// Pole that heard the tag.
    pub pole: PoleId,
    /// Street segment the pole monitors.
    pub segment: SegmentId,
    /// How the resolved position was obtained. Anything but
    /// [`PositionMethod::PolePosition`] is a real fix and feeds the tag's
    /// position track.
    pub method: PositionMethod,
    /// Whether the observation carried a decoded id (§8).
    pub has_decoded: bool,
}

impl FoldRow {
    /// Resolves `obs`, heard by the pole at `site`.
    pub fn resolve(obs: &TagObservation, site: &PoleSite) -> Self {
        let resolved = resolve_position(obs, site);
        Self {
            timestamp_us: obs.timestamp_us,
            tag: obs.tag,
            decoded: obs.decoded.map_or(TagKey(0), TagKey::from_decoded),
            xy: resolved.xy,
            sigma_m: resolved.sigma_m(),
            pole: obs.pole,
            segment: obs.segment,
            method: resolved.method,
            has_decoded: obs.decoded.is_some(),
        }
    }
}

/// Folds one row into an aggregate through its shard's tracker — the
/// single definition of the per-observation path: the batch store's
/// sort-at-finalize (through `fold_observation`) and the live engine's
/// seal walk both run it, so the two tiers cannot diverge.
#[inline]
pub fn fold_row(
    builder: &mut AggregateBuilder,
    tracker: &mut TagTracker,
    row: &FoldRow,
    directory: &PoleDirectory,
    config: &StoreConfig,
) {
    builder.record_observation(row.method, row.sigma_m);
    tracker.fold(row, directory, config, |event| builder.record(event));
}

/// [`fold_row`] of the observation's [`FoldRow`].
fn fold_observation(
    builder: &mut AggregateBuilder,
    tracker: &mut TagTracker,
    obs: &TagObservation,
    directory: &PoleDirectory,
    config: &StoreConfig,
) {
    let row = FoldRow::resolve(obs, directory.site(obs.pole));
    fold_row(builder, tracker, &row, directory, config);
}

impl ShardedStore {
    /// Creates a store over the given deployment.
    pub fn new(directory: PoleDirectory, config: StoreConfig) -> Self {
        Self {
            tag_shards: (0..config.shards.max(1))
                .map(|_| TagShard::default())
                .collect(),
            segments: BTreeMap::new(),
            directory,
            config,
            report_count: 0,
        }
    }

    /// Scatters one pole report into the store: report-level counters go to
    /// its segment, per-tag observations are buffered on their tag's shard.
    pub fn scatter(&mut self, report: &PoleReport) {
        let multi = report
            .observations
            .iter()
            .filter(|o| o.multi_occupied)
            .count() as u32;
        self.segments
            .entry(report.segment.0)
            .or_default()
            .record_report(report.count, report.observations.len() as u32, multi);
        let n_shards = self.tag_shards.len();
        for obs in &report.observations {
            self.tag_shards[shard_of_bin(obs.cfo_bin, n_shards)]
                .pending
                .push(*obs);
        }
        self.report_count += 1;
    }

    /// Applies every shard's buffered observations on up to `threads`
    /// scoped threads, each owning a disjoint run of shards, and merges all
    /// shard and segment state into one [`CityAggregates`]. Deterministic
    /// for any thread or shard count.
    pub fn finalize(&mut self, threads: usize) -> CityAggregates {
        let per_thread = self
            .tag_shards
            .len()
            .div_ceil(threads.clamp(1, self.tag_shards.len()));
        let (directory, config) = (&self.directory, &self.config);
        std::thread::scope(|scope| {
            for run in self.tag_shards.chunks_mut(per_thread) {
                scope.spawn(move || {
                    for shard in run {
                        shard.apply(directory, config);
                    }
                });
            }
        });
        let mut out = CityAggregates::new();
        for shard in &self.tag_shards {
            out.merge(&shard.agg);
        }
        for (&seg, stats) in &self.segments {
            out.segments.entry(seg).or_default().merge(stats);
        }
        out
    }

    /// Number of distinct tags tracked (after `finalize`). Decoded-key
    /// aliases count once: a CFO signature upgraded to its decoded id is one
    /// tag, not two.
    pub fn distinct_tags(&self) -> usize {
        self.tag_shards
            .iter()
            .map(|s| s.tracker.distinct_tags())
            .sum()
    }

    /// Alias-upgrade counters summed over all shards (after `finalize`):
    /// how often CFO-signature keys were upgraded to decoded keys, how often
    /// the alias resolved later observations, and how often decodes collided
    /// on a shared CFO bin.
    pub fn alias_stats(&self) -> AliasStats {
        let mut out = AliasStats::default();
        for shard in &self.tag_shards {
            out.merge(&shard.tracker.alias_stats());
        }
        out
    }

    /// Number of pole reports scattered so far.
    pub fn reports(&self) -> u64 {
        self.report_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_directory(n: usize, spacing: f64) -> PoleDirectory {
        PoleDirectory::new(
            (0..n)
                .map(|i| PoleSite {
                    segment: SegmentId((i / 4) as u16),
                    position: Vec3::new(i as f64 * spacing, -5.0, 3.8),
                })
                .collect(),
        )
    }

    fn obs(tag: u64, pole: u32, segment: u16, t_us: u64) -> TagObservation {
        TagObservation {
            tag: TagKey(tag),
            pole: PoleId(pole),
            segment: SegmentId(segment),
            cfo_bin: (tag % 615) as u32,
            cfo_hz: tag as f64 * 1953.125,
            aoa_rad: 0.0,
            has_aoa: false,
            rssi_db: -40.0,
            timestamp_us: t_us,
            multi_occupied: false,
            decoded: None,
            position: None,
        }
    }

    fn report(pole: u32, segment: u16, t_us: u64, observations: Vec<TagObservation>) -> PoleReport {
        PoleReport {
            pole: PoleId(pole),
            segment: SegmentId(segment),
            timestamp_us: t_us,
            count: observations.len() as u32,
            peaks: observations.len() as u32,
            observations,
        }
    }

    #[test]
    fn resighting_produces_one_speed_sample_and_od_transition() {
        let dir = line_directory(4, 30.0);
        let mut store = ShardedStore::new(dir, StoreConfig::default());
        // Tag 9 heard at pole 0, then 30 m downstream 2 s later: 15 m/s.
        store.scatter(&report(0, 0, 0, vec![obs(9, 0, 0, 0)]));
        store.scatter(&report(1, 0, 2_000_000, vec![obs(9, 1, 0, 2_000_000)]));
        let agg = store.finalize(2);
        assert_eq!(agg.observations, 2);
        assert_eq!(agg.od.total(), 1);
        assert_eq!(agg.speeds.samples(), 1);
        let mph = agg.speeds.mean_mph();
        assert!(
            (mph - caraoke_geom::mps_to_mph(15.0)).abs() < 0.02,
            "got {mph}"
        );
        assert_eq!(store.distinct_tags(), 1);
        assert_eq!(store.reports(), 2);
    }

    #[test]
    fn tracker_delta_round_trip_reconstructs_state() {
        let dir = line_directory(4, 30.0);
        let config = StoreConfig::default();
        let mut live = TagTracker::new();
        live.set_trace(true);
        let mut replica = TagTracker::new();

        // Pane 1: two tags sighted, one with a decode that upgrades an alias.
        let mut decoded = obs(7, 0, 0, 0);
        decoded.decoded = Some(caraoke_phy::TransponderId(42));
        live.apply(&obs(7, 0, 0, 0), &dir, &config, |_| {});
        live.apply(&decoded, &dir, &config, |_| {});
        live.apply(&obs(9, 1, 0, 100), &dir, &config, |_| {});
        replica.apply_delta(&live.take_delta());
        assert_eq!(replica.export(), live.export());

        // Pane 2: incremental delta only covers the re-sighted tag.
        live.apply(&obs(9, 2, 0, 2_000_000), &dir, &config, |_| {});
        let delta = live.take_delta();
        assert_eq!(delta.upserts.len(), 1);
        assert!(delta.removals.is_empty());
        replica.apply_delta(&delta);
        assert_eq!(replica.export(), live.export());
        assert_eq!(replica.distinct_tags(), live.distinct_tags());
        assert_eq!(replica.alias_stats(), live.alias_stats());

        // An empty pane drains to an empty delta.
        assert!(live.take_delta().upserts.is_empty());
    }

    #[test]
    fn a_pane_delta_lists_each_changed_key_once_in_key_order() {
        let dir = line_directory(4, 30.0);
        let config = StoreConfig::default();
        let mut tracker = TagTracker::new();
        tracker.set_trace(true);
        let decoded = |tag: u64, id: u64, t_us: u64| TagObservation {
            decoded: Some(caraoke_phy::TransponderId(id)),
            ..obs(tag, 1, 0, t_us)
        };
        let key = |id: u64| TagKey::from_decoded(caraoke_phy::TransponderId(id)).0;

        // An earlier pane, drained: tag 5 goes idle, tag 11 is known only
        // by its CFO signature.
        tracker.apply(&obs(5, 0, 0, 0), &dir, &config, |_| {});
        tracker.apply(&obs(11, 0, 0, 9_000_000), &dir, &config, |_| {});
        assert_eq!(tracker.take_delta().upserts.len(), 2);

        // The pane: tag 7 five times; tag 11's first decode migrates its
        // state to the decoded key, an undecoded sighting resolves through
        // the alias, and a second decode re-points the alias (a shared-bin
        // collision) to a fresh key; then tag 5 is evicted.
        for (i, pole) in [0u32, 1, 2, 1, 3].into_iter().enumerate() {
            let t = 10_000_000 + i as u64 * 100_000;
            tracker.apply(&obs(7, pole, 0, t), &dir, &config, |_| {});
        }
        tracker.apply(&decoded(11, 42, 10_000_000), &dir, &config, |_| {});
        tracker.apply(&obs(11, 2, 0, 10_200_000), &dir, &config, |_| {});
        tracker.apply(&decoded(11, 43, 10_300_000), &dir, &config, |_| {});
        assert_eq!(tracker.evict_idle(5_000_000), 1);

        let delta = tracker.take_delta();
        let upserted: Vec<u64> = delta.upserts.iter().map(|rec| rec.key).collect();
        let mut expected = vec![7, key(42), key(43)];
        expected.sort_unstable();
        assert_eq!(upserted, expected, "each upsert once, in key order");
        let now = tracker.export();
        for rec in &delta.upserts {
            let current = now.upserts.iter().find(|r| r.key == rec.key);
            assert_eq!(Some(rec), current, "an upsert carries the post-pane state");
        }
        assert_eq!(delta.removals, vec![5, 11]);
        assert_eq!(
            delta.aliases,
            vec![(11, key(43))],
            "the alias once, as last set"
        );
        assert_eq!(delta.stats, tracker.alias_stats());

        assert!(tracker.take_delta().is_empty(), "the next drain is empty");

        // Tracing switched off and on again forgets the undrained list; a
        // change after the switch is still in the next delta.
        tracker.apply(&obs(7, 0, 0, 11_000_000), &dir, &config, |_| {});
        tracker.set_trace(false);
        tracker.set_trace(true);
        assert!(tracker.take_delta().is_empty());
        tracker.apply(&obs(7, 1, 0, 12_000_000), &dir, &config, |_| {});
        let keys: Vec<u64> = tracker.take_delta().upserts.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![7]);
    }

    #[test]
    fn evict_idle_drops_stale_tags_and_traces_removals() {
        let dir = line_directory(4, 30.0);
        let config = StoreConfig::default();
        let mut live = TagTracker::new();
        live.set_trace(true);
        let mut replica = TagTracker::new();

        live.apply(&obs(7, 0, 0, 0), &dir, &config, |_| {});
        live.apply(&obs(9, 1, 0, 10_000_000), &dir, &config, |_| {});
        replica.apply_delta(&live.take_delta());
        assert_eq!(live.distinct_tags(), 2);

        // Tag 7 was last seen at t=0, tag 9 at t=10s: a 5 s cutoff evicts
        // exactly the stale one, and the traced removal replays losslessly.
        assert_eq!(live.evict_idle(5_000_000), 1);
        assert_eq!(live.distinct_tags(), 1);
        let delta = live.take_delta();
        assert_eq!(delta.removals, vec![TagKey(7).0]);
        replica.apply_delta(&delta);
        assert_eq!(replica.export(), live.export());

        // Nothing left under the cutoff: a second sweep is a no-op.
        assert_eq!(live.evict_idle(5_000_000), 0);

        // An untraced tracker evicts without touching dirty bookkeeping.
        let mut plain = TagTracker::new();
        plain.apply(&obs(3, 0, 0, 0), &dir, &config, |_| {});
        assert_eq!(plain.evict_idle(1), 1);
        assert_eq!(plain.distinct_tags(), 0);
    }

    #[test]
    fn pingpong_between_overlapping_poles_is_suppressed() {
        // A car in the overlap of two poles' coverage is reported by both
        // every epoch; only the first A->B hand-off counts, and the speed
        // comes from arrival-to-arrival timing, not the bounce cadence.
        let mut store = ShardedStore::new(line_directory(3, 24.0), StoreConfig::default());
        // Heard at pole 0 from t=0; enters pole 1 coverage at t=2s; both
        // keep reporting it every second until t=5s.
        store.scatter(&report(0, 0, 0, vec![obs(7, 0, 0, 0)]));
        store.scatter(&report(0, 0, 1_000_000, vec![obs(7, 0, 0, 1_000_000)]));
        for t in [2_000_000u64, 3_000_000, 4_000_000, 5_000_000] {
            store.scatter(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            store.scatter(&report(1, 0, t, vec![obs(7, 1, 0, t)]));
        }
        // Then it leaves pole 0 behind and reaches pole 2 at t=6s.
        store.scatter(&report(2, 0, 6_000_000, vec![obs(7, 2, 0, 6_000_000)]));
        let agg = store.finalize(2);
        // Exactly two transitions (0->1 and 1->2), not one per bounce.
        assert_eq!(agg.od.total(), 2);
        assert_eq!(agg.od.get(0, 1), Some(1));
        assert_eq!(agg.od.get(1, 2), Some(1));
        // Speeds: 24 m in 2 s (arrival 0 -> arrival at pole 1) = 12 m/s and
        // 24 m in 4 s (arrival pole 1 t=2s -> arrival pole 2 t=6s) = 6 m/s.
        assert_eq!(agg.speeds.samples(), 2);
        let expect = (caraoke_geom::mps_to_mph(12.0) + caraoke_geom::mps_to_mph(6.0)) / 2.0;
        assert!((agg.speeds.mean_mph() - expect).abs() < 0.02);
    }

    #[test]
    fn flow_pingpong_across_a_segment_boundary_is_suppressed() {
        // Poles 3 (segment 0) and 4 (segment 1) have overlapping coverage; a
        // stationary car in the overlap is reported by both every second for
        // three 60 s light cycles. Flow must count it once per segment per
        // cycle — not once per bounce, and not only in the first-sorted
        // segment after a cycle rollover.
        let mut store = ShardedStore::new(line_directory(8, 24.0), StoreConfig::default());
        for t in 0..130u64 {
            let t_us = t * 1_000_000;
            store.scatter(&report(3, 0, t_us, vec![obs(11, 3, 0, t_us)]));
            store.scatter(&report(4, 1, t_us, vec![obs(11, 4, 1, t_us)]));
        }
        let agg = store.finalize(2);
        // Three cycles x two segments, one event each.
        assert_eq!(agg.flow.total(), 6, "flow events: {:?}", agg.flow.per_cycle);
        for seg in 0..2u16 {
            for cycle in 0..3u32 {
                assert_eq!(
                    agg.flow.per_cycle.get(&(seg, cycle)),
                    Some(&1),
                    "segment {seg} cycle {cycle}"
                );
            }
        }
        // And the pole bounce itself stays a single hand-off.
        assert_eq!(agg.od.total(), 1);
    }

    #[test]
    fn same_pole_resighting_is_not_a_transition() {
        let mut store = ShardedStore::new(line_directory(2, 25.0), StoreConfig::default());
        store.scatter(&report(0, 0, 0, vec![obs(5, 0, 0, 0)]));
        store.scatter(&report(0, 0, 1_500_000, vec![obs(5, 0, 0, 1_500_000)]));
        let agg = store.finalize(1);
        assert_eq!(agg.od.total(), 0);
        assert_eq!(agg.speeds.samples(), 0);
        assert_eq!(agg.observations, 2);
    }

    #[test]
    fn stale_resightings_count_for_od_but_not_speed() {
        let mut store = ShardedStore::new(line_directory(3, 40.0), StoreConfig::default());
        store.scatter(&report(0, 0, 0, vec![obs(3, 0, 0, 0)]));
        // Re-sighted 200 s later: a different trip.
        store.scatter(&report(2, 0, 200_000_000, vec![obs(3, 2, 0, 200_000_000)]));
        let agg = store.finalize(1);
        assert_eq!(agg.od.total(), 1);
        assert_eq!(agg.speeds.samples(), 0);
    }

    #[test]
    fn segment_counters_fold_report_headlines() {
        let mut store = ShardedStore::new(line_directory(8, 30.0), StoreConfig::default());
        store.scatter(&report(0, 0, 0, vec![obs(1, 0, 0, 0), obs(2, 0, 0, 0)]));
        store.scatter(&report(4, 1, 0, vec![obs(3, 4, 1, 0)]));
        store.scatter(&report(5, 1, 1_000_000, vec![]));
        let agg = store.finalize(4);
        assert_eq!(agg.segments[&0].reports, 1);
        assert_eq!(agg.segments[&0].sum_count, 2);
        assert_eq!(agg.segments[&1].reports, 2);
        assert_eq!(agg.segments[&1].peak_count, 1);
    }

    #[test]
    fn position_tracks_drive_the_speed_estimator_when_available() {
        use crate::position::PositionEstimate;
        // Poles 30 m apart, but the *car* really moves 13 m/s (the pole
        // spacing would fake 15 m/s via arrival deltas). Position fixes
        // every second pin the true speed.
        let dir = line_directory(4, 30.0);
        let mut store = ShardedStore::new(dir, StoreConfig::default());
        for t in 0..5u64 {
            let t_us = t * 1_000_000;
            let pole = if t < 2 { 0 } else { 1 };
            let mut o = obs(9, pole, 0, t_us);
            o.position = Some(PositionEstimate::two_reader(13.0 * t as f64, -1.5, 1.0));
            store.scatter(&report(pole, 0, t_us, vec![o]));
        }
        let agg = store.finalize(2);
        assert_eq!(agg.od.total(), 1);
        assert_eq!(agg.speeds.samples(), 1);
        let mph = agg.speeds.mean_mph();
        assert!(
            (mph - caraoke_geom::mps_to_mph(13.0)).abs() < 0.3,
            "track regression should see the true 13 m/s, got {mph}"
        );
        assert_eq!(agg.positions.track_speed_samples, 1);
        assert_eq!(agg.positions.arrival_speed_samples, 0);
        assert_eq!(agg.positions.two_reader_fixes, 5);
        assert_eq!(agg.positions.pole_fallbacks, 0);
        assert!((agg.positions.localized_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn position_free_observations_fall_back_to_arrival_time_speeds() {
        // No estimates anywhere, so the speed comes from the pole-spacing
        // arrival delta and every observation counts as a pole fallback.
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        store.scatter(&report(0, 0, 0, vec![obs(9, 0, 0, 0)]));
        store.scatter(&report(1, 0, 2_000_000, vec![obs(9, 1, 0, 2_000_000)]));
        let agg = store.finalize(1);
        assert_eq!(agg.speeds.samples(), 1);
        assert!((agg.speeds.mean_mph() - caraoke_geom::mps_to_mph(15.0)).abs() < 0.02);
        assert_eq!(agg.positions.arrival_speed_samples, 1);
        assert_eq!(agg.positions.track_speed_samples, 0);
        assert_eq!(agg.positions.pole_fallbacks, 2);
        assert_eq!(agg.positions.localized_fraction(), 0.0);
        // Pole fallbacks carry the nominal coverage sigma.
        assert!(
            (agg.positions.mean_sigma_m() - crate::position::POLE_FALLBACK_SIGMA_M).abs() < 1e-9
        );
    }

    #[test]
    fn out_of_order_fixes_across_finalize_batches_do_not_underflow() {
        use crate::position::PositionEstimate;
        // The batch store sorts within each finalize batch only: a second
        // batch may apply an *older* fix after a newer one, leaving the
        // per-tag track ring out of time order. The next transition must
        // still regress (or fall back) without panicking.
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        let fix_obs = |tag, pole, t_us: u64, x: f64| {
            let mut o = obs(tag, pole, 0, t_us);
            o.position = Some(PositionEstimate::two_reader(x, -1.5, 1.0));
            o
        };
        // Batch 1: first heard (no fix) at t = 5 s, then a fix at t = 6 s.
        store.scatter(&report(0, 0, 5_000_000, vec![obs(3, 0, 0, 5_000_000)]));
        store.scatter(&report(
            0,
            0,
            6_000_000,
            vec![fix_obs(3, 0, 6_000_000, 60.0)],
        ));
        store.finalize(1);
        // Batch 2: an *older* in-window fix (t = 5.5 s) lands after the
        // 6 s one, then a fix-less re-sighting at the next pole triggers
        // the speed path over the now out-of-order track [(6 s), (5.5 s)].
        store.scatter(&report(
            0,
            0,
            5_500_000,
            vec![fix_obs(3, 0, 5_500_000, 55.0)],
        ));
        store.scatter(&report(1, 0, 7_000_000, vec![obs(3, 1, 0, 7_000_000)]));
        let agg = store.finalize(1);
        assert_eq!(agg.observations, 4);
        assert_eq!(agg.speeds.samples(), 1);
        // Both fixes lie on x(t) = 10 m/s regardless of arrival order.
        assert!(
            (agg.speeds.mean_mph() - caraoke_geom::mps_to_mph(10.0)).abs() < 0.3,
            "got {}",
            agg.speeds.mean_mph()
        );
        assert_eq!(agg.positions.track_speed_samples, 1);
    }

    #[test]
    fn a_thin_track_falls_back_even_when_some_fixes_exist() {
        use crate::position::PositionEstimate;
        // Only the final observation carries a fix: one point is no track,
        // so the estimator must use the arrival delta — and tag it.
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        store.scatter(&report(0, 0, 0, vec![obs(5, 0, 0, 0)]));
        let mut last = obs(5, 1, 0, 2_000_000);
        last.position = Some(PositionEstimate::two_reader(30.0, -1.5, 1.0));
        store.scatter(&report(1, 0, 2_000_000, vec![last]));
        let agg = store.finalize(1);
        assert_eq!(agg.speeds.samples(), 1);
        assert_eq!(agg.positions.arrival_speed_samples, 1);
        assert_eq!(agg.positions.track_speed_samples, 0);
        assert_eq!(agg.positions.two_reader_fixes, 1);
        assert_eq!(agg.positions.pole_fallbacks, 1);
    }

    #[test]
    fn first_decode_upgrades_the_cfo_key_and_keeps_the_history() {
        use caraoke_phy::TransponderId;
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        // Tag tracked under its CFO-signature key at pole 0...
        let cfo_key = TagKey::from_cfo_bin(41).0;
        store.scatter(&report(0, 0, 0, vec![obs(cfo_key, 0, 0, 0)]));
        // ...then decoded at pole 1 two seconds later. Same CFO bin, so both
        // observations land on the same shard and the history migrates.
        let mut decoded_obs = obs(cfo_key, 1, 0, 2_000_000);
        decoded_obs.decoded = Some(TransponderId(900));
        store.scatter(&report(1, 0, 2_000_000, vec![decoded_obs]));
        // Later sightings carry only the CFO signature again; the alias
        // resolves them onto the decoded identity.
        store.scatter(&report(
            2,
            0,
            4_000_000,
            vec![obs(cfo_key, 2, 0, 4_000_000)],
        ));
        let agg = store.finalize(2);
        // One tag throughout: history continuity means the pole 0 -> 1 -> 2
        // walk produces two OD transitions and two speed samples.
        assert_eq!(store.distinct_tags(), 1, "alias must not split the tag");
        assert_eq!(agg.od.total(), 2);
        assert_eq!(agg.speeds.samples(), 2);
        let stats = store.alias_stats();
        assert_eq!(stats.decode_upgrades, 1);
        assert_eq!(stats.alias_hits, 1);
        assert_eq!(stats.alias_collisions, 0);
        assert_eq!(stats.collision_rate(), 0.0);
    }

    #[test]
    fn shared_bin_decodes_count_alias_collisions() {
        use caraoke_phy::TransponderId;
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        let cfo_key = TagKey::from_cfo_bin(88).0;
        // Two different transponders decode out of the same CFO bin (the §5
        // shared-bin regime at high tag density).
        let mut first = obs(cfo_key, 0, 0, 0);
        first.decoded = Some(TransponderId(1));
        let mut second = obs(cfo_key, 0, 0, 1_000_000);
        second.decoded = Some(TransponderId(2));
        store.scatter(&report(0, 0, 0, vec![first]));
        store.scatter(&report(0, 0, 1_000_000, vec![second]));
        store.finalize(1);
        let stats = store.alias_stats();
        assert_eq!(stats.decode_upgrades, 1, "first decode claims the bin");
        assert_eq!(stats.alias_collisions, 1, "second decode collides");
        assert_eq!(stats.collision_rate(), 1.0);
        // Both decoded identities are tracked in their own right.
        assert_eq!(store.distinct_tags(), 2);
    }

    #[test]
    fn cloned_tag_oscillating_between_distant_poles_pins_one_od() {
        // Two *cloned* transponders share one tag id and sit at poles 0 and
        // 3 (90 m apart) simultaneously. The interleaved sightings look like
        // a single tag teleporting back and forth; ping-pong suppression and
        // the plausibility cut must keep the derived analytics sane.
        let mut store = ShardedStore::new(line_directory(4, 30.0), StoreConfig::default());
        for &(pole, t_us) in &[
            (0u32, 0u64),
            (3, 500_000),
            (0, 1_000_000),
            (3, 1_500_000),
            (0, 2_000_000),
        ] {
            store.scatter(&report(pole, 0, t_us, vec![obs(13, pole, 0, t_us)]));
        }
        let agg = store.finalize(2);
        assert_eq!(agg.observations, 5);
        // Only the first 0 -> 3 transition counts: every bounce back to the
        // previous pole is ping-pong-suppressed, so the clone pair cannot
        // inflate OD matrices however long it oscillates.
        assert_eq!(agg.od.total(), 1, "clone oscillation must not multiply OD");
        // 90 m in 0.5 s is ~400 mph: the plausibility cut discards every
        // clone-induced teleport, so no speed sample survives.
        assert_eq!(agg.speeds.samples(), 0, "teleport speeds must be culled");
        assert_eq!(store.distinct_tags(), 1);
    }

    #[test]
    fn cloned_decodes_from_distinct_bins_merge_onto_one_identity() {
        use caraoke_phy::TransponderId;
        // Two clones of transponder 77 have *different* CFO signatures
        // (different hardware, different oscillator offsets). Each clone's
        // first decode upgrades its own bin onto the same decoded key, so
        // the pair collapses into one tracked identity — with the upgrade
        // and hit counters exposing exactly what happened.
        let dir = line_directory(4, 30.0);
        let config = StoreConfig::default();
        let mut tracker = TagTracker::new();
        let mut od = 0usize;
        let mut speeds = 0usize;
        let bin_a = TagKey::from_cfo_bin(10).0;
        let bin_b = TagKey::from_cfo_bin(20).0;
        let mut drive = |raw: u64, pole: u32, t_us: u64, decode: bool| {
            let mut o = obs(raw, pole, 0, t_us);
            if decode {
                o.decoded = Some(TransponderId(77));
            }
            tracker.apply(&o, &dir, &config, |event| match event {
                DerivedEvent::Od { .. } => od += 1,
                DerivedEvent::Speed { .. } => speeds += 1,
                DerivedEvent::Flow { .. } => {}
            });
        };
        drive(bin_a, 0, 0, false); // clone A tracked under its CFO bin
        drive(bin_a, 0, 100_000, true); // A decodes: bin A -> id 77
        drive(bin_b, 2, 200_000, true); // clone B decodes: bin B -> id 77
        drive(bin_b, 2, 300_000, false); // alias hit for B's bin
        drive(bin_a, 0, 400_000, false); // alias hit, ping-pong suppressed
        let stats = tracker.alias_stats();
        assert_eq!(stats.decode_upgrades, 2, "each clone's bin upgrades once");
        assert_eq!(stats.alias_collisions, 0, "same id: no collision recorded");
        assert_eq!(stats.alias_hits, 2);
        assert_eq!(tracker.distinct_tags(), 1, "clone pair merges into one");
        // The merged identity "moved" 0 -> 2 once (60 m in 0.2 s is far past
        // the plausibility cut, so no speed), then bounced straight back —
        // suppressed as ping-pong.
        assert_eq!(od, 1);
        assert_eq!(speeds, 0);
    }

    #[test]
    fn aggregates_are_identical_for_any_shard_count_and_delivery_order() {
        // Fixed synthetic observation set: 60 tags random-walking over 12
        // poles for 20 epochs.
        let mut reports = Vec::new();
        for epoch in 0..20u64 {
            for pole in 0..12u32 {
                let mut observations = Vec::new();
                for tag in 0..60u64 {
                    // Deterministic pseudo-walk without an RNG.
                    let here = ((tag * 7 + epoch * (1 + tag % 3)) % 12) as u32;
                    if here == pole {
                        observations.push(obs(tag, pole, (pole / 4) as u16, epoch * 1_000_000));
                    }
                }
                reports.push(report(
                    pole,
                    (pole / 4) as u16,
                    epoch * 1_000_000,
                    observations,
                ));
            }
        }
        let mut fingerprints = Vec::new();
        for &(shards, rotate) in &[(1usize, 0usize), (2, 17), (5, 3), (8, 101), (32, 59)] {
            let config = StoreConfig {
                shards,
                ..Default::default()
            };
            let mut store = ShardedStore::new(line_directory(12, 30.0), config);
            // Deliver in a different order each time.
            for i in 0..reports.len() {
                store.scatter(&reports[(i + rotate) % reports.len()]);
            }
            let agg = store.finalize(shards.min(4));
            fingerprints.push((agg.fingerprint(), agg.observations, agg.speeds.samples()));
        }
        for pair in fingerprints.windows(2) {
            assert_eq!(pair[0], pair[1], "aggregates must not depend on sharding");
        }
        assert!(fingerprints[0].2 > 0, "walk must produce speed samples");
    }

    /// Folds `observations` in order through one tracker, as the batch
    /// store does, and returns the pane aggregate and the tracker's state.
    fn fold_all(observations: &[TagObservation]) -> (CityAggregates, TrackerDelta) {
        let (dir, config) = (line_directory(4, 30.0), StoreConfig::default());
        let (mut builder, mut tracker) = (AggregateBuilder::default(), TagTracker::new());
        for o in observations {
            fold_observation(&mut builder, &mut tracker, o, &dir, &config);
        }
        (builder.finish(), tracker.export())
    }

    #[test]
    fn a_fold_row_keeps_only_what_the_fold_reads() {
        use crate::position::PositionEstimate;
        use caraoke_phy::TransponderId;
        let dir = line_directory(4, 30.0);
        // One tag's walk over four poles: fixes, a decode, a bare sighting.
        let walk: Vec<TagObservation> = (0..4u32)
            .map(|pole| {
                let mut o = obs(41, pole, (pole / 2) as u16, pole as u64 * 2_000_000);
                o.position = match pole {
                    0 => Some(PositionEstimate::two_reader(1.5, -2.0, 0.7)),
                    1 => Some(PositionEstimate::aoa_only(31.0, -1.0, 2.0, 6.0)),
                    _ => None,
                };
                o.decoded = (pole == 2).then_some(TransponderId(900));
                o
            })
            .collect();
        // The same walk, differing only in the fields a row drops.
        let noisy: Vec<TagObservation> = walk
            .iter()
            .map(|o| TagObservation {
                cfo_hz: -o.cfo_hz - 17.5,
                aoa_rad: 0.4,
                has_aoa: !o.has_aoa,
                rssi_db: 3.0,
                multi_occupied: !o.multi_occupied,
                ..*o
            })
            .collect();
        for (a, b) in walk.iter().zip(&noisy) {
            let site = dir.site(a.pole);
            assert_eq!(FoldRow::resolve(a, site), FoldRow::resolve(b, site));
        }
        let (agg, state) = fold_all(&walk);
        assert_eq!((agg.clone(), state.clone()), fold_all(&noisy));
        assert_eq!((agg.observations, agg.od.total()), (4, 3));
        assert_eq!(state.stats.decode_upgrades, 1);
        assert_eq!(state.upserts[0].track_len, 2, "two real fixes");
    }

    #[test]
    fn fold_row_edge_cases() {
        use crate::position::{PositionEstimate, POLE_FALLBACK_SIGMA_M};
        use caraoke_phy::TransponderId;
        let dir = line_directory(4, 30.0);
        // A non-finite estimate resolves to the pole fallback and adds no
        // track point.
        let mut nan = obs(5, 1, 0, 0);
        let mut bad = PositionEstimate::two_reader(3.0, 4.0, 1.0);
        bad.covariance[2] = f64::INFINITY;
        nan.position = Some(bad);
        let row = FoldRow::resolve(&nan, dir.site(PoleId(1)));
        assert_eq!(row.method, PositionMethod::PolePosition);
        assert_eq!(row.xy, (30.0, -5.0));
        assert_eq!(row.sigma_m.to_bits(), POLE_FALLBACK_SIGMA_M.to_bits());
        assert_eq!(fold_all(&[nan]).1.upserts[0].track_len, 0);
        // An attached pole-position estimate keeps its own σ, and adds no
        // track point either.
        let mut pole_est = obs(5, 1, 0, 0);
        pole_est.position = Some(PositionEstimate {
            xy: (29.0, -4.0),
            covariance: [9.0, 0.0, 9.0],
            method: PositionMethod::PolePosition,
        });
        let row = FoldRow::resolve(&pole_est, dir.site(PoleId(1)));
        assert_eq!(
            (row.method, row.xy, row.sigma_m),
            (PositionMethod::PolePosition, (29.0, -4.0), 3.0)
        );
        let (agg, state) = fold_all(&[pole_est]);
        assert_eq!(state.upserts[0].track_len, 0);
        assert_eq!(agg.positions.pole_fallbacks, 1);
        // A decoded id whose key is the raw key registers no alias.
        let id = TransponderId(77);
        let mut self_keyed = obs(TagKey::from_decoded(id).0, 0, 0, 0);
        self_keyed.decoded = Some(id);
        let row = FoldRow::resolve(&self_keyed, dir.site(PoleId(0)));
        assert!(row.has_decoded && row.decoded == row.tag);
        let (_, state) = fold_all(&[self_keyed]);
        assert!(state.aliases.is_empty());
        assert_eq!(state.stats, AliasStats::default());
        assert_eq!(state.upserts[0].key, TagKey::from_decoded(id).0);
    }

    #[test]
    fn a_fold_row_stays_56_bytes() {
        // Every buffered observation of the live engine is one of these.
        assert!(std::mem::size_of::<FoldRow>() <= 56);
    }
}
