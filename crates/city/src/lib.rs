//! # caraoke-city
//!
//! The smart-city layer of the Caraoke reproduction: ingestion and analytics
//! over the per-pole reader outputs, at the scale the paper's vision sketches
//! (hundreds to thousands of poles, §7, §9, §11–12).
//!
//! The workspace layers stack as:
//!
//! ```text
//!   caraoke-dsp  caraoke-geom  caraoke-phy      signal/geometry/PHY kernels
//!          \          |          /
//!            caraoke (core reader)              one pole's algorithms (§4–§8)
//!                     |
//!               caraoke-sim                     streets, vehicles, poles (§11)
//!                     |
//!               caraoke-city  ← this crate      fleet-scale batch ingest + analytics
//!                     |
//!               caraoke-live                    online: watermarked ingest, windowed
//!                                               aggregates, point-in-time queries
//! ```
//!
//! Pipeline, left to right:
//!
//! * [`event`] — the wire model: [`TagObservation`]s (tag key, AoA fix, CFO
//!   bin, RSSI, timestamp, optional [`PositionEstimate`]) grouped into
//!   [`PoleReport`]s.
//! * [`position`] — the §6 position ladder: method-tagged car-position
//!   estimates (two-reader conic fix → AoA-only → pole fallback) and the
//!   track regression the §7 speed estimator prefers.
//! * [`store`] — the sharded in-memory store, keyed by tag and by street
//!   segment and owned by one thread. Its [`TagTracker`] state machine
//!   (re-sighting detection, ping-pong suppression, and the §8 decode-alias
//!   upgrade of CFO-signature keys) is shared with the online engine in
//!   `caraoke-live`.
//! * [`aggregate`] — streaming aggregators computed incrementally on ingest:
//!   per-street occupancy (Fig. 13), flow per traffic-light cycle (Fig. 12),
//!   speed percentiles from position tracks (§7), the origin–destination
//!   matrix from tag re-sightings, and per-method localization counters
//!   ([`PositionCounters`]).
//! * [`driver`] — the batch driver, the reference fold the live tier is
//!   checked against: `workers` producer threads send per-pole reports
//!   through a channel of `queue_capacity` to one thread that owns the
//!   store, and `consumers` threads fold its shards, deterministically under
//!   a fixed seed.
//! * [`synth`] / [`phy`] — frame sources: a fast synthetic city for
//!   1k–10k-pole ingestion benchmarks, and the full sim → PHY →
//!   [`caraoke::CaraokeReader`] path for evaluation runs.
//! * [`dashboard`] — text rendering of a run.
//!
//! Determinism is a first-class property: aggregates are integer-counter
//! CRDTs and per-tag histories are totally ordered per shard (observations
//! route by CFO bin, so a tag's CFO-signature key and the decoded key that
//! aliases it share a shard), so a fixed seed yields **byte-identical**
//! aggregates for any shard count, worker count, or delivery order.
//! `CityAggregates::fingerprint` pins this in the test suite, and
//! `caraoke-live` extends the same contract to watermark-sealed windows.

// `deny`, not `forbid`: the tracker's state table carries one documented
// `#[allow(unsafe_code)]` for the `_mm_prefetch` cache hint on its lookup
// path (see `store::TagStateMap::prefetch`) — a hint with no memory-safety
// surface. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod dashboard;
pub mod driver;
pub mod event;
pub mod phy;
pub mod position;
pub mod store;
pub mod synth;

pub use aggregate::{
    CityAggregates, FlowCounter, OdMatrix, OdPair, OdUnion, PositionCounters, SegmentStats,
    SpeedHistogram,
};
pub use driver::{BatchDriver, CityRun, FrameSource};
pub use event::{PoleId, PoleReport, SegmentId, TagKey, TagObservation};
pub use phy::PhyCity;
pub use position::{PositionEstimate, PositionMethod};
pub use store::{
    AliasStats, DerivedEvent, PoleDirectory, PoleSite, ShardedStore, SpeedSource, StoreConfig,
    TagRecord, TagTracker, TrackerDelta,
};
pub use synth::SyntheticCity;
