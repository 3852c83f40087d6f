//! # caraoke-live
//!
//! The **online** city layer: where `caraoke-city` batches a whole run and
//! sorts at finalize, this crate applies [`PoleReport`]s *as they arrive*
//! and keeps the analytics continuously queryable — the event-time /
//! watermark discipline of streaming analytics systems, applied to the
//! paper's smart-city workloads (§7, §9, §11–12).
//!
//! ```text
//!               caraoke-sim
//!                    |
//!              caraoke-city                  batch: sharded store, sort-at-
//!                    |                       finalize, whole-run snapshot
//!              caraoke-log                   durable sealed-pane log:
//!                    |                       verified replay, recovery
//!              caraoke-live  ← this crate    online: watermarked ingest,
//!                                            windowed aggregates, query API
//! ```
//!
//! The moving parts:
//!
//! * [`watermark`] — per-pole frontiers and the monotone event-time low
//!   watermark, the minimum over live poles kept as sixteen locked stripes
//!   and one combine: O(1) amortized per report, one uncontended lock.
//! * [`window`] — window-keyed aggregate state: the batch tier's
//!   [`CityAggregates`] generalized into panes, tumbling/sliding
//!   [`WindowSpec`]s resolved to pane runs, and [`CityWindows`]: the ring
//!   of retained sealed panes plus the running OD windows queries keep
//!   over it and the whole-run flow and horizon — the one state every
//!   answer is read from ([`CityWindows::answer`]).
//! * [`engine`] — [`LiveCity`]: per-pole-stripe out-of-order buffering, a
//!   dedicated sealer thread doing deterministic pane sealing behind the
//!   watermark, shed counting for late arrivals, and a fingerprint chain
//!   over the sealed window sequence. With [`LiveCity::with_log`] every
//!   sealed pane is appended to a durable `caraoke-log` segment log
//!   *before* the sealer publishes it to the ring readers lock, and
//!   [`LiveCity::recover`] rebuilds a crashed engine at its first unsealed
//!   pane;
//!   [`LiveCity::declare_pole_dead`] removes a stalled pole from the
//!   watermark quorum so event-time sealing resumes.
//! * [`query`] — [`LiveCity::query`] point-in-time answers (windowed
//!   occupancy, flow over the last K cycles, speed percentiles, top-N OD
//!   pairs, and the §6 position-accuracy product: per-method fix counts,
//!   localized fraction, mean position σ), plus [`LiveCity::snapshot`] and
//!   the [`LiveSubscription`] hook dashboards drive — pollable, or
//!   blocking on pane seals via [`LiveSubscription::wait_next`].
//! * [`driver`] — [`LiveDriver`]: streams any batch [`FrameSource`]
//!   (synthetic or full-PHY) online, under pole-striped multi-threaded or
//!   seeded shuffled-FIFO delivery.
//! * [`dashboard`] — text rendering of the rolling state.
//! * [`clock`] — [`Clock`]: every `now` and timed wait of live and serve.
//!
//! Determinism is the headline contract, extended from the batch tier: for
//! a fixed seed, any shard count, any worker count and **any arrival
//! interleaving consistent with the watermarks** (FIFO per pole) yield a
//! byte-identical sealed-window sequence — pinned by comparing fingerprint
//! chains — and whole-run totals byte-identical to the batch pipeline's.
//!
//! # The live ingest hot path
//!
//! The first engine generation serialized every ingest thread on a global
//! watermark mutex, ran pane sealing inline on whichever ingest thread
//! advanced the watermark (re-locking every shard and stripe while holding
//! the sealed-state lock), and heap-allocated and sorted a scratch vector
//! per report. That capped online ingest at roughly a third of the batch
//! tier's rate. The current design keeps the data plane lock-light and
//! pushes all reconciliation to a dedicated control thread:
//!
//! 1. **Ingest** (any thread, per report): one atomic load of the seal
//!    floor, a lock of the reporting pole's ingest stripe — one of 16,
//!    `pole % 16`, uncontended when threads partition work by pole —
//!    (observations appended to their pane's bucket as a sort key with
//!    their precomputed shard and within-report index beside a fold row
//!    with their resolved position; report-level segment counters folded
//!    into the same bucket), then the pole's clock stripe, as uncontended
//!    as the first. No global lock, no allocation, no sort. If — and only
//!    if — this report completed a pane boundary, the thread raises the
//!    sealer's target and signals a condvar.
//! 2. **Seal** (a [`LiveCity::seal_step`], on the sealer thread): drain every stripe once
//!    per released target, establish the canonical
//!    `(pane, shard, timestamp, pole, tag, seq)` order with one bucket
//!    pass, walk it through the per-shard [`TagTracker`] state machines
//!    (now plain owned state — sealing was always serialized, so the old
//!    per-shard mutexes bought nothing), fingerprint and log each pane,
//!    commit the pass, then publish its panes to the ring readers lock
//!    (see [`engine`] for the pipeline) and notify blocked subscribers
//!    ([`LiveSubscription::wait_next`], [`LiveCity::finish`],
//!    [`LiveCity::wait_idle`]).
//!
//! Measured on the same container before/after the rework (1 000 poles,
//! ≥1 M observations, 8 ingest workers, on a bench since retired): online
//! ingest went from **≈0.36 M obs/s (vs ≈1.0 M batch)** to **≈1.7 M obs/s
//! (vs ≈1.7 M batch)** — the online path now runs at (and often above) the
//! batch pipeline's rate, with the determinism contract unchanged. Current
//! numbers are the `ingest_hot` workload of `benchmark/`.
//!
//! [`PoleReport`]: caraoke_city::PoleReport
//! [`CityAggregates`]: caraoke_city::CityAggregates
//! [`FrameSource`]: caraoke_city::FrameSource
//! [`TagTracker`]: caraoke_city::store::TagTracker

// Deny (not forbid): the seal walk's prefetch hint in `engine` needs one
// `#[allow(unsafe_code)]` function for the `_mm_prefetch` intrinsic — a
// pure cache hint with no memory-safety surface. Everything else stays
// unsafe-free, and new unsafe blocks still fail the build.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dashboard;
pub mod driver;
pub mod engine;
pub mod query;
pub mod watermark;
pub mod window;

pub use clock::{Clock, ManualClock};
pub use driver::{Interleaving, LiveDriver, LiveRun};
pub use engine::SealStep;
pub use engine::{IngestOutcome, LiveCity, LiveConfig, LiveStats, SealStageNs, LOG_WRITE_ATTEMPTS};
pub use query::{LiveAnswer, LiveQuery, LiveSnapshot, LiveSubscription, PaneSummary};
pub use watermark::WatermarkClock;
pub use window::{CityWindows, WindowSpec};
