//! The online ingest engine.
//!
//! [`LiveCity`] applies [`PoleReport`]s **as they arrive** — no
//! sort-at-finalize. The hot path is built so that ingest threads which
//! split their work by pole never wait on each other and never allocate per
//! report:
//!
//! * a [`WatermarkClock`] derives the event-time low watermark from pole
//!   report timestamps: plain per-pole frontiers (every pole's stream is
//!   monotone) behind `POLE_STRIPES` mutexes chosen by `pole % POLE_STRIPES`,
//!   combined under one more when a stripe's slowest pole changes pane;
//! * ingest buffers belong to **poles**, not threads: a fixed array of
//!   `POLE_STRIPES` out-of-order buffers, bucketed by pane (observations
//!   above the watermark plus the report-level segment counters), chosen
//!   the same way. Ingest threads that partition their work by pole never
//!   meet on a stripe, so pushing a report is one lock only the sealer
//!   contends plus a few appends, then the clock's stripe lock: no global
//!   locks, no per-report allocation, no sorting;
//! * ingest threads only buffer and signal; they never seal. One
//!   [`LiveCity::seal_step`] seals the released panes: a dedicated sealer
//!   thread runs it, woken by a condvar whenever the watermark advances, or
//!   on a stepped engine ([`LiveCity::with_clock`]) the caller does.
//!
//! # The seal pipeline
//!
//! Every seal — watermark-released, forced by the staleness timer, or the
//! final flush — is the same three steps under the sealer's own state lock,
//! one pass per at most `MAX_SEAL_BUCKETS / shards` panes (a request
//! spanning more, e.g. a laggard pole catching up 100k panes, is sealed as
//! consecutive passes, each published and notifying waiters as it lands):
//!
//! 1. **Drain.** Stripe buffers are pane-bucketed and struct-of-arrays: a
//!    32-byte `SealKey` column (every field the canonical order needs)
//!    parallel to a 56-byte [`FoldRow`] column (every field the fold
//!    reads: ingest resolves each observation's position once, on its own
//!    thread), the count of rows per shard, and the pane's report-level
//!    segment rows. Every bucket below the pass frontier is
//!    moved out of its stripe whole — a `Vec` move, no row copy — and goes
//!    back, emptied, to the stripe's spare list when the pass ends; the
//!    fold reads each row where ingest wrote it.
//! 2. **Bucket pass.** Ordering touches only the dense key column: a
//!    counting sort over `(pane - first_pane) * shards + shard`, sized
//!    from the per-shard counts so the keys are read once, into
//!    16-byte slots (a packed prefix and the row's place in the drained
//!    buckets), then, per bucket, a stable LSD radix sort on the prefix
//!    `(timestamp − pane start) << 32 | pole` — one pass per byte that
//!    varies, so a pane whose reports share a stamp costs the pole bytes
//!    only — with each run of equal prefixes (one report's rows in one
//!    shard) finished on the full `(timestamp, pole, tag, cfo_bin, seq)`.
//!    Prefix order implies that order, and ties go to the full key, so the
//!    fold order is exactly the canonical sort's.
//! 3. **Fold pane by pane, then commit and publish.** The pane's buckets
//!    go, in shard order (observations route to trackers by CFO bin, so tag
//!    shards are independent), through the shared [`TagTracker`] state
//!    machines and [`fold_row`] — the batch store's, §8 alias
//!    upgrades included — into one reused [`AggregateBuilder`]: O(1)
//!    counters in place, OD and flow events as packed `u64` columns,
//!    canonicalised once per pane (sort, count runs) instead of one
//!    insert per event. Then the idle-tag compaction sweep when one is
//!    due; then the pane is fingerprinted into the engine's **fingerprint
//!    chain**, added to the whole-run [`RunTotals`] (whose OD run takes
//!    the pending panes' pairs a quarter-run at a time, so a pane costs no
//!    O(run) merge) and appended to the pane log with its tracker deltas
//!    and any snapshot due after it; the seal floor — the ingest admission
//!    floor — moves past it. After the pass's last pane comes one log
//!    commit (the fsync policy's), and only once it has returned (or
//!    latched the sink failed) do the pass's finished panes enter the
//!    published ring ([`CityWindows`]), in one hold of its lock —
//!    durability before visibility — and waiters wake.
//!
//! Only then does the next pane touch a tracker, because trackers are
//! cumulative: they describe "the run up to pane `p`" only between pane
//! `p`'s fold and pane `p + 1`'s, which is what a snapshot claims
//! (`next_pane = p + 1`; recovery re-feeds everything from there). Taken
//! any later it would carry state from panes the recovered engine folds
//! again — so whatever prefix of a pass's records a crash leaves on disk
//! recovers byte-identical.
//!
//! Each pass charges its time, stage by stage, to [`LiveStats::seal_ns`]
//! ([`SealStageNs`]), read on the engine's clock once per stage and pane.
//!
//! Lock order: the sealer state first; under it, an ingest stripe, the log
//! sink or the published ring, one at a time. The clock's two locks (clock
//! stripe → clock floors) stay leaves: nothing is acquired under either,
//! `ingest` feeds the clock only after releasing its ingest stripe, and
//! the sealer reads it holding any of the others. Readers — queries,
//! snapshots, subscriptions, [`LiveCity::stats`] — never lock the sealer
//! state: they read the ring, which the sealer holds for one push per
//! pass, so no read waits out a fold, a log retry or an fsync. Every wait for a seal — ingest pacing
//! ([`LiveCity::wait_seal_floor`]), [`LiveCity::finish`],
//! [`LiveCity::wait_idle`], [`LiveCity::wait_sealed`] — tests the ring's
//! horizon under that same lock and sleeps on the condvar the sealer
//! notifies after each publish, so it returns only once the panes it waited
//! for can be queried. [`LiveCity::wait_sealed`] also returns once its
//! caller's stop flag is set: [`LiveCity::wake_sealed_waiters`] notifies
//! the same condvar, and every other wait sleeps on through it. Each wait's
//! timeout is its caller's budget, in real time; only the staleness
//! force-seal, decided in the seal step, reads the engine's clock.
//!
//! Reports and observations *below* the sealed frontier — late beyond the
//! lateness allowance — are **counted and shed**, never silently merged
//! into already-sealed windows.
//!
//! # Determinism contract
//!
//! For a fixed seed, any shard count, any number of concurrent ingest
//! threads, and **any arrival interleaving consistent with the watermarks**
//! (FIFO per pole; cross-pole order free) produce byte-identical sealed
//! panes, hence an identical fingerprint chain and totals. Why: a pane is
//! sealed only once every pole's frontier has passed it (plus the lateness
//! allowance), and per-pole FIFO delivery means every observation of the
//! pane is buffered in some stripe by then; the canonical sort —
//! `(pane, shard, timestamp, pole, tag, cfo_bin, seq)`, where `seq` is the
//! observation's index within its report — erases the remaining cross-pole
//! and cross-stripe arrival freedom, exactly like the batch store's
//! sort-at-finalize — but windows seal *online*, with bounded memory.
//! The live totals are moreover byte-identical to a [`BatchDriver`] run of
//! the same source (the end-to-end tests pin both properties).
//!
//! On a threaded engine sealing is asynchronous: *when* a pane appears in
//! the ring is timing-dependent even though *what* it contains is not.
//! Callers that assert on sealed state mid-stream call [`LiveCity::wait_idle`]
//! first; [`LiveCity::finish`] always waits for the final flush.
//!
//! [`BatchDriver`]: caraoke_city::BatchDriver

use crate::clock::Clock;
use crate::watermark::{WatermarkClock, POLE_STRIPES};
use crate::window::CityWindows;
use caraoke_city::aggregate::{AggregateBuilder, Fingerprint, RunTotals};
use caraoke_city::store::{fold_row, AliasStats, FoldRow, TagTracker};
use caraoke_city::{CityAggregates, PoleDirectory, PoleId, PoleReport, SegmentStats, StoreConfig};
use caraoke_log::{recover_state, LogError, LogOptions, SegmentWriter, SnapshotRecord};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs of the online engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Batch-tier knobs reused online: shard/stripe counts, light-cycle
    /// length, speed-gap plausibility bounds.
    pub store: StoreConfig,
    /// Pane width, µs: the granularity of watermark advance and window
    /// sealing. Default 1.5 s (one §9 query epoch).
    pub pane_us: u64,
    /// Extra panes the engine waits below the watermark before sealing, to
    /// absorb delivery that is not perfectly FIFO per pole.
    pub lateness_panes: u64,
    /// Sealed panes retained for window queries; older panes are evicted
    /// (their counts stay in the running totals and fingerprint chain).
    pub retain_panes: usize,
    /// Bound on each ingest stripe's out-of-order buffer (a stripe holds
    /// the poles congruent mod 16, so the engine buffers at most 16 × this);
    /// observations beyond it are shed and counted (`overflow_shed`), never
    /// dropped silently.
    pub max_pending_per_stripe: usize,
    /// Bound on pane staleness, in policy time: the engine's
    /// [`clock`](LiveCity::clock), real unless a test built the engine
    /// [`with_clock`](LiveCity::with_clock). Panes normally seal on
    /// *event-time* watermark advance only, so a pole dying mid-run stalls
    /// the watermark and every pane behind it forever. With a staleness
    /// bound, a seal step force-seals every pane the *fastest* pole
    /// has fully elapsed once no seal progress has happened for this long,
    /// counting the poles that missed each forced pane
    /// ([`LiveStats::forced_pole_misses`]); their late data is then shed
    /// with the usual counters, never merged. `None` (the default) keeps
    /// sealing purely event-time — and purely deterministic; forced seals
    /// depend on when the clock passes the bound, so runs that need
    /// byte-reproducible window chains should leave this off.
    pub max_pane_staleness: Option<Duration>,
    /// Tracker compaction: evict tags idle for at least this long (event
    /// time, µs) at the end of every 64th pane (sweeping every pane would
    /// be O(tags) per pane). Bounds tracker (and therefore
    /// snapshot/replay/catch-up) state by the *active* tag population
    /// instead of every tag ever seen. Evictions run before the pane's
    /// delta is taken, so a delta-by-delta replay carries the removals and
    /// converges to the same compacted state. Cutoffs derive from pane
    /// boundaries, never wall clock, so compaction preserves determinism.
    /// `None` (the default) never evicts.
    pub compact_idle_us: Option<u64>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            store: StoreConfig::default(),
            pane_us: 1_500_000,
            lateness_panes: 1,
            retain_panes: 64,
            max_pending_per_stripe: 1 << 20,
            max_pane_staleness: None,
            compact_idle_us: None,
        }
    }
}

/// Total tries per logical pane-log write (first attempt + retries).
///
/// The sealer classifies write errors by [`io::ErrorKind`]:
/// `Interrupted`, `WouldBlock` and `TimedOut` are **transient** — the kind
/// of hiccup a loaded disk or interrupted syscall produces — and are
/// retried up to this many total tries with exponentially growing sleeps
/// (1 ms doubling, capped at 50 ms) before the pass publishes, so
/// durability-before-visibility holds across retries; readers, who lock
/// only the published ring, never wait them out. Everything else
/// (permissions, disk full, closed descriptors) is **fatal**: the sink
/// latches failed immediately, sealing continues without durability, and
/// [`LiveCity::reattach_log`] can restore it to a fresh directory.
///
/// Retried appends assume the failed attempt wrote nothing — true for
/// injected faults (checked before any I/O) and for buffered writes that
/// fail at flush; a torn tail from a genuine partial write is repaired by
/// recovery's truncation, never by in-process retry.
pub const LOG_WRITE_ATTEMPTS: u32 = 4;

/// Sleep before the first pane-log retry; doubles per subsequent retry.
const LOG_RETRY_BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Upper bound on any single pane-log backoff sleep.
const LOG_RETRY_MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Is this I/O error worth retrying?
fn transient_io_error(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What happened to one ingested report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The report was applied (buffered toward its panes).
    Applied,
    /// The report arrived beyond the lateness allowance — it was counted
    /// and shed whole.
    ShedLate,
    /// The report, or an observation inside it, names a pole the directory
    /// does not hold — it was counted and refused whole.
    UnknownPole,
}

/// What one [`LiveCity::seal_step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStep {
    /// Panes the step sealed and published.
    pub panes: u64,
    /// Whether it force-sealed ([`LiveConfig::max_pane_staleness`]).
    pub forced: bool,
}

/// Snapshot of the engine's telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveStats {
    /// Reports accepted.
    pub reports: u64,
    /// Observations sealed into panes so far.
    pub observations: u64,
    /// Whole reports shed for arriving beyond the lateness allowance.
    pub shed_reports: u64,
    /// Individual observations shed as late.
    pub shed_observations: u64,
    /// Observations shed because a stripe's out-of-order buffer was full.
    pub overflow_shed: u64,
    /// Whole reports refused because they (or an observation they carry)
    /// name a pole id past the directory.
    pub unknown_pole_reports: u64,
    /// Observations currently buffered above the watermark.
    pub buffered_observations: u64,
    /// Panes sealed so far.
    pub sealed_panes: u64,
    /// Current event-time low watermark, µs.
    pub watermark_us: u64,
    /// Timestamps below this have been sealed; arrivals below it shed.
    pub seal_floor_us: u64,
    /// Panes sealed by the staleness timeout rather than the
    /// watermark (only nonzero with [`LiveConfig::max_pane_staleness`]).
    pub forced_panes: u64,
    /// Sum over forced panes of the poles whose frontier had not passed the
    /// pane when it was force-sealed.
    pub forced_pole_misses: u64,
    /// Poles removed from the watermark quorum via
    /// [`LiveCity::declare_pole_dead`] (survives recovery: the log
    /// records each declaration).
    pub dead_poles: u64,
    /// Pane-log writes retried after a transient error (each re-attempt
    /// counts once). Nonzero with `log_errors_fatal == 0` means the disk
    /// hiccupped but durability held.
    pub log_retries: u64,
    /// Transient pane-log write errors observed (`Interrupted`,
    /// `WouldBlock`, `TimedOut`) — retried up to
    /// [`LOG_WRITE_ATTEMPTS`] tries, so each may or may not have cost
    /// durability.
    pub log_errors_transient: u64,
    /// Fatal pane-log failures: a non-transient error, or transient retries
    /// exhausted. Each latches the sink — the engine keeps sealing but
    /// stops appending (liveness over durability; the log on disk stays a
    /// valid prefix) until [`LiveCity::reattach_log`] installs a fresh log.
    pub log_errors_fatal: u64,
    /// Tags evicted by idle-tag compaction
    /// ([`LiveConfig::compact_idle_us`]), summed over shards.
    pub compacted_tags: u64,
    /// Mid-stream decode alias counters, summed over shards (§8).
    pub alias: AliasStats,
    /// Where the sealer's time went, per seal-pass stage, as of the newest
    /// published pass.
    pub seal_ns: SealStageNs,
}

/// Nanoseconds the sealer spent in each stage of its seal passes, summed
/// over every published pass, on the engine's [`clock`](LiveCity::clock).
/// The clock is read once per stage per pass (drain, bucket pass, commit,
/// publish) or per pane (the rest), never per observation, and the stages
/// split a pass without gaps, in this order — but for the drain's second
/// read, after the last pane, when the buckets go back. On a [`Clock::Manual`] engine
/// every stage reads 0; without a pane log, `delta`, `log_append` and
/// `commit` read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStageNs {
    /// Moving the released pane buckets out of the ingest stripes (whole
    /// buckets, no row copy), and back to their spare lists once folded.
    pub drain: u64,
    /// Ordering the drained rows canonically — the `(pane, shard)`
    /// counting sort, then each bucket's radix sort on the packed
    /// `(time offset, pole)` prefix with ties on the full key — and taking
    /// the log sink's lock.
    pub bucket: u64,
    /// Every observation through its tracker and the pane's builder.
    pub fold: u64,
    /// Finishing the pane's aggregate: the builder's canonicalisation, any
    /// idle-tag compaction, the report-level segment rows and forced-seal
    /// counts.
    pub pane_finish: u64,
    /// The pane's fingerprint and the chain step.
    pub fingerprint: u64,
    /// Adding the pane to the whole-run totals.
    pub totals: u64,
    /// Taking every tracker's delta for the pane record.
    pub delta: u64,
    /// Encoding and appending the pane record, and any snapshot due.
    pub log_append: u64,
    /// The pass's log commit: flush and the fsync policy.
    pub commit: u64,
    /// Pushing the pass's panes into the published ring.
    pub publish: u64,
}

impl SealStageNs {
    fn add(&mut self, pass: &SealStageNs) {
        self.drain += pass.drain;
        self.bucket += pass.bucket;
        self.fold += pass.fold;
        self.pane_finish += pass.pane_finish;
        self.fingerprint += pass.fingerprint;
        self.totals += pass.totals;
        self.delta += pass.delta;
        self.log_append += pass.log_append;
        self.commit += pass.commit;
        self.publish += pass.publish;
    }
}

/// Splits a seal pass into its [`SealStageNs`] stages: each
/// [`split`](Self::split) reads the clock once and returns the
/// nanoseconds since the previous read.
struct Lap<'a> {
    clock: &'a Clock,
    last: Instant,
}

impl<'a> Lap<'a> {
    fn start(clock: &'a Clock) -> Self {
        Self {
            clock,
            last: clock.now(),
        }
    }

    fn split(&mut self) -> u64 {
        let now = self.clock.now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }
}

/// The dense sort column of the seal path: every field the canonical order
/// `(pane, shard, timestamp, pole, tag, cfo_bin, seq)` needs, in 32 bytes,
/// kept parallel to the [`FoldRow`] column the fold reads. The shard is
/// computed once, at ingest; `seq` is the observation's index within its
/// report, which breaks canonical-sort ties between observations sharing
/// `(timestamp, pole, tag)` — such ties can only come from one report, so
/// `seq` restores a deterministic total order no matter which stripes
/// were drained first. The pane is *not* stored: it is `timestamp_us / pane_us`,
/// recomputed where needed.
#[derive(Debug, Clone, Copy)]
struct SealKey {
    timestamp_us: u64,
    tag: u64,
    pole: u32,
    cfo_bin: u32,
    shard: u32,
    seq: u32,
}

impl SealKey {
    /// The canonical within-bucket order: the batch tier's
    /// `canonical_obs_key` (timestamp, pole, tag, cfo_bin) plus the
    /// within-report tie-breaker.
    fn bucket_key(&self) -> (u64, u32, u64, u32, u32) {
        (
            self.timestamp_us,
            self.pole,
            self.tag,
            self.cfo_bin,
            self.seq,
        )
    }

    /// The radix sort's packed key within the pane starting at
    /// `pane_start`: `offset << 32 | pole` while the time offset fits 32
    /// bits, which orders exactly like `(timestamp, pole)`, else
    /// `u64::MAX`. Prefix order never contradicts [`bucket_key`](Self::bucket_key)
    /// order; equal prefixes (one report's rows, or any offset past 2^32)
    /// are left to the full key.
    fn sort_prefix(&self, pane_start: u64) -> u64 {
        let offset = self.timestamp_us - pane_start;
        if offset >> 32 == 0 {
            offset << 32 | self.pole as u64
        } else {
            u64::MAX
        }
    }
}

/// One pane's worth of one stripe's buffered input: the observations,
/// columnar (the [`SealKey`] column and the [`FoldRow`] column grow in
/// lockstep, through [`push`](Self::push)), how many of them route to each
/// shard, and the report-level segment counters of the reports stamped in
/// this pane — one `(segment, stats)` row per segment the stripe's poles
/// sit on, sorted by segment.
#[derive(Debug, Default)]
struct PaneBucket {
    pane: u64,
    keys: Vec<SealKey>,
    rows: Vec<FoldRow>,
    /// `shard_rows[s]`: rows whose key routes to shard `s` (shorter than
    /// the shard count when the top shards have none), so the bucket pass
    /// sizes its `(pane, shard)` buckets without reading the keys.
    shard_rows: Vec<u32>,
    segs: Vec<(u16, SegmentStats)>,
}

impl PaneBucket {
    /// Buffers one observation: its sort key and its resolved row.
    fn push(&mut self, key: SealKey, row: FoldRow) {
        let shard = key.shard as usize;
        if shard >= self.shard_rows.len() {
            self.shard_rows.resize(shard + 1, 0);
        }
        self.shard_rows[shard] += 1;
        self.keys.push(key);
        self.rows.push(row);
    }

    /// Empties the columns, keeping their capacity for the spare list.
    fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
        self.shard_rows.clear();
        self.segs.clear();
    }

    fn record_report(&mut self, segment: u16, count: u32, observations: u32, multi: u32) {
        // Delivery in pole order wants the newest row, so a miss is an
        // append, not a shift.
        let at = match self.segs.binary_search_by_key(&segment, |(seg, _)| *seg) {
            Ok(at) => at,
            Err(at) => {
                self.segs.insert(at, (segment, SegmentStats::default()));
                at
            }
        };
        self.segs[at].1.record_report(count, observations, multi);
    }
}

/// One ingest stripe's buffers, *pane-bucketed*: each occupied
/// pane owns its own columns, so a seal moves the sealed panes' buckets
/// out whole and never rescans the buffered tail ahead of the
/// frontier (a flat buffer pays one filter pass over `lateness_panes` worth
/// of retained observations at every seal). Memory is O(occupied panes) no
/// matter how far a fast pole runs ahead of a laggard — a dense
/// `pane - base` table would grow with the pane *span*.
#[derive(Debug, Default)]
struct WorkerBuf {
    /// Occupied panes (a report or an observation landed there), sorted by
    /// pane index. The hot push is the last bucket (reports arrive in
    /// near-pane-order); out-of-order panes within the lateness allowance
    /// binary-search.
    panes: Vec<PaneBucket>,
    /// Drained buckets' emptied columns, recycled so steady state stops
    /// allocating.
    spare: Vec<PaneBucket>,
    /// Total buffered observations across `panes` (the overflow bound).
    len: usize,
}

impl WorkerBuf {
    /// The bucket for `pane`, created (from the spare list when possible)
    /// if the pane is not yet occupied.
    fn bucket(&mut self, pane: u64) -> &mut PaneBucket {
        let idx = match self.panes.last() {
            Some(last) if last.pane == pane => return self.panes.last_mut().expect("non-empty"),
            Some(last) if last.pane > pane => {
                match self.panes.binary_search_by_key(&pane, |b| b.pane) {
                    Ok(idx) => return &mut self.panes[idx],
                    Err(idx) => idx,
                }
            }
            _ => self.panes.len(),
        };
        let mut bucket = self.spare.pop().unwrap_or_default();
        bucket.pane = pane;
        self.panes.insert(idx, bucket);
        &mut self.panes[idx]
    }
}

/// One ingest buffer on its own cache line, so threads pushing to
/// neighbouring stripes never false-share the lock words. A report lands,
/// whole, in stripe `pole % POLE_STRIPES`.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(Mutex<WorkerBuf>);

/// Upper bound on the pane × shard bucket table of one seal pass. A seal
/// request spanning more panes than fit (one laggard pole 100k panes behind
/// the frontier) is sealed as consecutive chunks of at most
/// `MAX_SEAL_BUCKETS / shards` panes, so the table never grows with the
/// pane span.
const MAX_SEAL_BUCKETS: usize = 1 << 16;

/// An idle-tag compaction sweep ([`LiveConfig::compact_idle_us`]) runs at
/// the end of every this-many-th pane.
const COMPACT_EVERY_PANES: u64 = 64;

/// Buckets up to this many rows skip the radix sort: on a handful of rows
/// (a PHY city's pane holds a few per shard) a comparison sort on
/// `(prefix, full key)` beats clearing and summing a 256-entry table per
/// digit. Timed on synthetic-city rows with two varying prefix bytes, the
/// radix sort costs ≈ 20× the comparison sort per row at 4 rows and
/// breaks even between 32 and 48.
const SMALL_BUCKET: usize = 32;

/// One row's place in a seal pass's canonical order: its
/// [`SealKey::sort_prefix`] and where it lies, `drained << 32 | row` —
/// the index of its [`PaneBucket`] in [`SealScratch::drained`], and its
/// index in that bucket's columns.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    prefix: u64,
    at: u64,
}

impl Slot {
    fn key(self, drained: &[PaneBucket]) -> &SealKey {
        &drained[(self.at >> 32) as usize].keys[self.at as u32 as usize]
    }

    fn row(self, drained: &[PaneBucket]) -> &FoldRow {
        &drained[(self.at >> 32) as usize].rows[self.at as u32 as usize]
    }
}

/// The sealer's reusable staging buffers: the pass's pane buckets, moved
/// out of the stripes with their rows where ingest wrote them, the
/// canonical order over them, the counting-sort bucket table the seal walk
/// dispatches off, the drained report-level segment rows, the builder each
/// pane folds into, and the pass's finished panes awaiting publication.
#[derive(Debug, Default)]
struct SealScratch {
    /// The pass's pane buckets, stripe by stripe; handed back to their
    /// stripes' spare lists, emptied, at the end of the pass.
    drained: Vec<PaneBucket>,
    /// How many of `drained` each stripe gave, in stripe order.
    per_stripe: [usize; POLE_STRIPES],
    builder: AggregateBuilder,
    /// Every drained row, in canonical order.
    order: Vec<Slot>,
    /// The radix sort's second buffer, as long as the largest bucket yet.
    radix: Vec<Slot>,
    /// `offsets[b]..offsets[b + 1]` is bucket `b`'s range in `order`
    /// (bucket = `(pane - first_pane) * n_shards + shard`).
    offsets: Vec<u32>,
    /// Scatter cursors for the counting pass.
    cursors: Vec<u32>,
    /// `segs[pane - first_pane]`: the `(segment, stats)` rows every stripe
    /// recorded for that pane. Emptied pane by pane as the seal folds.
    segs: Vec<Vec<(u16, SegmentStats)>>,
    /// The pass's finished `(pane, fingerprint, aggregate)`s, held until
    /// its log commit, then moved into the published ring.
    sealed: Vec<(u64, u64, CityAggregates)>,
}

impl SealScratch {
    /// Establishes the canonical order over the drained buckets, as
    /// [`Slot`]s in `order`: a counting sort over `(pane, shard)` buckets —
    /// sized from the per-shard counts ingest kept, so the keys are read
    /// once, by the scatter — then each bucket sorted by its packed prefix,
    /// a stable LSD radix sort, with runs of equal prefix finished by the
    /// full [`SealKey::bucket_key`]. The caller bounds `span * n_shards`
    /// (see [`MAX_SEAL_BUCKETS`]).
    fn bucket_pass(&mut self, first_pane: u64, span: usize, n_shards: usize, pane_us: u64) {
        let len: usize = self.drained.iter().map(|b| b.keys.len()).sum();
        debug_assert!(len <= u32::MAX as usize, "seal batch exceeds u32 offsets");
        let n_buckets = span * n_shards;
        let base = |b: &PaneBucket| (b.pane - first_pane) as usize * n_shards;
        self.offsets.clear();
        self.offsets.resize(n_buckets + 1, 0);
        for bucket in &self.drained {
            let base = base(bucket);
            for (shard, &rows) in bucket.shard_rows.iter().enumerate() {
                self.offsets[base + shard + 1] += rows;
            }
        }
        for b in 0..n_buckets {
            self.offsets[b + 1] += self.offsets[b];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n_buckets]);
        // Every slot is overwritten by the scatter below.
        self.order.resize(len, Slot::default());
        for (d, bucket) in self.drained.iter().enumerate() {
            let (base, pane_start) = (base(bucket), bucket.pane * pane_us);
            for (i, k) in bucket.keys.iter().enumerate() {
                let b = base + k.shard as usize;
                self.order[self.cursors[b] as usize] = Slot {
                    prefix: k.sort_prefix(pane_start),
                    at: (d as u64) << 32 | i as u64,
                };
                self.cursors[b] += 1;
            }
        }
        for b in 0..n_buckets {
            let range = self.offsets[b] as usize..self.offsets[b + 1] as usize;
            sort_bucket(&mut self.order[range], &mut self.radix, &self.drained);
        }
    }
}

/// Puts one `(pane, shard)` bucket's slots into canonical order: by
/// prefix, ties by the full key.
fn sort_bucket(slots: &mut [Slot], radix: &mut Vec<Slot>, drained: &[PaneBucket]) {
    let full_key = |s: &Slot| s.key(drained).bucket_key();
    if slots.len() <= SMALL_BUCKET {
        slots.sort_unstable_by(|a, b| {
            a.prefix
                .cmp(&b.prefix)
                .then_with(|| full_key(a).cmp(&full_key(b)))
        });
        return;
    }
    radix_sort_by_prefix(slots, radix);
    for run in slots.chunk_by_mut(|a, b| a.prefix == b.prefix) {
        if run.len() > 1 {
            run.sort_unstable_by_key(full_key);
        }
    }
}

/// A stable LSD radix sort of `slots` by prefix, one byte a pass, skipping
/// every byte all prefixes share (on a pane whose reports share a stamp,
/// all but the pole's low bytes). `radix` is the scatter buffer.
fn radix_sort_by_prefix(slots: &mut [Slot], radix: &mut Vec<Slot>) {
    let (any, all) = slots.iter().fold((0, u64::MAX), |(any, all), s| {
        (any | s.prefix, all & s.prefix)
    });
    let n = slots.len();
    if radix.len() < n {
        radix.resize(n, Slot::default());
    }
    let radix = &mut radix[..n];
    let mut in_radix = false;
    for shift in (0..64)
        .step_by(8)
        .filter(|&shift| (any ^ all) >> shift & 0xff != 0)
    {
        if in_radix {
            scatter_by_byte(radix, slots, shift);
        } else {
            scatter_by_byte(slots, radix, shift);
        }
        in_radix = !in_radix;
    }
    if in_radix {
        slots.copy_from_slice(radix);
    }
}

/// One counting-sort pass of the radix sort: `src` into `dst`, stably, by
/// the prefix byte at `shift`.
fn scatter_by_byte(src: &[Slot], dst: &mut [Slot], shift: u32) {
    let digit = |s: &Slot| (s.prefix >> shift) as u8 as usize;
    let mut at = [0u32; 256];
    for s in src {
        at[digit(s)] += 1;
    }
    let mut sum = 0;
    for slot in &mut at {
        (*slot, sum) = (sum, sum + *slot);
    }
    for s in src {
        let d = digit(s);
        dst[at[d] as usize] = *s;
        at[d] += 1;
    }
}

/// The sealer's private state: everything a seal pass writes but the
/// ring. Locked by the sealer for each pass and otherwise only by
/// [`LiveCity::totals`], [`LiveCity::fingerprint_chain`] and
/// [`LiveCity::reattach_log`] — never by a query or a wait.
struct SealerState {
    /// Next pane index to seal.
    next_pane: u64,
    /// Running FNV-1a chain over every sealed `(pane, fingerprint)` pair.
    chain: Fingerprint,
    /// Whole-run totals: every sealed pane, retained or not.
    totals: RunTotals,
    /// Per-shard tag state machines.
    trackers: Vec<TagTracker>,
    /// The seal pass's reusable buffers.
    scratch: SealScratch,
}

/// The published half of sealed state, and all any reader locks: the
/// pane ring (with the whole-run flow, observation count and horizon)
/// plus the decode alias counters and seal stage clocks
/// [`LiveCity::stats`] reports.
struct Published {
    windows: CityWindows,
    /// Alias counters summed over shards as of the newest published pass.
    alias: AliasStats,
    /// Stage clocks summed over every published pass.
    seal_ns: SealStageNs,
}

/// Mid-stream decode alias counters, summed over shards.
fn alias_stats(trackers: &[TagTracker]) -> AliasStats {
    let mut sum = AliasStats::default();
    trackers.iter().for_each(|t| sum.merge(&t.alias_stats()));
    sum
}

/// The durable pane log behind [`LiveCity::with_log`] /
/// [`LiveCity::recover`]. Locked by the sealer once per seal batch and by
/// `declare_pole_dead`; never on the ingest path.
struct LogSink {
    writer: SegmentWriter,
    /// Snapshot cadence in panes (0 = never), from
    /// [`LogOptions::snapshot_every_panes`].
    snapshot_every: u64,
    /// `next_pane` as of the last snapshot (or engine start).
    last_snapshot_pane: u64,
    /// Set on the first fatal write error (or exhausted retries): sealing
    /// continues, appends stop, until `reattach_log` replaces the sink.
    failed: bool,
}

impl LogSink {
    fn new(writer: SegmentWriter, last_snapshot_pane: u64) -> Self {
        let snapshot_every = writer.options().snapshot_every_panes;
        Self {
            writer,
            snapshot_every,
            last_snapshot_pane,
            failed: false,
        }
    }
}

/// What the ingest side tells the seal step, and where the steps stand.
struct SealerSignal {
    /// Highest pane boundary (exclusive) the sealer has been asked to reach.
    target: u64,
    /// Highest boundary a step has sealed to, released or forced.
    sealed_to: u64,
    /// When the last step sealed (or the engine was built), on its clock.
    since: Instant,
    /// Set by `Drop`: finish the outstanding target, then exit.
    shutdown: bool,
}

/// Shared core of the engine: everything both the ingest threads and the
/// sealer thread touch.
struct LiveCore {
    directory: PoleDirectory,
    config: LiveConfig,
    n_shards: usize,
    clock: WatermarkClock,
    /// Policy time (see [`crate::clock`]): the staleness force-seal's.
    time: Clock,
    /// No sealer thread: callers step, and every wait for a seal steps first.
    stepped: bool,
    /// The ingest buffers, indexed by `pole % POLE_STRIPES`.
    stripes: Box<[Stripe]>,
    sealer: Mutex<SealerState>,
    ring: Mutex<Published>,
    /// Notified after every publish (pairs with `ring`): wakes `finish`,
    /// `wait_idle`, pacing ingest and blocking subscriptions.
    pane_sealed: Condvar,
    signal: Mutex<SealerSignal>,
    /// Wakes the sealer thread (pairs with `signal`).
    seal_wake: Condvar,
    /// The ingest admission floor, as the next pane to seal: stored by the
    /// sealer after every pane it folds — ahead of the ring's horizon
    /// while a pass is unpublished, so no wait reads it. In panes, not µs:
    /// the top pane's end saturates at `u64::MAX`, which is itself a stamp
    /// inside that pane.
    seal_floor_pane: AtomicU64,
    reports: AtomicU64,
    shed_reports: AtomicU64,
    shed_observations: AtomicU64,
    overflow_shed: AtomicU64,
    unknown_pole_reports: AtomicU64,
    forced_panes: AtomicU64,
    forced_pole_misses: AtomicU64,
    log_retries: AtomicU64,
    log_errors_transient: AtomicU64,
    log_errors_fatal: AtomicU64,
    compacted_tags: AtomicU64,
    /// Durable pane log. `None` until the engine is built with one (or one
    /// is installed later via [`LiveCity::reattach_log`]).
    log: Mutex<Option<LogSink>>,
}

/// The online city engine. See the module docs for the architecture and
/// the determinism contract; see [`crate::query`] for the read side.
///
/// A threaded engine owns a sealer thread for its whole lifetime (`Drop`
/// joins it); a stepped one ([`with_clock`](Self::with_clock)) owns none.
pub struct LiveCity {
    core: Arc<LiveCore>,
    sealer: Option<std::thread::JoinHandle<()>>,
}

impl LiveCity {
    /// Creates an engine over the given deployment and spawns its sealer
    /// thread.
    pub fn new(directory: PoleDirectory, config: LiveConfig) -> Self {
        Self::assemble(directory, config, None, None, None)
    }

    /// A **stepped** engine on `clock`, the policy time of the engine and of
    /// every hub over it (see [`crate::clock`]): no sealer thread, ingest
    /// never seals, and the caller runs each sealer wake-up with
    /// [`seal_step`](Self::seal_step). Every wait for a seal (`finish` too)
    /// runs one step on its caller's thread before it waits.
    pub fn with_clock(directory: PoleDirectory, config: LiveConfig, clock: Clock) -> Self {
        Self::assemble(directory, config, None, None, Some(clock))
    }

    /// Like [`new`](Self::new), but every sealed pane is appended to a
    /// durable log under `log_dir` **before** it becomes queryable —
    /// including forced and staleness seals — so a crashed engine can be
    /// [`recover`](Self::recover)ed at the first unsealed pane. `log_dir`
    /// must not already hold a caraoke log.
    ///
    /// A log write failure never stalls sealing: transient errors retry
    /// up to [`LOG_WRITE_ATTEMPTS`] tries; a fatal error (or exhausted retries)
    /// is counted ([`LiveStats::log_errors_fatal`]), appends stop, and the
    /// engine keeps serving until [`reattach_log`](Self::reattach_log)
    /// restores durability.
    pub fn with_log(
        directory: PoleDirectory,
        config: LiveConfig,
        log_dir: impl AsRef<Path>,
        opts: LogOptions,
    ) -> io::Result<Self> {
        Ok(Self::with_log_writer(
            directory,
            config,
            SegmentWriter::create(log_dir, opts)?,
        ))
    }

    /// Like [`with_log`](Self::with_log), but over a caller-built
    /// [`SegmentWriter`] — the hook fault-injection harnesses use to hand
    /// the engine a writer with a
    /// [`WriteFault`](caraoke_log::WriteFault) schedule installed.
    pub fn with_log_writer(
        directory: PoleDirectory,
        config: LiveConfig,
        writer: SegmentWriter,
    ) -> Self {
        let sink = Some(LogSink::new(writer, 0));
        Self::assemble(directory, config, sink, None, None)
    }

    /// Rebuilds an engine from the pane log a [`with_log`](Self::with_log)
    /// engine wrote: totals, fingerprint chain, window ring, per-shard
    /// tracker state, dead-pole set and forced-seal counters all resume
    /// exactly where the last durable pane left them, and the log is
    /// reopened for appending (any torn tail is truncated on disk first).
    ///
    /// The recovered engine's seal floor is the first unsealed pane —
    /// re-delivering every report at or above it (and none below) resumes
    /// the run exactly-once: the final chain and totals are byte-identical
    /// to an uninterrupted run. `config` must match the writing engine's
    /// (shard count and pane width in particular; a shard mismatch is a
    /// typed error).
    pub fn recover(
        log_dir: impl AsRef<Path>,
        directory: PoleDirectory,
        config: LiveConfig,
        opts: LogOptions,
    ) -> Result<Self, LogError> {
        let shards = config.store.shards.max(1);
        let state = recover_state(&log_dir, shards, config.retain_panes)?;
        let writer = SegmentWriter::open_for_append(&log_dir, opts, state.next_pane)?;
        let sink = Some(LogSink::new(writer, state.next_pane));
        Ok(Self::assemble(directory, config, sink, Some(state), None))
    }

    /// Installs a fresh pane log on a running engine — the recovery path
    /// for a fatal log failure ([`LiveStats::log_errors_fatal`]), and the
    /// way to add durability to an engine built without a log. Between
    /// seal passes, the engine's complete current state (totals, chain,
    /// trackers, dead poles, forced-seal counters) is written into `writer`
    /// as a snapshot record and fsynced; every pane sealed afterwards
    /// appends to the new log. The resulting log recovers and replays like
    /// any snapshot-headed log: [`recover`](Self::recover) on its
    /// directory resumes exactly where this engine is now.
    ///
    /// Replaces any existing sink (healthy or failed); the old writer is
    /// flushed and dropped. Fails — leaving the engine unchanged — if the
    /// snapshot cannot be made durable in the new writer.
    pub fn reattach_log(&self, mut writer: SegmentWriter) -> io::Result<()> {
        let core = &*self.core;
        let mut state = core.sealer_state();
        // Engines built without a log never traced tracker deltas; turn
        // tracing on so post-snapshot panes carry them. Safe mid-run: dirty
        // lists are drained every sealed pane, and no pass runs meanwhile.
        for tracker in &mut state.trackers {
            tracker.set_trace(true);
        }
        let next_pane = state.next_pane;
        writer.append_snapshot(&core.snapshot_record(&mut state, next_pane))?;
        *core.log.lock().expect("log sink") = Some(LogSink::new(writer, next_pane));
        Ok(())
    }

    /// Shared constructor: fresh or recovered state, with or without a
    /// durable log, stepped on the given clock or threaded on the real one.
    fn assemble(
        directory: PoleDirectory,
        config: LiveConfig,
        log: Option<LogSink>,
        resume: Option<caraoke_log::RecoveredState>,
        stepped: Option<Clock>,
    ) -> Self {
        // Here, on the caller's thread: the tracker divides by it on the
        // sealer thread, where a panic would leave every waiter parked.
        assert!(
            config.store.light_cycle_us > 0,
            "light cycles must have nonzero length"
        );
        let shards = config.store.shards.max(1);
        let mut windows = CityWindows::new(config.retain_panes);
        let (sealer, clock, forced_panes, forced_pole_misses) = match resume {
            Some(state) => {
                for (pane, agg) in state.ring {
                    windows.push(pane, agg.fingerprint(), agg);
                }
                windows.adopt(state.next_pane, &state.total);
                let clock = WatermarkClock::resume(
                    directory.len(),
                    config.pane_us,
                    state.next_pane,
                    &state.dead_poles,
                );
                let sealer = SealerState {
                    next_pane: state.next_pane,
                    chain: Fingerprint::resume(state.chain_state),
                    totals: RunTotals::from(state.total),
                    trackers: state.trackers,
                    scratch: SealScratch::default(),
                };
                (sealer, clock, state.forced_panes, state.forced_pole_misses)
            }
            None => {
                let mut trackers: Vec<TagTracker> =
                    (0..shards).map(|_| TagTracker::new()).collect();
                if log.is_some() {
                    // Per-pane tracker deltas for the log.
                    for tracker in &mut trackers {
                        tracker.set_trace(true);
                    }
                }
                let sealer = SealerState {
                    next_pane: 0,
                    chain: Fingerprint::new(),
                    totals: RunTotals::default(),
                    trackers,
                    scratch: SealScratch::default(),
                };
                let clock = WatermarkClock::new(directory.len(), config.pane_us);
                (sealer, clock, 0, 0)
            }
        };
        let seal_floor_pane = sealer.next_pane;
        let is_stepped = stepped.is_some();
        let time = stepped.unwrap_or_default();
        let core = Arc::new(LiveCore {
            clock,
            stepped: is_stepped,
            n_shards: shards,
            stripes: (0..POLE_STRIPES).map(|_| Stripe::default()).collect(),
            ring: Mutex::new(Published {
                windows,
                alias: alias_stats(&sealer.trackers),
                seal_ns: SealStageNs::default(),
            }),
            sealer: Mutex::new(sealer),
            pane_sealed: Condvar::new(),
            signal: Mutex::new(SealerSignal {
                target: 0,
                sealed_to: 0,
                since: time.now(),
                shutdown: false,
            }),
            time,
            seal_wake: Condvar::new(),
            seal_floor_pane: AtomicU64::new(seal_floor_pane),
            reports: AtomicU64::new(0),
            shed_reports: AtomicU64::new(0),
            shed_observations: AtomicU64::new(0),
            overflow_shed: AtomicU64::new(0),
            unknown_pole_reports: AtomicU64::new(0),
            forced_panes: AtomicU64::new(forced_panes),
            forced_pole_misses: AtomicU64::new(forced_pole_misses),
            log_retries: AtomicU64::new(0),
            log_errors_transient: AtomicU64::new(0),
            log_errors_fatal: AtomicU64::new(0),
            compacted_tags: AtomicU64::new(0),
            log: Mutex::new(log),
            directory,
            config,
        });
        let sealer = (!is_stepped).then(|| {
            let sealer_core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("caraoke-live-sealer".into())
                .spawn(move || sealer_core.sealer_loop())
                .expect("spawn sealer thread")
        });
        Self { core, sealer }
    }

    /// Removes a stalled pole from the watermark quorum so event-time
    /// sealing resumes without it: boundaries the pole never reached
    /// complete from the remaining live poles' frontiers alone. Returns
    /// `false` (and changes nothing) when the pole is already dead, is the
    /// last live pole, or is not in the directory.
    ///
    /// The declaration is counted ([`LiveStats::dead_poles`]), recorded in
    /// the pane log (replay and [`recover`](Self::recover) stay faithful),
    /// and irrevocable: observations the dead pole already delivered stay
    /// sealed, later ones are shed as late once the watermark passes them.
    /// Like FIFO-per-pole delivery, *quiescence is the caller's
    /// obligation*: declare a pole dead only once its delivery stream has
    /// stopped.
    pub fn declare_pole_dead(&self, pole: PoleId) -> bool {
        let core = &*self.core;
        if pole.0 as usize >= core.directory.len() || !core.clock.declare_dead(pole) {
            return false;
        }
        {
            let mut guard = core.log.lock().expect("log sink");
            if let Some(sink) = guard.as_mut() {
                if core.log_write(sink, "dead-pole append", |w| w.append_dead_pole(pole.0)) {
                    core.log_write(sink, "dead-pole commit", |w| w.commit_seal());
                }
            }
        }
        // Removing the laggard may have completed boundaries it was
        // holding back: wake the sealer for them.
        let target = core
            .clock
            .completed()
            .saturating_sub(core.config.lateness_panes);
        if target > 0 {
            core.request_seal(target);
        }
        true
    }

    /// The deployment directory.
    pub fn directory(&self) -> &PoleDirectory {
        &self.core.directory
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LiveConfig {
        &self.core.config
    }

    /// The engine's clock: policy time (see [`crate::clock`]).
    pub fn clock(&self) -> &Clock {
        &self.core.time
    }

    /// Applies one pole report as it arrives. Safe to call from many
    /// threads at once; each pole's reports must be delivered FIFO (the
    /// watermark contract) — reports older than the sealed frontier are
    /// counted and shed.
    ///
    /// Lock-light: the reporting pole's ingest stripe (shared by the poles
    /// congruent mod 16 and the sealer's drain), then its clock stripe,
    /// plus — on the rare report that advances the watermark — the clock's
    /// floors and the sealer wake-up signal. A report naming a pole the
    /// directory does not hold is refused whole before any of them.
    pub fn ingest(&self, report: &PoleReport) -> IngestOutcome {
        self.core.ingest(report)
    }

    /// Flushes the run: asks the sealer to seal every pane up to the latest
    /// timestamp heard — as if every pole had reported past it — and waits
    /// until it has. Call once ingestion ends (the streaming analogue of
    /// the batch driver's finalize); ingest must not run concurrently with
    /// the flush. With no report accepted since the engine was built there
    /// is no timestamp heard (a recovered clock's frontier is only parked
    /// on the seal floor): this is then [`wait_idle`](Self::wait_idle).
    pub fn finish(&self) {
        let core = &*self.core;
        if core.reports.load(Ordering::Relaxed) == 0 {
            return self.wait_idle();
        }
        let target = core.clock.max_frontier_us() / core.config.pane_us + 1;
        core.request_seal(target);
        self.wait_seal_floor(target.saturating_mul(core.config.pane_us));
    }

    /// Blocks until the sealer has caught up with every pane the watermark
    /// has released so far. Useful before asserting on sealed state
    /// mid-stream; [`finish`](LiveCity::finish) already waits.
    pub fn wait_idle(&self) {
        let core = &*self.core;
        let target = core.signal.lock().expect("sealer signal").target;
        self.wait_seal_floor(target.saturating_mul(core.config.pane_us));
    }

    /// One sealer wake-up: seals every pane the watermark has released, or,
    /// if none is and [`LiveConfig::max_pane_staleness`] has run out on the
    /// engine's clock since the last seal, force-seals every pane the
    /// fastest pole has elapsed. The sealer thread runs exactly this.
    pub fn seal_step(&self) -> SealStep {
        self.core.seal_step()
    }

    /// Whether the engine is [stepped](Self::with_clock).
    pub fn is_stepped(&self) -> bool {
        self.core.stepped
    }

    /// Blocks until the seal floor reaches at least `floor_us` — i.e. every
    /// pane ending at or below it is sealed and published, so queryable.
    /// The ingest-side backpressure
    /// primitive: a producer that knows it is `k` panes ahead waits here,
    /// bounding buffered memory instead of tripping the
    /// [`LiveConfig::max_pending_per_stripe`] overflow shed. Callers must
    /// only wait on floors the watermark can actually release — a floor
    /// above (watermark − lateness allowance) that no further ingest will
    /// push over blocks until [`finish`](LiveCity::finish) or a staleness
    /// force-seal supplies it.
    pub fn wait_seal_floor(&self, floor_us: u64) {
        let core = &*self.core;
        core.wait_published(floor_us.div_ceil(core.config.pane_us), Duration::MAX, None);
    }

    /// Current event-time low watermark, µs.
    pub fn watermark_us(&self) -> u64 {
        self.core.clock.watermark_us()
    }

    /// Number of panes sealed so far: the published ring's horizon.
    pub fn sealed_panes(&self) -> u64 {
        self.with_windows(|windows| windows.next_pane())
    }

    /// The running fingerprint chain over every sealed `(pane, fingerprint)`
    /// pair — the live determinism witness: equal chains mean byte-identical
    /// window sequences.
    pub fn fingerprint_chain(&self) -> u64 {
        self.core.sealer_state().chain.finish()
    }

    /// Whole-run totals: the merge of every sealed pane. After [`finish`],
    /// byte-identical to the batch pipeline's aggregates for the same
    /// source.
    ///
    /// [`finish`]: LiveCity::finish
    pub fn totals(&self) -> CityAggregates {
        self.core.sealer_state().totals.totals()
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> LiveStats {
        let core = &*self.core;
        // Read the floor before the watermark so the reported pair always
        // satisfies `seal_floor_us <= watermark_us`.
        let seal_floor_us = core
            .seal_floor_pane
            .load(Ordering::Acquire)
            .saturating_mul(core.config.pane_us);
        let buffered: usize = core
            .stripes
            .iter()
            .map(|stripe| stripe.0.lock().expect("ingest stripe").len)
            .sum();
        let (observations, sealed_panes, alias, seal_ns) = {
            let ring = core.ring();
            let windows = &ring.windows;
            (
                windows.observations,
                windows.next_pane(),
                ring.alias,
                ring.seal_ns,
            )
        };
        LiveStats {
            reports: core.reports.load(Ordering::Relaxed),
            observations,
            shed_reports: core.shed_reports.load(Ordering::Relaxed),
            shed_observations: core.shed_observations.load(Ordering::Relaxed),
            overflow_shed: core.overflow_shed.load(Ordering::Relaxed),
            unknown_pole_reports: core.unknown_pole_reports.load(Ordering::Relaxed),
            buffered_observations: buffered as u64,
            sealed_panes,
            watermark_us: core.clock.watermark_us(),
            seal_floor_us,
            forced_panes: core.forced_panes.load(Ordering::Relaxed),
            forced_pole_misses: core.forced_pole_misses.load(Ordering::Relaxed),
            dead_poles: core.clock.dead_poles().len() as u64,
            log_retries: core.log_retries.load(Ordering::Relaxed),
            log_errors_transient: core.log_errors_transient.load(Ordering::Relaxed),
            log_errors_fatal: core.log_errors_fatal.load(Ordering::Relaxed),
            compacted_tags: core.compacted_tags.load(Ordering::Relaxed),
            alias,
            seal_ns,
        }
    }

    /// The read side's view of sealed state: the published ring, under
    /// its lock — the only lock a query takes. The running windows are the
    /// one part a query may write.
    pub(crate) fn with_windows<R>(&self, f: impl FnOnce(&mut CityWindows) -> R) -> R {
        f(&mut self.core.ring().windows)
    }

    /// Blocks (up to `timeout` of real time, a caller's budget; a timeout
    /// too large to add to the clock waits without one) until the pane
    /// horizon — the number of panes sealed,
    /// [`sealed_panes`](Self::sealed_panes) — has moved past `past` or
    /// `stop` is set, and returns it; a return `<= past` is a
    /// timeout or a stop. Wakes on every published seal pass and on
    /// [`wake_sealed_waiters`](Self::wake_sealed_waiters): a thread that
    /// stops this wait sets `stop`, then calls that.
    pub fn wait_sealed(&self, past: u64, timeout: Duration, stop: &AtomicBool) -> u64 {
        self.core.wait_published(past + 1, timeout, Some(stop))
    }

    /// Wakes every wait for a seal. A [`wait_sealed`](Self::wait_sealed)
    /// whose `stop` flag is set returns; every other wait re-tests its own
    /// condition and goes back to sleep. Waits test `stop` under the ring's
    /// lock, which this takes before it notifies, so a flag set before the
    /// call is seen by a waiter that has not yet slept as well as by one
    /// that has.
    pub fn wake_sealed_waiters(&self) {
        drop(self.core.ring());
        self.core.pane_sealed.notify_all();
    }
}

impl Drop for LiveCity {
    fn drop(&mut self) {
        {
            let mut sig = self.core.signal.lock().expect("sealer signal");
            sig.shutdown = true;
            self.core.seal_wake.notify_one();
        }
        if let Some(handle) = self.sealer.take() {
            let _ = handle.join();
        }
    }
}

impl LiveCore {
    fn sealer_state(&self) -> MutexGuard<'_, SealerState> {
        self.sealer.lock().expect("sealer state")
    }

    fn ring(&self) -> MutexGuard<'_, Published> {
        self.ring.lock().expect("pane ring")
    }

    /// Blocks until the published ring's horizon reaches `panes`, `timeout`
    /// of real time passes or `stop` is set, and returns the horizon.
    /// Tested under the ring's lock, which the sealer holds to publish and
    /// [`LiveCity::wake_sealed_waiters`] takes before it notifies, so
    /// neither a publish nor a stop can slip between the test and the
    /// sleep. A stepped engine steps first: no wait hangs on a seal nobody runs.
    fn wait_published(&self, panes: u64, timeout: Duration, stop: Option<&AtomicBool>) -> u64 {
        if self.stepped {
            self.seal_step();
        }
        // Relaxed: the ring's lock orders the flag's store before the test.
        let behind = |ring: &mut Published| {
            ring.windows.next_pane() < panes
                && !stop.is_some_and(|stop| stop.load(Ordering::Relaxed))
        };
        let (ring, _) = Clock::wait_timeout_while(&self.pane_sealed, self.ring(), timeout, behind);
        ring.windows.next_pane()
    }

    fn ingest(&self, report: &PoleReport) -> IngestOutcome {
        // Before anything is buffered or any lock taken: the clock and the
        // seal fold both index by pole id, the fold on the sealer thread.
        let known = |pole: PoleId| (pole.0 as usize) < self.directory.len();
        if !known(report.pole) || !report.observations.iter().all(|obs| known(obs.pole)) {
            self.unknown_pole_reports.fetch_add(1, Ordering::Relaxed);
            return IngestOutcome::UnknownPole;
        }
        let pane_us = self.config.pane_us;
        let floor = self.seal_floor_pane.load(Ordering::Acquire);
        let pane = report.timestamp_us / pane_us;
        if pane < floor {
            self.shed_reports.fetch_add(1, Ordering::Relaxed);
            self.shed_observations
                .fetch_add(report.len() as u64, Ordering::Relaxed);
            return IngestOutcome::ShedLate;
        }
        let max_pending = self.config.max_pending_per_stripe;
        let stripe = &self.stripes[report.pole.0 as usize % POLE_STRIPES];
        let mut shed = 0u64;
        let mut overflow = 0u64;
        {
            let mut buf = stripe.0.lock().expect("ingest stripe");
            let mut multi = 0u32;
            for (seq, obs) in report.observations.iter().enumerate() {
                if obs.multi_occupied {
                    multi += 1;
                }
                // Bucketed by the *observation's* pane (a report near a
                // boundary can straddle two), so the seal moves whole
                // buckets without re-classifying anything.
                let obs_pane = obs.timestamp_us / pane_us;
                if obs_pane < floor {
                    shed += 1;
                } else if buf.len >= max_pending {
                    overflow += 1;
                } else {
                    let key = SealKey {
                        timestamp_us: obs.timestamp_us,
                        tag: obs.tag.0,
                        pole: obs.pole.0,
                        cfo_bin: obs.cfo_bin,
                        shard: caraoke_city::store::shard_of_bin(obs.cfo_bin, self.n_shards) as u32,
                        seq: seq as u32,
                    };
                    let row = FoldRow::resolve(obs, self.directory.site(obs.pole));
                    buf.bucket(obs_pane).push(key, row);
                    buf.len += 1;
                }
            }
            buf.bucket(pane).record_report(
                report.segment.0,
                report.count,
                report.observations.len() as u32,
                multi,
            );
        }
        if shed > 0 {
            self.shed_observations.fetch_add(shed, Ordering::Relaxed);
        }
        if overflow > 0 {
            self.overflow_shed.fetch_add(overflow, Ordering::Relaxed);
        }
        self.reports.fetch_add(1, Ordering::Relaxed);

        // Feed the watermark last: by the time a boundary completes, every
        // in-contract observation at or below it is already buffered (this
        // thread's pushes are ordered before its frontier store, and the
        // boundary needs every live pole's frontier past it to complete).
        if let Some(completed) = self.clock.observe(report.pole, report.timestamp_us) {
            let target = completed.saturating_sub(self.config.lateness_panes);
            if target > 0 {
                self.request_seal(target);
            }
        }
        IngestOutcome::Applied
    }

    /// Runs one logical pane-log write with bounded exponential-backoff
    /// retry. Transient errors (see [`transient_io_error`]) sleep and retry
    /// up to [`LOG_WRITE_ATTEMPTS`] total tries; anything else — or exhausted
    /// retries — latches the sink failed. Returns whether the write landed.
    /// A no-op returning `false` when the sink is already failed.
    fn log_write(
        &self,
        sink: &mut LogSink,
        what: &str,
        mut op: impl FnMut(&mut SegmentWriter) -> io::Result<()>,
    ) -> bool {
        if sink.failed {
            return false;
        }
        let mut attempt = 0u32;
        loop {
            match op(&mut sink.writer) {
                Ok(()) => return true,
                Err(err) if transient_io_error(&err) && attempt + 1 < LOG_WRITE_ATTEMPTS => {
                    self.log_errors_transient.fetch_add(1, Ordering::Relaxed);
                    self.log_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = LOG_RETRY_BASE_BACKOFF.saturating_mul(1 << attempt);
                    std::thread::sleep(backoff.min(LOG_RETRY_MAX_BACKOFF));
                    attempt += 1;
                }
                Err(err) => {
                    if transient_io_error(&err) {
                        self.log_errors_transient.fetch_add(1, Ordering::Relaxed);
                    }
                    sink.failed = true;
                    self.log_errors_fatal.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "caraoke-live: pane log {what} failed; \
                         appends disabled until reattach_log: {err}"
                    );
                    return false;
                }
            }
        }
    }

    /// Raises the sealer's target and wakes it. Called once per watermark
    /// advance (not per report), so the signal lock is cold.
    fn request_seal(&self, target: u64) {
        let mut sig = self.signal.lock().expect("sealer signal");
        if target > sig.target {
            sig.target = target;
            self.seal_wake.notify_one();
        }
    }

    /// The sealer thread: a real-time wait (a threaded engine's clock is
    /// real) until the watermark releases panes, the staleness bound runs
    /// out or shutdown, around [`seal_step`](Self::seal_step). Outstanding
    /// work is drained before a shutdown exit, so `Drop` after `finish`
    /// never abandons panes.
    fn sealer_loop(&self) {
        let staleness = self.config.max_pane_staleness.unwrap_or(Duration::MAX);
        loop {
            let sig = self.signal.lock().expect("sealer signal");
            let left = staleness.saturating_sub(self.time.now() - sig.since);
            let (sig, _) = Clock::wait_timeout_while(&self.seal_wake, sig, left, |sig| {
                sig.target <= sig.sealed_to && !sig.shutdown
            });
            if sig.shutdown && sig.target <= sig.sealed_to {
                return;
            }
            drop(sig);
            self.seal_step();
        }
    }

    /// See [`LiveCity::seal_step`]. A forced seal counts the poles that
    /// missed each pane.
    fn seal_step(&self) -> SealStep {
        let sig = self.signal.lock().expect("sealer signal");
        let stale = |staleness| self.time.now() - sig.since >= staleness;
        let (target, forced) = if sig.target > sig.sealed_to {
            (sig.target, false)
        } else if self.config.max_pane_staleness.is_some_and(stale) {
            (self.clock.max_frontier_us() / self.config.pane_us, true)
        } else {
            return SealStep::default();
        };
        drop(sig);
        let panes = self.seal_up_to(target, forced);
        let mut sig = self.signal.lock().expect("sealer signal");
        sig.sealed_to = sig.sealed_to.max(target);
        sig.since = self.time.now();
        SealStep { panes, forced }
    }

    /// Seals every pane below `target` (exclusive), in pane order, as one
    /// or more passes of [`seal_pass`](Self::seal_pass) — each bounded to
    /// the panes one bucket table holds, each notifying waiters once it is
    /// published — and returns how many it sealed. `forced` marks
    /// staleness-path seals: each pane is counted as forced with its
    /// per-pane pole-miss count — telemetry the pane log persists so replay
    /// is faithful.
    /// (Racy against a pole reviving this instant — its data still seals
    /// correctly; only the miss count can over-report.)
    fn seal_up_to(&self, target: u64, forced: bool) -> u64 {
        let max_span = (MAX_SEAL_BUCKETS / self.n_shards).max(1) as u64;
        let mut panes = 0;
        loop {
            let mut state = self.sealer_state();
            if state.next_pane >= target {
                return panes;
            }
            let end = target.min(state.next_pane.saturating_add(max_span));
            panes += end - state.next_pane;
            self.seal_pass(&mut state, end, forced);
            drop(state);
            self.pane_sealed.notify_all();
        }
    }

    /// One seal pass — drain, bucket pass, fold pane by pane, log commit,
    /// publish — over the panes `state.next_pane..end`, under the sealer
    /// state lock the caller holds (lock order: see the module docs).
    fn seal_pass(&self, state: &mut SealerState, end: u64, forced: bool) {
        let pane_us = self.config.pane_us;
        let first_pane = state.next_pane;
        let span = (end - first_pane) as usize;
        let mut stages = SealStageNs::default();
        let mut lap = Lap::start(&self.time);

        // Drain every pane bucket below `end`; the buffered tail ahead of
        // the frontier is never touched. No in-contract delivery can add
        // observations below `end * pane_us` concurrently: the watermark
        // only released `end` because every pole's frontier already passed
        // it (see `ingest`). A racing out-of-contract push can leave a
        // bucket below an already-sealed pane in a buffer; its observations
        // are counted as shed here and its report counters dropped, never
        // merged.
        let mut scratch = std::mem::take(&mut state.scratch);
        if scratch.segs.len() < span {
            scratch.segs.resize_with(span, Vec::new);
        }
        let mut shed_late = 0u64;
        for (stripe, taken) in self.stripes.iter().zip(&mut scratch.per_stripe) {
            let mut buf = stripe.0.lock().expect("ingest stripe");
            let buf = &mut *buf;
            let cut = buf.panes.partition_point(|b| b.pane < end);
            let before = scratch.drained.len();
            for mut bucket in buf.panes.drain(..cut) {
                buf.len -= bucket.keys.len();
                if bucket.pane < first_pane {
                    shed_late += bucket.keys.len() as u64;
                    bucket.clear();
                    buf.spare.push(bucket);
                } else {
                    scratch.segs[(bucket.pane - first_pane) as usize].append(&mut bucket.segs);
                    scratch.drained.push(bucket);
                }
            }
            *taken = scratch.drained.len() - before;
        }
        if shed_late > 0 {
            self.shed_observations
                .fetch_add(shed_late, Ordering::Relaxed);
        }
        stages.drain += lap.split();

        scratch.bucket_pass(first_pane, span, self.n_shards, pane_us);

        // The log sink is held from here to the pass's commit.
        let mut log = self.log.lock().expect("log sink");
        stages.bucket += lap.split();
        for pane_idx in 0..span {
            let pane = first_pane + pane_idx as u64;
            for (shard, tracker) in state.trackers.iter_mut().enumerate() {
                let b = pane_idx * self.n_shards + shard;
                let range = scratch.offsets[b] as usize..scratch.offsets[b + 1] as usize;
                let bucket = &scratch.order[range];
                self.fold_bucket(&mut scratch.builder, tracker, bucket, &scratch.drained);
            }
            stages.fold += lap.split();
            let mut agg = scratch.builder.finish();
            // Before the deltas are taken: evictions ride them as removals.
            if let Some(cutoff) = self.compaction_cutoff(pane) {
                for tracker in &mut state.trackers {
                    let evicted = tracker.evict_idle(cutoff);
                    self.compacted_tags.fetch_add(evicted, Ordering::Relaxed);
                }
            }
            for (seg, stats) in scratch.segs[pane_idx].drain(..) {
                agg.segments.entry(seg).or_default().merge(&stats);
            }
            let pole_misses = if forced {
                self.forced_panes.fetch_add(1, Ordering::Relaxed);
                let misses = self.clock.poles_behind((pane + 1).saturating_mul(pane_us)) as u64;
                self.forced_pole_misses.fetch_add(misses, Ordering::Relaxed);
                misses as u32
            } else {
                0
            };
            stages.pane_finish += lap.split();
            let fingerprint = agg.fingerprint();
            state.chain.write_u64(pane);
            state.chain.write_u64(fingerprint);
            stages.fingerprint += lap.split();
            state.totals.add_pane(&agg);
            stages.totals += lap.split();
            // The pane record and any due snapshot are appended (retried or
            // given up on as [`LOG_WRITE_ATTEMPTS`] says) before the pass
            // commits, hence before the pane is published.
            if let Some(sink) = log.as_mut() {
                let chain_now = state.chain.finish();
                let deltas: Vec<_> = state.trackers.iter_mut().map(|t| t.take_delta()).collect();
                stages.delta += lap.split();
                // Pane and snapshot retry as *separate* logical writes: a
                // transient snapshot failure must not re-append the
                // (already written) pane record.
                let pane_ok = self.log_write(sink, "pane append", |w| {
                    w.append_pane(
                        pane,
                        forced,
                        pole_misses,
                        fingerprint,
                        chain_now,
                        &agg,
                        &deltas,
                    )
                });
                let due_snapshot = sink.snapshot_every > 0
                    && pane + 1 >= sink.last_snapshot_pane + sink.snapshot_every;
                if pane_ok && due_snapshot {
                    let snap = self.snapshot_record(state, pane + 1);
                    if self.log_write(sink, "snapshot append", |w| w.append_snapshot(&snap)) {
                        sink.last_snapshot_pane = pane + 1;
                    }
                }
                stages.log_append += lap.split();
            }
            scratch.sealed.push((pane, fingerprint, agg));
            state.next_pane = pane + 1;
            self.seal_floor_pane.store(pane + 1, Ordering::Release);
        }
        // Every row is folded: the drained buckets go back to their stripes.
        let mut drained = scratch.drained.drain(..);
        for (stripe, &taken) in self.stripes.iter().zip(&scratch.per_stripe) {
            if taken > 0 {
                let mut buf = stripe.0.lock().expect("ingest stripe");
                for mut bucket in drained.by_ref().take(taken) {
                    bucket.clear();
                    buf.spare.push(bucket);
                }
            }
        }
        drop(drained);
        stages.drain += lap.split();
        // One fsync-policy commit per pass: every pane above is durable (per
        // policy) before any reader can observe it.
        if let Some(sink) = log.as_mut() {
            self.log_write(sink, "seal commit", |w| w.commit_seal());
            stages.commit += lap.split();
        }
        drop(log);
        let mut ring = self.ring();
        for (pane, fingerprint, agg) in scratch.sealed.drain(..) {
            ring.windows.push(pane, fingerprint, agg);
        }
        ring.alias = alias_stats(&state.trackers);
        stages.publish += lap.split();
        ring.seal_ns.add(&stages);
        drop(ring);
        state.scratch = scratch;
    }

    /// Folds one `(pane, shard)` bucket — slots into `drained`, in
    /// canonical order — into the pane's builder. Out of line so the hot
    /// loop is compiled on its own, not inside [`seal_pass`](Self::seal_pass).
    #[inline(never)]
    fn fold_bucket(
        &self,
        builder: &mut AggregateBuilder,
        tracker: &mut TagTracker,
        bucket: &[Slot],
        drained: &[PaneBucket],
    ) {
        for (n, slot) in bucket.iter().enumerate() {
            if let Some(ahead) = bucket.get(n + FOLD_PREFETCH_AHEAD) {
                prefetch_row(ahead.row(drained));
            }
            if let Some(ahead) = bucket.get(n + TRACKER_PREFETCH_AHEAD) {
                tracker.prefetch(ahead.row(drained));
            }
            fold_row(
                builder,
                tracker,
                slot.row(drained),
                &self.directory,
                &self.config.store,
            );
        }
    }

    /// The engine's complete state as of `next_pane` (the caller holds the
    /// sealer state lock and has already merged every pane below it into
    /// `state`): what a log needs to resume without the panes before it.
    fn snapshot_record(&self, state: &mut SealerState, next_pane: u64) -> SnapshotRecord {
        SnapshotRecord {
            next_pane,
            chain: state.chain.finish(),
            forced_panes: self.forced_panes.load(Ordering::Relaxed),
            forced_pole_misses: self.forced_pole_misses.load(Ordering::Relaxed),
            dead_poles: self.clock.dead_poles(),
            total: state.totals.totals(),
            trackers: state.trackers.iter().map(TagTracker::export).collect(),
        }
    }

    /// The idle-tag compaction cutoff for `pane`, when a sweep is due after
    /// it: a pure function of the pane index and config, so equal runs
    /// compact identically.
    fn compaction_cutoff(&self, pane: u64) -> Option<u64> {
        let idle_us = self.config.compact_idle_us?;
        if !(pane + 1).is_multiple_of(COMPACT_EVERY_PANES) {
            return None;
        }
        let cutoff = (pane + 1)
            .saturating_mul(self.config.pane_us)
            .saturating_sub(idle_us);
        (cutoff > 0).then_some(cutoff)
    }
}

/// How many permutation slots ahead the seal walk hints the prefetcher.
/// Far enough to cover an L2 miss at ~2.5 cycles/fold-instruction, near
/// enough that the line is still resident when the walk arrives.
const FOLD_PREFETCH_AHEAD: usize = 8;

/// Slots ahead for the tracker state-table hint ([`TagTracker::prefetch`]).
/// Closer than [`FOLD_PREFETCH_AHEAD`]: the hint itself reads the fold
/// row (alias resolution), so it trails the far hint that pulls that row
/// in.
const TRACKER_PREFETCH_AHEAD: usize = 4;

/// Hints the cache at an upcoming fold row. The seal walk reads the
/// [`FoldRow`] column *through the sort permutation*, so consecutive folds
/// land on unrelated cache lines; prefetching a few slots ahead overlaps
/// those misses with the current fold's work (without it the fold stage
/// costs about 40 % more on a 10 000-pole city). A hint only — no effect
/// on results. (The one `unsafe` in this crate: `_mm_prefetch` has no
/// memory-safety surface — it is a hint and never faults, even on wild
/// addresses.)
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_row(row: &FoldRow) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = row as *const FoldRow as *const i8;
        // A 56-byte row straddles up to two cache lines (the column is
        // packed, so rows are not line-aligned); pull first and last.
        unsafe {
            _mm_prefetch(p, _MM_HINT_T0);
            _mm_prefetch(p.add(std::mem::size_of::<FoldRow>() - 1), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::PoleSite;
    use caraoke_city::{PoleId, SegmentId, TagKey, TagObservation};
    use caraoke_geom::Vec3;
    use std::sync::mpsc;

    fn directory(n: usize) -> PoleDirectory {
        PoleDirectory::new(
            (0..n)
                .map(|i| PoleSite {
                    segment: SegmentId((i / 4) as u16),
                    position: Vec3::new(i as f64 * 30.0, -5.0, 3.8),
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
            cfo_hz: (tag % 615) as f64 * 1953.125,
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

    fn tiny_config() -> LiveConfig {
        LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 16,
            ..Default::default()
        }
    }

    #[test]
    fn panes_seal_as_the_watermark_advances() {
        let live = LiveCity::new(directory(2), tiny_config());
        // Pole 0 runs ahead; nothing seals until pole 1 catches up.
        live.ingest(&report(0, 0, 0, vec![obs(1, 0, 0, 0)]));
        live.ingest(&report(0, 0, 2_500_000, vec![obs(1, 0, 0, 2_500_000)]));
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 0);
        // Pole 1 reaches t=2.5 s: panes 0 and 1 seal (watermark 2 s).
        live.ingest(&report(1, 0, 2_500_000, vec![obs(2, 1, 0, 2_500_000)]));
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 2);
        assert_eq!(live.watermark_us(), 2_000_000);
        // Only pane 0's observation is sealed; the t=2.5 s ones are buffered.
        let stats = live.stats();
        assert_eq!(stats.observations, 1);
        assert_eq!(stats.buffered_observations, 2);
        // Flush: everything seals.
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.observations, 3);
        assert_eq!(stats.buffered_observations, 0);
        assert_eq!(stats.sealed_panes, 3);
        assert_eq!(stats.shed_reports, 0);
    }

    #[test]
    fn late_reports_are_counted_and_shed_not_merged() {
        let live = LiveCity::new(directory(2), tiny_config());
        for pole in 0..2u32 {
            for epoch in 0..4u64 {
                let t = epoch * 1_000_000;
                live.ingest(&report(pole, 0, t, vec![obs(10 + pole as u64, pole, 0, t)]));
            }
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 3, "watermark at 3 s");
        let before = live.totals().observations;
        // A straggler from pane 0 arrives after pane 0 sealed: shed.
        let outcome = live.ingest(&report(0, 0, 500_000, vec![obs(99, 0, 0, 500_000)]));
        assert_eq!(outcome, IngestOutcome::ShedLate);
        let stats = live.stats();
        assert_eq!(stats.shed_reports, 1);
        assert_eq!(stats.shed_observations, 1);
        live.finish();
        assert_eq!(
            live.totals().observations,
            before + 2,
            "only the two buffered t=3s observations seal; the straggler never lands"
        );
    }

    #[test]
    fn lateness_allowance_delays_sealing() {
        let mut config = tiny_config();
        config.lateness_panes = 2;
        let live = LiveCity::new(directory(1), config);
        live.ingest(&report(0, 0, 3_500_000, vec![obs(1, 0, 0, 3_500_000)]));
        live.wait_idle();
        // Watermark boundary 3 completed, but 2 panes of slack are held back.
        assert_eq!(live.watermark_us(), 3_000_000);
        assert_eq!(live.sealed_panes(), 1);
        // A not-quite-FIFO arrival inside the allowance still lands.
        let outcome = live.ingest(&report(0, 0, 1_200_000, vec![obs(2, 0, 0, 1_200_000)]));
        assert_eq!(outcome, IngestOutcome::Applied);
        live.finish();
        assert_eq!(live.totals().observations, 2);
        assert_eq!(live.stats().shed_observations, 0);
    }

    #[test]
    fn overflow_beyond_the_bounded_buffer_is_shed_and_counted() {
        let mut config = tiny_config();
        config.max_pending_per_stripe = 4;
        config.store.shards = 1;
        let live = LiveCity::new(directory(2), config);
        // Pole 0 floods pane 0 with more observations than the buffer holds
        // (pole 1 never reports, so nothing seals and nothing drains).
        for i in 0..10u64 {
            live.ingest(&report(0, 0, 100 + i, vec![obs(i, 0, 0, 100 + i)]));
        }
        let stats = live.stats();
        assert_eq!(stats.buffered_observations, 4);
        assert_eq!(stats.overflow_shed, 6);
    }

    #[test]
    fn windowed_occupancy_and_flow_come_from_sealed_panes() {
        let mut config = tiny_config();
        config.store.light_cycle_us = 1_000_000; // one cycle per pane
        let live = LiveCity::new(directory(2), config);
        // Two tags walk pole 0 -> 1 across epochs; occupancy reports carry
        // counts.
        for epoch in 0..5u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
        }
        live.finish();
        live.with_windows(|windows| {
            assert_eq!(windows.next_pane(), 5);
            assert_eq!(windows.panes().len(), 5);
            // Every pane holds two reports and two observations for segment 0.
            for pane in windows.panes() {
                assert_eq!(pane.agg.segments[&0].reports, 2);
                assert_eq!(pane.agg.observations, 2);
            }
            // Each tag flows once per cycle: 2 tags x 5 cycles.
            assert_eq!(windows.flow.total(), 10);
        });
    }

    /// Records the pane hint of every seal commit and, at the commit whose
    /// hint is `gate_at`, reports in on `reached` and parks the sealer
    /// until `resume` fires.
    struct CommitGate {
        commits: Arc<Mutex<Vec<u64>>>,
        gate_at: u64,
        reached: mpsc::Sender<()>,
        resume: mpsc::Receiver<()>,
    }

    impl caraoke_log::WriteFault for CommitGate {
        fn check(&mut self, op: caraoke_log::IoOp, pane: u64) -> Option<io::Error> {
            if op == caraoke_log::IoOp::Sync {
                self.commits.lock().expect("commit list").push(pane);
                if pane == self.gate_at {
                    let _ = self.reached.send(());
                    let _ = self.resume.recv();
                }
            }
            None
        }
    }

    #[test]
    fn widely_skewed_pole_frontiers_stay_cheap_and_correct() {
        // One thread hears pole 0 run 20 000 panes ahead
        // of the laggard — more panes than one seal pass's bucket table
        // holds at 8 shards. Stripe buffers track occupied panes only, the
        // clock keeps frontiers, not panes, and when the laggard catches up the
        // whole span seals as consecutive bounded passes, each committed
        // to the pane log and visible to waiters before the next starts.
        let far_pane = 20_000u64;
        let panes = [0, 1, 2, far_pane, far_pane + 1, far_pane + 2];
        let stream = |pole: u32| {
            panes.map(|pane| {
                let t = pane * 1_000_000;
                let walker = obs(7 + pole as u64, pole, 0, t);
                let one_shot = obs(1_000 + 2 * pane + pole as u64, pole, 0, t + 10);
                report(pole, 0, t, vec![walker, one_shot])
            })
        };

        // Reference: the same reports with no skew, one shard — every seal
        // request, the 20k-pane one included, fits a single pass.
        let mut config = tiny_config();
        config.store.shards = 1;
        let reference = LiveCity::new(directory(2), config);
        for (a, b) in stream(0).iter().zip(&stream(1)) {
            reference.ingest(a);
            reference.ingest(b);
        }
        reference.finish();

        let max_span = (MAX_SEAL_BUCKETS / tiny_config().store.shards) as u64;
        assert!(far_pane > 2 * max_span, "the span needs three passes");
        let dir = scratch_dir("skewed");
        let commits = Arc::new(Mutex::new(Vec::new()));
        let (reached_tx, reached) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel();
        // No snapshots: they sync too, and would anchor the replay below.
        let opts = LogOptions {
            snapshot_every_panes: 0,
            ..Default::default()
        };
        let mut writer = SegmentWriter::create(&dir, opts).expect("log");
        writer.set_fault_injector(Some(Box::new(CommitGate {
            commits: Arc::clone(&commits),
            gate_at: 2 + 2 * max_span,
            reached: reached_tx,
            resume: resume_rx,
        })));
        let live = LiveCity::with_log_writer(directory(2), tiny_config(), writer);
        for r in &stream(0) {
            live.ingest(r);
        }
        let laggard = stream(1);
        for r in &laggard[..3] {
            live.ingest(r);
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 2);
        commits.lock().expect("commit list").clear();

        // The laggard catches up: one request for panes 2..20 000. The gate
        // parks the sealer inside its second pass (sealer-state and log
        // locks held, the pass's panes folded but not committed), and the
        // first pass's floor is already waitable.
        live.ingest(&laggard[3]);
        reached
            .recv_timeout(Duration::from_secs(60))
            .expect("the sealer reaches the second pass's commit");
        let (done_tx, done) = mpsc::channel();
        std::thread::scope(|scope| {
            let live = &live;
            scope.spawn(move || {
                use crate::{LiveAnswer, LiveQuery, LiveSubscription, PaneSummary};
                live.wait_seal_floor((2 + max_span) * 1_000_000);
                // Every reader answers without waiting out the parked pass,
                // and from the first pass's panes only.
                let newest = |panes: &[PaneSummary]| panes.last().map_or(0, |p| p.pane + 1);
                let watermark = match live.query(&LiveQuery::Watermark) {
                    LiveAnswer::Watermark { sealed_panes, .. } => sealed_panes,
                    _ => 0,
                };
                let snapshot = live.snapshot(4);
                let _ = done_tx.send([
                    live.sealed_panes(),
                    watermark,
                    newest(&LiveSubscription::new().poll(live).0),
                    live.stats().sealed_panes,
                    snapshot.stats.sealed_panes,
                    newest(&snapshot.recent),
                ]);
            });
            let horizons = done.recv_timeout(Duration::from_secs(20));
            resume.send(()).expect("sealer parked at the gate");
            assert_eq!(
                horizons,
                Ok([2 + max_span; 6]),
                "wait_seal_floor and every reader return mid-span, at the committed pass"
            );
        });
        live.wait_idle();
        assert_eq!(live.watermark_us(), far_pane * 1_000_000);
        assert_eq!(live.sealed_panes(), far_pane);
        assert_eq!(
            *commits.lock().expect("commit list"),
            [2 + max_span, 2 + 2 * max_span, far_pane],
            "one log commit per pass"
        );

        for r in &laggard[4..] {
            live.ingest(r);
        }
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.observations, 24);
        assert_eq!(stats.sealed_panes, far_pane + 3);
        assert_eq!(stats.shed_observations, 0);
        assert_eq!(stats.overflow_shed, 0);
        assert_eq!(stats.log_errors_fatal, 0);
        assert_eq!(live.fingerprint_chain(), reference.fingerprint_chain());
        assert_eq!(live.totals(), reference.totals());
        drop(live);
        // Every pass appended its panes with their deltas: the log verifies
        // pane by pane and rebuilds the live tracker state.
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, reference.fingerprint_chain());
        assert_eq!(replay.panes, far_pane + 3);
        assert_eq!(replay.distinct_tags, 2 + 12, "walkers and one-shots");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staleness_timeout_force_seals_and_counts_missing_poles() {
        let staleness = Duration::from_millis(25);
        let mut config = tiny_config();
        config.max_pane_staleness = Some(staleness);
        let manual = Arc::new(crate::ManualClock::new());
        let clock = Clock::Manual(Arc::clone(&manual));
        let live = LiveCity::with_clock(directory(2), config, clock);
        // Pole 0 reports through t = 3.5 s; pole 1 is dead, so the
        // event-time watermark is stuck at 0 forever.
        for t in [0u64, 1_000_000, 2_000_000, 3_500_000] {
            live.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
        }
        assert_eq!(live.watermark_us(), 0);
        assert_eq!(live.seal_step(), SealStep::default(), "no time has passed");
        manual.advance(staleness - Duration::from_micros(1));
        assert_eq!(live.seal_step(), SealStep::default(), "the bound holds");
        assert_eq!(live.sealed_panes(), 0);
        // The staleness path fires once the engine's clock has run the
        // bound out, and seals every pane the live pole has fully elapsed
        // (panes 0-2; t = 3.5 s stays open).
        manual.advance(Duration::from_micros(1));
        let forced = SealStep {
            panes: 3,
            forced: true,
        };
        assert_eq!(live.seal_step(), forced);
        // The bound counts again from that seal.
        assert_eq!(live.seal_step(), SealStep::default());
        let stats = live.stats();
        assert_eq!(stats.sealed_panes, 3, "stale panes must force-seal");
        assert_eq!(stats.forced_panes, 3);
        assert_eq!(
            stats.forced_pole_misses, 3,
            "the dead pole missed every forced pane"
        );
        assert_eq!(stats.observations, 3);
        assert_eq!(
            live.watermark_us(),
            0,
            "forcing seals never fakes event time"
        );
        // The dead pole reviving below the forced floor is shed, counted —
        // and never merged into the already-published panes.
        let outcome = live.ingest(&report(1, 0, 500_000, vec![obs(9, 1, 0, 500_000)]));
        assert_eq!(outcome, IngestOutcome::ShedLate);
        let stats = live.stats();
        assert_eq!(stats.shed_reports, 1);
        assert_eq!(stats.shed_observations, 1);
    }

    #[test]
    fn a_stepped_engine_seals_only_in_its_steps() {
        let live = LiveCity::with_clock(directory(2), tiny_config(), Clock::Real);
        assert!(
            live.is_stepped() && live.sealer.is_none(),
            "no sealer thread"
        );
        live.ingest(&report(0, 0, 0, vec![obs(1, 0, 0, 0)]));
        live.ingest(&report(1, 0, 2_500_000, vec![obs(2, 1, 0, 2_500_000)]));
        live.ingest(&report(0, 0, 2_500_000, vec![obs(1, 0, 0, 2_500_000)]));
        assert_eq!(live.watermark_us(), 2_000_000, "panes 0 and 1 released");
        let stats = live.stats();
        assert_eq!(
            (stats.sealed_panes, stats.seal_floor_us),
            (0, 0),
            "ingest seals nothing"
        );
        // Between the release and its step, a report of pole 1 stamped in
        // released pane 1 (out of its FIFO order, above the seal floor) is
        // still applied, and the step seals it into that pane.
        let between = report(1, 0, 1_200_000, vec![obs(3, 1, 0, 1_200_000)]);
        assert_eq!(live.ingest(&between), IngestOutcome::Applied);
        let released = SealStep {
            panes: 2,
            forced: false,
        };
        assert_eq!(live.seal_step(), released);
        assert_eq!(
            live.seal_step(),
            SealStep::default(),
            "nothing more released"
        );
        let stats = live.stats();
        assert_eq!((stats.sealed_panes, stats.observations), (2, 2));
        // Once sealed, the same stamp is late.
        assert_eq!(live.ingest(&between), IngestOutcome::ShedLate);
        // A wait runs a step on its caller's thread: `finish` flushes.
        live.finish();
        assert_eq!(live.sealed_panes(), 3);
        assert_eq!(live.stats().observations, 4);
    }

    #[test]
    fn pane_ends_past_the_top_of_u64_saturate() {
        let config = LiveConfig {
            pane_us: 1 << 62,
            ..tiny_config()
        };
        let live = LiveCity::with_clock(directory(1), config, Clock::Real);
        // Pane 3 runs from 3 * 2^62 µs to past u64::MAX.
        let t = u64::MAX - 1;
        live.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
        assert_eq!(live.seal_step().panes, 3);
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.sealed_panes, 4);
        assert_eq!(stats.seal_floor_us, u64::MAX);
        assert_eq!(stats.observations, 1);
        let old = report(0, 0, 5, vec![obs(2, 0, 0, 5)]);
        assert_eq!(live.ingest(&old), IngestOutcome::ShedLate);
        // The top stamp lies in the sealed top pane, though no µs floor can
        // exceed it: admission goes by pane.
        let top = report(0, 0, u64::MAX, vec![obs(3, 0, 0, u64::MAX)]);
        assert_eq!(live.ingest(&top), IngestOutcome::ShedLate);
        live.finish();
        let stats = live.stats();
        assert_eq!(
            (stats.shed_reports, stats.shed_observations),
            (2, 2),
            "both late reports counted as shed"
        );
        assert_eq!(stats.buffered_observations, 0);
        assert_eq!((stats.sealed_panes, stats.observations), (4, 1));
    }

    #[test]
    fn segment_rows_do_not_depend_on_the_order_poles_report_in() {
        // 48 poles on twelve segments, two reports per pole per pane with
        // distinct counts. A stripe hears three segments (poles p, p + 16,
        // p + 32), and a bucket's segment rows are found by binary search
        // and inserted in place — so descending and shuffled pole orders
        // (rows inserted at the front and in the middle) must leave every
        // pane's stats equal to the pole-order run (rows appended).
        let run = |order: &[u32]| {
            let live = LiveCity::new(directory(48), tiny_config());
            for half in 0..8u64 {
                let t = half * 500_000;
                for &pole in order {
                    let seg = (pole / 4) as u16;
                    let mut r = report(pole, seg, t, vec![obs(100 + pole as u64, pole, seg, t)]);
                    r.count = pole + half as u32;
                    live.ingest(&r);
                }
            }
            live.finish();
            live.with_windows(|windows| {
                let panes = windows.panes().iter();
                panes.map(|p| p.agg.segments.clone()).collect::<Vec<_>>()
            })
        };
        let ascending: Vec<u32> = (0..48).collect();
        let reference = run(&ascending);
        assert_eq!(reference.len(), 4);
        assert_eq!(reference[3].len(), 12, "every segment reported");
        assert_eq!(reference[3][&11].reports, 8);
        assert_eq!(
            reference[3][&11].sum_count,
            2 * (44 + 45 + 46 + 47) + 4 * (6 + 7)
        );
        assert_eq!(reference[3][&11].peak_count, 47 + 7);
        let descending: Vec<u32> = (0..48).rev().collect();
        assert_eq!(run(&descending), reference);
        // 29 is coprime to 48: a fixed shuffle visiting every pole once.
        let shuffled: Vec<u32> = (0..48).map(|i| (i * 29 + 7) % 48).collect();
        assert_eq!(run(&shuffled), reference);
    }

    /// SplitMix64: a seeded stream for the bucket-pass batches below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One stripe's bucket for `pane`: reports of 1–8 observations sharing
    /// `(timestamp, pole)`, drawn so that `(timestamp, pole)` and
    /// `(timestamp, pole, tag)` tie within a shard, pole ids reach past 2^16,
    /// 2^24 and up to `u32::MAX`, and (at `pane_us = 2^40`) time offsets
    /// past 2^32 mix with small ones.
    fn seeded_bucket(
        rng: &mut u64,
        pane: u64,
        pane_us: u64,
        n_shards: usize,
        rows: usize,
    ) -> PaneBucket {
        let site = PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        };
        let mut bucket = PaneBucket {
            pane,
            ..Default::default()
        };
        while bucket.keys.len() < rows {
            let pole = match splitmix(rng) % 5 {
                0 => (splitmix(rng) % 8) as u32,
                1 => (1 << 16) + (splitmix(rng) % 300) as u32,
                2 => (1 << 24) + (splitmix(rng) % 3) as u32,
                3 => u32::MAX - (splitmix(rng) % 2) as u32,
                _ => (splitmix(rng) % 40_000) as u32,
            };
            let offset = match splitmix(rng) % 4 {
                // 2^32 - 1 with pole u32::MAX packs to the same prefix as an
                // offset past 2^32.
                0 if pane_us > 1 << 32 && splitmix(rng).is_multiple_of(2) => (1 << 32) - 1,
                0 => 0,
                1 => splitmix(rng) % 3,
                2 if pane_us > 1 << 32 => (1 << 32) + splitmix(rng) % (pane_us - (1 << 32)),
                _ => splitmix(rng) % pane_us.min(1 << 32),
            };
            let t = pane * pane_us + offset;
            let len = (1 + splitmix(rng) % 8).min((rows - bucket.keys.len()) as u64);
            for seq in 0..len as u32 {
                let tag = splitmix(rng) % 6;
                let cfo_bin = (splitmix(rng) % 3) as u32;
                let key = SealKey {
                    timestamp_us: t,
                    tag,
                    pole,
                    cfo_bin,
                    shard: caraoke_city::store::shard_of_bin(cfo_bin, n_shards) as u32,
                    seq,
                };
                bucket.push(key, FoldRow::resolve(&obs(tag, pole, 0, t), &site));
            }
        }
        bucket
    }

    #[test]
    fn bucket_pass_orders_every_bucket_canonically() {
        let mut rng = 7u64;
        // One scratch across every batch, as on the sealer: buffers reused.
        let mut scratch = SealScratch::default();
        for batch in 0..96 {
            let pane_us = if batch % 2 == 0 { 1 << 40 } else { 1_000_000 };
            let first_pane = splitmix(&mut rng) % 4;
            let span = 1 + (splitmix(&mut rng) % 4) as usize;
            let n_shards = 1 + (splitmix(&mut rng) % 5) as usize;
            let stripes = 1 + splitmix(&mut rng) % 4;
            // Drain order: stripe by stripe, each stripe's panes ascending.
            let mut drained_keys = Vec::new();
            for _ in 0..stripes {
                for pane in first_pane..first_pane + span as u64 {
                    let rows = match splitmix(&mut rng) % 5 {
                        0 => continue,
                        1 => 1,
                        2 => 2 + (splitmix(&mut rng) % 6) as usize,
                        _ => (splitmix(&mut rng) % 700) as usize,
                    };
                    let bucket = seeded_bucket(&mut rng, pane, pane_us, n_shards, rows);
                    drained_keys.extend_from_slice(&bucket.keys);
                    scratch.drained.push(bucket);
                }
            }
            scratch.bucket_pass(first_pane, span, n_shards, pane_us);

            let mut seen = std::collections::HashSet::new();
            for b in 0..span * n_shards {
                let (pane, shard) = (first_pane + (b / n_shards) as u64, (b % n_shards) as u32);
                let mut reference: Vec<SealKey> = drained_keys
                    .iter()
                    .filter(|k| k.timestamp_us / pane_us == pane && k.shard == shard)
                    .copied()
                    .collect();
                reference.sort_unstable_by_key(SealKey::bucket_key);
                let range = scratch.offsets[b] as usize..scratch.offsets[b + 1] as usize;
                let got: Vec<_> = scratch.order[range]
                    .iter()
                    .map(|&slot| {
                        assert!(seen.insert(slot.at), "row {:#x} placed twice", slot.at);
                        let (key, row) = (slot.key(&scratch.drained), slot.row(&scratch.drained));
                        // The fold reads the row pushed with the key.
                        assert_eq!(
                            (row.timestamp_us, row.pole.0, row.tag.0),
                            (key.timestamp_us, key.pole, key.tag)
                        );
                        key.bucket_key()
                    })
                    .collect();
                let want: Vec<_> = reference.iter().map(SealKey::bucket_key).collect();
                assert_eq!(got, want, "batch {batch}, pane {pane}, shard {shard}");
            }
            assert_eq!(seen.len(), drained_keys.len(), "batch {batch}");
            scratch.drained.clear();
        }
    }

    #[test]
    fn a_buffered_observation_is_a_32_byte_key_and_a_56_byte_row() {
        assert_eq!(std::mem::size_of::<SealKey>(), 32);
        assert!(std::mem::size_of::<FoldRow>() <= 56);
    }

    /// Fresh scratch directory for log tests (unit tests have no
    /// `CARGO_TARGET_TMPDIR`).
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("caraoke-live-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn with_log_writes_a_replayable_chain_equal_log() {
        let dir = scratch_dir("with-log");
        let live = LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default())
            .expect("create logged engine");
        for epoch in 0..5u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t), obs(9, 1, 0, t)]));
        }
        live.finish();
        let chain = live.fingerprint_chain();
        let totals = live.totals();
        assert_eq!(live.stats().log_errors_fatal, 0);
        drop(live);
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, chain, "replay chain == live chain");
        assert_eq!(replay.totals, totals, "replay totals byte-identical");
        assert_eq!(replay.panes, 5);
        // A second engine on the same directory must refuse, not clobber.
        assert!(
            LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default()).is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_stage_clocks_read_the_engine_clock_and_only_stages_that_ran() {
        let deliver = |live: &LiveCity| {
            for epoch in 0..5u64 {
                let t = epoch * 1_000_000;
                live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t), obs(8, 0, 0, t)]));
                live.ingest(&report(1, 0, t, vec![obs(7, 1, 0, t + 1)]));
            }
            live.finish();
            let stats = live.stats();
            assert_eq!(stats.sealed_panes, 5);
            stats.seal_ns
        };
        // Time that never moves: every stage reads exactly 0.
        let manual = Clock::Manual(Arc::new(crate::ManualClock::new()));
        let live = LiveCity::with_clock(directory(2), tiny_config(), manual);
        assert_eq!(deliver(&live), SealStageNs::default());
        drop(live);

        // Real time without a log: the log's stages never ran.
        let ns = deliver(&LiveCity::new(directory(2), tiny_config()));
        assert_eq!((ns.delta, ns.log_append, ns.commit), (0, 0, 0));
        assert!(ns.drain + ns.bucket + ns.fold + ns.publish > 0, "{ns:?}");

        // With one, they did.
        let dir = scratch_dir("stage-clocks");
        let live = LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default())
            .expect("create logged engine");
        let ns = deliver(&live);
        assert!(ns.log_append > 0 && ns.commit > 0, "{ns:?}");
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resumes_byte_identical_to_an_uninterrupted_run() {
        let deliver = |live: &LiveCity, from_us: u64| {
            for epoch in 0..6u64 {
                let t = epoch * 1_000_000;
                if t < from_us {
                    continue;
                }
                live.ingest(&report(0, 0, t, vec![obs(40 + epoch, 0, 0, t)]));
                live.ingest(&report(1, 0, t, vec![obs(41, 1, 0, t)]));
            }
        };
        // Reference: one uninterrupted logged run.
        let ref_dir = scratch_dir("recover-ref");
        let reference =
            LiveCity::with_log(directory(2), tiny_config(), &ref_dir, LogOptions::default())
                .expect("reference engine");
        deliver(&reference, 0);
        reference.finish();
        let ref_chain = reference.fingerprint_chain();
        let ref_totals = reference.totals();
        drop(reference);

        // Crashed run: same stream, killed mid-flight (drop without
        // finish), then recovered and re-fed from the seal floor.
        let dir = scratch_dir("recover-crash");
        let crashed = LiveCity::with_log(directory(2), tiny_config(), &dir, LogOptions::default())
            .expect("crashed engine");
        deliver(&crashed, 0);
        drop(crashed); // "crash": sealer drains its outstanding target and stops.
        let recovered = LiveCity::recover(&dir, directory(2), tiny_config(), LogOptions::default())
            .expect("recover from pane log");
        let floor_us = recovered.stats().seal_floor_us;
        assert!(floor_us > 0, "the crashed run sealed at least one pane");
        // Exactly-once resume: everything at or above the floor again.
        deliver(&recovered, floor_us);
        recovered.finish();
        assert_eq!(recovered.fingerprint_chain(), ref_chain);
        assert_eq!(recovered.totals(), ref_totals);
        assert_eq!(recovered.stats().log_errors_fatal, 0);
        drop(recovered);
        // Recovering the now *complete* log and flushing without re-feeding
        // seals nothing: `finish` must not take the recovered clock's
        // parked frontier for a heard timestamp and append an empty pane.
        let idle = LiveCity::recover(&dir, directory(2), tiny_config(), LogOptions::default())
            .expect("recover the finished log");
        idle.finish();
        assert_eq!(idle.sealed_panes(), 6);
        assert_eq!(idle.fingerprint_chain(), ref_chain);
        drop(idle);
        // The stitched log replays to the same chain, too.
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, ref_chain);
        assert_eq!(replay.next_pane, 6);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn a_recovered_engine_answers_its_first_window_query_like_the_uninterrupted_one() {
        use crate::{LiveAnswer, LiveQuery, WindowSpec};
        // Tag 5 circles poles 0 -> 1 -> 2, tag 6 shuttles 0 <-> 1, one hop
        // per one-second pane; delivering epoch e seals panes below e.
        let deliver = |live: &LiveCity, epoch: u64| {
            let t = epoch * 1_000_000;
            for pole in 0..3u32 {
                let mut observations = Vec::new();
                if epoch % 3 == pole as u64 {
                    observations.push(obs(5, pole, 0, t));
                }
                if epoch % 2 == pole as u64 {
                    observations.push(obs(6, pole, 0, t));
                }
                live.ingest(&report(pole, 0, t, observations));
            }
            live.wait_idle();
        };
        let top = LiveQuery::TopOd {
            n: 4,
            window: WindowSpec::tumbling(3_000_000),
        };
        // Uninterrupted and asked after every epoch: a running window moved
        // by one-pane deltas.
        let reference = LiveCity::new(directory(3), tiny_config());
        let asked: Vec<(u64, LiveAnswer)> = (0..10)
            .map(|epoch| {
                deliver(&reference, epoch);
                (reference.sealed_panes(), reference.query(&top))
            })
            .collect();
        assert!(matches!(&asked[9].1, LiveAnswer::TopOd { pairs } if pairs.len() >= 3));

        // Killed after six epochs, never asked anything.
        let dir = scratch_dir("recover-query");
        let crashed = LiveCity::with_log(directory(3), tiny_config(), &dir, LogOptions::default())
            .expect("crashed engine");
        (0..6).for_each(|epoch| deliver(&crashed, epoch));
        drop(crashed);
        let recovered = LiveCity::recover(&dir, directory(3), tiny_config(), LogOptions::default())
            .expect("recover from pane log");
        // The first question is a cold rebuild over the recovered ring...
        let horizon = recovered.sealed_panes();
        assert_eq!(horizon, 5);
        assert_eq!((horizon, recovered.query(&top)), asked[5]);
        // ...and the run resumed from the seal floor (pane 5 was still open)
        // keeps answering like the uninterrupted one.
        for epoch in 5..10 {
            deliver(&recovered, epoch);
            assert_eq!(
                (recovered.sealed_panes(), recovered.query(&top)),
                asked[epoch as usize],
                "after epoch {epoch}"
            );
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_tag_compaction_bounds_tracker_state_and_replays_equal() {
        let dir = scratch_dir("compact");
        let mut config = tiny_config();
        config.compact_idle_us = Some(2_000_000);
        let live = LiveCity::with_log(directory(2), config, &dir, LogOptions::default())
            .expect("logged engine");
        // 20 one-shot tags at t=0 age out at the sweep after pane 63; two
        // walkers stay resident.
        live.ingest(&report(
            0,
            0,
            0,
            (0..20).map(|i| obs(100 + i, 0, 0, 0)).collect(),
        ));
        for epoch in 0..COMPACT_EVERY_PANES + 2 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(7, 0, 0, t)]));
            live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
        }
        live.finish();
        assert_eq!(
            live.stats().compacted_tags,
            20,
            "every one-shot tag evicted, both walkers kept"
        );
        let chain = live.fingerprint_chain();
        let totals = live.totals();
        drop(live);
        // The compacted log still verifies and replays byte-identical…
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.chain, chain);
        assert_eq!(replay.totals, totals);
        // …and a delta-by-delta rebuild lands on the *compacted* tracker
        // state: evictions rode the pane deltas as removals.
        let state =
            recover_state(&dir, config.store.shards, config.retain_panes).expect("recover state");
        let tracked: usize = state.trackers.iter().map(TagTracker::distinct_tags).sum();
        assert_eq!(tracked, 2, "replayed state is the compacted state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_with_compaction_matches_uninterrupted_run() {
        let mut config = tiny_config();
        config.compact_idle_us = Some(1_500_000);
        // The last pane is the one a sweep follows, so the recovered engine
        // (which re-seals only the tail) is the one that runs it.
        let deliver = |live: &LiveCity, from_us: u64| {
            for epoch in 0..COMPACT_EVERY_PANES {
                let t = epoch * 1_000_000;
                if t < from_us {
                    continue;
                }
                // A fresh one-shot tag per epoch keeps the sweeps busy; the
                // walkers stay resident across every cutoff.
                live.ingest(&report(
                    0,
                    0,
                    t,
                    vec![obs(7, 0, 0, t), obs(200 + epoch, 0, 0, t)],
                ));
                live.ingest(&report(1, 0, t, vec![obs(8, 1, 0, t)]));
            }
        };
        let ref_dir = scratch_dir("compact-ref");
        let reference = LiveCity::with_log(directory(2), config, &ref_dir, LogOptions::default())
            .expect("reference engine");
        deliver(&reference, 0);
        reference.finish();
        let ref_chain = reference.fingerprint_chain();
        let ref_totals = reference.totals();
        assert!(
            reference.stats().compacted_tags > 0,
            "compaction actually ran"
        );
        drop(reference);

        // Crash mid-run, recover, re-feed from the seal floor: compaction
        // cutoffs are pane-deterministic, so the stitched run converges to
        // the uninterrupted chain.
        let dir = scratch_dir("compact-crash");
        let crashed = LiveCity::with_log(directory(2), config, &dir, LogOptions::default())
            .expect("crashed engine");
        deliver(&crashed, 0);
        drop(crashed);
        let recovered = LiveCity::recover(&dir, directory(2), config, LogOptions::default())
            .expect("recover from pane log");
        let floor_us = recovered.stats().seal_floor_us;
        assert!(floor_us > 0, "the crashed run sealed at least one pane");
        deliver(&recovered, floor_us);
        recovered.finish();
        assert_eq!(recovered.fingerprint_chain(), ref_chain);
        assert_eq!(recovered.totals(), ref_totals);
        assert!(
            recovered.stats().compacted_tags > 0,
            "the sweep ran on the recovered engine"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn declaring_a_pole_dead_resumes_sealing_and_is_logged() {
        let dir = scratch_dir("dead-pole");
        let live = LiveCity::with_log(directory(3), tiny_config(), &dir, LogOptions::default())
            .expect("logged engine");
        // Poles 0 and 1 run to t = 4 s; pole 2 stalls at t = 0.
        live.ingest(&report(2, 0, 0, vec![obs(3, 2, 0, 0)]));
        for pole in 0..2u32 {
            for epoch in 0..5u64 {
                let t = epoch * 1_000_000;
                live.ingest(&report(pole, 0, t, vec![obs(pole as u64, pole, 0, t)]));
            }
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 0, "stalled pole blocks the watermark");
        assert!(live.declare_pole_dead(PoleId(2)));
        assert!(!live.declare_pole_dead(PoleId(2)), "already dead");
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 4, "quorum shrinks; sealing resumes");
        let stats = live.stats();
        assert_eq!(stats.dead_poles, 1);
        assert_eq!(stats.forced_panes, 0, "event-time seals, not forced");
        live.finish();
        let chain = live.fingerprint_chain();
        assert_eq!(
            live.totals().observations,
            11,
            "the dead pole's pre-stall observation still sealed"
        );
        drop(live);
        let replay = caraoke_log::LogCity::open(&dir)
            .replay()
            .expect("verified replay");
        assert_eq!(replay.dead_poles, vec![2], "declaration is in the log");
        assert_eq!(replay.chain, chain);
        // Recovery keeps the pole dead: the two live poles alone advance
        // event time.
        let recovered = LiveCity::recover(&dir, directory(3), tiny_config(), LogOptions::default())
            .expect("recover");
        assert_eq!(recovered.stats().dead_poles, 1);
        let floor_us = recovered.stats().seal_floor_us;
        for pole in 0..2u32 {
            let t = floor_us + 1_000_000;
            recovered.ingest(&report(pole, 0, t, vec![obs(pole as u64, pole, 0, t)]));
        }
        recovered.wait_idle();
        assert!(
            recovered.sealed_panes() > floor_us / 1_000_000,
            "watermark advances without the dead pole"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiting_for_sealed_panes_never_needs_the_sealer_state_lock() {
        let live = LiveCity::new(directory(1), tiny_config());
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
        }
        live.wait_idle();
        // The sealer state is held, as by a pass: waits on horizons the
        // ring has already reached return anyway.
        let held = live.core.sealer_state();
        let (done_tx, done) = mpsc::channel();
        std::thread::scope(|scope| {
            let live = &live;
            scope.spawn(move || {
                live.wait_seal_floor(2_000_000);
                let _ = done_tx.send(live.wait_sealed(
                    1,
                    Duration::from_secs(30),
                    &AtomicBool::new(false),
                ));
            });
            let horizon = done.recv_timeout(Duration::from_secs(20));
            drop(held);
            assert_eq!(horizon, Ok(2), "returned while the lock was held");
        });
    }

    #[test]
    fn a_wake_stops_only_the_wait_whose_flag_is_set() {
        let live = LiveCity::new(directory(1), tiny_config());
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            live.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
        }
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 2);
        let mut cursor = crate::LiveSubscription::new();
        assert_eq!(cursor.poll(&live).0.len(), 2);
        let stop = AtomicBool::new(false);
        let (stopped_tx, stopped) = mpsc::channel();
        let (next_tx, next) = mpsc::channel();
        let (floor_tx, floor) = mpsc::channel();
        std::thread::scope(|scope| {
            let (live, stop) = (&live, &stop);
            // Pane 2 is not released: each of these blocks.
            scope.spawn(move || {
                let _ = stopped_tx.send(live.wait_sealed(2, Duration::MAX, stop));
            });
            scope.spawn(move || {
                let _ = next_tx.send(cursor.wait_next(live, Duration::MAX).0.len());
            });
            scope.spawn(move || {
                live.wait_seal_floor(3_000_000);
                let _ = floor_tx.send(());
            });
            // Most likely parked by now; one that is not tests `stop`
            // before it sleeps, so the outcome is the same.
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Relaxed);
            live.wake_sealed_waiters();
            let horizon = stopped.recv_timeout(Duration::from_secs(20));
            assert_eq!(horizon, Ok(2), "the stopped wait returns the horizon");
            // The same wake reached the other two; they sleep on.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(next.try_recv(), Err(mpsc::TryRecvError::Empty));
            assert_eq!(floor.try_recv(), Err(mpsc::TryRecvError::Empty));
            live.ingest(&report(0, 0, 3_000_000, vec![obs(1, 0, 0, 3_000_000)]));
            assert_eq!(next.recv_timeout(Duration::from_secs(20)), Ok(1));
            assert_eq!(floor.recv_timeout(Duration::from_secs(20)), Ok(()));
        });
    }

    #[test]
    #[should_panic(expected = "light cycles must have nonzero length")]
    fn a_zero_light_cycle_is_refused_on_the_callers_thread() {
        // Flow buckets divide by it on the sealer thread, whose death would
        // leave every waiter parked.
        let mut config = tiny_config();
        config.store.light_cycle_us = 0;
        let _ = LiveCity::new(directory(2), config);
    }

    #[test]
    fn a_worker_buffer_outlives_interleaved_engines() {
        // One thread alternates ingesting into two engines: each engine
        // must keep its own ingest buffers (no cross-talk), and both runs
        // must still produce their full totals.
        let a = LiveCity::new(directory(1), tiny_config());
        let b = LiveCity::new(directory(1), tiny_config());
        for epoch in 0..3u64 {
            let t = epoch * 1_000_000;
            a.ingest(&report(0, 0, t, vec![obs(1, 0, 0, t)]));
            b.ingest(&report(0, 0, t, vec![obs(2, 0, 0, t), obs(3, 0, 0, t)]));
        }
        a.finish();
        b.finish();
        assert_eq!(a.totals().observations, 3);
        assert_eq!(b.totals().observations, 6);
    }
}
