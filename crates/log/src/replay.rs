//! Batch-as-replay and crash recovery: the two consumers that turn a log
//! back into engine state.
//!
//! [`LogCity`] is the batch driver face of the log — it replays every pane
//! into cumulative [`CityAggregates`], which the tests assert
//! fingerprint-equal to both the live engine that wrote the log and a
//! direct batch run over the same observations (one code path, two
//! speeds). [`recover_state`] is the engine face — it rebuilds everything
//! `caraoke-live` needs to resume sealing at the first unsealed pane.

use crate::codec::LogRecord;
use crate::reader::{LogError, LogReader};
use caraoke_city::aggregate::RunTotals;
use caraoke_city::store::{TagTracker, TrackerDelta};
use caraoke_city::{AliasStats, CityAggregates};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// The result of a full verified replay.
#[derive(Debug)]
pub struct LogReplay {
    /// Cumulative aggregates over every pane in the log (anchored at the
    /// last snapshot when the log has been truncated).
    pub totals: CityAggregates,
    /// Chain state after the last pane — byte-comparable to the writing
    /// engine's own chain.
    pub chain: u64,
    /// Pane records replayed (after the anchor snapshot, if any).
    pub panes: u64,
    /// First pane id replayed (0 for an untruncated log).
    pub first_pane: u64,
    /// First pane the log does *not* cover — where a resumed engine or
    /// dashboard picks up.
    pub next_pane: u64,
    /// Cumulative forced (staleness) seals.
    pub forced_panes: u64,
    /// Cumulative pole misses across forced seals.
    pub forced_pole_misses: u64,
    /// Poles declared dead over the log's lifetime, in declaration order.
    pub dead_poles: Vec<u32>,
    /// Bytes of torn tail truncated off the final segment while reading.
    pub torn_tail_bytes: u64,
    /// Merged alias-resolution counters across shards.
    pub alias: AliasStats,
    /// Distinct tags tracked at end of log.
    pub distinct_tags: usize,
}

/// Replays a pane log as a batch source of [`CityAggregates`].
#[derive(Debug, Clone)]
pub struct LogCity {
    dir: PathBuf,
}

impl LogCity {
    /// Points the driver at a log directory (validated on replay).
    pub fn open(dir: impl AsRef<Path>) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// Runs a full verified replay: every record re-CRC'd, every pane
    /// fingerprint recomputed, the whole chain re-derived. Errors are the
    /// typed [`LogError`]s, so callers can distinguish corruption kinds.
    pub fn replay(&self) -> Result<LogReplay, LogError> {
        let reader = LogReader::open(&self.dir)?;
        let mut cursor = reader.records();
        let mut fold = RecordFold::default();
        let mut panes = 0u64;
        let mut first_pane = None;
        for record in cursor.by_ref() {
            if let Some((pane, _)) = fold.apply(record?) {
                first_pane.get_or_insert(pane);
                panes += 1;
            }
        }
        let mut alias = AliasStats::default();
        for tracker in &fold.trackers {
            alias.merge(&tracker.alias_stats());
        }
        Ok(LogReplay {
            totals: fold.totals.totals(),
            chain: cursor.chain_state(),
            panes,
            first_pane: first_pane.unwrap_or(fold.next_pane),
            next_pane: fold.next_pane,
            forced_panes: fold.forced_panes,
            forced_pole_misses: fold.forced_pole_misses,
            dead_poles: fold.dead_poles,
            torn_tail_bytes: cursor.torn_tail_bytes(),
            alias,
            distinct_tags: fold.trackers.iter().map(TagTracker::distinct_tags).sum(),
        })
    }
}

/// The one fold of log records into engine state — whole-run totals (a
/// [`RunTotals`], kept as the engine keeps its own), per-shard trackers,
/// seal horizon, forced-seal counters, dead poles — shared by
/// [`LogCity::replay`] and [`recover_state`], which differ only in what
/// they check before a record goes in and what they derive afterwards.
#[derive(Default)]
struct RecordFold {
    totals: RunTotals,
    trackers: Vec<TagTracker>,
    next_pane: u64,
    forced_panes: u64,
    forced_pole_misses: u64,
    dead_poles: Vec<u32>,
}

impl RecordFold {
    /// Applies one verified record. A pane record hands its id and
    /// aggregate back, for callers that count or retain panes.
    fn apply(&mut self, record: LogRecord) -> Option<(u64, CityAggregates)> {
        match record {
            LogRecord::Snapshot(snap) => {
                self.totals = RunTotals::from(snap.total);
                self.next_pane = snap.next_pane;
                self.forced_panes = snap.forced_panes;
                self.forced_pole_misses = snap.forced_pole_misses;
                self.dead_poles = snap.dead_poles;
                self.trackers.clear();
                self.apply_deltas(&snap.trackers);
                None
            }
            LogRecord::Pane(p) => {
                self.totals.add_pane(&p.aggregates);
                self.next_pane = p.pane + 1;
                if p.forced {
                    self.forced_panes += 1;
                    self.forced_pole_misses += u64::from(p.pole_misses);
                }
                self.apply_deltas(&p.deltas);
                Some((p.pane, p.aggregates))
            }
            LogRecord::DeadPole(pole) => {
                self.dead_poles.push(pole);
                None
            }
        }
    }

    /// Applies one delta per shard, growing the tracker set to the shard
    /// count the record carries.
    fn apply_deltas(&mut self, deltas: &[TrackerDelta]) {
        if self.trackers.len() < deltas.len() {
            self.trackers.resize_with(deltas.len(), TagTracker::new);
        }
        for (tracker, delta) in self.trackers.iter_mut().zip(deltas) {
            tracker.apply_delta(delta);
        }
    }
}

/// Everything a restarted live engine needs to resume where the log ends.
#[derive(Debug)]
pub struct RecoveredState {
    /// First unsealed pane — where ingest resumes.
    pub next_pane: u64,
    /// Fingerprint chain state to resume from.
    pub chain_state: u64,
    /// Cumulative aggregates over all sealed panes.
    pub total: CityAggregates,
    /// The trailing sealed panes (up to the ring's retention), oldest
    /// first, for rebuilding the query window ring.
    pub ring: Vec<(u64, CityAggregates)>,
    /// Reconstructed per-shard tracker state, tracing already enabled.
    pub trackers: Vec<TagTracker>,
    /// Poles declared dead before the crash (they stay dead on resume).
    pub dead_poles: Vec<u32>,
    /// Cumulative forced-seal count to preload into stats.
    pub forced_panes: u64,
    /// Cumulative forced pole misses to preload into stats.
    pub forced_pole_misses: u64,
    /// Torn bytes detected (and to be truncated) at the tail.
    pub torn_tail_bytes: u64,
}

/// Replays a log into resumable engine state. `shards` must match the
/// writing engine's shard count (the log records it per pane);
/// `retain_panes` bounds the rebuilt window ring.
pub fn recover_state(
    dir: impl AsRef<Path>,
    shards: usize,
    retain_panes: usize,
) -> Result<RecoveredState, LogError> {
    let reader = LogReader::open(dir.as_ref())?;
    let mut cursor = reader.records();
    let mut fold = RecordFold::default();
    let mut ring: VecDeque<(u64, CityAggregates)> = VecDeque::new();
    for record in cursor.by_ref() {
        let record = record?;
        let found = match &record {
            LogRecord::Snapshot(snap) => {
                // Panes before the snapshot are gone from the log, so the
                // ring restarts here; windows reaching further back are
                // answerable only from `total`.
                ring.clear();
                Some(snap.trackers.len())
            }
            LogRecord::Pane(p) => Some(p.deltas.len()),
            LogRecord::DeadPole(_) => None,
        };
        if let Some(found) = found.filter(|&n| n != shards) {
            return Err(LogError::ShardMismatch {
                expected: shards,
                found,
            });
        }
        if let Some(pane) = fold.apply(record) {
            if ring.len() == retain_panes.max(1) {
                ring.pop_front();
            }
            ring.push_back(pane);
        }
    }
    // An empty log folds no record, so no record sized the tracker set.
    fold.trackers.resize_with(shards, TagTracker::new);
    for tracker in &mut fold.trackers {
        tracker.set_trace(true);
    }
    Ok(RecoveredState {
        next_pane: fold.next_pane,
        chain_state: cursor.chain_state(),
        total: fold.totals.totals(),
        ring: ring.into(),
        trackers: fold.trackers,
        dead_poles: fold.dead_poles,
        forced_panes: fold.forced_panes,
        forced_pole_misses: fold.forced_pole_misses,
        torn_tail_bytes: cursor.torn_tail_bytes(),
    })
}
