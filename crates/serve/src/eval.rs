//! Query evaluation over the **durable pane log**: the lagging-cursor
//! fallback path.
//!
//! Near the head, subscribers are served from the hub's in-memory snapshot
//! cache (see [`crate::hub`]). A subscriber that falls behind retention —
//! or one that subscribes `from_start` — cannot be served from memory: the
//! panes it wants have been evicted. [`LogFollower`] rebuilds exactly the
//! state a live engine publishes at any pane horizon by replaying the
//! verified pane log into a [`CityWindows`] — the type the engine's ring
//! is — record by record, through the same CRC/fingerprint-verified
//! cursor `caraoke-log` recovery uses.
//!
//! Answers come from [`CityWindows::answer`] — the *same* evaluation code
//! path [`LiveCity::query`](caraoke_live::LiveCity::query) uses, over the
//! same state — so a caught-up answer reconstructed from the log is
//! byte-identical (once encoded) to the answer the live engine served at
//! that pane.
//!
//! Two semantic caveats, by construction of the catch-up position:
//!
//! * the follower's watermark stands at the replayed pane horizon
//!   (`next_pane * pane_us`), not at the live engine's current watermark —
//!   [`LiveQuery::Flow`] and [`LiveQuery::Watermark`] answers are therefore
//!   *as of the replayed pane*, which is precisely what a catching-up
//!   cursor should see;
//! * a log whose head was truncated into a snapshot record rebuilds flow
//!   from the snapshot's totals, and the ring only covers panes recorded
//!   after it.

use caraoke_live::{CityWindows, LiveAnswer, LiveQuery};
use caraoke_log::{LogError, LogReader, LogRecord, RecordCursor};
use std::path::Path;

/// A forward-only cursor over the pane log that maintains the windowed
/// state needed to answer [`LiveQuery`]s at any replayed pane horizon.
#[derive(Debug)]
pub struct LogFollower {
    cursor: RecordCursor,
    /// The replayed ring, horizon and flow included. A cursor stepped pane
    /// by pane asks the same `TopOd` at every pane, each a one-pane delta
    /// of its running window.
    windows: CityWindows,
    pane_us: u64,
    cycle_us: u64,
    ended: bool,
}

impl LogFollower {
    /// Opens the log at `dir` with a window retention of `retain_panes`
    /// (mirror the live engine's retention for answer parity). `pane_us`
    /// and `cycle_us` must match the configuration the log was written
    /// under — the log records panes, not config.
    pub fn open(
        dir: impl AsRef<Path>,
        retain_panes: usize,
        pane_us: u64,
        cycle_us: u64,
    ) -> Result<Self, LogError> {
        let reader = LogReader::open(dir)?;
        Ok(Self {
            cursor: reader.records(),
            windows: CityWindows::new(retain_panes),
            pane_us,
            cycle_us,
            ended: false,
        })
    }

    /// The pane horizon: the first pane the follower has **not** yet
    /// applied. Answers are evaluated as of this horizon.
    pub fn next_pane(&self) -> u64 {
        self.windows.next_pane()
    }

    /// Whether the log has been consumed to its (possibly torn) end.
    pub fn ended(&self) -> bool {
        self.ended
    }

    fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::Pane(p) => self.windows.push(p.pane, p.fingerprint, p.aggregates),
            // A truncated log leads with a cumulative snapshot: adopt its
            // flow and horizon; the ring fills from the pane records that
            // follow.
            LogRecord::Snapshot(s) => self.windows.adopt(s.next_pane, &s.total),
            LogRecord::DeadPole(_) => {}
        }
    }

    /// Replays until pane `pane` has been applied (horizon `> pane`).
    /// Returns `Ok(false)` when the log ends first — the caller has caught
    /// up with the durable tail and should fall back to waiting on the
    /// in-memory head.
    pub fn advance_past(&mut self, pane: u64) -> Result<bool, LogError> {
        while self.next_pane() <= pane {
            if self.ended {
                return Ok(false);
            }
            match self.cursor.next() {
                Some(Ok(record)) => self.apply(record),
                Some(Err(e)) => {
                    self.ended = true;
                    return Err(e);
                }
                None => {
                    self.ended = true;
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Replays every remaining record, leaving the follower at the durable
    /// head.
    pub fn advance_to_end(&mut self) -> Result<(), LogError> {
        self.advance_past(u64::MAX).map(|_| ())
    }

    /// Answers one query as of the current replayed horizon, through the
    /// same code path as the live engine.
    pub fn answer(&mut self, query: &LiveQuery) -> LiveAnswer {
        let watermark_us = self.next_pane() * self.pane_us;
        self.windows
            .answer(query, watermark_us, self.pane_us, self.cycle_us)
    }
}
