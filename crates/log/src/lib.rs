//! # caraoke-log
//!
//! The durability tier: an append-only segment log of the sealed panes
//! the live engine produces, positioned between `caraoke-city` (whose
//! aggregate types it encodes) and `caraoke-live` (whose sealer thread
//! writes it):
//!
//! ```text
//!               caraoke-city                 batch aggregates, trackers
//!                    |
//!               caraoke-log   ← this crate   durable sealed-pane log:
//!                    |                       CRC framing, fingerprint-
//!               caraoke-live                 verified replay, recovery
//! ```
//!
//! The design leans on two properties the stack already guarantees:
//!
//! * **Sealed panes are deterministic bytes.** The live engine's
//!   determinism contract (byte-identical sealed panes for any worker
//!   count or arrival interleaving) means a pane is a value, not an
//!   event — so logging panes, not raw reports, makes replay trivially
//!   exact.
//! * **The fingerprint chain is already an integrity chain.** Each pane
//!   record stores its aggregate fingerprint and the chain state after
//!   absorbing it; [`LogReader`] recomputes both on every read, so a
//!   clean cursor pass doubles as an end-to-end corruption check, on top
//!   of the per-record CRC that catches media-level damage.
//!
//! The moving parts:
//!
//! * [`codec`] — the deterministic record encoding (pane, snapshot,
//!   dead-pole) and the CRC32C the framing uses.
//! * [`segment`] — [`SegmentWriter`]: size-rotated segment files, a
//!   manifest, configurable [`FsyncPolicy`], snapshots that open fresh
//!   segments so truncation can drop everything before them, and
//!   torn-tail repair on reopen.
//! * [`reader`] — [`LogReader`] / [`RecordCursor`]: verified iteration
//!   from any pane with typed [`LogError`]s distinguishing CRC damage,
//!   chain breaks, pane gaps, and torn tails.
//! * [`replay`] — [`LogCity`] (batch-as-replay: a log replayed into
//!   [`CityAggregates`](caraoke_city::CityAggregates), fingerprint-equal
//!   to the writing engine and to a direct batch run) and
//!   [`recover_state`] (everything a restarted `caraoke-live` engine
//!   needs to resume at the first unsealed pane).
//!
//! The `logtool` binary wraps the read side for operators:
//! `logtool inspect|verify|tail <log-dir>`; `inspect` also prints where
//! the pane records' bytes go.
//!
//! # Where the log's cost goes
//!
//! The live engine's seal-pass stage clocks (`LiveStats::seal_ns` in
//! `caraoke-live`) split what logging adds to the sealer. On a
//! 1 000-pole closed-loop stream (the benchmark's `durable_cycle`, 250
//! panes, default [`LogOptions`]; 2 cores, medians of three runs) a
//! logged sealer spends ≈ 30 ns per observation taking the tracker
//! deltas, ≈ 98 ns appending the pane records and ≈ 0.1 ns in the
//! pass commit, and its fold costs what an unlogged one's does.
//!
//! About half of the append is segment rotation, but most of that is the
//! full segment's `fdatasync`, and it pays for the bytes written, not for
//! the rotation: with 256 MiB segments (no rotation in the run) the
//! append falls to ≈ 47 ns/obs while the commit, whose fsync policy now
//! syncs those bytes, rises to ≈ 29. So fewer bytes per observation cut
//! the sync; fewer rotations mostly move it. What rotation adds of its
//! own is the new segment's header and the manifest, each synced. Of the
//! rest of the append, timed earlier on an instrumented copy, the write
//! is about a quarter, the encoding a sixth and the CRC a tenth.

// `deny` rather than the workspace's usual `forbid`: the hardware-CRC32C
// kernel in `codec` needs one `#[allow(unsafe_code)]` module for the
// SSE4.2 / ARMv8 checksum intrinsics. All other code in this crate stays
// safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod reader;
pub mod replay;
pub mod segment;

pub use codec::{LogRecord, PaneRecord, SnapshotRecord};
pub use reader::{LogError, LogReader, RecordCursor};
pub use replay::{recover_state, LogCity, LogReplay, RecoveredState};
pub use segment::{FsyncPolicy, IoOp, LogOptions, SegmentWriter, WriteFault};
