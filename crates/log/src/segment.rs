//! The append side: size-rotated segment files, a manifest, fsync policy,
//! and torn-tail repair for reopening after a crash.
//!
//! A segment file is a 16-byte header (`b"CARAOKLG"`, format version u32,
//! reserved u32) followed by framed records: `[len u32][crc u32][payload]`,
//! all little-endian. A crash can leave a half-written record at the tail
//! of the last segment; the length prefix plus CRC make that detectable,
//! and [`SegmentWriter::open_for_append`] truncates it away before the
//! writer continues in a fresh segment.
//!
//! The frame checksum is hardware-accelerated CRC32C (see
//! [`codec::crc32c`]). The header's format version names it: readers
//! accept [`FORMAT_VERSION`] — the only version any writer has produced —
//! and refuse every other header as a typed bad-header error.

use crate::codec::{self, SnapshotRecord};
use caraoke_city::store::TrackerDelta;
use caraoke_city::CityAggregates;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CARAOKLG";
/// The on-disk format: frames checksummed with CRC32C (Castagnoli,
/// hardware-accelerated where the CPU allows).
pub const FORMAT_VERSION: u32 = 2;
/// Segment header length in bytes.
pub const HEADER_LEN: u64 = 16;
/// Frame header length in bytes: the payload's length and CRC.
const FRAME_HEADER_LEN: usize = 8;

/// The frame header of `payload`: its length, then its CRC32C.
fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&codec::crc32c(payload).to_le_bytes());
    header
}

/// Does `bytes` open with a segment header this build reads? `false` when
/// the header is short, the magic is wrong, or the version is not
/// [`FORMAT_VERSION`].
pub(crate) fn valid_header(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN as usize
        && &bytes[..8] == SEGMENT_MAGIC
        && bytes[8..12] == FORMAT_VERSION.to_le_bytes()
}

/// The manifest file name inside a log directory.
pub const MANIFEST: &str = "MANIFEST";
/// First line of the manifest.
pub const MANIFEST_HEADER: &str = "caraoke-log 1";

/// When the writer calls `fsync` on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every seal batch — strongest durability, slowest.
    EverySeal,
    /// After every N seal batches (and always after a snapshot).
    EveryN(u32),
    /// Never (the OS flushes on its own schedule) — crash loses the
    /// unflushed tail, which replay detects and truncates.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// Writer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogOptions {
    /// Fsync cadence (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a cumulative snapshot every this many sealed panes
    /// (`0` = never). Snapshots open a fresh segment, so truncation can
    /// drop everything before them.
    pub snapshot_every_panes: u64,
}

impl Default for LogOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::default(),
            segment_bytes: 8 * 1024 * 1024,
            snapshot_every_panes: 1024,
        }
    }
}

/// The writer I/O operation a [`WriteFault`] injector is consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Appending one framed record (pane, snapshot, or dead-pole payload).
    Append,
    /// Opening a fresh segment file (size rotation or snapshot rotation).
    Rotate,
    /// Flushing / fsyncing the active segment (seal commit, shutdown).
    Sync,
}

/// A fault-injection hook consulted *before* each writer I/O. Returning
/// `Some(err)` makes the writer fail with that error instead of touching
/// the disk, so an injected failure never leaves a torn record behind —
/// retrying the same append after a transient injected error is safe.
///
/// Injectors are deterministic by construction when their decisions depend
/// only on the `(op, pane)` call sequence, which is what the chaos layer's
/// seeded schedules rely on.
pub trait WriteFault: Send {
    /// Decide whether the writer's next `op` (headed for `pane`) fails.
    fn check(&mut self, op: IoOp, pane: u64) -> Option<io::Error>;
}

/// Appends framed records to size-rotated segments under one directory.
pub struct SegmentWriter {
    dir: PathBuf,
    opts: LogOptions,
    /// Manifest order: every live segment file name, oldest first.
    segments: Vec<String>,
    file: BufWriter<File>,
    current_bytes: u64,
    seals_since_sync: u32,
    /// Naming hint for the next rotation: the first pane it could contain.
    next_pane_hint: u64,
    /// Optional fault injector consulted before every record/rotate/sync.
    fault: Option<Box<dyn WriteFault>>,
    /// The pane frame being written, header and payload in one buffer:
    /// reused from pane to pane, so it grows only past the largest pane
    /// so far, and a frame is one write.
    frame: Vec<u8>,
}

impl std::fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .field("segments", &self.segments)
            .field("current_bytes", &self.current_bytes)
            .field("seals_since_sync", &self.seals_since_sync)
            .field("next_pane_hint", &self.next_pane_hint)
            .field("fault", &self.fault.as_ref().map(|_| "injected"))
            .finish()
    }
}

impl SegmentWriter {
    /// Creates a fresh log in `dir` (created if missing). Fails with
    /// [`io::ErrorKind::AlreadyExists`] if the directory already holds a
    /// manifest — reopening an existing log goes through
    /// [`open_for_append`](Self::open_for_append).
    pub fn create(dir: impl AsRef<Path>, opts: LogOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a caraoke log", dir.display()),
            ));
        }
        let mut writer = Self {
            dir,
            opts,
            segments: Vec::new(),
            // Placeholder; start_segment replaces it immediately.
            file: BufWriter::new(tempfile_placeholder()?),
            current_bytes: 0,
            seals_since_sync: 0,
            next_pane_hint: 0,
            fault: None,
            frame: Vec::new(),
        };
        writer.start_segment(0)?;
        Ok(writer)
    }

    /// Reopens an existing log for appending after `next_pane - 1` was the
    /// last fully-replayable pane: truncates any torn tail off the last
    /// segment (on disk, so later full replays never see it), then starts
    /// a fresh segment for the writer's own records.
    pub fn open_for_append(
        dir: impl AsRef<Path>,
        opts: LogOptions,
        next_pane: u64,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let mut segments = read_manifest(&dir)?;
        if let Some(last) = segments.last() {
            let path = dir.join(last);
            let valid = scan_valid_len(&path)?;
            let actual = fs::metadata(&path)?.len();
            if valid < actual {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid)?;
                file.sync_all()?;
            }
            if valid < HEADER_LEN {
                // Crash mid segment creation: the file never even got its
                // header. Drop it entirely.
                fs::remove_file(&path)?;
                segments.pop();
            }
        }
        let mut writer = Self {
            dir,
            opts,
            segments,
            file: BufWriter::new(tempfile_placeholder()?),
            current_bytes: 0,
            seals_since_sync: 0,
            next_pane_hint: next_pane,
            fault: None,
            frame: Vec::new(),
        };
        writer.start_segment(next_pane)?;
        Ok(writer)
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this writer was opened with.
    pub fn options(&self) -> LogOptions {
        self.opts
    }

    /// Installs (or clears) a fault injector. Subsequent appends,
    /// rotations, and syncs consult it first; injected errors surface to
    /// the caller exactly like real I/O errors. Installed *after* the
    /// writer is open, so startup segment creation is never injected.
    pub fn set_fault_injector(&mut self, fault: Option<Box<dyn WriteFault>>) {
        self.fault = fault;
    }

    fn fault_check(&mut self, op: IoOp, pane: u64) -> io::Result<()> {
        if let Some(fault) = self.fault.as_mut() {
            if let Some(err) = fault.check(op, pane) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Live segment file names, oldest first.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Appends one sealed pane. Rotation happens *between* records, so a
    /// record never straddles segments.
    #[allow(clippy::too_many_arguments)]
    pub fn append_pane(
        &mut self,
        pane: u64,
        forced: bool,
        pole_misses: u32,
        fingerprint: u64,
        chain: u64,
        aggregates: &CityAggregates,
        deltas: &[TrackerDelta],
    ) -> io::Result<()> {
        self.maybe_rotate(pane)?;
        // Taken for the write and put back whatever it returns, so a
        // failed write keeps the buffer for the retry.
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.resize(FRAME_HEADER_LEN, 0);
        codec::encode_pane_into(
            &mut frame,
            pane,
            forced,
            pole_misses,
            fingerprint,
            chain,
            aggregates,
            deltas,
        );
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
        header.copy_from_slice(&frame_header(payload));
        let written = self.write_frame(&[&frame]);
        self.frame = frame;
        written?;
        self.next_pane_hint = pane + 1;
        Ok(())
    }

    /// Appends a dead-pole marker.
    pub fn append_dead_pole(&mut self, pole: u32) -> io::Result<()> {
        self.write_record(&codec::encode_dead_pole(pole))
    }

    /// Appends a cumulative snapshot. The snapshot always opens a fresh
    /// segment and is fsynced before this returns; every earlier segment is
    /// then deleted (the snapshot alone can reconstruct their state).
    pub fn append_snapshot(&mut self, snap: &SnapshotRecord) -> io::Result<()> {
        self.rotate(snap.next_pane)?;
        self.write_record(&codec::encode_snapshot(snap))?;
        // Durability ordering: the snapshot must be on disk before the
        // segments it replaces disappear.
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.seals_since_sync = 0;
        if self.segments.len() > 1 {
            let old: Vec<String> = self.segments.drain(..self.segments.len() - 1).collect();
            self.write_manifest()?;
            for name in old {
                fs::remove_file(self.dir.join(name))?;
            }
        }
        Ok(())
    }

    /// Marks the end of one seal batch: flushes the buffered writer and
    /// applies the fsync policy.
    pub fn commit_seal(&mut self) -> io::Result<()> {
        self.fault_check(IoOp::Sync, self.next_pane_hint)?;
        self.file.flush()?;
        match self.opts.fsync {
            FsyncPolicy::EverySeal => {
                self.file.get_ref().sync_data()?;
                self.seals_since_sync = 0;
            }
            FsyncPolicy::EveryN(n) => {
                self.seals_since_sync += 1;
                if self.seals_since_sync >= n.max(1) {
                    self.file.get_ref().sync_data()?;
                    self.seals_since_sync = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Flushes and fsyncs unconditionally (shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.fault_check(IoOp::Sync, self.next_pane_hint)?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.seals_since_sync = 0;
        Ok(())
    }

    /// Frames and appends a record that is not a pane: a snapshot, which
    /// would pin its whole size in the pane frame buffer, or a dead-pole
    /// marker.
    fn write_record(&mut self, payload: &[u8]) -> io::Result<()> {
        self.write_frame(&[&frame_header(payload), payload])
    }

    /// Appends one framed record, given in parts that follow each other.
    fn write_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.fault_check(IoOp::Append, self.next_pane_hint)?;
        for part in parts {
            self.file.write_all(part)?;
        }
        self.current_bytes += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        Ok(())
    }

    fn maybe_rotate(&mut self, first_pane: u64) -> io::Result<()> {
        if self.current_bytes >= self.opts.segment_bytes.max(HEADER_LEN + 1) {
            self.rotate(first_pane)?;
        }
        Ok(())
    }

    fn rotate(&mut self, first_pane: u64) -> io::Result<()> {
        self.sync()?;
        self.start_segment(first_pane)
    }

    fn start_segment(&mut self, first_pane: u64) -> io::Result<()> {
        self.fault_check(IoOp::Rotate, first_pane)?;
        let mut name = format!("seg-{first_pane:020}.calog");
        let mut suffix = 0u32;
        while self.dir.join(&name).exists() {
            suffix += 1;
            name = format!("seg-{first_pane:020}-{suffix}.calog");
        }
        let mut file = File::create(self.dir.join(&name))?;
        file.write_all(SEGMENT_MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        file.write_all(&0u32.to_le_bytes())?;
        file.sync_data()?;
        self.file = BufWriter::new(file);
        self.current_bytes = HEADER_LEN;
        self.segments.push(name);
        self.write_manifest()
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut body = String::from(MANIFEST_HEADER);
        body.push('\n');
        for name in &self.segments {
            body.push_str(name);
            body.push('\n');
        }
        let tmp = self.dir.join("MANIFEST.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST))?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        let _ = self.file.flush();
        let _ = self.file.get_ref().sync_data();
    }
}

/// An anonymous throwaway file standing in until `start_segment` runs;
/// keeps the `file` field non-optional.
fn tempfile_placeholder() -> io::Result<File> {
    // /dev/null is always writable and never grows; on the off chance it is
    // unavailable, fall back to an error the caller surfaces.
    File::create("/dev/null").or_else(|_| File::open("/dev/null"))
}

/// Reads and validates the manifest, returning segment names oldest-first.
pub fn read_manifest(dir: &Path) -> io::Result<Vec<String>> {
    let body = fs::read_to_string(dir.join(MANIFEST))?;
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a caraoke-log manifest", dir.display()),
        ));
    }
    Ok(lines
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Length of the valid prefix of a segment file: the header plus every
/// complete, CRC-clean record. Anything past that is a torn or corrupt
/// tail from an interrupted write.
pub fn scan_valid_len(path: &Path) -> io::Result<u64> {
    let bytes = fs::read(path)?;
    if !valid_header(&bytes) {
        return Ok(0);
    }
    let mut pos = HEADER_LEN as usize;
    loop {
        let Some(frame) = bytes.get(pos..pos + 8) else {
            return Ok(pos as u64);
        };
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            return Ok(pos as u64);
        };
        if codec::crc32c(payload) != crc {
            return Ok(pos as u64);
        }
        pos += 8 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::store::{TagRecord, TRACK_CAP};
    use caraoke_city::PoleId;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("caraoke-segment-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A pane with `rows` OD rows and `rows` upserts of two track points.
    fn pane(rows: u32) -> (CityAggregates, Vec<TrackerDelta>) {
        let mut agg = CityAggregates::new();
        for i in 0..rows {
            agg.od.record(PoleId(i), PoleId(i + 1));
        }
        let upserts = (0..u64::from(rows))
            .map(|key| TagRecord {
                key,
                prev_pole: u32::MAX,
                last_pole: 1,
                prev_segment: u16::MAX,
                last_segment: 0,
                arrival_us: key,
                last_seen_us: key + 1,
                last_cycle: 0,
                sightings: 2,
                track: [(key, 1.5, -2.5); TRACK_CAP],
                track_len: 2,
            })
            .collect();
        let delta = TrackerDelta {
            upserts,
            removals: vec![u64::from(rows) + 7],
            ..TrackerDelta::default()
        };
        (agg, vec![delta])
    }

    /// The segment file `panes` framed by hand from fresh encodes.
    fn expected_segment(panes: &[(u64, &(CityAggregates, Vec<TrackerDelta>))]) -> Vec<u8> {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend(FORMAT_VERSION.to_le_bytes());
        bytes.extend(0u32.to_le_bytes());
        for &(id, (agg, deltas)) in panes {
            let payload = codec::encode_pane(id, false, 0, 9, 10, agg, deltas);
            bytes.extend(frame_header(&payload));
            bytes.extend(payload);
        }
        bytes
    }

    fn append(writer: &mut SegmentWriter, id: u64, pane: &(CityAggregates, Vec<TrackerDelta>)) {
        writer
            .append_pane(id, false, 0, 9, 10, &pane.0, &pane.1)
            .expect("append");
    }

    fn segment_bytes(writer: &mut SegmentWriter) -> Vec<u8> {
        writer.sync().expect("sync");
        fs::read(writer.dir().join(&writer.segments()[0])).expect("read segment")
    }

    #[test]
    fn a_smaller_pane_after_a_larger_one_leaves_no_stale_tail() {
        let dir = scratch_dir("shrink");
        let (large, small) = (pane(300), pane(3));
        let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
        append(&mut writer, 0, &large);
        append(&mut writer, 1, &small);
        assert_eq!(
            segment_bytes(&mut writer),
            expected_segment(&[(0, &large), (1, &small)])
        );
        drop(writer);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Fails the `n`-th append (counting from 0) once, transiently.
    struct FailAppend(u32);

    impl WriteFault for FailAppend {
        fn check(&mut self, op: IoOp, _pane: u64) -> Option<io::Error> {
            if op != IoOp::Append {
                return None;
            }
            self.0 = self.0.wrapping_sub(1);
            (self.0 == u32::MAX).then(|| io::Error::from(io::ErrorKind::Interrupted))
        }
    }

    #[test]
    fn a_retried_append_writes_the_bytes_of_an_unfaulted_one() {
        let dir = scratch_dir("retry");
        let panes = [pane(40), pane(60)];
        let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
        writer.set_fault_injector(Some(Box::new(FailAppend(1))));
        append(&mut writer, 0, &panes[0]);
        let (agg, deltas) = &panes[1];
        let err = writer.append_pane(1, false, 0, 9, 10, agg, deltas);
        assert_eq!(
            err.expect_err("injected").kind(),
            io::ErrorKind::Interrupted
        );
        let kept = codec::encode_pane(1, false, 0, 9, 10, agg, deltas).len();
        assert!(
            writer.frame.capacity() >= FRAME_HEADER_LEN + kept,
            "the failed write put the frame buffer back"
        );
        append(&mut writer, 1, &panes[1]);
        assert_eq!(
            segment_bytes(&mut writer),
            expected_segment(&[(0, &panes[0]), (1, &panes[1])])
        );
        drop(writer);
        let _ = fs::remove_dir_all(&dir);
    }
}
