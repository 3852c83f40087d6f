//! The verified read side: cursor iteration over a log directory with the
//! fingerprint chain recomputed record by record.
//!
//! Verification is not optional — every cursor recomputes each pane's
//! aggregate fingerprint, extends the chain, and compares both against the
//! stored values, so a clean iteration *is* the integrity proof. A torn
//! tail (interrupted final write) is legal only at the very end of the
//! last segment and is reported as a byte counter, not an error; the same
//! bytes anywhere else are [`LogError::TornMiddle`].

use crate::codec::{self, LogRecord};
use crate::segment::{read_manifest, valid_header, HEADER_LEN};
use caraoke_city::aggregate::Fingerprint;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything that can go wrong reading or verifying a log.
#[derive(Debug)]
pub enum LogError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A segment file is missing its magic/header.
    BadHeader {
        /// Offending segment file name.
        segment: String,
    },
    /// A record's payload does not match its stored CRC.
    Crc {
        /// Segment file name.
        segment: String,
        /// Byte offset of the record's frame within the segment.
        offset: u64,
    },
    /// A CRC-clean payload failed structural decoding.
    Decode {
        /// Segment file name.
        segment: String,
        /// Byte offset of the record's frame within the segment.
        offset: u64,
        /// What the decoder was reading when it fell off the end.
        what: String,
    },
    /// A torn (incomplete) record somewhere other than the tail of the
    /// last segment — torn tails are only legal where a crash can make
    /// them.
    TornMiddle {
        /// Segment file name.
        segment: String,
        /// Byte offset where the torn bytes start.
        offset: u64,
    },
    /// The running fingerprint chain diverged from the stored chain value.
    ChainBreak {
        /// Pane at which the divergence surfaced.
        pane: u64,
        /// Chain value recomputed by the cursor.
        expected: u64,
        /// Chain value stored in the record.
        found: u64,
    },
    /// A pane aggregate's recomputed fingerprint differs from the stored
    /// one (the payload was altered without breaking CRC framing).
    FingerprintMismatch {
        /// Offending pane.
        pane: u64,
        /// Fingerprint recomputed from the decoded aggregates.
        expected: u64,
        /// Fingerprint stored in the record.
        found: u64,
    },
    /// Pane ids must be contiguous; a gap means records are missing.
    PaneGap {
        /// Pane the cursor expected next.
        expected: u64,
        /// Pane actually found.
        found: u64,
    },
    /// A record's shard count does not match the consumer's engine config.
    ShardMismatch {
        /// Shards the consumer was configured with.
        expected: usize,
        /// Shards recorded in the log.
        found: usize,
    },
    /// The log starts mid-stream (truncated) without a snapshot to anchor
    /// replay.
    MissingSnapshot {
        /// First pane found in the log.
        first_pane: u64,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log io error: {e}"),
            LogError::BadHeader { segment } => {
                write!(f, "{segment}: missing or invalid segment header")
            }
            LogError::Crc { segment, offset } => {
                write!(f, "{segment}@{offset}: record CRC mismatch")
            }
            LogError::Decode {
                segment,
                offset,
                what,
            } => write!(f, "{segment}@{offset}: undecodable record ({what})"),
            LogError::TornMiddle { segment, offset } => {
                write!(f, "{segment}@{offset}: torn record before end of log")
            }
            LogError::ChainBreak {
                pane,
                expected,
                found,
            } => write!(
                f,
                "pane {pane}: fingerprint chain broke (recomputed {expected:#018x}, stored {found:#018x})"
            ),
            LogError::FingerprintMismatch {
                pane,
                expected,
                found,
            } => write!(
                f,
                "pane {pane}: aggregate fingerprint mismatch (recomputed {expected:#018x}, stored {found:#018x})"
            ),
            LogError::PaneGap { expected, found } => {
                write!(f, "pane gap: expected pane {expected}, found {found}")
            }
            LogError::ShardMismatch { expected, found } => write!(
                f,
                "shard mismatch: engine configured for {expected}, log written with {found}"
            ),
            LogError::MissingSnapshot { first_pane } => write!(
                f,
                "log starts at pane {first_pane} with no snapshot to anchor replay"
            ),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// A log directory opened for verified reading.
#[derive(Debug)]
pub struct LogReader {
    dir: PathBuf,
    segments: Vec<String>,
}

impl LogReader {
    /// Opens `dir` by its manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, LogError> {
        let dir = dir.as_ref().to_path_buf();
        let segments = read_manifest(&dir)?;
        Ok(Self { dir, segments })
    }

    /// Segment file names, oldest first.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// A verifying cursor over every record, oldest first. Decoding
    /// borrows each payload in place from the loaded segment buffer.
    pub fn records(&self) -> RecordCursor {
        RecordCursor {
            dir: self.dir.clone(),
            segments: self.segments.clone(),
            next_segment: 0,
            current: None,
            chain: Fingerprint::new(),
            expected_pane: None,
            torn_tail_bytes: 0,
            finished: false,
        }
    }
}

/// A loaded segment being walked.
#[derive(Debug)]
struct SegmentBuf {
    name: String,
    bytes: Vec<u8>,
    pos: usize,
}

/// Iterator over verified [`LogRecord`]s. Fuses after the first error.
#[derive(Debug)]
pub struct RecordCursor {
    dir: PathBuf,
    segments: Vec<String>,
    next_segment: usize,
    current: Option<SegmentBuf>,
    chain: Fingerprint,
    expected_pane: Option<u64>,
    torn_tail_bytes: u64,
    finished: bool,
}

impl RecordCursor {
    /// Bytes of torn tail skipped at the end of the last segment (0 for a
    /// cleanly-closed log). Meaningful once iteration has ended.
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn_tail_bytes
    }

    /// The chain state after the last verified pane.
    pub fn chain_state(&self) -> u64 {
        self.chain.finish()
    }

    fn load_next_segment(&mut self) -> Result<bool, LogError> {
        let Some(name) = self.segments.get(self.next_segment).cloned() else {
            return Ok(false);
        };
        self.next_segment += 1;
        let bytes = fs::read(self.dir.join(&name))?;
        if !valid_header(&bytes) {
            return Err(LogError::BadHeader { segment: name });
        }
        self.current = Some(SegmentBuf {
            name,
            bytes,
            pos: HEADER_LEN as usize,
        });
        Ok(true)
    }

    /// Advances to the next CRC-checked payload and returns its span —
    /// `(frame offset, payload start, payload len)` into the *currently
    /// loaded* segment buffer — handling segment advance and torn-tail
    /// classification. `Ok(None)` is clean end of log.
    ///
    /// This is the zero-copy core: the caller decodes straight from the
    /// borrowed segment bytes. (mmap is off the table under
    /// `forbid(unsafe_code)`; a buffered borrow of the already-loaded
    /// segment gets the same effect — no per-record allocation or copy.)
    /// The span stays valid until the next call, which is the only place
    /// the buffer can be unloaded.
    fn next_payload_span(&mut self) -> Result<Option<(u64, usize, usize)>, LogError> {
        loop {
            if self.current.is_none() && !self.load_next_segment()? {
                return Ok(None);
            }
            let seg = self.current.as_mut().expect("loaded above");
            let remaining = seg.bytes.len() - seg.pos;
            if remaining == 0 {
                self.current = None;
                continue;
            }
            let offset = seg.pos as u64;
            let is_last = self.next_segment == self.segments.len();
            let frame = seg.bytes.get(seg.pos..seg.pos + 8);
            let span = frame.and_then(|f| {
                let len = u32::from_le_bytes(f[..4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(f[4..8].try_into().unwrap());
                seg.bytes
                    .get(seg.pos + 8..seg.pos + 8 + len)
                    .map(|_| (crc, len))
            });
            let Some((crc, len)) = span else {
                // Incomplete frame: a crash artifact if this is the tail of
                // the final segment, corruption anywhere else.
                if is_last {
                    self.torn_tail_bytes = remaining as u64;
                    self.current = None;
                    return Ok(None);
                }
                return Err(LogError::TornMiddle {
                    segment: seg.name.clone(),
                    offset,
                });
            };
            let start = seg.pos + 8;
            if codec::crc32c(&seg.bytes[start..start + len]) != crc {
                return Err(LogError::Crc {
                    segment: seg.name.clone(),
                    offset,
                });
            }
            seg.pos = start + len;
            return Ok(Some((offset, start, len)));
        }
    }

    fn verify(&mut self, record: &LogRecord) -> Result<(), LogError> {
        match record {
            LogRecord::Snapshot(snap) => {
                self.chain = Fingerprint::resume(snap.chain);
                self.expected_pane = Some(snap.next_pane);
            }
            LogRecord::Pane(p) => {
                let expected = match self.expected_pane {
                    Some(e) => e,
                    None if p.pane == 0 => 0,
                    None => return Err(LogError::MissingSnapshot { first_pane: p.pane }),
                };
                if p.pane != expected {
                    return Err(LogError::PaneGap {
                        expected,
                        found: p.pane,
                    });
                }
                let recomputed = p.aggregates.fingerprint();
                if recomputed != p.fingerprint {
                    return Err(LogError::FingerprintMismatch {
                        pane: p.pane,
                        expected: recomputed,
                        found: p.fingerprint,
                    });
                }
                self.chain.write_u64(p.pane);
                self.chain.write_u64(p.fingerprint);
                let chained = self.chain.finish();
                if chained != p.chain {
                    return Err(LogError::ChainBreak {
                        pane: p.pane,
                        expected: chained,
                        found: p.chain,
                    });
                }
                self.expected_pane = Some(p.pane + 1);
            }
            LogRecord::DeadPole(_) => {}
        }
        Ok(())
    }

    fn step(&mut self) -> Result<Option<LogRecord>, LogError> {
        // Decode straight from the loaded segment's bytes; the name is
        // only cloned on the error path.
        let Some((offset, start, len)) = self.next_payload_span()? else {
            return Ok(None);
        };
        let seg = self
            .current
            .as_ref()
            .expect("span points into loaded segment");
        let record = codec::decode_record(&seg.bytes[start..start + len]).map_err(|what| {
            LogError::Decode {
                segment: seg.name.clone(),
                offset,
                what,
            }
        })?;
        self.verify(&record)?;
        Ok(Some(record))
    }
}

impl Iterator for RecordCursor {
    type Item = Result<LogRecord, LogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        match self.step() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.finished = true;
                None
            }
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}
