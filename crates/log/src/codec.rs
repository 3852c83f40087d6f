//! The deterministic binary encoding of log records.
//!
//! Every record is a type-tagged payload; the segment layer frames it as
//! `[len u32 LE][crc u32 LE][payload]`. All integers are little-endian,
//! every keyed row list of an aggregate is emitted in key order, each key
//! once (and decoded only so), and all tracker deltas come pre-sorted from
//! [`TagTracker::take_delta`](caraoke_city::store::TagTracker::take_delta),
//! so encoding the same logical state always produces the same bytes —
//! the property the fingerprint-verified replay rests on.

use caraoke_city::store::{TagRecord, TrackerDelta, TRACK_CAP};
use caraoke_city::{AliasStats, CityAggregates, OdMatrix, SegmentStats, SpeedHistogram};

/// Record type tag: one sealed pane.
pub const REC_PANE: u8 = 1;
/// Record type tag: a cumulative snapshot (truncation point).
pub const REC_SNAPSHOT: u8 = 2;
/// Record type tag: a pole declared dead (removed from the seal quorum).
pub const REC_DEAD_POLE: u8 = 3;

/// One sealed pane as it appears in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct PaneRecord {
    /// Pane index (event time = `pane * pane_us`).
    pub pane: u64,
    /// Whether this pane was force-sealed (staleness timeout) rather than
    /// released by the event-time watermark.
    pub forced: bool,
    /// Poles whose frontier had not reached the pane boundary when a
    /// forced seal fired (0 for watermark-released panes).
    pub pole_misses: u32,
    /// The pane aggregate's own fingerprint.
    pub fingerprint: u64,
    /// The engine's chain state *after* absorbing this pane.
    pub chain: u64,
    /// The pane's aggregate delta (this pane only, not cumulative).
    pub aggregates: CityAggregates,
    /// Per-shard tracker mutations applied while sealing this pane.
    pub deltas: Vec<TrackerDelta>,
}

/// A cumulative snapshot: everything needed to resume without the
/// preceding segments.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// First pane *not* covered by this snapshot.
    pub next_pane: u64,
    /// Chain state after the last covered pane.
    pub chain: u64,
    /// Cumulative forced-seal pane count.
    pub forced_panes: u64,
    /// Cumulative forced-seal pole misses.
    pub forced_pole_misses: u64,
    /// Poles declared dead so far, ascending.
    pub dead_poles: Vec<u32>,
    /// Cumulative aggregates over panes `0..next_pane`.
    pub total: CityAggregates,
    /// Full per-shard tracker exports.
    pub trackers: Vec<TrackerDelta>,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// One sealed pane.
    Pane(PaneRecord),
    /// A cumulative snapshot.
    Snapshot(SnapshotRecord),
    /// A pole declared dead.
    DeadPole(u32),
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli, reflected 0x82F63B78) — the frame checksum. Hardware
// path via the SSE4.2 / ARMv8 CRC instructions when the CPU has them
// (detected once at runtime); software fallback is slice-by-8 (8 bytes per
// iteration through eight compile-time tables) rather than the bit-by-bit
// or byte-by-byte loops — the log appends on the sealer's critical path, so
// checksum cost is seal latency.

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Software slice-by-8 CRC32C over `data`, continuing from pre-inverted
/// state `c`.
fn crc32c_sw(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = CRC32C_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32C_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[4][(lo >> 24) as usize]
            ^ CRC32C_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32C_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32C_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The one unsafe module in the crate: hardware CRC32C kernels. Safety
/// rests on runtime feature detection — each function is only reachable
/// after `is_*_feature_detected!` confirmed the instruction exists.
#[allow(unsafe_code)]
mod crc32c_hw {
    /// SSE4.2 `crc32` instruction, 8 bytes per step.
    ///
    /// # Safety
    /// Caller must have verified `sse4.2` is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn crc32c(mut c: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let mut chunks = data.chunks_exact(8);
        let mut c64 = c as u64;
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            c64 = _mm_crc32_u64(c64, v);
        }
        c = c64 as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }

    /// ARMv8 CRC extension, 8 bytes per step.
    ///
    /// # Safety
    /// Caller must have verified the `crc` feature is available.
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "crc")]
    pub(super) unsafe fn crc32c(mut c: u32, data: &[u8]) -> u32 {
        use std::arch::aarch64::{__crc32cb, __crc32cd};
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            c = __crc32cd(c, v);
        }
        for &b in chunks.remainder() {
            c = __crc32cb(c, b);
        }
        c
    }
}

/// Is the hardware CRC32C kernel usable on this CPU? Detected once.
fn crc32c_hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("crc")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// CRC32C (Castagnoli) of `data` — the frame checksum.
/// Uses the CPU's CRC instructions when present, slice-by-8 otherwise;
/// both produce identical values.
pub fn crc32c(data: &[u8]) -> u32 {
    let c = 0xFFFF_FFFFu32;
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crc32c_hw_available() {
        // Safety: the required instruction set was just detected.
        #[allow(unsafe_code)]
        return unsafe { crc32c_hw::crc32c(c, data) } ^ 0xFFFF_FFFF;
    }
    crc32c_sw(c, data) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive writers / the bounds-checked decoder — the one byte toolkit of
// the log records here and of the serve tier's wire frames.

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over an untrusted byte slice. Every
/// method names the field it was reading in its error, and none of them
/// panics or allocates.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated reading {what} at offset {}",
                self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }
    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u32` element count for a sequence whose elements encode to at
    /// least `min_elem_bytes` each. A count the remaining bytes cannot hold
    /// is an error here, before the caller sizes anything by it — a crafted
    /// prefix costs a message, never an allocation.
    pub fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= remaining => Ok(n),
            _ => Err(format!(
                "{what} {n} exceeds the {remaining} bytes left at offset {}",
                self.pos
            )),
        }
    }

    /// Succeeds only when every byte was consumed.
    pub fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// Minimum encoded size of one element behind each length prefix below —
// what [`Dec::count`] holds a claimed count against.
const SEGMENT_ROW_BYTES: usize = 2 + 8 + 8 + 8 + 4 + 8;
const FLOW_ROW_BYTES: usize = 2 + 4 + 8;
const SPEED_BIN_BYTES: usize = 2 + 8;
const OD_ROW_BYTES: usize = 4 + 4 + 8;
const TAG_RECORD_MIN_BYTES: usize = 8 + 4 + 4 + 2 + 2 + 8 + 8 + 4 + 8 + 1;
const DELTA_MIN_BYTES: usize = 3 * 4 + 3 * 8;
// The other fixed widths `PaneBytes` sizes a pane record by: the record
// header with (after the aggregates) its shard count, the aggregates'
// own fields, and the rows of the tracker deltas.
const PANE_FIXED_BYTES: usize = 1 + 8 + 1 + 4 + 8 + 8 + 4;
const AGGREGATE_FIXED_BYTES: usize = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 6 * 8;
const TRACK_POINT_BYTES: usize = 8 + 8 + 8;
const REMOVAL_BYTES: usize = 8;
const ALIAS_BYTES: usize = 8 + 8;

/// Where one pane record's payload bytes go, part by part. Every field
/// encodes fixed-width, so each part's size follows from its row counts,
/// and the parts sum to the payload's exact length
/// ([`total`](Self::total)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaneBytes {
    /// The record header, the aggregates but their OD rows, and each
    /// tracker delta's length prefixes and alias counters.
    pub header_and_aggregates: usize,
    /// The aggregate's OD rows.
    pub od_rows: usize,
    /// Tracker upserts, their track points included.
    pub upserts: usize,
    /// How many tracker upserts there are.
    pub upsert_count: usize,
    /// How many track points the upserts carry.
    pub track_points: usize,
    /// Tracker removals and alias rows.
    pub removals_and_aliases: usize,
}

impl PaneBytes {
    /// The split of the pane record [`encode_pane`] writes for
    /// `aggregates` and `deltas`.
    pub fn of(aggregates: &CityAggregates, deltas: &[TrackerDelta]) -> Self {
        let mut bytes = PaneBytes {
            header_and_aggregates: PANE_FIXED_BYTES
                + AGGREGATE_FIXED_BYTES
                + aggregates.segments.len() * SEGMENT_ROW_BYTES
                + aggregates.flow.per_cycle.len() * FLOW_ROW_BYTES
                + nonzero_speed_bins(&aggregates.speeds).count() * SPEED_BIN_BYTES
                + deltas.len() * DELTA_MIN_BYTES,
            od_rows: aggregates.od.len() * OD_ROW_BYTES,
            ..PaneBytes::default()
        };
        for delta in deltas {
            for rec in &delta.upserts {
                bytes.upserts +=
                    TAG_RECORD_MIN_BYTES + usize::from(rec.track_len) * TRACK_POINT_BYTES;
                bytes.track_points += usize::from(rec.track_len);
            }
            bytes.upsert_count += delta.upserts.len();
            bytes.removals_and_aliases +=
                delta.removals.len() * REMOVAL_BYTES + delta.aliases.len() * ALIAS_BYTES;
        }
        bytes
    }

    /// The payload's length: every part's bytes.
    pub fn total(&self) -> usize {
        self.header_and_aggregates + self.od_rows + self.upserts + self.removals_and_aliases
    }

    /// Adds `other`'s parts and counts to these.
    pub fn add(&mut self, other: &PaneBytes) {
        self.header_and_aggregates += other.header_and_aggregates;
        self.od_rows += other.od_rows;
        self.upserts += other.upserts;
        self.upsert_count += other.upsert_count;
        self.track_points += other.track_points;
        self.removals_and_aliases += other.removals_and_aliases;
    }
}

// ---------------------------------------------------------------------------
// Aggregates.

/// The speed histogram's occupied bins, `(bin, count)` in bin order: the
/// rows the encoding carries.
fn nonzero_speed_bins(speeds: &SpeedHistogram) -> impl Iterator<Item = (usize, u64)> + '_ {
    speeds
        .bins()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n != 0)
        .map(|(i, &n)| (i, n))
}

fn encode_aggregates(buf: &mut Vec<u8>, agg: &CityAggregates) {
    put_u64(buf, agg.observations);
    put_u32(buf, agg.segments.len() as u32);
    for (&seg, s) in &agg.segments {
        put_u16(buf, seg);
        put_u64(buf, s.reports);
        put_u64(buf, s.observations);
        put_u64(buf, s.sum_count);
        put_u32(buf, s.peak_count);
        put_u64(buf, s.multi_occupied_peaks);
    }
    put_u32(buf, agg.flow.per_cycle.len() as u32);
    for (&(seg, cycle), &n) in &agg.flow.per_cycle {
        put_u16(buf, seg);
        put_u32(buf, cycle);
        put_u64(buf, n);
    }
    put_u64(buf, agg.speeds.samples());
    put_u64(buf, agg.speeds.sum_centi_mph());
    put_u32(buf, nonzero_speed_bins(&agg.speeds).count() as u32);
    for (bin, n) in nonzero_speed_bins(&agg.speeds) {
        put_u16(buf, bin as u16);
        put_u64(buf, n);
    }
    put_u32(buf, agg.od.len() as u32);
    for ((from, to), n) in agg.od.iter() {
        put_u32(buf, from);
        put_u32(buf, to);
        put_u64(buf, n);
    }
    put_u64(buf, agg.positions.two_reader_fixes);
    put_u64(buf, agg.positions.aoa_only_fixes);
    put_u64(buf, agg.positions.pole_fallbacks);
    put_u64(buf, agg.positions.track_speed_samples);
    put_u64(buf, agg.positions.arrival_speed_samples);
    put_u64(buf, agg.positions.sum_sigma_cm);
}

/// Refuses a keyed row whose `key` (packed so integer order is the
/// writer's order) does not rise strictly above the previous row's: the
/// writer emits every list ascending with each key once, and letting a
/// later row overwrite an earlier one would decode such a record, CRC-clean
/// as it is, into different totals.
fn ascending(last: &mut Option<u64>, key: u64, what: &str) -> Result<(), String> {
    if last.is_some_and(|last| last >= key) {
        return Err(format!("{what} {key:#x} repeats or is out of order"));
    }
    *last = Some(key);
    Ok(())
}

fn decode_aggregates(dec: &mut Dec<'_>) -> Result<CityAggregates, String> {
    let mut agg = CityAggregates::new();
    agg.observations = dec.u64("observations")?;
    let n_segments = dec.count(SEGMENT_ROW_BYTES, "segment count")?;
    let mut last = None;
    for _ in 0..n_segments {
        let seg = dec.u16("segment id")?;
        ascending(&mut last, seg.into(), "segment")?;
        let stats = SegmentStats {
            reports: dec.u64("segment reports")?,
            observations: dec.u64("segment observations")?,
            sum_count: dec.u64("segment sum_count")?,
            peak_count: dec.u32("segment peak_count")?,
            multi_occupied_peaks: dec.u64("segment multi_occupied")?,
        };
        agg.segments.insert(seg, stats);
    }
    let n_flow = dec.count(FLOW_ROW_BYTES, "flow count")?;
    let mut last = None;
    for _ in 0..n_flow {
        let seg = dec.u16("flow segment")?;
        let cycle = dec.u32("flow cycle")?;
        ascending(
            &mut last,
            u64::from(seg) << 32 | u64::from(cycle),
            "flow row",
        )?;
        let n = dec.u64("flow events")?;
        agg.flow.per_cycle.insert((seg, cycle), n);
    }
    let samples = dec.u64("speed samples")?;
    let sum_centi = dec.u64("speed sum")?;
    let n_bins = dec.count(SPEED_BIN_BYTES, "speed bin count")?;
    let mut bins = vec![0; SpeedHistogram::N_BINS];
    let mut last = None;
    for _ in 0..n_bins {
        let bin = dec.u16("speed bin")?;
        ascending(&mut last, bin.into(), "speed bin")?;
        let slot = bins
            .get_mut(bin as usize)
            .ok_or_else(|| format!("speed bin {bin} past the histogram"))?;
        *slot = dec.u64("speed bin count value")?;
    }
    agg.speeds = SpeedHistogram::from_parts(bins, samples, sum_centi);
    let n_od = dec.count(OD_ROW_BYTES, "od count")?;
    let mut od = Vec::with_capacity(n_od);
    for _ in 0..n_od {
        let from = dec.u32("od from")?;
        let to = dec.u32("od to")?;
        od.push(((from, to), dec.u64("od transitions")?));
    }
    agg.od = OdMatrix::from_pairs(od)?;
    agg.positions.two_reader_fixes = dec.u64("two_reader_fixes")?;
    agg.positions.aoa_only_fixes = dec.u64("aoa_only_fixes")?;
    agg.positions.pole_fallbacks = dec.u64("pole_fallbacks")?;
    agg.positions.track_speed_samples = dec.u64("track_speed_samples")?;
    agg.positions.arrival_speed_samples = dec.u64("arrival_speed_samples")?;
    agg.positions.sum_sigma_cm = dec.u64("sum_sigma_cm")?;
    Ok(agg)
}

// ---------------------------------------------------------------------------
// Tracker deltas.

/// Assembles the record on the stack and appends it with one copy: upserts
/// are most of a pane's bytes, and a per-field append re-checks the
/// buffer's capacity at every field.
fn encode_tag_record(buf: &mut Vec<u8>, rec: &TagRecord) {
    let mut out = [0u8; TAG_RECORD_MIN_BYTES + TRACK_CAP * TRACK_POINT_BYTES];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&rec.key.to_le_bytes());
    put(&rec.prev_pole.to_le_bytes());
    put(&rec.last_pole.to_le_bytes());
    put(&rec.prev_segment.to_le_bytes());
    put(&rec.last_segment.to_le_bytes());
    put(&rec.arrival_us.to_le_bytes());
    put(&rec.last_seen_us.to_le_bytes());
    put(&rec.last_cycle.to_le_bytes());
    put(&rec.sightings.to_le_bytes());
    put(&[rec.track_len]);
    for &(t, x, y) in rec.track.iter().take(rec.track_len as usize) {
        put(&t.to_le_bytes());
        put(&x.to_bits().to_le_bytes());
        put(&y.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&out[..at]);
}

fn decode_tag_record(dec: &mut Dec<'_>) -> Result<TagRecord, String> {
    let key = dec.u64("tag key")?;
    let prev_pole = dec.u32("tag prev_pole")?;
    let last_pole = dec.u32("tag last_pole")?;
    let prev_segment = dec.u16("tag prev_segment")?;
    let last_segment = dec.u16("tag last_segment")?;
    let arrival_us = dec.u64("tag arrival_us")?;
    let last_seen_us = dec.u64("tag last_seen_us")?;
    let last_cycle = dec.u32("tag last_cycle")?;
    let sightings = dec.u64("tag sightings")?;
    let track_len = dec.u8("tag track_len")?;
    if track_len as usize > TRACK_CAP {
        return Err(format!("track_len {track_len} exceeds cap {TRACK_CAP}"));
    }
    let mut track = [(0u64, 0.0f64, 0.0f64); TRACK_CAP];
    for slot in track.iter_mut().take(track_len as usize) {
        *slot = (
            dec.u64("track timestamp")?,
            dec.f64("track x")?,
            dec.f64("track y")?,
        );
    }
    Ok(TagRecord {
        key,
        prev_pole,
        last_pole,
        prev_segment,
        last_segment,
        arrival_us,
        last_seen_us,
        last_cycle,
        sightings,
        track,
        track_len,
    })
}

fn encode_delta(buf: &mut Vec<u8>, delta: &TrackerDelta) {
    put_u32(buf, delta.upserts.len() as u32);
    for rec in &delta.upserts {
        encode_tag_record(buf, rec);
    }
    put_u32(buf, delta.removals.len() as u32);
    for &key in &delta.removals {
        put_u64(buf, key);
    }
    put_u32(buf, delta.aliases.len() as u32);
    for &(raw, decoded) in &delta.aliases {
        put_u64(buf, raw);
        put_u64(buf, decoded);
    }
    put_u64(buf, delta.stats.decode_upgrades);
    put_u64(buf, delta.stats.alias_hits);
    put_u64(buf, delta.stats.alias_collisions);
}

fn decode_delta(dec: &mut Dec<'_>) -> Result<TrackerDelta, String> {
    let mut delta = TrackerDelta::default();
    let n_upserts = dec.count(TAG_RECORD_MIN_BYTES, "upsert count")?;
    for _ in 0..n_upserts {
        delta.upserts.push(decode_tag_record(dec)?);
    }
    let n_removals = dec.count(8, "removal count")?;
    for _ in 0..n_removals {
        delta.removals.push(dec.u64("removal key")?);
    }
    let n_aliases = dec.count(16, "alias count")?;
    for _ in 0..n_aliases {
        let raw = dec.u64("alias raw")?;
        let decoded = dec.u64("alias decoded")?;
        delta.aliases.push((raw, decoded));
    }
    delta.stats = AliasStats {
        decode_upgrades: dec.u64("decode_upgrades")?,
        alias_hits: dec.u64("alias_hits")?,
        alias_collisions: dec.u64("alias_collisions")?,
    };
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Records.

/// Encodes a pane record from parts (so the sealer never clones the pane
/// aggregate just to log it), into a buffer of exactly its length.
#[allow(clippy::too_many_arguments)]
pub fn encode_pane(
    pane: u64,
    forced: bool,
    pole_misses: u32,
    fingerprint: u64,
    chain: u64,
    aggregates: &CityAggregates,
    deltas: &[TrackerDelta],
) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_pane_into(
        &mut buf,
        pane,
        forced,
        pole_misses,
        fingerprint,
        chain,
        aggregates,
        deltas,
    );
    buf
}

/// Appends the payload [`encode_pane`] returns to `buf`, reserving its
/// exact length ([`PaneBytes`]) first, so `buf` grows at most once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_pane_into(
    buf: &mut Vec<u8>,
    pane: u64,
    forced: bool,
    pole_misses: u32,
    fingerprint: u64,
    chain: u64,
    aggregates: &CityAggregates,
    deltas: &[TrackerDelta],
) {
    let len = PaneBytes::of(aggregates, deltas).total();
    buf.reserve(len);
    let start = buf.len();
    put_u8(buf, REC_PANE);
    put_u64(buf, pane);
    put_u8(buf, u8::from(forced));
    put_u32(buf, pole_misses);
    put_u64(buf, fingerprint);
    put_u64(buf, chain);
    encode_aggregates(buf, aggregates);
    put_u32(buf, deltas.len() as u32);
    for delta in deltas {
        encode_delta(buf, delta);
    }
    debug_assert_eq!(
        buf.len() - start,
        len,
        "PaneBytes disagrees with the encoder"
    );
}

/// Encodes a snapshot record.
pub fn encode_snapshot(snap: &SnapshotRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u8(&mut buf, REC_SNAPSHOT);
    put_u64(&mut buf, snap.next_pane);
    put_u64(&mut buf, snap.chain);
    put_u64(&mut buf, snap.forced_panes);
    put_u64(&mut buf, snap.forced_pole_misses);
    put_u32(&mut buf, snap.dead_poles.len() as u32);
    for &pole in &snap.dead_poles {
        put_u32(&mut buf, pole);
    }
    encode_aggregates(&mut buf, &snap.total);
    put_u32(&mut buf, snap.trackers.len() as u32);
    for delta in &snap.trackers {
        encode_delta(&mut buf, delta);
    }
    buf
}

/// Encodes a dead-pole record.
pub fn encode_dead_pole(pole: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8);
    put_u8(&mut buf, REC_DEAD_POLE);
    put_u32(&mut buf, pole);
    buf
}

/// Decodes one framed payload into a [`LogRecord`]. The error string says
/// what field was being read when decoding fell off the end.
pub fn decode_record(payload: &[u8]) -> Result<LogRecord, String> {
    let mut dec = Dec::new(payload);
    let record = match dec.u8("record type")? {
        REC_PANE => {
            let pane = dec.u64("pane id")?;
            let forced = dec.u8("pane flags")? != 0;
            let pole_misses = dec.u32("pane pole_misses")?;
            let fingerprint = dec.u64("pane fingerprint")?;
            let chain = dec.u64("pane chain")?;
            let aggregates = decode_aggregates(&mut dec)?;
            let n_shards = dec.count(DELTA_MIN_BYTES, "pane shard count")?;
            let mut deltas = Vec::with_capacity(n_shards);
            for _ in 0..n_shards {
                deltas.push(decode_delta(&mut dec)?);
            }
            LogRecord::Pane(PaneRecord {
                pane,
                forced,
                pole_misses,
                fingerprint,
                chain,
                aggregates,
                deltas,
            })
        }
        REC_SNAPSHOT => {
            let next_pane = dec.u64("snapshot next_pane")?;
            let chain = dec.u64("snapshot chain")?;
            let forced_panes = dec.u64("snapshot forced_panes")?;
            let forced_pole_misses = dec.u64("snapshot forced_pole_misses")?;
            let n_dead = dec.count(4, "snapshot dead count")?;
            let mut dead_poles = Vec::with_capacity(n_dead);
            for _ in 0..n_dead {
                dead_poles.push(dec.u32("snapshot dead pole")?);
            }
            let total = decode_aggregates(&mut dec)?;
            let n_shards = dec.count(DELTA_MIN_BYTES, "snapshot shard count")?;
            let mut trackers = Vec::with_capacity(n_shards);
            for _ in 0..n_shards {
                trackers.push(decode_delta(&mut dec)?);
            }
            LogRecord::Snapshot(SnapshotRecord {
                next_pane,
                chain,
                forced_panes,
                forced_pole_misses,
                dead_poles,
                total,
                trackers,
            })
        }
        REC_DEAD_POLE => LogRecord::DeadPole(dec.u32("dead pole id")?),
        other => return Err(format!("unknown record type {other}")),
    };
    dec.done()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleId, SegmentId};
    use std::collections::BTreeMap;

    #[test]
    fn crc32c_matches_known_vectors() {
        // The check value for CRC-32C/Castagnoli (RFC 3720 appendix B).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 bytes of zeros, another RFC 3720 test vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_software_and_dispatch_agree_at_every_alignment() {
        // Lengths straddling the 8-byte slicing boundary, so both the
        // chunked body and the remainder tail are exercised; the public
        // `crc32c` may take the hardware path, the explicit `crc32c_sw`
        // never does.
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131)) as u8).collect();
        for len in 0..data.len() {
            let sw = crc32c_sw(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(sw, crc32c(&data[..len]), "length {len}");
        }
    }

    fn sample_aggregates() -> CityAggregates {
        let mut agg = CityAggregates::new();
        agg.observations = 7;
        agg.segments.insert(
            2,
            SegmentStats {
                reports: 3,
                observations: 7,
                sum_count: 9,
                peak_count: 4,
                multi_occupied_peaks: 1,
            },
        );
        agg.flow.record(SegmentId(2), 5);
        agg.speeds.record(23.4);
        agg.speeds.record(31.0);
        agg.od.record(PoleId(1), PoleId(2));
        agg.positions.sum_sigma_cm = 1200;
        agg.positions.two_reader_fixes = 4;
        agg
    }

    #[test]
    fn pane_record_round_trips() {
        let agg = sample_aggregates();
        let delta = TrackerDelta {
            upserts: vec![TagRecord {
                key: 99,
                prev_pole: u32::MAX,
                last_pole: 1,
                prev_segment: u16::MAX,
                last_segment: 2,
                arrival_us: 10,
                last_seen_us: 20,
                last_cycle: 0,
                sightings: 2,
                track: {
                    let mut t = [(0, 0.0, 0.0); TRACK_CAP];
                    t[0] = (10, 1.5, -2.5);
                    t
                },
                track_len: 1,
            }],
            removals: vec![7],
            aliases: vec![(7, 99)],
            stats: AliasStats {
                decode_upgrades: 1,
                alias_hits: 3,
                alias_collisions: 0,
            },
        };
        let payload = encode_pane(
            42,
            true,
            3,
            agg.fingerprint(),
            0xDEAD,
            &agg,
            std::slice::from_ref(&delta),
        );
        match decode_record(&payload).expect("decode") {
            LogRecord::Pane(p) => {
                assert_eq!(p.pane, 42);
                assert!(p.forced);
                assert_eq!(p.pole_misses, 3);
                assert_eq!(p.chain, 0xDEAD);
                assert_eq!(p.fingerprint, agg.fingerprint());
                assert_eq!(p.aggregates, agg);
                assert_eq!(p.aggregates.fingerprint(), agg.fingerprint());
                assert_eq!(p.deltas, vec![delta]);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn pane_bytes_split_the_encoded_length_exactly() {
        let (agg, _) = seeded_pane(0x5EED, 120);
        let mut track = [(0, 0.0, 0.0); TRACK_CAP];
        track[..3].copy_from_slice(&[(1, 1.0, 2.0), (2, 3.0, 4.0), (3, 5.0, 6.0)]);
        let rec = TagRecord {
            key: 4,
            prev_pole: 0,
            last_pole: 1,
            prev_segment: 0,
            last_segment: 1,
            arrival_us: 1,
            last_seen_us: 3,
            last_cycle: 0,
            sightings: 3,
            track,
            track_len: 3,
        };
        let deltas = [
            TrackerDelta {
                upserts: vec![
                    rec,
                    TagRecord {
                        key: 5,
                        track_len: 0,
                        ..rec
                    },
                ],
                removals: vec![9],
                aliases: vec![(9, 4)],
                ..TrackerDelta::default()
            },
            TrackerDelta::default(),
        ];
        let bytes = PaneBytes::of(&agg, &deltas);
        assert_eq!(bytes.od_rows, agg.od.len() * 16);
        assert_eq!((bytes.upsert_count, bytes.track_points), (2, 3));
        assert_eq!(bytes.upserts, 2 * 49 + 3 * 24);
        assert_eq!(bytes.removals_and_aliases, 8 + 16);
        // A buffer that held a larger record, cleared, takes a smaller one
        // with no stale tail.
        let mut buf = encode_pane(1, false, 0, 2, 3, &agg, &deltas);
        assert_eq!(buf.len(), bytes.total());
        let fresh = encode_pane(7, true, 1, 2, 3, &agg, &deltas[1..]);
        buf.clear();
        encode_pane_into(&mut buf, 7, true, 1, 2, 3, &agg, &deltas[1..]);
        assert_eq!(buf, fresh);
        assert_eq!(fresh.len(), PaneBytes::of(&agg, &deltas[1..]).total());
    }

    #[test]
    fn snapshot_and_dead_pole_round_trip() {
        let snap = SnapshotRecord {
            next_pane: 17,
            chain: 0xBEEF,
            forced_panes: 2,
            forced_pole_misses: 5,
            dead_poles: vec![3, 9],
            total: sample_aggregates(),
            trackers: vec![TrackerDelta::default(), TrackerDelta::default()],
        };
        let payload = encode_snapshot(&snap);
        assert_eq!(
            decode_record(&payload).expect("decode"),
            LogRecord::Snapshot(snap)
        );
        assert_eq!(
            decode_record(&encode_dead_pole(12)).expect("decode"),
            LogRecord::DeadPole(12)
        );
    }

    /// FNV-1a-64 over raw bytes, kept here so the golden below depends on
    /// nothing but the encoder.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A pane's aggregate from a fixed LCG stream: every row kind, OD
    /// rows over a pole universe that includes `0` and `u32::MAX`; beside
    /// it, the pane's OD pairs counted in a plain map.
    fn seeded_pane(seed: u64, od_rows: usize) -> (CityAggregates, BTreeMap<(u32, u32), u64>) {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u32
        };
        let pole = |r: u32| match r % 9 {
            0 => 0,
            1 => u32::MAX,
            _ => r % 40,
        };
        let (mut agg, mut od) = (CityAggregates::new(), BTreeMap::new());
        for _ in 0..od_rows {
            let (from, to) = (pole(next()), pole(next()));
            agg.od.record(PoleId(from), PoleId(to));
            *od.entry((from, to)).or_insert(0) += 1;
            agg.observations += 1;
        }
        for _ in 0..12 {
            let r = next();
            agg.record_report(SegmentId((r % 5) as u16), r % 7, r % 11, r % 2);
            agg.flow.record(SegmentId((r % 4) as u16), next() % 6);
            agg.speeds.record(f64::from(next() % 1_700) / 10.0);
            agg.positions.sum_sigma_cm += u64::from(r % 500);
        }
        (agg, od)
    }

    #[test]
    fn pane_and_snapshot_bytes_are_pinned() {
        // Recorded before the OD matrix changed representation; never edit
        // the literals. Two panes that share OD pairs, and the snapshot of
        // their sum, so a pair summed across panes is in the bytes too.
        let ((a, a_od), (b, b_od)) = (seeded_pane(0x5EED, 120), seeded_pane(0xB0A7, 120));
        let mut total = a.clone();
        total.merge(&b);
        let mut rows = a_od.clone();
        rows.extend(
            b_od.iter()
                .map(|(&k, &n)| (k, n + a_od.get(&k).unwrap_or(&0))),
        );
        assert!(rows.len() >= 50, "{} OD rows", rows.len());
        assert!(rows.keys().any(|&(f, t)| f == 0 || t == 0));
        assert!(rows.keys().any(|&(f, t)| f == u32::MAX || t == u32::MAX));
        assert!(
            b_od.keys().any(|k| a_od.contains_key(k)),
            "a pair in both panes"
        );
        let delta = TrackerDelta {
            removals: vec![3, 8],
            ..TrackerDelta::default()
        };
        let mut bytes = encode_pane(5, false, 0, a.fingerprint(), 0x1234, &a, &[]);
        bytes.extend(encode_pane(
            6,
            true,
            2,
            b.fingerprint(),
            0x5678,
            &b,
            &[delta],
        ));
        let panes = fnv1a(&bytes);
        let snapshot = fnv1a(&encode_snapshot(&SnapshotRecord {
            next_pane: 7,
            chain: 0x5678,
            forced_panes: 1,
            forced_pole_misses: 2,
            dead_poles: vec![0, u32::MAX],
            total,
            trackers: vec![TrackerDelta::default()],
        }));
        assert_eq!(
            (panes, snapshot),
            (0x0390_c78c_6d5d_0580, 0x121e_1543_81ca_601e),
            "{panes:#018x} {snapshot:#018x}"
        );
    }

    /// Little-endian bytes of one encoded row, from `(value, width)` fields.
    fn row(fields: &[(u64, usize)]) -> Vec<u8> {
        let bytes = |&(v, w): &(u64, usize)| v.to_le_bytes().into_iter().take(w);
        fields.iter().flat_map(bytes).collect()
    }

    /// `payload` with its one occurrence of `rows` replaced by `with`.
    fn replaced(payload: &[u8], rows: &[u8], with: &[u8]) -> Vec<u8> {
        let hits: Vec<usize> = payload
            .windows(rows.len())
            .enumerate()
            .filter(|(_, w)| *w == rows)
            .map(|(at, _)| at)
            .collect();
        assert_eq!(hits.len(), 1, "the rows occur once");
        let mut out = payload.to_vec();
        out[hits[0]..hits[0] + rows.len()].copy_from_slice(with);
        out
    }

    #[test]
    fn out_of_canon_rows_are_refused_not_merged() {
        // Two rows in each keyed list; the writer emits them ascending.
        let mut agg = CityAggregates::new();
        agg.segments.entry(2).or_default().reports = 1;
        agg.segments.entry(5).or_default().reports = 2;
        agg.flow.record(SegmentId(1), 3);
        agg.flow.record(SegmentId(1), 4);
        agg.speeds.record(10.0);
        agg.speeds.record(20.0);
        agg.od.record(PoleId(1), PoleId(2));
        agg.od.record(PoleId(3), PoleId(4));
        let segment = |seg, reports| row(&[(seg, 2), (reports, 8), (0, 8), (0, 8), (0, 4), (0, 8)]);
        let flow = |cycle| row(&[(1, 2), (cycle, 4), (1, 8)]);
        let bin = |bin| row(&[(bin, 2), (1, 8)]);
        let od = |from, to, n| row(&[(from, 4), (to, 4), (n, 8)]);
        let lists = [
            ("segment", segment(2, 1), segment(5, 2)),
            ("flow row", flow(3), flow(4)),
            ("speed bin", bin(20), bin(40)),
            ("OD rows", od(1, 2, 1), od(3, 4, 1)),
        ];
        // (error names, rows as written, what a crafted record holds)
        let n_bins = SpeedHistogram::N_BINS as u64;
        let mut cases = vec![
            (
                "speed bin 300 past",
                [bin(20), bin(40)],
                [bin(20), bin(n_bins)],
            ),
            (
                "OD rows",
                [od(1, 2, 1), od(3, 4, 1)],
                [od(1, 2, 1), od(3, 4, 0)],
            ),
        ];
        for (what, a, b) in lists {
            cases.push((what, [a.clone(), b.clone()], [b.clone(), a.clone()]));
            cases.push((what, [a.clone(), b.clone()], [b.clone(), b]));
        }
        let pane = encode_pane(1, false, 0, agg.fingerprint(), 7, &agg, &[]);
        assert!(matches!(decode_record(&pane), Ok(LogRecord::Pane(p)) if p.aggregates == agg));
        for (what, rows, crafted) in cases {
            let crafted = replaced(&pane, &rows.concat(), &crafted.concat());
            let err = decode_record(&crafted).unwrap_err();
            assert!(err.contains(what), "{what}: got {err:?}");
        }

        // A snapshot's totals carry no fingerprint, so the decoder is all
        // that stands between swapped rows and a silent loss: swap two OD
        // rows on disk, recompute the frame's CRC, and read it back.
        let dir = std::env::temp_dir().join(format!("caraoke-codec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer =
            crate::SegmentWriter::create(&dir, crate::LogOptions::default()).expect("create");
        writer
            .append_snapshot(&SnapshotRecord {
                next_pane: 2,
                chain: 7,
                forced_panes: 0,
                forced_pole_misses: 0,
                dead_poles: Vec::new(),
                total: agg,
                trackers: vec![TrackerDelta::default()],
            })
            .expect("snapshot");
        drop(writer);
        let reader = crate::LogReader::open(&dir).expect("open");
        let path = dir.join(&reader.segments()[0]);
        let bytes = std::fs::read(&path).expect("read segment");
        let (a, b) = (od(1, 2, 1), od(3, 4, 1));
        let mut bytes = replaced(&bytes, &[a.clone(), b.clone()].concat(), &[b, a].concat());
        let payload = crate::segment::HEADER_LEN as usize + 8;
        let crc = crc32c(&bytes[payload..]);
        bytes[payload - 4..payload].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, bytes).expect("write segment");
        let first = crate::LogReader::open(&dir).expect("open").records().next();
        let _ = std::fs::remove_dir_all(&dir);
        match first {
            Some(Err(crate::LogError::Decode { what, .. })) => assert!(what.contains("OD rows")),
            other => panic!("swapped snapshot rows read as {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let payload = encode_dead_pole(12);
        assert!(decode_record(&payload[..payload.len() - 1])
            .unwrap_err()
            .contains("dead pole id"));
        let mut padded = payload;
        padded.push(0);
        assert!(decode_record(&padded).unwrap_err().contains("trailing"));
        assert!(decode_record(&[200]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn every_length_prefix_rejects_a_count_the_payload_cannot_hold() {
        // Records with every collection empty, so each `u32` count sits at
        // a fixed offset: header, then the aggregate block (observations,
        // 0 segments, 0 flow rows, speed samples + sum, 0 bins, 0 OD rows,
        // six position counters), then the shard count and one empty delta.
        let empty = CityAggregates::new();
        let pane = encode_pane(3, false, 0, 1, 2, &empty, &[TrackerDelta::default()]);
        let snap = encode_snapshot(&SnapshotRecord {
            next_pane: 4,
            chain: 2,
            forced_panes: 0,
            forced_pole_misses: 0,
            dead_poles: Vec::new(),
            total: empty,
            trackers: vec![TrackerDelta::default()],
        });
        let agg = 1 + 8 + 1 + 4 + 8 + 8; // after the pane header
        let shards = agg + 8 + 4 + 4 + 16 + 4 + 4 + 48;
        let dead = 1 + 8 + 8 + 8 + 8; // after the snapshot header

        // (payload, offset of the prefix, the count encoded there, field)
        let cases: [(&[u8], usize, u32, &str); 10] = [
            (&pane, agg + 8, 0, "segment count"),
            (&pane, agg + 12, 0, "flow count"),
            (&pane, agg + 32, 0, "speed bin count"),
            (&pane, agg + 36, 0, "od count"),
            (&pane, shards, 1, "pane shard count"),
            (&pane, shards + 4, 0, "upsert count"),
            (&pane, shards + 8, 0, "removal count"),
            (&pane, shards + 12, 0, "alias count"),
            (&snap, dead, 0, "snapshot dead count"),
            (&snap, dead + 4 + (shards - agg), 1, "snapshot shard count"),
        ];
        for (payload, at, encoded, what) in cases {
            assert!(decode_record(payload).is_ok(), "{what}: baseline decodes");
            assert_eq!(payload[at..at + 4], encoded.to_le_bytes(), "{what}: offset");
            let mut crafted = payload.to_vec();
            crafted[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            // Reserving for the claimed count would abort the process, so
            // an `Err` naming the prefix is also the no-allocation check.
            let err = decode_record(&crafted).unwrap_err();
            assert!(err.contains(what), "{what}: got {err:?}");
        }
    }
}
