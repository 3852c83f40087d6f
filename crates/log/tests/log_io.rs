//! Writer/reader round-trips and the corruption taxonomy, without the live
//! engine: panes are hand-built, so every failure mode can be injected
//! precisely.

use caraoke_city::aggregate::Fingerprint;
use caraoke_city::store::TrackerDelta;
use caraoke_city::{CityAggregates, PoleId, SegmentId};
use caraoke_log::codec::{encode_pane, LogRecord};
use caraoke_log::segment::{scan_valid_len, FsyncPolicy, HEADER_LEN};
use caraoke_log::{recover_state, LogCity, LogError, LogOptions, LogReader, SegmentWriter};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch directory under the target dir, wiped per test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn pane_aggregates(pane: u64) -> CityAggregates {
    let mut agg = CityAggregates::new();
    agg.observations = pane + 1;
    agg.flow.record(SegmentId((pane % 3) as u16), pane as u32);
    agg.od.record(PoleId(pane as u32), PoleId(pane as u32 + 1));
    agg.speeds.record(20.0 + pane as f64);
    agg
}

/// Writes `n` chained panes (no tracker deltas) and returns the final
/// chain state.
fn write_panes(writer: &mut SegmentWriter, first: u64, n: u64, chain: &mut Fingerprint) -> u64 {
    let mut last = chain.finish();
    for pane in first..first + n {
        let agg = pane_aggregates(pane);
        let fp = agg.fingerprint();
        chain.write_u64(pane);
        chain.write_u64(fp);
        last = chain.finish();
        writer
            .append_pane(pane, false, 0, fp, last, &agg, &[])
            .expect("append");
        writer.commit_seal().expect("commit");
    }
    last
}

#[test]
fn write_then_verified_replay_round_trips() {
    let dir = scratch("round_trip");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    let last = write_panes(&mut writer, 0, 12, &mut chain);
    drop(writer);

    let replay = LogCity::open(&dir).replay().expect("replay");
    assert_eq!(replay.panes, 12);
    assert_eq!(replay.first_pane, 0);
    assert_eq!(replay.next_pane, 12);
    assert_eq!(replay.chain, last);
    assert_eq!(replay.torn_tail_bytes, 0);
    let expected: u64 = (1..=12).sum();
    assert_eq!(replay.totals.observations, expected);

    // Double create is refused: a log directory is append-only state.
    let err = SegmentWriter::create(&dir, LogOptions::default()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
}

#[test]
fn segment_rotation_and_cursor_from_pane() {
    let dir = scratch("rotation");
    let opts = LogOptions {
        segment_bytes: 256, // rotate roughly every couple of panes
        snapshot_every_panes: 0,
        ..LogOptions::default()
    };
    let mut writer = SegmentWriter::create(&dir, opts).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 10, &mut chain);
    assert!(
        writer.segments().len() > 2,
        "256-byte segments must rotate: {:?}",
        writer.segments()
    );
    drop(writer);

    let reader = LogReader::open(&dir).expect("open");
    let panes: Vec<u64> = reader
        .records()
        .map(|r| match r.expect("verified") {
            LogRecord::Pane(p) => p.pane,
            other => panic!("unexpected {other:?}"),
        })
        .filter(|&pane| pane >= 6)
        .collect();
    assert_eq!(panes, vec![6, 7, 8, 9]);
}

#[test]
fn torn_tail_is_counted_skipped_and_repaired() {
    let dir = scratch("torn_tail");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 5, &mut chain);
    drop(writer);

    // Chop the last record in half: a crash mid-write.
    let last_seg = LogReader::open(&dir)
        .expect("open")
        .segments()
        .last()
        .unwrap()
        .clone();
    let path = dir.join(&last_seg);
    let len = fs::metadata(&path).unwrap().len();
    let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let replay = LogCity::open(&dir)
        .replay()
        .expect("torn tail is not fatal");
    assert_eq!(replay.panes, 4, "the half record must be dropped");
    assert!(replay.torn_tail_bytes > 0);

    // Reopening for append repairs the tail on disk.
    let expected_valid = scan_valid_len(&path).unwrap();
    let writer =
        SegmentWriter::open_for_append(&dir, LogOptions::default(), replay.next_pane).unwrap();
    assert_eq!(fs::metadata(&path).unwrap().len(), expected_valid);
    assert!(expected_valid >= HEADER_LEN);
    drop(writer);
    let repaired = LogCity::open(&dir).replay().expect("repaired");
    assert_eq!(repaired.panes, 4);
    assert_eq!(repaired.torn_tail_bytes, 0);
}

#[test]
fn flipped_byte_is_a_crc_error() {
    let dir = scratch("bit_flip");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 6, &mut chain);
    drop(writer);

    let seg = LogReader::open(&dir).expect("open").segments()[0].clone();
    let path = dir.join(&seg);
    let mut bytes = fs::read(&path).unwrap();
    // Flip one payload byte somewhere in the middle of the file, past the
    // header and the first frame words.
    let victim = bytes.len() / 2;
    bytes[victim] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let err = LogCity::open(&dir).replay().unwrap_err();
    assert!(
        matches!(err, LogError::Crc { .. }),
        "a flipped byte must surface as a CRC mismatch, got {err}"
    );
}

#[test]
fn a_segment_of_any_other_format_version_is_a_typed_bad_header() {
    // Version 1 (CRC32-IEEE frames) was never written by any build; it and
    // every unknown version are refused up front, not CRC-checked by guess.
    let dir = scratch("other_version");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    write_panes(&mut writer, 0, 2, &mut Fingerprint::new());
    drop(writer);
    let seg = LogReader::open(&dir).expect("open").segments()[0].clone();
    for version in [1u32, 3] {
        let mut bytes = fs::read(dir.join(&seg)).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        fs::write(dir.join(&seg), &bytes).unwrap();
        let err = LogCity::open(&dir).replay().unwrap_err();
        assert!(
            matches!(err, LogError::BadHeader { .. }),
            "version {version}: expected a bad-header error, got {err}"
        );
        assert_eq!(scan_valid_len(&dir.join(&seg)).unwrap(), 0);
    }
}

#[test]
fn tampered_chain_with_clean_crc_is_a_chain_break() {
    let dir = scratch("chain_break");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 3, &mut chain);
    // Craft pane 3 with a valid CRC and self-consistent fingerprint but a
    // bogus chain value — CRC cannot catch this; the chain must.
    let agg = pane_aggregates(3);
    let payload = encode_pane(3, false, 0, agg.fingerprint(), 0xBAD0_BAD0, &agg, &[]);
    append_raw(&dir, &payload);

    let err = LogCity::open(&dir).replay().unwrap_err();
    match err {
        LogError::ChainBreak { pane, found, .. } => {
            assert_eq!(pane, 3);
            assert_eq!(found, 0xBAD0_BAD0);
        }
        other => panic!("expected ChainBreak, got {other}"),
    }
}

#[test]
fn tampered_aggregates_with_clean_crc_is_a_fingerprint_mismatch() {
    let dir = scratch("fp_mismatch");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 2, &mut chain);
    // Fingerprint of different aggregates than the ones encoded.
    let agg = pane_aggregates(2);
    let other = pane_aggregates(7);
    chain.write_u64(2);
    chain.write_u64(other.fingerprint());
    let payload = encode_pane(2, false, 0, other.fingerprint(), chain.finish(), &agg, &[]);
    append_raw(&dir, &payload);

    let err = LogCity::open(&dir).replay().unwrap_err();
    assert!(
        matches!(err, LogError::FingerprintMismatch { pane: 2, .. }),
        "got {err}"
    );
}

#[test]
fn pane_gap_and_missing_snapshot_are_detected() {
    let dir = scratch("pane_gap");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    write_panes(&mut writer, 0, 2, &mut chain);
    let agg = pane_aggregates(5);
    chain.write_u64(5);
    chain.write_u64(agg.fingerprint());
    append_raw(
        &dir,
        &encode_pane(5, false, 0, agg.fingerprint(), chain.finish(), &agg, &[]),
    );
    let err = LogCity::open(&dir).replay().unwrap_err();
    assert!(
        matches!(
            err,
            LogError::PaneGap {
                expected: 2,
                found: 5
            }
        ),
        "got {err}"
    );

    // A log whose first pane is nonzero with no snapshot cannot anchor.
    let dir2 = scratch("missing_snapshot");
    let writer = SegmentWriter::create(&dir2, LogOptions::default()).expect("create");
    drop(writer);
    let agg = pane_aggregates(4);
    let mut c = Fingerprint::new();
    c.write_u64(4);
    c.write_u64(agg.fingerprint());
    append_raw(
        &dir2,
        &encode_pane(4, false, 0, agg.fingerprint(), c.finish(), &agg, &[]),
    );
    let err = LogCity::open(&dir2).replay().unwrap_err();
    assert!(
        matches!(err, LogError::MissingSnapshot { first_pane: 4 }),
        "got {err}"
    );
}

#[test]
fn recover_state_rebuilds_ring_and_counters() {
    let dir = scratch("recover_state");
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create");
    let mut chain = Fingerprint::new();
    let mut last = 0u64;
    for pane in 0..9u64 {
        let agg = pane_aggregates(pane);
        let fp = agg.fingerprint();
        chain.write_u64(pane);
        chain.write_u64(fp);
        last = chain.finish();
        let deltas = vec![TrackerDelta::default(), TrackerDelta::default()];
        writer
            .append_pane(
                pane,
                pane == 4,
                u32::from(pane == 4) * 2,
                fp,
                last,
                &agg,
                &deltas,
            )
            .expect("append");
        writer.commit_seal().expect("commit");
    }
    drop(writer);

    let state = recover_state(&dir, 2, 4).expect("recover");
    assert_eq!(state.next_pane, 9);
    assert_eq!(state.chain_state, last);
    assert_eq!(state.forced_panes, 1);
    assert_eq!(state.forced_pole_misses, 2);
    assert_eq!(state.trackers.len(), 2);
    assert_eq!(
        state.ring.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
        vec![5, 6, 7, 8],
        "ring keeps the trailing retain_panes panes"
    );
    assert_eq!(state.total.observations, (1..=9).sum::<u64>());

    // Shard count is validated against the log.
    let err = recover_state(&dir, 8, 4).unwrap_err();
    assert!(matches!(
        err,
        LogError::ShardMismatch {
            expected: 8,
            found: 2
        }
    ));
}

#[test]
fn fsync_policies_all_produce_readable_logs() {
    for (name, policy) in [
        ("sync_every", FsyncPolicy::EverySeal),
        ("sync_n", FsyncPolicy::EveryN(2)),
        ("sync_never", FsyncPolicy::Never),
    ] {
        let dir = scratch(name);
        let opts = LogOptions {
            fsync: policy,
            ..LogOptions::default()
        };
        let mut writer = SegmentWriter::create(&dir, opts).expect("create");
        let mut chain = Fingerprint::new();
        write_panes(&mut writer, 0, 5, &mut chain);
        drop(writer);
        let replay = LogCity::open(&dir).replay().expect("replay");
        assert_eq!(replay.panes, 5, "{name}");
    }
}

/// Appends one raw framed record to the last segment, bypassing the
/// writer — the corruption-injection backdoor.
fn append_raw(dir: &Path, payload: &[u8]) {
    use std::io::Write;
    let seg = LogReader::open(dir)
        .expect("open")
        .segments()
        .last()
        .expect("segments")
        .clone();
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(dir.join(seg))
        .unwrap();
    // Frames appended onto a live (format v2) segment use CRC32C.
    let crc = caraoke_log::codec::crc32c(payload);
    file.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    file.write_all(&crc.to_le_bytes()).unwrap();
    file.write_all(payload).unwrap();
}
