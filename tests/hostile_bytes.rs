//! Hostile bytes at the wire's frame decoder and at the serve session, the
//! server side of one TCP connection.
//!
//! Each case draws a byte string from a seed: arbitrary bytes, or a valid
//! frame stream that is cut at an arbitrary point, has bytes flipped, or has
//! a zero, oversized or random length prefix spliced in at a frame boundary.
//! The same bytes then go in as one chunk, one byte at a time, and in random
//! splits, and every split must agree:
//!
//! * nothing panics;
//! * [`FrameDecoder`] yields the same frames and stops at the same error
//!   after taking the same bytes, and [`read_frame`] reads the same; every
//!   frame whose bytes are intact decodes to the frame that was written;
//! * the decoder never holds more than one frame (`4 + MAX_FRAME_BYTES`),
//!   and it refuses an out-of-range length prefix holding that prefix and
//!   no byte of the body;
//! * a [`Session`] over a stepped hub, with a round after each chunk, ends
//!   in the same state with the same error, and writes the same bytes — or,
//!   when the stream ends in an error, at least what the unsplit stream
//!   wrote: the rounds between chunks may have sent more before it —
//!   whether or not the stream starts with a valid hello.

use caraoke_suite::city::{FrameSource, SegmentId, StoreConfig, SyntheticCity};
use caraoke_suite::live::{Clock, LiveCity, LiveConfig, LiveQuery, ManualClock, WindowSpec};
use caraoke_suite::serve::wire::MAX_FRAME_BYTES;
use caraoke_suite::serve::{
    read_frame, write_frame, Frame, FrameDecoder, ServeHub, Session, Subscription, Wants,
    WIRE_VERSION,
};
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::{RngExt, SeedableRng};
use std::io;
use std::sync::Arc;

/// Where a byte string stopped: `Ok` at its end, or the error's kind and
/// message.
type Outcome = Result<(), (io::ErrorKind, String)>;

fn outcome(result: io::Result<()>) -> Outcome {
    result.map_err(|e| (e.kind(), e.to_string()))
}

/// A query, valid or built to be awkward: any segment, huge windows, a huge
/// top-n.
fn query(rng: &mut StdRng) -> LiveQuery {
    let width_us = if rng.random() {
        1_500_000 * rng.random_range(1..8u64)
    } else {
        rng.random_range(1..u64::MAX)
    };
    let window = WindowSpec {
        width_us,
        slide_us: rng.random_range(1..=width_us),
    };
    match rng.random_range(0..6u32) {
        0 => LiveQuery::Occupancy {
            segment: SegmentId(rng.random()),
            window,
        },
        1 => LiveQuery::Flow {
            segment: SegmentId(rng.random()),
            last_cycles: rng.random(),
        },
        2 => LiveQuery::SpeedPercentile {
            p: rng.random_range(-10.0..110.0),
            window,
        },
        3 => LiveQuery::TopOd {
            n: if rng.random() { 5 } else { rng.random() },
            window,
        },
        4 => LiveQuery::PositionAccuracy { window },
        _ => LiveQuery::Watermark,
    }
}

fn frame(rng: &mut StdRng) -> Frame {
    let bytes = |rng: &mut StdRng| (0..rng.random_range(0..40)).map(|_| rng.random()).collect();
    match rng.random_range(0..8u32) {
        0 => Frame::Hello {
            version: rng.random_range(0..4),
        },
        1 | 2 => Frame::Subscribe {
            sub_id: rng.random(),
            from_start: rng.random(),
            from_pane: rng.random::<bool>().then(|| rng.random_range(0..4)),
            query: query(rng),
        },
        3 => Frame::Snapshot {
            sub_id: rng.random(),
            pane: rng.random(),
            age_us: rng.random(),
            answer: bytes(rng),
        },
        4 => Frame::Delta {
            sub_id: rng.random(),
            pane: rng.random(),
            age_us: rng.random(),
            answer: bytes(rng),
        },
        5 => Frame::LagNotice {
            behind_panes: rng.random(),
        },
        6 => Frame::Dropped {
            behind_panes: rng.random(),
        },
        _ => Frame::Ack {
            count: rng.random(),
        },
    }
}

/// The bytes the case `seed` draws, the frames it wrote whose bytes are
/// intact (every one before the first cut or flipped byte), and where an
/// out-of-range prefix was spliced in.
fn hostile_bytes(seed: u64) -> (Vec<u8>, Vec<Frame>, Option<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.random_range(0..4u32) == 0 {
        let len = rng.random_range(0..64);
        return ((0..len).map(|_| rng.random()).collect(), Vec::new(), None);
    }
    let (mut bytes, mut frames, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    if rng.random() {
        frames.push(Frame::Hello {
            version: WIRE_VERSION,
        });
    }
    frames.extend((0..rng.random_range(0..12)).map(|_| frame(&mut rng)));
    for frame in &frames {
        write_frame(&mut bytes, frame).expect("in memory");
        ends.push(bytes.len());
    }
    // Keeps the frames that end at or before `at`.
    let intact = |frames: &mut Vec<Frame>, at: usize| {
        frames.truncate(ends.iter().take_while(|&&end| end <= at).count());
    };
    match rng.random_range(0..3u32) {
        0 => {
            let cut = rng.random_range(0..=bytes.len());
            bytes.truncate(cut);
            intact(&mut frames, cut);
        }
        1 if !bytes.is_empty() => {
            for _ in 0..rng.random_range(1..4) {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
                intact(&mut frames, at);
            }
        }
        _ => {
            let len = match rng.random_range(0..3u32) {
                0 => 0,
                1 => MAX_FRAME_BYTES as u32 + 1,
                _ => rng.random_range(MAX_FRAME_BYTES as u32 + 1..=u32::MAX),
            };
            let at = bytes.len();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend((0..rng.random_range(0..32)).map(|_| rng.random::<u8>()));
            return (bytes, frames, Some(at));
        }
    }
    (bytes, frames, None)
}

/// The byte string in the splits every case tries: whole, a byte at a time,
/// and three random splits.
fn splits(bytes: &[u8], rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut splits = vec![vec![bytes.len()], vec![1; bytes.len()]];
    for _ in 0..3 {
        let mut sizes = Vec::new();
        let mut left = bytes.len();
        while left > 0 {
            let n = rng.random_range(1..=left.min(24));
            sizes.push(n);
            left -= n;
        }
        splits.push(sizes);
    }
    splits
}

/// Decodes `bytes` fed in chunks of `sizes`: the frames, where it stopped,
/// and the bytes it took.
fn decode(bytes: &[u8], sizes: &[usize]) -> (Vec<Frame>, Outcome, usize) {
    let mut decoder = FrameDecoder::default();
    let (mut frames, mut taken) = (Vec::new(), 0);
    for chunk in chunks(bytes, sizes) {
        let mut input = chunk;
        loop {
            let result = decoder.decode(&mut input);
            assert!(decoder.buffered() <= 4 + MAX_FRAME_BYTES);
            match result {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => {
                    taken += chunk.len() - input.len();
                    if e.to_string().contains("out of range") {
                        assert_eq!(decoder.buffered(), 4, "the prefix and no body byte");
                    }
                    return (frames, outcome(Err(e)), taken);
                }
            }
        }
        assert!(
            input.is_empty(),
            "a chunk is taken whole unless an error stops it"
        );
        taken += chunk.len();
    }
    (frames, outcome(decoder.finish()), taken)
}

/// `bytes` cut into consecutive chunks of `sizes`.
fn chunks<'a>(bytes: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    sizes.iter().scan(0, move |at, &n| {
        *at += n;
        Some(&bytes[*at - n..*at])
    })
}

/// A hub over a stepped engine on a manual clock with two panes sealed, so
/// a subscribe is answered with a head frame.
fn stepped_hub() -> Arc<ServeHub> {
    let city = SyntheticCity::new(2, 4, 11);
    let config = LiveConfig {
        store: StoreConfig {
            shards: 1,
            ..Default::default()
        },
        pane_us: 1_500_000,
        lateness_panes: 0,
        ..Default::default()
    };
    let clock = Clock::Manual(Arc::new(ManualClock::new()));
    let live = LiveCity::with_clock(city.directory().clone(), config, clock);
    for epoch in 0..3 {
        for pole in 0..2 {
            live.ingest(&city.report(pole, epoch));
        }
        live.seal_step();
    }
    assert_eq!(live.sealed_panes(), 2);
    ServeHub::over_live(Arc::new(live), None, Default::default())
}

/// Feeds `bytes` in chunks of `sizes` to a new session, with a round
/// whenever a round's share of client frames is used up and after each
/// chunk: what it wrote, where it stopped, and whether it closed.
fn drive(hub: &Arc<ServeHub>, bytes: &[u8], sizes: &[usize]) -> (Vec<u8>, Outcome, Wants) {
    let mut session = Session::new(Arc::clone(hub));
    let mut written = Vec::new();
    let mut result = Ok(());
    'feed: for chunk in chunks(bytes, sizes) {
        let mut input = chunk;
        loop {
            match session.on_bytes(input) {
                Ok(n) => input = &input[n..],
                Err(e) => {
                    result = Err(e);
                    break 'feed;
                }
            }
            session.on_round(Subscription::poll);
            written.extend(session.output());
            if input.is_empty() || session.wants() == Wants::Close {
                break;
            }
        }
    }
    if result.is_ok() && session.wants() != Wants::Close {
        result = session.on_eof();
    }
    written.extend(session.output());
    (written, outcome(result), session.wants())
}

proptest! {
    #[test]
    fn every_split_of_hostile_bytes_decodes_alike(seed in any::<u64>()) {
        let (bytes, intact, spliced) = hostile_bytes(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5b1175);
        let splits = splits(&bytes, &mut rng);
        let whole = decode(&bytes, &splits[0]);
        for sizes in &splits[1..] {
            prop_assert!(decode(&bytes, sizes) == whole, "seed {}: {:?}", seed, sizes);
        }
        // Every intact frame decodes to the frame that was written.
        prop_assert!(whole.0.get(..intact.len()) == Some(&intact[..]), "seed {}", seed);
        if let (Some(at), Err((kind, message))) = (spliced, &whole.1) {
            if message.contains("out of range") {
                prop_assert_eq!(*kind, io::ErrorKind::InvalidData);
                prop_assert!(whole.2 == at + 4, "seed {}: stopped after the prefix", seed);
            }
        }
        // read_frame reads the same frames and stops alike.
        let mut rd = bytes.as_slice();
        let mut frames = Vec::new();
        let end = loop {
            match read_frame(&mut rd) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break Ok(()),
                Err(e) => break Err((e.kind(), e.to_string())),
            }
        };
        prop_assert!((&frames, &end) == (&whole.0, &whole.1), "seed {}", seed);
    }

    #[test]
    fn every_split_of_hostile_bytes_drives_a_session_alike(seed in any::<u64>()) {
        let (bytes, _, _) = hostile_bytes(seed);
        let hub = stepped_hub();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e5510);
        let splits = splits(&bytes, &mut rng);
        let whole = drive(&hub, &bytes, &splits[0]);
        for sizes in &splits[1..] {
            // A round after each chunk writes what the session owes so
            // far, so a split stream that ends in an error may have written
            // more before it; without one, every split writes the same.
            let split = drive(&hub, &bytes, sizes);
            prop_assert!(split.1 == whole.1 && split.2 == whole.2, "seed {}: {:?}", seed, sizes);
            let same = if whole.1.is_ok() { split.0 == whole.0 } else { split.0.starts_with(&whole.0) };
            prop_assert!(same, "seed {}: {:?}", seed, sizes);
        }
        prop_assert!(whole.2 == Wants::Close, "seed {}: the stream ended", seed);
    }
}
