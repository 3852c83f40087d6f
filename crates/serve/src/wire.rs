//! The versioned binary wire protocol: length-prefixed frames carrying
//! subscriptions, cached snapshots/deltas, and flow-control traffic.
//!
//! Every frame is `[body_len u32 LE][body]`; the body starts with a one-byte
//! frame type. Queries and answers have their own nested encodings —
//! deterministic (canonical) byte sequences, little-endian throughout,
//! `f64`s as IEEE-754 bit patterns. The canonical query encoding doubles as
//! the hub's **cache key**: two subscribers asking the same question encode
//! to the same bytes and share one per-seal computation.
//!
//! The answer bytes inside a [`Frame::Snapshot`] are exactly
//! [`encode_answer`] of the hub's [`LiveAnswer`] — the determinism contract
//! extends to the wire: a snapshot served over TCP is byte-identical to
//! encoding the in-process [`LiveCity::query`](caraoke_live::LiveCity::query)
//! result for the same pane.

use caraoke_city::SegmentId;
use caraoke_live::{LiveAnswer, LiveQuery, WindowSpec};
use caraoke_log::codec::{put_u32, put_u64, Dec};
use std::io::ErrorKind::{Interrupted, InvalidData, UnexpectedEof};
use std::io::{self, Read, Write};

/// Protocol version exchanged in [`Frame::Hello`]. Bump on any change to
/// the frame or query/answer encodings.
///
/// v2: [`Frame::Subscribe`] carries an optional `from_pane` resume cursor
/// (reconnecting clients resume gap-free where their stream was cut).
pub const WIRE_VERSION: u16 = 2;

/// Upper bound on a frame body; anything larger is corruption, not data.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// This side's hello, the first frame each side sends.
pub(crate) const HELLO: Frame = Frame::Hello {
    version: WIRE_VERSION,
};

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; first frame in each direction.
    Hello {
        /// Speaker's [`WIRE_VERSION`].
        version: u16,
    },
    /// Client → server: subscribe `sub_id` (client-chosen, echoed on every
    /// frame for this subscription) to one query.
    Subscribe {
        /// Client-chosen subscription id.
        sub_id: u32,
        /// Start at pane 0 (catch up through the pane log) instead of at
        /// the head.
        from_start: bool,
        /// Resume cursor: deliver every pane from this one on (catching up
        /// through the pane log as needed), regardless of `from_start`.
        /// How a reconnecting client continues gap-free after a cut.
        from_pane: Option<u64>,
        /// The registered query.
        query: LiveQuery,
    },
    /// Server → client: a full cached answer for `sub_id` at `pane`.
    Snapshot {
        /// Echoed subscription id.
        sub_id: u32,
        /// Newest sealed pane the answer covers.
        pane: u64,
        /// Seal→send staleness, µs of wall clock.
        age_us: u64,
        /// [`encode_answer`] bytes.
        answer: Vec<u8>,
    },
    /// Server → client: an incremental head advance (same payload shape as
    /// a snapshot; the kind tells the consumer it extends the stream rather
    /// than re-baselines it).
    Delta {
        /// Echoed subscription id.
        sub_id: u32,
        /// Newest sealed pane the answer covers.
        pane: u64,
        /// Seal→send staleness, µs of wall clock.
        age_us: u64,
        /// [`encode_answer`] bytes.
        answer: Vec<u8>,
    },
    /// Server → client: this connection's cursor has fallen `behind_panes`
    /// behind the head — speed up or be dropped.
    LagNotice {
        /// Panes between the connection's slowest cursor and the head.
        behind_panes: u64,
    },
    /// Server → client: the cursor-lag bound was crossed; the connection is
    /// closed after this frame.
    Dropped {
        /// Lag at drop time, panes.
        behind_panes: u64,
    },
    /// Client → server flow control: `count` more delivered frames were
    /// consumed. A server stops delivering (and the lag policy takes over)
    /// once too many frames are unacknowledged.
    Ack {
        /// Frames consumed since the last ack.
        count: u32,
    },
}

const T_HELLO: u8 = 1;
const T_SUBSCRIBE: u8 = 2;
const T_SNAPSHOT: u8 = 3;
const T_DELTA: u8 = 4;
const T_LAG: u8 = 5;
const T_DROPPED: u8 = 6;
const T_ACK: u8 = 7;

const Q_OCCUPANCY: u8 = 1;
const Q_FLOW: u8 = 2;
const Q_SPEED: u8 = 3;
const Q_TOP_OD: u8 = 4;
const Q_POSITION: u8 = 5;
const Q_WATERMARK: u8 = 6;

fn put_window(out: &mut Vec<u8>, w: &WindowSpec) {
    put_u64(out, w.width_us);
    put_u64(out, w.slide_us);
}

fn get_window(dec: &mut Dec<'_>) -> Result<WindowSpec, String> {
    let width_us = dec.u64("window width")?;
    let slide_us = dec.u64("window slide")?;
    // Validate by hand: the WindowSpec constructors assert, and decoders
    // must reject bad bytes with an error, not a panic.
    if slide_us == 0 || width_us < slide_us {
        return Err(format!("invalid window {width_us}us/{slide_us}us"));
    }
    Ok(WindowSpec { width_us, slide_us })
}

/// Canonical encoding of a query — the hub's cache key: equal queries
/// always produce equal bytes.
pub fn encode_query(query: &LiveQuery) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    match *query {
        LiveQuery::Occupancy { segment, window } => {
            out.push(Q_OCCUPANCY);
            out.extend_from_slice(&segment.0.to_le_bytes());
            put_window(&mut out, &window);
        }
        LiveQuery::Flow {
            segment,
            last_cycles,
        } => {
            out.push(Q_FLOW);
            out.extend_from_slice(&segment.0.to_le_bytes());
            out.extend_from_slice(&last_cycles.to_le_bytes());
        }
        LiveQuery::SpeedPercentile { p, window } => {
            out.push(Q_SPEED);
            out.extend_from_slice(&p.to_bits().to_le_bytes());
            put_window(&mut out, &window);
        }
        LiveQuery::TopOd { n, window } => {
            out.push(Q_TOP_OD);
            out.extend_from_slice(&(n as u64).to_le_bytes());
            put_window(&mut out, &window);
        }
        LiveQuery::PositionAccuracy { window } => {
            out.push(Q_POSITION);
            put_window(&mut out, &window);
        }
        LiveQuery::Watermark => out.push(Q_WATERMARK),
    }
    out
}

/// Decodes [`encode_query`] bytes.
pub fn decode_query(buf: &[u8]) -> Result<LiveQuery, String> {
    let mut dec = Dec::new(buf);
    let query = match dec.u8("query tag")? {
        Q_OCCUPANCY => LiveQuery::Occupancy {
            segment: SegmentId(dec.u16("segment")?),
            window: get_window(&mut dec)?,
        },
        Q_FLOW => LiveQuery::Flow {
            segment: SegmentId(dec.u16("segment")?),
            last_cycles: dec.u32("last_cycles")?,
        },
        Q_SPEED => LiveQuery::SpeedPercentile {
            p: dec.f64("percentile")?,
            window: get_window(&mut dec)?,
        },
        Q_TOP_OD => LiveQuery::TopOd {
            n: dec.u64("n")? as usize,
            window: get_window(&mut dec)?,
        },
        Q_POSITION => LiveQuery::PositionAccuracy {
            window: get_window(&mut dec)?,
        },
        Q_WATERMARK => LiveQuery::Watermark,
        t => return Err(format!("unknown query tag {t}")),
    };
    dec.done()?;
    Ok(query)
}

const A_OCCUPANCY: u8 = 1;
const A_FLOW: u8 = 2;
const A_SPEED: u8 = 3;
const A_TOP_OD: u8 = 4;
const A_POSITION: u8 = 5;
const A_WATERMARK: u8 = 6;

/// Canonical encoding of an answer; the frame payload the hub caches once
/// per seal and fans out.
pub fn encode_answer(answer: &LiveAnswer) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    match answer {
        LiveAnswer::Occupancy {
            mean,
            peak,
            reports,
        } => {
            out.push(A_OCCUPANCY);
            out.extend_from_slice(&mean.to_bits().to_le_bytes());
            out.extend_from_slice(&peak.to_le_bytes());
            out.extend_from_slice(&reports.to_le_bytes());
        }
        LiveAnswer::Flow {
            total,
            mean_per_cycle,
        } => {
            out.push(A_FLOW);
            out.extend_from_slice(&total.to_le_bytes());
            out.extend_from_slice(&mean_per_cycle.to_bits().to_le_bytes());
        }
        LiveAnswer::Speed { mph, samples } => {
            out.push(A_SPEED);
            out.extend_from_slice(&mph.to_bits().to_le_bytes());
            out.extend_from_slice(&samples.to_le_bytes());
        }
        LiveAnswer::TopOd { pairs } => {
            out.push(A_TOP_OD);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for &((from, to), count) in pairs {
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        LiveAnswer::PositionAccuracy {
            two_reader_fixes,
            aoa_only_fixes,
            pole_fallbacks,
            localized_fraction,
            mean_sigma_m,
            track_speed_samples,
            arrival_speed_samples,
        } => {
            out.push(A_POSITION);
            out.extend_from_slice(&two_reader_fixes.to_le_bytes());
            out.extend_from_slice(&aoa_only_fixes.to_le_bytes());
            out.extend_from_slice(&pole_fallbacks.to_le_bytes());
            out.extend_from_slice(&localized_fraction.to_bits().to_le_bytes());
            out.extend_from_slice(&mean_sigma_m.to_bits().to_le_bytes());
            out.extend_from_slice(&track_speed_samples.to_le_bytes());
            out.extend_from_slice(&arrival_speed_samples.to_le_bytes());
        }
        LiveAnswer::Watermark {
            watermark_us,
            sealed_panes,
        } => {
            out.push(A_WATERMARK);
            out.extend_from_slice(&watermark_us.to_le_bytes());
            out.extend_from_slice(&sealed_panes.to_le_bytes());
        }
    }
    out
}

/// Decodes [`encode_answer`] bytes.
pub fn decode_answer(buf: &[u8]) -> Result<LiveAnswer, String> {
    let mut dec = Dec::new(buf);
    let answer = match dec.u8("answer tag")? {
        A_OCCUPANCY => LiveAnswer::Occupancy {
            mean: dec.f64("mean")?,
            peak: dec.u32("peak")?,
            reports: dec.u64("reports")?,
        },
        A_FLOW => LiveAnswer::Flow {
            total: dec.u64("total")?,
            mean_per_cycle: dec.f64("mean_per_cycle")?,
        },
        A_SPEED => LiveAnswer::Speed {
            mph: dec.f64("mph")?,
            samples: dec.u64("samples")?,
        },
        A_TOP_OD => {
            let n = dec.count(4 + 4 + 8, "OD pair count")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let from = dec.u32("od from")?;
                let to = dec.u32("od to")?;
                let count = dec.u64("od count")?;
                pairs.push(((from, to), count));
            }
            LiveAnswer::TopOd { pairs }
        }
        A_POSITION => LiveAnswer::PositionAccuracy {
            two_reader_fixes: dec.u64("two_reader_fixes")?,
            aoa_only_fixes: dec.u64("aoa_only_fixes")?,
            pole_fallbacks: dec.u64("pole_fallbacks")?,
            localized_fraction: dec.f64("localized_fraction")?,
            mean_sigma_m: dec.f64("mean_sigma_m")?,
            track_speed_samples: dec.u64("track_speed_samples")?,
            arrival_speed_samples: dec.u64("arrival_speed_samples")?,
        },
        A_WATERMARK => LiveAnswer::Watermark {
            watermark_us: dec.u64("watermark_us")?,
            sealed_panes: dec.u64("sealed_panes")?,
        },
        t => return Err(format!("unknown answer tag {t}")),
    };
    dec.done()?;
    Ok(answer)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn get_bytes<'a>(dec: &mut Dec<'a>, what: &'static str) -> Result<&'a [u8], String> {
    let len = dec.u32(what)? as usize;
    dec.take(len, what)
}

/// Encodes one frame body (without the outer length prefix).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match frame {
        Frame::Hello { version } => {
            out.push(T_HELLO);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Subscribe {
            sub_id,
            from_start,
            from_pane,
            query,
        } => {
            out.push(T_SUBSCRIBE);
            out.extend_from_slice(&sub_id.to_le_bytes());
            out.push(u8::from(*from_start));
            out.push(u8::from(from_pane.is_some()));
            if let Some(pane) = from_pane {
                out.extend_from_slice(&pane.to_le_bytes());
            }
            put_bytes(&mut out, &encode_query(query));
        }
        Frame::Snapshot {
            sub_id,
            pane,
            age_us,
            answer,
        }
        | Frame::Delta {
            sub_id,
            pane,
            age_us,
            answer,
        } => {
            out.push(if matches!(frame, Frame::Snapshot { .. }) {
                T_SNAPSHOT
            } else {
                T_DELTA
            });
            out.extend_from_slice(&sub_id.to_le_bytes());
            out.extend_from_slice(&pane.to_le_bytes());
            out.extend_from_slice(&age_us.to_le_bytes());
            put_bytes(&mut out, answer);
        }
        Frame::LagNotice { behind_panes } => {
            out.push(T_LAG);
            out.extend_from_slice(&behind_panes.to_le_bytes());
        }
        Frame::Dropped { behind_panes } => {
            out.push(T_DROPPED);
            out.extend_from_slice(&behind_panes.to_le_bytes());
        }
        Frame::Ack { count } => {
            out.push(T_ACK);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out
}

/// Appends one length-prefixed frame to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, frame: &Frame) {
    let body = encode_frame(frame);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decodes one frame body.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, String> {
    let mut dec = Dec::new(buf);
    let frame = match dec.u8("frame tag")? {
        T_HELLO => Frame::Hello {
            version: dec.u16("version")?,
        },
        T_SUBSCRIBE => Frame::Subscribe {
            sub_id: dec.u32("sub_id")?,
            from_start: dec.u8("from_start")? != 0,
            from_pane: (dec.u8("from_pane flag")? != 0)
                .then(|| dec.u64("from_pane"))
                .transpose()?,
            query: decode_query(get_bytes(&mut dec, "query bytes")?)?,
        },
        tag @ (T_SNAPSHOT | T_DELTA) => {
            let sub_id = dec.u32("sub_id")?;
            let pane = dec.u64("pane")?;
            let age_us = dec.u64("age_us")?;
            let answer = get_bytes(&mut dec, "answer bytes")?.to_vec();
            if tag == T_SNAPSHOT {
                Frame::Snapshot {
                    sub_id,
                    pane,
                    age_us,
                    answer,
                }
            } else {
                Frame::Delta {
                    sub_id,
                    pane,
                    age_us,
                    answer,
                }
            }
        }
        T_LAG => Frame::LagNotice {
            behind_panes: dec.u64("behind_panes")?,
        },
        T_DROPPED => Frame::Dropped {
            behind_panes: dec.u64("behind_panes")?,
        },
        T_ACK => Frame::Ack {
            count: dec.u32("count")?,
        },
        t => return Err(format!("unknown frame tag {t}")),
    };
    dec.done()?;
    Ok(frame)
}

/// Writes one length-prefixed frame, prefix and body in one `write_all`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(36);
    put_frame(&mut buf, frame);
    w.write_all(&buf)
}

/// Reads one length-prefixed frame, taking no byte past it. `Ok(None)` is a
/// clean end of stream **at a frame boundary**. A stream that ends inside a
/// frame, its length prefix included, is an `UnexpectedEof` error; a zero or
/// over-[`MAX_FRAME_BYTES`] length, or an undecodable body, is `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    FrameDecoder::default().read_from(r)
}

/// The one length-prefix parser: bytes in, whole frames out, however the
/// stream is split. It holds at most the frame in flight (`4 +
/// MAX_FRAME_BYTES` bytes), and refuses a zero or over-[`MAX_FRAME_BYTES`]
/// length prefix before it takes any byte of the body.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The frame in flight: its length prefix, then its body.
    buf: Vec<u8>,
    /// The body length, once the prefix is whole and in range.
    body: Option<usize>,
}

impl FrameDecoder {
    /// Takes bytes from the front of `input`, never past the end of the
    /// frame in flight, and returns that frame once it is whole; `Ok(None)`
    /// once `input` is used up first. An out-of-range length prefix or an
    /// undecodable body is an `InvalidData` error.
    pub fn decode(&mut self, input: &mut &[u8]) -> io::Result<Option<Frame>> {
        loop {
            let take = self.wanted().min(input.len());
            self.buf.extend_from_slice(&input[..take]);
            *input = &input[take..];
            if self.wanted() > 0 {
                return Ok(None);
            }
            if self.body.is_none() {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME_BYTES {
                    let range = format!("frame length {len} out of range");
                    return Err(io::Error::new(InvalidData, range));
                }
                self.body = Some(len);
                continue;
            }
            let frame = decode_frame(&self.buf[4..]);
            self.buf.clear();
            self.body = None;
            return frame.map(Some).map_err(|e| io::Error::new(InvalidData, e));
        }
    }

    /// Reads from `r`, never past the frame in flight, until that frame is
    /// whole, as [`read_frame`] does. A read error — a socket's read timeout
    /// too — returns with the bytes read so far kept, and the next call
    /// resumes mid-frame.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<Option<Frame>> {
        let mut chunk = [0u8; 4096];
        loop {
            let want = self.wanted().min(chunk.len());
            let n = match r.read(&mut chunk[..want]) {
                Ok(0) => return self.finish().map(|()| None),
                Ok(n) => n,
                Err(e) if e.kind() == Interrupted => continue,
                Err(e) => return Err(e),
            };
            if let Some(frame) = self.decode(&mut &chunk[..n])? {
                return Ok(Some(frame));
            }
        }
    }

    /// The end of the stream: `Ok` at a frame boundary, an `UnexpectedEof`
    /// error inside a frame (its length prefix included).
    pub fn finish(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        Err(io::Error::new(UnexpectedEof, "stream ended mid-frame"))
    }

    /// Bytes held of the frame in flight.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Bytes still missing from the length prefix or, once it is whole, the
    /// body.
    fn wanted(&self) -> usize {
        4 + self.body.unwrap_or(0) - self.buf.len()
    }
}

/// The one hello check, on both sides of a connection: the peer's first
/// frame must be a [`Frame::Hello`] at this side's [`WIRE_VERSION`].
pub(crate) fn check_hello(frame: &Frame, peer: &str) -> io::Result<()> {
    match frame {
        Frame::Hello { version } if *version == WIRE_VERSION => Ok(()),
        Frame::Hello { version } => Err(io::Error::other(format!(
            "{peer} wire version {version}, ours {WIRE_VERSION}"
        ))),
        _ => Err(io::Error::other("expected hello")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_query(q: LiveQuery) {
        let bytes = encode_query(&q);
        assert_eq!(decode_query(&bytes).expect("decode"), q);
        // Canonical: re-encoding the decoded query is byte-identical.
        assert_eq!(encode_query(&decode_query(&bytes).unwrap()), bytes);
    }

    #[test]
    fn queries_round_trip_canonically() {
        round_trip_query(LiveQuery::Occupancy {
            segment: SegmentId(7),
            window: WindowSpec::tumbling(15_000_000),
        });
        round_trip_query(LiveQuery::Flow {
            segment: SegmentId(0),
            last_cycles: 10,
        });
        round_trip_query(LiveQuery::SpeedPercentile {
            p: 95.0,
            window: WindowSpec::sliding(30_000_000, 1_500_000),
        });
        round_trip_query(LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(60_000_000),
        });
        round_trip_query(LiveQuery::PositionAccuracy {
            window: WindowSpec::tumbling(10_000_000),
        });
        round_trip_query(LiveQuery::Watermark);
    }

    #[test]
    fn answers_round_trip() {
        let answers = [
            LiveAnswer::Occupancy {
                mean: 1.5,
                peak: 9,
                reports: 120,
            },
            LiveAnswer::Flow {
                total: 42,
                mean_per_cycle: 4.2,
            },
            LiveAnswer::Speed {
                mph: 61.25,
                samples: 17,
            },
            LiveAnswer::TopOd {
                pairs: vec![((0, 1), 10), ((3, 2), 7)],
            },
            LiveAnswer::PositionAccuracy {
                two_reader_fixes: 5,
                aoa_only_fixes: 2,
                pole_fallbacks: 1,
                localized_fraction: 0.875,
                mean_sigma_m: 2.5,
                track_speed_samples: 4,
                arrival_speed_samples: 1,
            },
            LiveAnswer::Watermark {
                watermark_us: 9_000_000,
                sealed_panes: 6,
            },
        ];
        for a in answers {
            let bytes = encode_answer(&a);
            assert_eq!(decode_answer(&bytes).expect("decode"), a);
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let frames = vec![
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Subscribe {
                sub_id: 3,
                from_start: true,
                from_pane: None,
                query: LiveQuery::Watermark,
            },
            Frame::Subscribe {
                sub_id: 4,
                from_start: false,
                from_pane: Some(17),
                query: LiveQuery::Watermark,
            },
            Frame::Snapshot {
                sub_id: 3,
                pane: 41,
                age_us: 1200,
                answer: encode_answer(&LiveAnswer::Watermark {
                    watermark_us: 63_000_000,
                    sealed_panes: 42,
                }),
            },
            Frame::Delta {
                sub_id: 3,
                pane: 42,
                age_us: 90,
                answer: vec![6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
            Frame::LagNotice { behind_panes: 33 },
            Frame::Dropped { behind_panes: 257 },
            Frame::Ack { count: 12 },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).expect("write");
        }
        let mut rd = stream.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut rd).expect("read").expect("frame"), f);
        }
        assert!(read_frame(&mut rd).expect("clean eof").is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut stream = Vec::new();
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .unwrap();
        stream.truncate(stream.len() - 1);
        let mut rd = stream.as_slice();
        assert!(read_frame(&mut rd).is_err(), "eof mid-frame");

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err(), "absurd length");
    }

    #[test]
    fn a_stream_cut_inside_a_length_prefix_is_an_unexpected_eof_not_a_clean_close() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &Frame::Ack { count: 3 }).unwrap();
        // Cut after 1, 2 and 3 prefix bytes, and inside the body.
        for cut in [1, 2, 3, 6] {
            let err = read_frame(&mut &stream[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut after {cut}");
        }
        // After a whole frame, the same cut inside the next prefix.
        let mut two = stream.clone();
        two.extend_from_slice(&stream[..2]);
        let mut rd = two.as_slice();
        assert_eq!(read_frame(&mut rd).unwrap(), Some(Frame::Ack { count: 3 }));
        assert_eq!(
            read_frame(&mut rd).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A zero length is refused like an oversized one.
        let zero = [0u8; 4];
        let err = read_frame(&mut zero.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// A writer that counts the calls made to it.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_makes_one_write_per_frame() {
        let mut w = CountingWriter {
            bytes: Vec::new(),
            writes: 0,
        };
        let frames = [
            Frame::Ack { count: 1 },
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Dropped { behind_panes: 9 },
        ];
        for (n, frame) in frames.iter().enumerate() {
            write_frame(&mut w, frame).unwrap();
            assert_eq!(w.writes, n + 1, "{frame:?}");
        }
        let mut rd = w.bytes.as_slice();
        for frame in &frames {
            assert_eq!(read_frame(&mut rd).unwrap().as_ref(), Some(frame));
        }
    }

    #[test]
    fn an_od_pair_count_the_answer_cannot_hold_is_rejected_before_allocating() {
        let mut crafted = encode_answer(&LiveAnswer::TopOd {
            pairs: vec![((0, 1), 10)],
        });
        crafted[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_answer(&crafted).unwrap_err();
        assert!(err.contains("OD pair count"), "got {err:?}");
    }
}
