//! Seeded schedules over a stepped engine and hub: deterministic
//! simulation of the live and serving tiers.
//!
//! A stepped engine ([`LiveCity::with_clock`]) seals only in
//! [`LiveCity::seal_step`], and a hub over it fans out only in
//! [`ServeHub::fan_out`], so every interleaving the threaded tiers can
//! produce between ingest, the sealer and the fan-out thread is one
//! sequence of calls. Each seed draws one such sequence — ingest a pole's
//! next report (FIFO per pole), a seal step, a fan-out round, a poll of a
//! hub subscription or of a [`LiveSubscription`], a clock advance — over a
//! small [`SyntheticCity`], and checks it against runs that involve no
//! schedule at all:
//!
//! * the chain and totals equal a sequential threaded [`LiveCity::new`]
//!   run's;
//! * every hub frame arrives in pane order with no duplicate, and its wire
//!   bytes equal a reference stepped run's answer at that pane, one pane
//!   sealed per step and every query answered after each (a Watermark
//!   answer is compared on `sealed_panes` only: its `watermark_us` tells how
//!   far ingest has run, not which pane was sealed);
//! * so does every frame a [`Session`] writes — the server side of one TCP
//!   connection, with no socket — whose client's hello and subscribes
//!   arrive in random-sized chunks, whose acks come at random steps against
//!   a small ack window, and whose rounds run at random steps;
//! * the [`LiveSubscription`] sees every pane once, in order, equal to the
//!   reference's;
//! * `watermark_us` and `seal_floor_us` never go backwards.
//!
//! Staleness is off, so the clock advances move no output; they age the
//! hub's frames past its lag grace, which the lag policy (switched off
//! here) would read. A failing schedule prints its seed.
//!
//! Two exact session tests follow on a manual clock: the ack window and
//! lag policy's frame, notice, drop and close, and the hello deadline.

use caraoke_suite::city::{FrameSource, SegmentId, StoreConfig, SyntheticCity};
use caraoke_suite::live::{
    Clock, IngestOutcome, LiveAnswer, LiveCity, LiveConfig, LiveQuery, LiveSubscription,
    ManualClock, PaneSummary, SealStep, WindowSpec,
};
use caraoke_suite::serve::{
    decode_answer, encode_answer, write_frame, Frame, FrameDecoder, ServeConfig, ServeEvent,
    ServeHub, Session, Subscription, Wants, WIRE_VERSION,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per run of [`seeded_schedules_match_the_sequential_chain`]: a
/// quarter of them under debug codegen, which runs them ~5x slower.
const SEEDS: u64 = if cfg!(debug_assertions) { 256 } else { 1024 };

/// One pane per synthetic epoch, and no lateness allowance: the round of
/// reports stamped in epoch `e` releases exactly pane `e - 1`, and the
/// final flush exactly the last pane, so a step after every report seals
/// at most one pane.
fn config(shards: usize) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards,
            ..Default::default()
        },
        pane_us: 1_500_000,
        lateness_panes: 0,
        ..Default::default()
    }
}

/// The queries every schedule subscribes to, one hub subscription each.
fn queries(pane_us: u64) -> [LiveQuery; 5] {
    [
        LiveQuery::Occupancy {
            segment: SegmentId(0),
            window: WindowSpec::tumbling(3 * pane_us),
        },
        LiveQuery::SpeedPercentile {
            p: 50.0,
            window: WindowSpec::sliding(4 * pane_us, pane_us),
        },
        LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(4 * pane_us),
        },
        LiveQuery::Flow {
            segment: SegmentId(0),
            last_cycles: 2,
        },
        LiveQuery::Watermark,
    ]
}

/// What the schedule is checked against.
struct Reference {
    chain: u64,
    totals: caraoke_suite::city::CityAggregates,
    /// `wire[q][pane]`: query `q`'s answer bytes once `pane` is the newest.
    wire: Vec<Vec<Vec<u8>>>,
    panes: Vec<PaneSummary>,
}

fn reference(city: &SyntheticCity) -> Reference {
    let n_poles = city.directory().len() as u32;
    let sequential = LiveCity::new(city.directory().clone(), config(1));
    for epoch in 0..city.epochs() {
        for pole in 0..n_poles {
            sequential.ingest(&city.report(pole, epoch));
        }
    }
    sequential.finish();

    let stepped = LiveCity::with_clock(city.directory().clone(), config(1), Clock::Real);
    let queries = queries(stepped.config().pane_us);
    let mut wire = vec![Vec::new(); queries.len()];
    let mut answer_each_pane = |live: &LiveCity, step: SealStep| {
        assert!(step.panes <= 1 && !step.forced, "{step:?}");
        if step.panes == 1 {
            for (q, query) in queries.iter().enumerate() {
                wire[q].push(encode_answer(&live.query(query)));
            }
        }
    };
    for epoch in 0..city.epochs() {
        for pole in 0..n_poles {
            stepped.ingest(&city.report(pole, epoch));
            answer_each_pane(&stepped, stepped.seal_step());
        }
    }
    let before = stepped.sealed_panes();
    stepped.finish();
    let flushed = stepped.sealed_panes() - before;
    answer_each_pane(
        &stepped,
        SealStep {
            panes: flushed,
            forced: false,
        },
    );
    assert_eq!(wire[0].len() as u64, stepped.sealed_panes());
    assert_eq!(stepped.fingerprint_chain(), sequential.fingerprint_chain());
    let (panes, missed) = LiveSubscription::new().poll(&stepped);
    assert_eq!(missed, 0);
    Reference {
        chain: sequential.fingerprint_chain(),
        totals: sequential.totals(),
        wire,
        panes,
    }
}

/// Takes one frame of query `q` into a reader whose newest pane is
/// `newest`: it must be newer, and answer as the reference does at its pane.
fn take_frame(reference: &Reference, q: usize, newest: &mut Option<u64>, pane: u64, wire: &[u8]) {
    assert!(
        newest.is_none_or(|newest| pane > newest),
        "query {q}: frame at pane {pane} after pane {newest:?}"
    );
    *newest = Some(pane);
    match decode_answer(wire).expect("answer bytes") {
        LiveAnswer::Watermark { sealed_panes, .. } => assert_eq!(sealed_panes, pane + 1),
        _ => assert!(
            wire == reference.wire[q][pane as usize],
            "query {q}: frame at pane {pane} differs from the reference"
        ),
    }
}

/// One hub subscription of one query, and the newest pane it has taken.
struct HubReader {
    query: LiveQuery,
    sub: Subscription,
    newest: Option<u64>,
}

impl HubReader {
    /// Polls once, taking every frame.
    fn poll(&mut self, q: usize, reference: &Reference) {
        for event in self.sub.poll() {
            let ServeEvent::Frame { frame, .. } = event else {
                panic!("the lag policy is off, yet got {event:?}");
            };
            take_frame(reference, q, &mut self.newest, frame.pane, &frame.wire);
        }
    }
}

/// One [`Session`] and the client at its other end: the bytes the client
/// has yet to send (its hello and one subscribe per query, `sub_id` = the
/// query's index, then acks), and what it has taken of the session's
/// output.
struct SessionReader {
    session: Session,
    to_send: Vec<u8>,
    /// Frames taken and not yet acked.
    unacked: u32,
    decoder: FrameDecoder,
    hello: bool,
    /// Per query, the newest pane taken.
    newest: Vec<Option<u64>>,
}

impl SessionReader {
    fn new(hub: &Arc<ServeHub>, queries: &[LiveQuery]) -> Self {
        let mut to_send = Vec::new();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        write_frame(&mut to_send, &hello).expect("in memory");
        for (q, query) in queries.iter().enumerate() {
            let subscribe = Frame::Subscribe {
                sub_id: q as u32,
                from_start: false,
                from_pane: None,
                query: *query,
            };
            write_frame(&mut to_send, &subscribe).expect("in memory");
        }
        Self {
            session: Session::new(Arc::clone(hub)),
            to_send,
            unacked: 0,
            decoder: FrameDecoder::default(),
            hello: false,
            newest: vec![None; queries.len()],
        }
    }

    /// The client sends its next `n` bytes, after acking `ack` frames.
    fn send(&mut self, ack: u32, n: usize) {
        if ack > 0 {
            let ack = ack.min(self.unacked);
            write_frame(&mut self.to_send, &Frame::Ack { count: ack }).expect("in memory");
            self.unacked -= ack;
        }
        let n = n.min(self.to_send.len());
        let taken = self
            .session
            .on_bytes(&self.to_send[..n])
            .expect("valid bytes");
        assert_eq!(taken, n, "a few frames never fill a round");
        self.to_send.drain(..n);
    }

    /// One session round over the stepped hub, then every frame it wrote.
    fn round(&mut self, reference: &Reference) {
        self.session.on_round(Subscription::poll);
        assert_ne!(self.session.wants(), Wants::Close);
        let out = self.session.output();
        let mut input = out.as_slice();
        while let Some(frame) = self.decoder.decode(&mut input).expect("whole frames") {
            match frame {
                Frame::Hello { version } => {
                    assert!(!self.hello && version == WIRE_VERSION, "one hello");
                    self.hello = true;
                }
                Frame::Snapshot {
                    sub_id,
                    pane,
                    answer,
                    ..
                }
                | Frame::Delta {
                    sub_id,
                    pane,
                    answer,
                    ..
                } => {
                    assert!(self.hello, "hello first");
                    let q = sub_id as usize;
                    take_frame(reference, q, &mut self.newest[q], pane, &answer);
                    self.unacked += 1;
                }
                other => panic!("the lag policy is off, yet got {other:?}"),
            }
        }
        assert_eq!(self.decoder.buffered(), 0, "output is whole frames");
    }
}

/// Runs the schedule `seed` draws and checks it (see the module docs).
fn run_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Past 16 poles, poles share an ingest stripe (pole % 16), and the
    // schedule delivers into one stripe out of pane order.
    let city = SyntheticCity::new(
        rng.random_range(2..41usize),
        rng.random_range(3..11usize),
        seed,
    );
    let reference = reference(&city);
    let n_poles = city.directory().len();

    let manual = Arc::new(ManualClock::new());
    let clock = Clock::Manual(Arc::clone(&manual));
    let shards = rng.random_range(1..5usize);
    let live = Arc::new(LiveCity::with_clock(
        city.directory().clone(),
        config(shards),
        clock,
    ));
    let serve = ServeConfig {
        lag_notice_panes: u64::MAX,
        max_cursor_lag_panes: u64::MAX,
        ack_window: rng.random_range(0..8),
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), None, serve);
    let queries = queries(live.config().pane_us);
    let mut session = SessionReader::new(&hub, &queries);
    let mut readers: Vec<HubReader> = queries
        .into_iter()
        .map(|query| HubReader {
            sub: hub.subscribe(&[query], false),
            query,
            newest: None,
        })
        .collect();
    let mut cursor = LiveSubscription::new();
    let mut seen = 0usize;
    let mut poll_cursor = |seen: &mut usize| {
        let (panes, missed) = cursor.poll(&live);
        assert_eq!(missed, 0);
        for pane in panes {
            assert_eq!(pane, reference.panes[*seen], "pane {}", *seen);
            *seen += 1;
        }
    };

    // Each pole's next epoch: FIFO per pole, any order across poles.
    let mut next_epoch = vec![0usize; n_poles];
    let (mut watermark_us, mut seal_floor_us) = (0, 0);
    while next_epoch.iter().any(|&e| e < city.epochs()) {
        match rng.random_range(0..12u32) {
            0..=3 => {
                let pole = rng.random_range(0..n_poles);
                if next_epoch[pole] < city.epochs() {
                    let report = city.report(pole as u32, next_epoch[pole]);
                    next_epoch[pole] += 1;
                    let outcome = live.ingest(&report);
                    assert_eq!(outcome, IngestOutcome::Applied);
                }
            }
            4 => {
                let before = live.sealed_panes();
                let step = live.seal_step();
                assert!(!step.forced, "staleness is off");
                assert_eq!(live.sealed_panes() - before, step.panes);
            }
            5 => hub.fan_out(),
            6 | 7 => {
                let q = rng.random_range(0..readers.len());
                readers[q].poll(q, &reference);
            }
            8 => poll_cursor(&mut seen),
            9 => manual.advance(Duration::from_millis(rng.random_range(0..400u64))),
            10 => {
                let ack = rng.random_range(0..4u32);
                session.send(ack, rng.random_range(0..24));
            }
            _ => session.round(&reference),
        }
        let stats = live.stats();
        assert!(stats.watermark_us >= watermark_us, "watermark went back");
        assert!(stats.seal_floor_us >= seal_floor_us, "seal floor went back");
        (watermark_us, seal_floor_us) = (stats.watermark_us, stats.seal_floor_us);
    }

    live.finish();
    hub.fan_out();
    let horizon = live.sealed_panes();
    assert_eq!(horizon, reference.panes.len() as u64);
    for (q, reader) in readers.iter_mut().enumerate() {
        reader.poll(q, &reference);
        assert_eq!(reader.newest, Some(horizon - 1), "{:?}", reader.query);
    }
    poll_cursor(&mut seen);
    assert_eq!(seen as u64, horizon, "every pane once");
    // The client sends the rest and acks everything: one round delivers
    // what the session owes.
    session.send(session.unacked, usize::MAX);
    session.round(&reference);
    assert_eq!(session.newest, vec![Some(horizon - 1); queries.len()]);
    assert_eq!(live.fingerprint_chain(), reference.chain);
    assert_eq!(live.totals(), reference.totals);
}

#[test]
fn seeded_schedules_match_the_sequential_chain() {
    for seed in 0..SEEDS {
        if catch_unwind(AssertUnwindSafe(|| run_schedule(seed))).is_err() {
            panic!("schedule seed {seed} failed; rerun it with run_schedule({seed})");
        }
    }
}

/// The lag grace of the hub's frames (`hub.rs`'s `FRESH_FRAME`).
const FRESH_FRAME: Duration = Duration::from_millis(200);
/// How long a session waits for the client's hello (`session.rs`).
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// A stepped engine over a small city on a manual clock, and a hub over it.
fn stepped_hub(
    serve: ServeConfig,
) -> (
    SyntheticCity,
    Arc<LiveCity>,
    Arc<ServeHub>,
    Arc<ManualClock>,
) {
    let city = SyntheticCity::new(2, 12, 7);
    let manual = Arc::new(ManualClock::new());
    let clock = Clock::Manual(Arc::clone(&manual));
    let live = Arc::new(LiveCity::with_clock(
        city.directory().clone(),
        config(1),
        clock,
    ));
    let hub = ServeHub::over_live(Arc::clone(&live), None, serve);
    (city, live, hub, manual)
}

/// Ingests every pole's report of each of `epochs`, one seal step after
/// each: epoch `e` seals pane `e - 1`.
fn seal_epochs(city: &SyntheticCity, live: &LiveCity, epochs: std::ops::Range<usize>) {
    for epoch in epochs {
        for pole in 0..city.directory().len() as u32 {
            assert_eq!(
                live.ingest(&city.report(pole, epoch)),
                IngestOutcome::Applied
            );
        }
        live.seal_step();
    }
}

/// One round of `session`, and the frames it wrote.
fn round(session: &mut Session) -> Vec<Frame> {
    session.on_round(Subscription::poll);
    let out = session.output();
    let (mut decoder, mut input, mut frames) =
        (FrameDecoder::default(), out.as_slice(), Vec::new());
    while let Some(frame) = decoder.decode(&mut input).expect("whole frames") {
        frames.push(frame);
    }
    assert_eq!(decoder.buffered(), 0);
    frames
}

#[test]
fn a_session_past_a_zero_ack_window_gets_a_frame_then_a_notice_then_the_drop_then_closes() {
    let serve = ServeConfig {
        ack_window: 0,
        lag_notice_panes: 3,
        max_cursor_lag_panes: 6,
        ..Default::default()
    };
    let (city, live, hub, manual) = stepped_hub(serve);
    seal_epochs(&city, &live, 0..2);
    assert_eq!(live.sealed_panes(), 1);

    let mut session = Session::new(Arc::clone(&hub));
    let mut hello = Vec::new();
    let version = WIRE_VERSION;
    write_frame(&mut hello, &Frame::Hello { version }).expect("in memory");
    let query = LiveQuery::Watermark;
    let subscribe = Frame::Subscribe {
        sub_id: 7,
        from_start: false,
        from_pane: None,
        query,
    };
    write_frame(&mut hello, &subscribe).expect("in memory");
    assert_eq!(session.on_bytes(&hello).expect("hello"), hello.len());
    // One frame, the head snapshot: past the zero window once it is out.
    match &round(&mut session)[..] {
        [Frame::Hello { .. }, Frame::Snapshot {
            sub_id: 7, pane: 0, ..
        }] => {}
        other => panic!("expected the hello and the head snapshot, got {other:?}"),
    }
    assert_eq!(session.wants(), Wants::Client, "the window is shut");

    // Panes 1-3 in one fan-out round: fresh, one pane of lag; past the
    // grace, three, and the lag policy notices.
    seal_epochs(&city, &live, 2..5);
    hub.fan_out();
    assert!(round(&mut session).is_empty());
    manual.advance(FRESH_FRAME);
    assert_eq!(round(&mut session), [Frame::LagNotice { behind_panes: 3 }]);
    assert!(round(&mut session).is_empty(), "one notice");

    // Panes 4-6: six behind once the grace has passed, and dropped.
    seal_epochs(&city, &live, 5..8);
    hub.fan_out();
    assert!(round(&mut session).is_empty());
    manual.advance(FRESH_FRAME);
    assert_eq!(round(&mut session), [Frame::Dropped { behind_panes: 6 }]);
    assert_eq!(session.wants(), Wants::Close);
    let stats = hub.stats();
    assert_eq!((stats.lag_notices, stats.dropped_subscribers), (1, 1));
}

#[test]
fn a_silent_client_is_closed_at_the_hello_deadline_on_the_hub_clock() {
    let (_, _, hub, manual) = stepped_hub(ServeConfig::default());
    let mut session = Session::new(Arc::clone(&hub));
    // Three bytes of a hello, and then nothing: a slow drip is as silent.
    let mut hello = Vec::new();
    let version = WIRE_VERSION;
    write_frame(&mut hello, &Frame::Hello { version }).expect("in memory");
    assert_eq!(session.on_bytes(&hello[..3]).expect("a partial frame"), 3);
    assert!(round(&mut session).is_empty());
    manual.advance(HELLO_TIMEOUT - Duration::from_millis(1));
    assert!(round(&mut session).is_empty());
    assert_eq!(session.wants(), Wants::Client);
    manual.advance(Duration::from_millis(1));
    assert!(
        round(&mut session).is_empty(),
        "no reply to a silent client"
    );
    assert_eq!(session.wants(), Wants::Close);
}
