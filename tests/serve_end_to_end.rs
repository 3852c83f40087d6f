//! End-to-end tests for the serving tier: byte-identity of TCP-served
//! snapshots against in-process queries, the once-per-seal snapshot cache
//! fanning out to many subscribers, from-start catch-up through the pane
//! log, and the slow-subscriber policy (lag notice, then drop) over both
//! transports — with ingest demonstrably unaffected — plus when a TCP
//! connection wakes: on the fan-out round once caught up, on the client
//! while it waits for one, never on a read tick in between.

use caraoke_suite::city::{
    FrameSource, PoleDirectory, PoleId, PoleReport, PoleSite, SegmentId, SyntheticCity,
};
use caraoke_suite::geom::Vec3;
use caraoke_suite::live::{
    Clock, LiveCity, LiveConfig, LiveQuery, ManualClock, SealStep, WindowSpec,
};
use caraoke_suite::log::LogOptions;
use caraoke_suite::serve::{
    decode_answer, encode_answer, read_frame, write_frame, ClientRead, Frame, FrameKind,
    LogFollower, ServeClient, ServeConfig, ServeEvent, ServeHub, ServeServer, Subscription,
    WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The TCP connection loop's read timeout (private to the transport): how
/// long it blocks on the client before the first subscribe and while the
/// ack window is shut.
const LOOP_TICK: Duration = Duration::from_millis(10);
/// The hub's lag grace (private to the hub): while a channel's newest
/// frame is younger than this on the hub's clock, the panes it covers count
/// as one pane of a subscriber's lag.
const FRESH_FRAME: Duration = Duration::from_millis(200);

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams every epoch of `source` into `live` from 8 pole-striped threads.
fn stream(live: &LiveCity, source: &SyntheticCity) {
    let n_poles = source.directory().len() as u32;
    std::thread::scope(|scope| {
        for w in 0..8u32 {
            let live = &live;
            scope.spawn(move || {
                for pole in (w..n_poles).step_by(8) {
                    for epoch in 0..source.epochs() {
                        live.ingest(&source.report(pole, epoch));
                    }
                }
            });
        }
    });
}

/// The standard probe queries (window widths in multiples of the default
/// 1.5 s pane).
fn probes() -> Vec<LiveQuery> {
    vec![
        LiveQuery::Occupancy {
            segment: SegmentId(0),
            window: WindowSpec::tumbling(6_000_000),
        },
        LiveQuery::SpeedPercentile {
            p: 90.0,
            window: WindowSpec::tumbling(9_000_000),
        },
        LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(12_000_000),
        },
        LiveQuery::Flow {
            segment: SegmentId(0),
            last_cycles: 2,
        },
        LiveQuery::Watermark,
    ]
}

/// A single-pole city and an engine configuration under which the test
/// controls event time one report at a time: pane width 1 s, reporting
/// pole 0 at `t_us` seals every pane below `t_us`.
fn hand_driven_setup() -> (PoleDirectory, LiveConfig) {
    let directory = PoleDirectory::new(vec![PoleSite {
        segment: SegmentId(0),
        position: Vec3::new(0.0, -5.0, 3.8),
    }]);
    let config = LiveConfig {
        pane_us: 1_000_000,
        lateness_panes: 0,
        retain_panes: 8,
        ..Default::default()
    };
    (directory, config)
}

/// An engine over [`hand_driven_setup`].
fn hand_driven_city() -> LiveCity {
    let (directory, config) = hand_driven_setup();
    LiveCity::new(directory, config)
}

/// [`hand_driven_city`] stepped, on a clock the test steps: nothing seals
/// until the test runs a seal step, no hub over it fans out until the test
/// runs a round, and the engine's and its hubs' policy time stands still
/// until the test advances it.
fn stepped_hand_driven_city() -> (Arc<LiveCity>, Arc<ManualClock>) {
    let (directory, config) = hand_driven_setup();
    let manual = Arc::new(ManualClock::new());
    let clock = Clock::Manual(Arc::clone(&manual));
    (
        Arc::new(LiveCity::with_clock(directory, config, clock)),
        manual,
    )
}

/// Runs one seal step on `live`, which must seal exactly `panes` panes
/// released by the watermark, then one fan-out round on `hub`.
fn seal_and_fan_out(live: &LiveCity, hub: &ServeHub, panes: u64) {
    let step = SealStep {
        panes,
        forced: false,
    };
    assert_eq!(live.seal_step(), step);
    hub.fan_out();
}

fn report_at(t_us: u64) -> PoleReport {
    PoleReport {
        pole: PoleId(0),
        segment: SegmentId(0),
        timestamp_us: t_us,
        count: 0,
        peaks: 0,
        observations: vec![],
    }
}

/// Waits until `cond` holds or panics after ~5 s: for what a test does
/// not drive itself.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A raw wire client that has said hello and subscribed `query` at the
/// head. (A read timeout turns any missing server frame into a visible
/// failure.)
fn raw_subscriber(server: &ServeServer, sub_id: u32, query: LiveQuery) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .expect("hello");
    match read_frame(&mut stream).expect("hello reply") {
        Some(Frame::Hello { version }) => assert_eq!(version, WIRE_VERSION),
        other => panic!("expected hello, got {other:?}"),
    }
    write_frame(
        &mut stream,
        &Frame::Subscribe {
            sub_id,
            from_start: false,
            from_pane: None,
            query,
        },
    )
    .expect("subscribe");
    stream
}

#[test]
fn tcp_served_snapshots_are_byte_identical_to_in_process_queries() {
    // The acceptance contract: a snapshot served over TCP carries exactly
    // encode_answer(LiveCity::query(q)) for the same pane.
    let source = SyntheticCity::new(24, 10, 2024);
    let live = Arc::new(LiveCity::new(
        source.directory().clone(),
        LiveConfig::default(),
    ));
    stream(&live, &source);
    live.finish();
    let horizon = live.sealed_panes();
    assert!(horizon > 0);

    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    for (sub_id, query) in probes().iter().enumerate() {
        client
            .subscribe(sub_id as u32, query, false)
            .expect("subscribe");
    }
    let expect: Vec<Vec<u8>> = probes()
        .iter()
        .map(|q| encode_answer(&live.query(q)))
        .collect();
    let mut seen = vec![false; expect.len()];
    while seen.iter().any(|s| !s) {
        match client
            .next_frame(Duration::from_secs(5))
            .expect("frame")
            .expect("server closed early")
        {
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
                let i = sub_id as usize;
                assert_eq!(pane, horizon - 1, "served at the engine's head pane");
                assert_eq!(
                    answer, expect[i],
                    "wire answer bytes == in-process query bytes for probe {i}"
                );
                seen[i] = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    let stats = hub.stats();
    assert_eq!(stats.registered_queries, probes().len() as u64);
    assert_eq!(stats.subscribers, 1);
}

#[test]
fn top_od_with_the_largest_n_the_wire_carries_returns_every_pair_in_order() {
    // `n` crosses the wire as an unchecked u64. Two engines fed the same
    // stream: one serves (its running window is asked at registration and
    // again by the fan-out), the other is never asked before the check.
    let source = SyntheticCity::new(24, 10, 2024);
    let build = || {
        let live = Arc::new(LiveCity::new(
            source.directory().clone(),
            LiveConfig::default(),
        ));
        stream(&live, &source);
        live.finish();
        live
    };
    let (live, unasked) = (build(), build());
    let horizon = live.sealed_panes();
    assert!(horizon > 1, "workload too small: {horizon} panes");
    let everything = LiveQuery::TopOd {
        n: u64::MAX as usize,
        window: WindowSpec::tumbling(u64::MAX),
    };

    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.subscribe(0, &everything, false).expect("subscribe");
    let answer = match client
        .next_frame(Duration::from_secs(5))
        .expect("frame")
        .expect("server closed early")
    {
        Frame::Snapshot { pane, answer, .. } | Frame::Delta { pane, answer, .. } => {
            assert_eq!(pane, horizon - 1);
            answer
        }
        other => panic!("unexpected frame {other:?}"),
    };
    assert_eq!(answer, encode_answer(&unasked.query(&everything)), "cold");
    assert_eq!(answer, encode_answer(&live.query(&everything)), "warm");

    // The window spans the whole (retained) run, so the answer is the
    // run's OD matrix: every pair, busiest first, ties by pole ids.
    assert!(horizon as usize <= live.config().retain_panes);
    let mut expect: Vec<((u32, u32), u64)> = live.totals().od.iter().collect();
    expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    assert!(
        expect.len() > 5,
        "workload too small: {} pairs",
        expect.len()
    );
    match decode_answer(&answer).expect("decodable answer") {
        caraoke_suite::live::LiveAnswer::TopOd { pairs } => assert_eq!(pairs, expect),
        other => panic!("unexpected answer {other:?}"),
    }
}

#[test]
fn a_follower_stepped_pane_by_pane_answers_like_one_opened_at_that_pane() {
    let dir = scratch("serve-stepping");
    let source = SyntheticCity::new(16, 14, 99);
    let live = LiveCity::with_log(
        source.directory().clone(),
        LiveConfig::default(),
        &dir,
        LogOptions::default(),
    )
    .expect("logged engine");
    stream(&live, &source);
    live.finish();
    let horizon = live.sealed_panes();
    assert!(horizon >= 8, "workload too small: {horizon} panes");
    let open = || {
        LogFollower::open(
            &dir,
            live.config().retain_panes,
            live.config().pane_us,
            live.config().store.light_cycle_us,
        )
        .expect("open follower")
    };
    // A 3-pane window over a 64-pane ring: every step of the long-lived
    // follower is a one-pane delta, every fresh follower a cold rebuild.
    let top = LiveQuery::TopOd {
        n: 5,
        window: WindowSpec::tumbling(3 * live.config().pane_us),
    };
    let mut stepped = open();
    let mut nonempty = 0;
    for pane in 0..horizon {
        assert!(stepped.advance_past(pane).expect("verified log"));
        let mut fresh = open();
        assert!(fresh.advance_past(pane).expect("verified log"));
        let answer = stepped.answer(&top);
        assert_eq!(answer, fresh.answer(&top), "at pane {pane}");
        if matches!(&answer, caraoke_suite::live::LiveAnswer::TopOd { pairs } if !pairs.is_empty())
        {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 4, "only {nonempty} panes had OD traffic");
    // At the durable head both agree with the engine that wrote the log.
    assert_eq!(stepped.answer(&top), live.query(&top));
}

#[test]
fn one_seal_computation_fans_out_to_every_subscriber() {
    let (live, _) = stepped_hand_driven_city();
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());

    // 32 subscribers, all of the same single query: one cache key.
    let query = [LiveQuery::Watermark];
    let mut subs: Vec<_> = (0..32).map(|_| hub.subscribe(&query, false)).collect();
    assert_eq!(hub.stats().registered_queries, 1);
    assert_eq!(hub.stats().subscribers, 32);

    // Release 6 panes; one step seals them, one round computes the head
    // frame once.
    for t in 1..=6u64 {
        live.ingest(&report_at(t * 1_000_000));
    }
    seal_and_fan_out(&live, &hub, 6);
    for s in subs.iter_mut() {
        match s.poll().as_slice() {
            [ServeEvent::Frame { frame, .. }] => assert_eq!(frame.pane, 5),
            other => panic!("expected the round's frame, got {other:?}"),
        }
        assert!(s.caught_up());
    }

    // The computed-once/fanned-out ledger: 32 deliveries of one frame, all
    // cache hits, computed once by one round (nothing at registration: no
    // pane was sealed yet).
    let stats = hub.stats();
    assert_eq!(stats.registered_queries, 1, "32 subscribers, 1 cache key");
    assert_eq!(stats.computed_frames, 1, "{stats:?}");
    assert_eq!(stats.seal_batches, 1, "{stats:?}");
    assert_eq!(stats.frames_delivered, 32, "{stats:?}");
    assert_eq!(stats.cache_hit_frames, 32, "{stats:?}");
    assert_eq!(stats.missed_frames, 0);
    assert_eq!(stats.dropped_subscribers, 0);

    drop(subs);
    assert_eq!(hub.stats().subscribers, 0, "gauge drains on drop");
}

/// Frames one subscription has received, and the newest pane among them.
#[derive(Default)]
struct Received {
    frames: u64,
    newest: Option<u64>,
}

impl Received {
    fn poll(&mut self, sub: &mut Subscription) -> &Self {
        for event in sub.poll() {
            if let ServeEvent::Frame { frame, .. } = event {
                self.frames += 1;
                self.newest = Some(frame.pane);
            }
        }
        self
    }
}

#[test]
fn a_query_whose_last_subscriber_left_is_no_longer_evaluated() {
    let (live, _) = stepped_hand_driven_city();
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let occupancy = [LiveQuery::Occupancy {
        segment: SegmentId(0),
        window: WindowSpec::tumbling(2_000_000),
    }];
    let mut kept = hub.subscribe(&[LiveQuery::Watermark], false);
    let mut left = hub.subscribe(&occupancy, false);

    // One step seals panes 0-2, one round computes both channels' frame.
    live.ingest(&report_at(3_000_000));
    seal_and_fan_out(&live, &hub, 3);
    let (mut kept_got, mut left_got) = (Received::default(), Received::default());
    assert_eq!(kept_got.poll(&mut kept).newest, Some(2));
    assert_eq!(left_got.poll(&mut left).newest, Some(2));
    assert_eq!((kept_got.frames, left_got.frames), (1, 1));
    assert_eq!(hub.stats().computed_frames, 2);

    // The occupancy channel's only subscriber leaves; five more panes
    // seal, a step and a round each.
    drop(left);
    let mut survivor = Received::default();
    for t in 4..=8u64 {
        live.ingest(&report_at(t * 1_000_000));
        seal_and_fan_out(&live, &hub, 1);
        assert_eq!(survivor.poll(&mut kept).newest, Some(t - 1));
    }
    assert_eq!(survivor.frames, 5);
    assert_eq!(
        hub.stats().computed_frames,
        2 + 5,
        "only the survivor's query is evaluated: {:?}",
        hub.stats()
    );

    // Subscribing again registers the query afresh, seeded at the head.
    let mut again = hub.subscribe(&occupancy, false);
    assert_eq!(hub.stats().registered_queries, 3);
    assert_eq!(hub.stats().computed_frames, 2 + 5 + 1);
    match again.poll().as_slice() {
        [ServeEvent::Frame { frame, .. }] => {
            assert_eq!(frame.pane, 7);
            assert_eq!(frame.kind, FrameKind::Snapshot);
            assert_eq!(frame.wire, encode_answer(&live.query(&occupancy[0])));
        }
        other => panic!("expected one seeded head frame, got {other:?}"),
    }
}

#[test]
fn stalled_in_process_subscriber_is_noticed_then_dropped_and_ingest_is_unaffected() {
    let (live, manual) = stepped_hand_driven_city();
    let config = ServeConfig {
        lag_notice_panes: 4,
        max_cursor_lag_panes: 8,
        retain_frames: 4,
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), None, config);
    let mut sub = hub.subscribe(&[LiveQuery::Watermark], false);
    assert_eq!(hub.stats().subscribers, 1);

    // Seal 6 panes while the subscriber sits idle. One step seals them in
    // one pass, so one fan-out round answers for all six: while that frame
    // is fresh it is one pane of lag, and once the subscriber has had the
    // grace to take it every pane counts — lag 6, past the notice bound (4)
    // but under the drop bound (8).
    live.ingest(&report_at(6_000_000));
    seal_and_fan_out(&live, &hub, 6);
    assert_eq!(sub.behind_panes(), 1);
    manual.advance(FRESH_FRAME);
    assert_eq!(sub.behind_panes(), 6);
    let events = sub.poll();
    assert!(
        matches!(
            events.first(),
            Some(ServeEvent::LagNotice { behind_panes: 6 })
        ),
        "first event is the lag notice: {events:?}"
    );
    assert_eq!(
        events.len(),
        2,
        "the notice, then the one frame: {events:?}"
    );
    // The notice is advisory: the same poll still delivers what the ring
    // retains, and the subscriber is caught up again afterwards.
    assert!(events
        .iter()
        .skip(1)
        .all(|e| matches!(e, ServeEvent::Frame { .. })));
    assert!(sub.caught_up());

    // Now stall past the drop bound: 8 more panes with no poll.
    live.ingest(&report_at(14_000_000));
    seal_and_fan_out(&live, &hub, 8);
    assert_eq!(sub.behind_panes(), 1, "fresh, the one frame is one pane");
    manual.advance(FRESH_FRAME);
    let events = sub.poll();
    assert_eq!(
        events.len(),
        1,
        "a dropped subscriber gets only the verdict"
    );
    assert!(
        matches!(events[0], ServeEvent::Dropped { behind_panes: 8 }),
        "{events:?}"
    );
    assert!(sub.is_dropped());
    assert!(sub.poll().is_empty(), "dropped is terminal");

    let stats = hub.stats();
    assert_eq!(stats.lag_notices, 1);
    assert_eq!(stats.dropped_subscribers, 1);
    assert_eq!(stats.subscribers, 0, "the drop released the gauge slot");
    // Sealing never noticed: every pane sealed, nothing shed, no stalls.
    assert_eq!(live.sealed_panes(), 14);
    assert_eq!(live.stats().shed_reports, 0);
}

#[test]
fn stalled_tcp_subscriber_hits_the_ack_window_then_the_lag_policy() {
    let (live, manual) = stepped_hand_driven_city();
    let config = ServeConfig {
        // Pause delivery after a single unacked frame so the stall point is
        // deterministic, then notice at 4 and drop at 8 panes behind.
        ack_window: 0,
        lag_notice_panes: 4,
        max_cursor_lag_panes: 8,
        retain_frames: 4,
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), None, config);
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");

    // Seal pane 0 so subscribing at the head starts from a known cursor.
    live.ingest(&report_at(1_000_000));
    seal_and_fan_out(&live, &hub, 1);

    // A raw wire client that NEVER acks — the stalled dashboard.
    let mut stream = raw_subscriber(&server, 7, LiveQuery::Watermark);

    // First (and only) delivered frame: after it, one unacked frame > the
    // zero ack window, so the server stops delivering and polices lag.
    let first = read_frame(&mut stream).expect("first frame").expect("open");
    let first_pane = match first {
        Frame::Snapshot { sub_id, pane, .. } | Frame::Delta { sub_id, pane, .. } => {
            assert_eq!(sub_id, 7);
            pane
        }
        other => panic!("expected a data frame, got {other:?}"),
    };
    assert_eq!(first_pane, 0);

    // Advance to lag 6 from the client's cursor: notice territory. One
    // step seals the six panes in one pass, so one fan-out round answers
    // for them: fresh, that frame is one pane of lag (the connection sees
    // nothing to report); once the clock passes the grace, all six count.
    let cursor = first_pane + 1;
    live.ingest(&report_at((cursor + 6) * 1_000_000));
    seal_and_fan_out(&live, &hub, 6);
    manual.advance(FRESH_FRAME);
    match read_frame(&mut stream).expect("notice").expect("open") {
        Frame::LagNotice { behind_panes } => assert_eq!(behind_panes, 6),
        other => panic!("expected lag notice, got {other:?}"),
    }

    // Advance past the drop bound: fresh, the next round's frame makes the
    // lag 7 (still only noticed); past the grace it is 9.
    live.ingest(&report_at((cursor + 9) * 1_000_000));
    seal_and_fan_out(&live, &hub, 3);
    manual.advance(FRESH_FRAME);
    match read_frame(&mut stream).expect("dropped").expect("open") {
        Frame::Dropped { behind_panes } => assert_eq!(behind_panes, 9),
        other => panic!("expected dropped, got {other:?}"),
    }
    // The server hangs up after the verdict, with the subscription gone:
    // the lag policy released its gauge slot before the verdict went out.
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "connection closed after drop"
    );
    let stats = hub.stats();
    assert_eq!(stats.subscribers, 0);
    assert_eq!(stats.lag_notices, 1);
    assert_eq!(stats.dropped_subscribers, 1);
    // Sealing ran at full event-time speed throughout.
    assert_eq!(live.sealed_panes(), cursor + 9);
    assert_eq!(live.stats().shed_reports, 0);
}

#[test]
fn from_start_subscriber_catches_up_through_the_pane_log() {
    let dir = scratch("serve-catchup");
    let source = SyntheticCity::new(16, 12, 77);
    let live = Arc::new(
        LiveCity::with_log(
            source.directory().clone(),
            LiveConfig::default(),
            &dir,
            LogOptions::default(),
        )
        .expect("logged engine"),
    );
    stream(&live, &source);
    live.finish();
    let horizon = live.sealed_panes();
    assert!(horizon >= 8, "workload too small: {horizon} panes");

    // Tiny frame ring: everything below the head frame must come from the
    // durable log, not the cache.
    let config = ServeConfig {
        retain_frames: 2,
        catchup_batch: 4,
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), Some(dir.clone()), config);
    let mut sub = hub.subscribe(&[LiveQuery::Watermark], true);

    // Each poll rebuilds at most one catch-up batch.
    let mut got: Vec<(u64, u64)> = Vec::new(); // (pane, sealed_panes answered)
    for _ in 0..horizon {
        for event in sub.poll() {
            if let ServeEvent::Frame { frame, .. } = event {
                let sealed = match frame.answer {
                    caraoke_suite::live::LiveAnswer::Watermark { sealed_panes, .. } => sealed_panes,
                    ref other => panic!("unexpected answer {other:?}"),
                };
                got.push((frame.pane, sealed));
            }
        }
    }
    assert!(sub.caught_up(), "{got:?}");

    // Catch-up replayed history pane by pane: every pane below the head
    // frame appears exactly once, in order, and each reconstructed answer
    // is evaluated at its own pane horizon.
    assert!(got.len() >= 8, "{got:?}");
    for window in got.windows(2) {
        assert!(window[0].0 < window[1].0, "panes in order: {got:?}");
    }
    let (last_pane, _) = *got.last().expect("frames");
    assert_eq!(last_pane, horizon - 1, "caught up to the head");
    for &(pane, sealed) in got.iter().take(got.len() - 1) {
        assert_eq!(
            sealed,
            pane + 1,
            "log-rebuilt answer evaluated at its own horizon"
        );
    }

    let stats = hub.stats();
    assert!(stats.catchup_frames >= 6, "{stats:?}");
    assert_eq!(stats.missed_frames, 0, "the log covered every gap");

    // Same log, no live engine: a replay hub serves the same head horizon,
    // and window-query answers are byte-identical to the live engine's.
    let replay_hub = ServeHub::over_log(
        &dir,
        live.config().retain_panes,
        live.config().pane_us,
        live.config().store.light_cycle_us,
        ServeConfig::default(),
    )
    .expect("replay hub");
    let occupancy = LiveQuery::Occupancy {
        segment: SegmentId(0),
        window: WindowSpec::tumbling(6_000_000),
    };
    let mut replay_sub = replay_hub.subscribe(&[occupancy], false);
    let events = replay_sub.poll();
    match events.as_slice() {
        [ServeEvent::Frame { frame, .. }] => {
            assert_eq!(frame.pane, horizon - 1);
            assert_eq!(
                frame.wire,
                encode_answer(&live.query(&occupancy)),
                "replay-served bytes == live bytes at the same pane"
            );
        }
        other => panic!("expected one head frame, got {other:?}"),
    }
}

#[test]
fn a_from_start_wait_on_a_log_hub_takes_each_catch_up_batch_at_once() {
    // A 12-pane log served by a hub with no engine, so no fan-out round
    // ever lands: a subscription that is owed frames must not wait for one.
    let dir = scratch("serve-wait-catchup");
    let (directory, config) = hand_driven_setup();
    let live = LiveCity::with_log(directory, config, &dir, LogOptions::default()).expect("log");
    live.ingest(&report_at(11_000_000));
    live.finish();
    assert_eq!(live.sealed_panes(), 12);
    drop(live);
    // A zero batch still rebuilds one pane per poll, or the owed frames
    // would never come and a caller looping on `wait` would spin.
    for catchup_batch in [4, 0] {
        let serve = ServeConfig {
            retain_frames: 2,
            catchup_batch,
            ..Default::default()
        };
        let hub = ServeHub::over_log(&dir, 8, 1_000_000, config.store.light_cycle_us, serve)
            .expect("replay hub");
        let mut sub = hub.subscribe(&[LiveQuery::Watermark], true);
        let (done_tx, done) = mpsc::channel();
        // Not scoped: a wait that never returns fails the test below
        // instead of hanging it; the thread is joined once it has reported.
        let catch_up = std::thread::spawn(move || {
            let mut panes = Vec::new();
            while panes.last() != Some(&11) {
                for event in sub.wait(Duration::MAX) {
                    if let ServeEvent::Frame { frame, .. } = event {
                        panes.push(frame.pane);
                    }
                }
            }
            let _ = done_tx.send(panes);
        });
        let panes = done
            .recv_timeout(Duration::from_secs(20))
            .expect("every catch-up batch arrives without a fan-out round");
        catch_up.join().expect("catch-up thread");
        assert_eq!(
            panes,
            (0..12).collect::<Vec<u64>>(),
            "batch {catchup_batch}"
        );
        assert_eq!(hub.stats().catchup_frames, 11, "batch {catchup_batch}");
    }
}

#[test]
fn subscriber_without_a_log_counts_missed_frames_instead_of_stalling() {
    let (live, _) = stepped_hand_driven_city();
    let config = ServeConfig {
        retain_frames: 2,
        max_cursor_lag_panes: u64::MAX,
        lag_notice_panes: u64::MAX,
        ..Default::default()
    };
    // No log_dir: gaps below the frame ring are unrecoverable by design.
    let hub = ServeHub::over_live(Arc::clone(&live), None, config);
    for t in 1..=9u64 {
        live.ingest(&report_at(t * 1_000_000));
    }
    seal_and_fan_out(&live, &hub, 9);

    // Registration seeds the one frame, at pane 8: panes 0-7 below it are
    // a gap only a log could fill.
    let mut sub = hub.subscribe(&[LiveQuery::Watermark], true);
    match sub.poll().as_slice() {
        [ServeEvent::Frame { frame, .. }] => assert_eq!(frame.pane, 8),
        other => panic!("expected the head frame alone, got {other:?}"),
    }
    assert!(sub.caught_up());
    let stats = hub.stats();
    assert_eq!(stats.catchup_frames, 0, "no log to rebuild from");
    assert_eq!(stats.missed_frames, 8, "the gap is reported, not hidden");
    assert_eq!(stats.frames_delivered, 1);
    assert!(!sub.is_dropped());
}

/// The middle value of `values` (the upper one of an even count).
fn median<T: Ord + Copy>(mut values: Vec<T>) -> T {
    values.sort_unstable();
    values[values.len() / 2]
}

#[test]
fn a_caught_up_tcp_client_gets_each_delta_as_its_fan_out_round_lands() {
    // One pane sealed at a time, at varying phase against any 10 ms timer
    // the server might run: the age the server stamps at write time is the
    // delay between the fan-out round and the write.
    let live = Arc::new(hand_driven_city());
    live.ingest(&report_at(1_000_000));
    live.wait_seal_floor(1_000_000);
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .subscribe(0, &LiveQuery::Watermark, false)
        .expect("subscribe");
    match client.next_frame(Duration::from_secs(5)).expect("frame") {
        Some(Frame::Snapshot { pane: 0, .. }) => {}
        other => panic!("expected the head snapshot, got {other:?}"),
    }

    let mut ages_us = Vec::new();
    for pane in 1..=24u64 {
        std::thread::sleep(Duration::from_millis(25 + pane * 7 % 10));
        live.ingest(&report_at((pane + 1) * 1_000_000));
        match client.next_frame(Duration::from_secs(5)).expect("frame") {
            Some(Frame::Delta {
                pane: got, age_us, ..
            }) => {
                assert_eq!(got, pane, "one delta per sealed pane");
                ages_us.push(age_us);
            }
            other => panic!("expected the delta for pane {pane}, got {other:?}"),
        }
    }
    let median_us = median(ages_us.clone());
    assert!(
        median_us < (LOOP_TICK / 5).as_micros() as u64,
        "median seal-to-write age {median_us} us (all: {ages_us:?})"
    );
}

#[test]
fn a_from_start_tcp_subscriber_catches_up_a_log_hub_at_ack_pace() {
    // A hub over a finished log has no fan-out thread, so nothing on the
    // hub side ever wakes a connection that is behind: catch-up must run
    // at the pace the client acks, not one batch per read tick.
    let dir = scratch("serve-catchup-pace");
    let (directory, config) = hand_driven_setup();
    // No snapshots: a snapshot opens a fresh segment, and the engine's
    // retention may then drop the panes before it.
    let options = LogOptions {
        snapshot_every_panes: 0,
        ..Default::default()
    };
    let live = LiveCity::with_log(directory, config, &dir, options).expect("logged engine");
    for t in 1..=3_000u64 {
        live.ingest(&report_at(t * 1_000_000));
    }
    live.finish();
    let horizon = live.sealed_panes();
    assert!(horizon >= 3_000, "{horizon} panes");
    drop(live);

    // The lag policy is off: a from-start cursor is thousands of panes
    // behind, and a slow catch-up should fail on time, not be dropped.
    let serve = ServeConfig {
        catchup_batch: 16,
        lag_notice_panes: u64::MAX,
        max_cursor_lag_panes: u64::MAX,
        ..Default::default()
    };
    let hub = ServeHub::over_log(
        &dir,
        config.retain_panes,
        config.pane_us,
        config.store.light_cycle_us,
        serve,
    )
    .expect("hub over log");
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let start = Instant::now();
    client
        .subscribe(0, &LiveQuery::Watermark, true)
        .expect("subscribe");
    let mut next = 0u64;
    while next < horizon {
        match client.next_frame(Duration::from_secs(10)).expect("frame") {
            Some(Frame::Snapshot { pane, .. }) => {
                assert_eq!(pane, next, "gap-free, in order");
                next += 1;
            }
            other => panic!("expected a catch-up snapshot, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    // One read tick per catch-up batch is what a connection that waited on
    // the hub while behind would take.
    let ticked = LOOP_TICK * (horizon / serve.catchup_batch as u64) as u32;
    assert!(
        elapsed < ticked / 3,
        "{horizon} panes caught up in {elapsed:?}; a tick per batch is {ticked:?}"
    );
}

#[test]
fn a_tcp_subscribe_is_answered_without_waiting_out_a_read_tick() {
    let live = Arc::new(hand_driven_city());
    live.ingest(&report_at(1_000_000));
    live.wait_seal_floor(1_000_000);
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");

    let waits: Vec<Duration> = (0..9u32)
        .map(|sub_id| {
            let mut client = ServeClient::connect(server.local_addr()).expect("connect");
            let start = Instant::now();
            client
                .subscribe(sub_id, &LiveQuery::Watermark, false)
                .expect("subscribe");
            match client.next_frame(Duration::from_secs(5)).expect("frame") {
                Some(Frame::Snapshot { pane: 0, .. }) => start.elapsed(),
                other => panic!("expected the head snapshot, got {other:?}"),
            }
        })
        .collect();
    let median_wait = median(waits.clone());
    assert!(
        median_wait < LOOP_TICK / 3,
        "subscribe to first frame: median {median_wait:?} (all: {waits:?})"
    );
}

#[test]
fn a_hub_shutdown_closes_its_tcp_connections() {
    let live = Arc::new(hand_driven_city());
    live.ingest(&report_at(1_000_000));
    live.wait_seal_floor(1_000_000);
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let mut server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .subscribe(0, &LiveQuery::Watermark, false)
        .expect("subscribe");
    match client.next_frame(Duration::from_secs(5)).expect("frame") {
        Some(Frame::Snapshot { .. }) => {}
        other => panic!("expected the head snapshot, got {other:?}"),
    }

    hub.shutdown();
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "connection still open 1 s after shutdown");
        match client.poll_frame(left).expect("clean close") {
            ClientRead::Closed => break,
            ClientRead::Timeout => {}
            ClientRead::Frame(frame) => panic!("unexpected frame {frame:?}"),
        }
    }
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "server shutdown took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_server_shutdown_closes_silent_caught_up_and_stalled_clients_at_once() {
    let live = Arc::new(hand_driven_city());
    live.ingest(&report_at(1_000_000));
    live.wait_seal_floor(1_000_000);
    // One unacked frame shuts the window.
    let config = ServeConfig {
        ack_window: 0,
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), None, config);
    let mut server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");

    // Connected, and never says hello.
    let silent = TcpStream::connect(server.local_addr()).expect("connect");
    // Subscribed, and acks its frame: caught up, waiting on the hub.
    let mut caught_up = raw_subscriber(&server, 1, LiveQuery::Watermark);
    // Subscribed, and never acks: past its window, waiting on the client.
    let mut stalled = raw_subscriber(&server, 2, LiveQuery::Watermark);
    for stream in [&mut caught_up, &mut stalled] {
        match read_frame(stream).expect("snapshot") {
            Some(Frame::Snapshot { pane: 0, .. }) => {}
            other => panic!("expected the head snapshot, got {other:?}"),
        }
    }
    write_frame(&mut caught_up, &Frame::Ack { count: 1 }).expect("ack");
    // Let each connection settle into its wait.
    std::thread::sleep(LOOP_TICK * 5);

    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "server shutdown took {took:?}"
    );
    for (name, mut stream) in [
        ("silent", silent),
        ("caught up", caught_up),
        ("stalled", stalled),
    ] {
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read timeout");
        let read = stream.read(&mut [0u8; 1]);
        assert_eq!(read.map_err(|e| e.kind()), Ok(0), "{name} client reads EOF");
    }
}

#[test]
fn an_ack_flood_does_not_hold_off_delivery() {
    let live = Arc::new(hand_driven_city());
    live.ingest(&report_at(1_000_000));
    live.wait_seal_floor(1_000_000);
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind");
    let mut stream = raw_subscriber(&server, 3, LiveQuery::Watermark);
    match read_frame(&mut stream).expect("snapshot") {
        Some(Frame::Snapshot { pane: 0, .. }) => {}
        other => panic!("expected the head snapshot, got {other:?}"),
    }

    // Acks, far more than were ever owed, from a second thread: at least
    // 100 k, and on until every pane below is delivered — capped, so a
    // server that never delivers cannot keep the flood going forever.
    let sent = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let waits = std::thread::scope(|scope| {
        let flood = stream.try_clone().expect("clone stream");
        scope.spawn(|| {
            let mut out = std::io::BufWriter::new(flood);
            while sent.load(Ordering::Relaxed) < 100_000
                || (!stop.load(Ordering::Relaxed) && sent.load(Ordering::Relaxed) < 5_000_000)
            {
                if write_frame(&mut out, &Frame::Ack { count: 1 }).is_err() {
                    break;
                }
                sent.fetch_add(1, Ordering::Relaxed);
            }
            let _ = out.flush();
        });
        wait_until("the flood to start", || {
            sent.load(Ordering::Relaxed) >= 10_000
        });
        let waits: Vec<Duration> = (1..=10u64)
            .map(|pane| {
                let start = Instant::now();
                live.ingest(&report_at((pane + 1) * 1_000_000));
                match read_frame(&mut stream).expect("delta during the flood") {
                    Some(Frame::Delta { pane: got, .. }) => assert_eq!(got, pane),
                    other => panic!("expected the delta for pane {pane}, got {other:?}"),
                }
                start.elapsed()
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        waits
    });
    let sent = sent.into_inner();
    assert!(sent >= 100_000, "only {sent} acks sent");
    let slowest = *waits.iter().max().expect("ten panes");
    assert!(
        slowest < Duration::from_secs(1),
        "seal to delta under the flood: {waits:?}"
    );
    assert_eq!(hub.stats().dropped_subscribers, 0);
}
