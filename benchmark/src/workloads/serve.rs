//! `serve_fanout` and `serve_saturated`: `ServeHub::over_live` and a
//! `ServeServer` on loopback, one TCP `ServeClient` holding four
//! subscriptions, and a crowd of in-process `Subscription`s swept once per
//! received TCP round.
//!
//! * `serve_fanout` is **open loop**: an epoch of reports is due every
//!   ≈14 ms (300 k obs/s at 1 000 poles) whether or not the city keeps up,
//!   and every frame is timed from the *due* time of the report that
//!   released its pane. Ingest runs at about a fifth of capacity, so query
//!   evaluation, fan-out, wire and socket set the latency.
//! * `serve_saturated` is **closed loop**: the same stack under the paced
//!   ingest of the `ingest_*` workloads (with a longer leash, see
//!   [`SATURATED_LAG_PANES`]) — capacity while subscribers are attached,
//!   i.e. the sealer against `query_sealed` on the sealed-state lock.
//!
//! Harness threads: the ingest thread (this one) and one consumer thread
//! (the TCP client plus the in-process sweep); the traced open-loop pass
//! adds a seal watcher. One TCP connection.

use crate::harness::{
    batch_fingerprint, closed_loop_layers, deliver_epoch, live_stats_layers, stream_closed_loop,
    synthetic_city, timed_setup, trace_overhead, watch_seals, Outcome, ReleaseClock, RunArgs,
    SpanSink, StreamCost, Streamed, SEALER_THREAD,
};
use crate::json::Json;
use crate::stats;
use crate::trace::{clock_if, Req, SchedClock, Tracer, NO_PARENT};
use caraoke_city::{FrameSource, SegmentId, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig, LiveQuery, WindowSpec};
use caraoke_serve::{
    decode_frame, encode_answer, encode_frame, ClientRead, Frame, ServeClient, ServeConfig,
    ServeEvent, ServeHub, ServeServer, Subscription,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which way the ingest thread is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Open,
    Closed,
}

const POLES: usize = 1_000;
/// Offered load of the open loop, per pole: 300 k obs/s at 1 000 poles.
const OFFERED_OBS_PER_S_PER_POLE: f64 = 300.0;
const INPROC_SUBSCRIBERS: usize = 2_000;
/// Panes the closed loop's ingest thread may run ahead of the seal floor.
/// Not the 2 of the other closed-loop workloads: at 2 the hand-off of the
/// sealed-state lock between fan-out and sealer has two attractors — one
/// pane sealed per fan-out round or two, ≈135 k or ≈180 k obs/s — and which
/// one a run settles in is luck (28 % quartile spread between runs of one
/// commit). At 8 a round seals seven or eight panes and runs agree to
/// ≈12 %; the contention measured is the same.
const SATURATED_LAG_PANES: u64 = 8;
/// Epochs per measured second of the closed loop on the reference
/// container (≈500 k obs/s at ≈4 275 observations per epoch).
const CLOSED_EPOCHS_PER_S: f64 = 120.0;
/// Epochs of the warm-up stream every set-up lap runs.
const WARMUP_EPOCHS: usize = 30;
/// Fewer latency samples than this and the percentiles are not reported.
const MIN_FRESH_SAMPLES: usize = 400;

/// The four dashboard questions every subscriber set is spread over; the
/// TCP client holds one subscription to each (`sub_id` = index here).
fn queries() -> [LiveQuery; 4] {
    [
        LiveQuery::Occupancy {
            segment: SegmentId(0),
            window: WindowSpec::tumbling(30_000_000),
        },
        LiveQuery::SpeedPercentile {
            p: 50.0,
            window: WindowSpec::tumbling(30_000_000),
        },
        LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(60_000_000),
        },
        LiveQuery::Watermark,
    ]
}

const QUERY_LAYER_NAMES: [&str; 4] = [
    "live.query_ms.occupancy",
    "live.query_ms.speed_p50",
    "live.query_ms.top_od",
    "live.query_ms.watermark",
];

/// Engine, hub, server, connected client and in-process subscribers.
struct Stack {
    live: Arc<LiveCity>,
    hub: Arc<ServeHub>,
    server: ServeServer,
    client: ServeClient,
    subs: Vec<Subscription>,
}

impl Stack {
    fn build(source: &SyntheticCity, inproc: usize) -> Stack {
        let live = Arc::new(LiveCity::new(
            source.directory().clone(),
            LiveConfig::default(),
        ));
        let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
        let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect to hub");
        for (sub_id, query) in queries().iter().enumerate() {
            client
                .subscribe(sub_id as u32, query, false)
                .expect("subscribe over TCP");
        }
        // The server registers subscriptions as it reads them; wait until
        // all four are in before any report goes in.
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.stats().registered_queries < queries().len() as u64 {
            assert!(
                Instant::now() < deadline,
                "TCP subscriptions never registered"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let subs = (0..inproc)
            .map(|i| hub.subscribe(&[queries()[i % queries().len()]], false))
            .collect();
        Stack {
            live,
            hub,
            server,
            client,
            subs,
        }
    }

    /// Stops every thread the stack started and waits for each.
    fn teardown(self) {
        let Stack {
            live,
            hub,
            mut server,
            client,
            subs,
        } = self;
        drop(client);
        server.shutdown();
        drop(subs);
        hub.shutdown();
        drop(hub);
        drop(live);
    }
}

/// One server frame as the TCP client received it.
struct Received {
    sub_id: u32,
    pane: u64,
    age_us: u64,
    recv_ns: u64,
    delta: bool,
    answer: Vec<u8>,
}

/// What the consumer thread saw.
#[derive(Default)]
struct Consumed {
    frames: Vec<Received>,
    /// Frames the in-process subscriptions 0..4 (one per query) were
    /// handed: `(query, pane) → (wire bytes, fan-out instant in ns)`.
    inproc: HashMap<(u32, u64), (Vec<u8>, u64)>,
    inproc_frames: u64,
    inproc_staleness_ms: Vec<f64>,
    sweeps: u64,
    sweep_ns: u64,
    /// Panes subscribers were behind when the lag policy dropped them.
    owed_to_dropped: u64,
    closed_early: bool,
}

/// The consumer thread: reads the TCP stream, and on the first frame of each
/// new pane sweeps every in-process subscription once. Ends when every TCP
/// subscription has received the final pane (`final_horizon`, set by the
/// ingest thread after `finish()`), or ten seconds after that was due.
fn consume(
    client: &mut ServeClient,
    subs: &mut [Subscription],
    base: Instant,
    final_horizon: &AtomicU64,
) -> Consumed {
    let mut seen = Consumed::default();
    let mut swept_through: Option<u64> = None;
    let mut heads = [None::<u64>; 4];
    let mut give_up = None;
    loop {
        let read = client.poll_frame(Duration::from_millis(20));
        let now_ns = base.elapsed().as_nanos() as u64;
        let sweep;
        match read {
            Ok(ClientRead::Frame(frame)) => {
                let (delta, sub_id, pane, age_us, answer) = match frame {
                    Frame::Snapshot {
                        sub_id,
                        pane,
                        age_us,
                        answer,
                    } => (false, sub_id, pane, age_us, answer),
                    Frame::Delta {
                        sub_id,
                        pane,
                        age_us,
                        answer,
                    } => (true, sub_id, pane, age_us, answer),
                    Frame::Dropped { behind_panes } => {
                        seen.owed_to_dropped += behind_panes;
                        continue;
                    }
                    _ => continue,
                };
                if let Some(head) = heads.get_mut(sub_id as usize) {
                    *head = Some(pane);
                }
                sweep = swept_through.is_none_or(|p| pane > p);
                if sweep {
                    swept_through = Some(pane);
                }
                seen.frames.push(Received {
                    sub_id,
                    pane,
                    age_us,
                    recv_ns: now_ns,
                    delta,
                    answer,
                });
            }
            Ok(ClientRead::Timeout) => sweep = true,
            Ok(ClientRead::Closed) | Err(_) => {
                seen.closed_early = true;
                return seen;
            }
        }
        if sweep {
            let t0 = Instant::now();
            for (index, sub) in subs.iter_mut().enumerate() {
                for event in sub.poll() {
                    match event {
                        ServeEvent::Frame { frame, .. } => {
                            seen.inproc_frames += 1;
                            if index < 4 {
                                let sealed_ns =
                                    frame.sealed_at.saturating_duration_since(base).as_nanos()
                                        as u64;
                                seen.inproc_staleness_ms
                                    .push(frame.sealed_at.elapsed().as_secs_f64() * 1e3);
                                seen.inproc.insert(
                                    (index as u32, frame.pane),
                                    (frame.wire.clone(), sealed_ns),
                                );
                            }
                        }
                        ServeEvent::Dropped { behind_panes } => {
                            seen.owed_to_dropped += behind_panes
                        }
                        ServeEvent::LagNotice { .. } => {}
                    }
                }
            }
            seen.sweeps += 1;
            seen.sweep_ns += t0.elapsed().as_nanos() as u64;
        }
        let horizon = final_horizon.load(Ordering::Acquire);
        if horizon != u64::MAX {
            let all_at_head = heads.iter().all(|h| h.is_some_and(|p| p + 1 >= horizon));
            if all_at_head && subs.iter().all(Subscription::caught_up) {
                return seen;
            }
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + Duration::from_secs(10));
            if Instant::now() > deadline {
                return seen; // the head oracle reports what is missing
            }
        }
    }
}

/// What the open-loop generator measured besides the stream's cost.
#[derive(Default)]
struct OpenLoop {
    /// How late each epoch started against its due time, ms.
    late_ms: Vec<f64>,
    /// When each pane's releasing report had actually gone in (the
    /// freshness clock holds when it was *due*); traced passes only.
    released_at: Option<ReleaseClock>,
}

/// Delivers epoch `e` of `source` at `e × period` after the first, late or
/// not, then flushes. Panes are stamped with the *due* time of the report
/// that released them.
#[allow(clippy::too_many_arguments)]
fn stream_open_loop(
    live: &LiveCity,
    source: &SyntheticCity,
    epochs: usize,
    period: Duration,
    base: Instant,
    release: &mut ReleaseClock,
    mut sink: Option<SpanSink<'_>>,
) -> (StreamCost, OpenLoop) {
    let mut cost = StreamCost::default();
    let mut open = OpenLoop {
        late_ms: Vec::with_capacity(epochs),
        released_at: sink.is_some().then(|| ReleaseClock::new(live)),
    };
    let start = Instant::now();
    for epoch in 0..epochs {
        let due = start + period * epoch as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        open.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        deliver_epoch(live, source, epoch, &mut cost, sink.as_mut());
        let due_ns = due.saturating_duration_since(base).as_nanos() as u64;
        release.after_epoch(live, due_ns);
        if let Some(actual) = open.released_at.as_mut() {
            actual.after_epoch(live, base.elapsed().as_nanos() as u64);
        }
    }
    let before_finish = Instant::now();
    live.finish();
    let end = Instant::now();
    cost.finish_ns = (end - before_finish).as_nanos() as u64;
    cost.wall_s = (end - start).as_secs_f64();
    (cost, open)
}

/// One measured pass over a fresh stack.
struct Pass {
    traced: bool,
    streamed: Streamed,
    open: OpenLoop,
    /// Release ingest → the pane visible as sealed, ms (traced open loop).
    release_to_seal_ms: Vec<f64>,
    consumed: Consumed,
    fanout: SchedClock,
    conn: SchedClock,
    serve_stats: caraoke_serve::ServeStats,
    live_stats: caraoke_live::LiveStats,
    totals_fingerprint: u64,
    /// `LiveCity::query` of each question, ms, and `query_sealed` of all
    /// four, at the end of the run (windows full, engine quiescent).
    query_ms: [f64; 4],
    query_sealed_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn measure_pass(
    out: &mut Outcome,
    source: &SyntheticCity,
    mode: Loop,
    epochs: usize,
    period: Duration,
    inproc: usize,
    base: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let traced = tracer.is_some();
    let mut stack = Stack::build(source, inproc);
    let live = Arc::clone(&stack.live);
    let clocks = |prefix: &str| clock_if(traced, prefix);
    let before = (
        clocks(SEALER_THREAD),
        clocks("serve-fanout"),
        clocks("serve-conn"),
    );
    let final_horizon = AtomicU64::new(u64::MAX);
    let mut release = ReleaseClock::new(&live);
    let root = tracer
        .as_mut()
        .map(|t| t.open("pass", NO_PARENT, Req::Round(traced as u32)));

    let watch_seals_too = traced && mode == Loop::Open;
    let streaming_done = AtomicBool::new(false);
    let (cost, open, consumed, seals_seen) = std::thread::scope(|scope| {
        let consumer = std::thread::Builder::new()
            .name("bench-consumer".into())
            .spawn_scoped(scope, || {
                consume(&mut stack.client, &mut stack.subs, base, &final_horizon)
            })
            .expect("spawn consumer thread");
        // Traced open loop only: a third harness thread notes when each
        // pane seals. The ingest thread cannot — reading the seal counter
        // takes the sealed-state lock, which the fan-out thread holds for a
        // whole query round, and a generator stuck on it runs late.
        let watcher = watch_seals_too.then(|| {
            std::thread::Builder::new()
                .name("bench-watcher".into())
                .spawn_scoped(scope, || watch_seals(&live, base, &streaming_done))
                .expect("spawn watcher thread")
        });
        let span = tracer.as_mut().map(|t| SpanSink {
            tracer: t,
            parent: root.expect("root opened"),
            report_span: "gen.report",
        });
        let (cost, open) = match mode {
            Loop::Open => stream_open_loop(&live, source, epochs, period, base, &mut release, span),
            Loop::Closed => (
                stream_closed_loop(
                    &live,
                    source,
                    epochs,
                    SATURATED_LAG_PANES,
                    base,
                    &mut release,
                    span,
                ),
                OpenLoop::default(),
            ),
        };
        final_horizon.store(live.sealed_panes(), Ordering::Release);
        streaming_done.store(true, Ordering::Release);
        let seals_seen = watcher.map(|w| w.join().expect("watcher thread"));
        (
            cost,
            open,
            consumer.join().expect("consumer thread"),
            seals_seen,
        )
    });
    let release_to_seal_ms = match (&open.released_at, &seals_seen) {
        (Some(actual), Some(seen)) => actual.latencies_ms(seen),
        _ => Vec::new(),
    };
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.close(root);
    }
    let sealer = clocks(SEALER_THREAD).since(before.0);
    let fanout = clocks("serve-fanout").since(before.1);
    let conn = clocks("serve-conn").since(before.2);

    // Freshness: every delta frame against the due time of the report that
    // released its pane.
    let received: Vec<(u64, u64)> = consumed
        .frames
        .iter()
        .filter(|f| f.delta)
        .map(|f| (f.pane, f.recv_ns))
        .collect();
    let fresh_ms = release.latencies_ms(&received);

    // Oracles on the served stream.
    let stats = live.stats();
    let sealed_panes = stats.sealed_panes;
    out.count_live(cost.observations, &stats);
    out.check(!consumed.closed_early, || {
        "TCP stream closed before the run ended".into()
    });
    let mut last = [None::<u64>; 4];
    for frame in &consumed.frames {
        let Some(slot) = last.get_mut(frame.sub_id as usize) else {
            out.mismatches
                .push(format!("frame for unknown subscription {}", frame.sub_id));
            continue;
        };
        out.check(slot.is_none_or(|p| frame.pane > p), || {
            format!(
                "subscription {}: pane {} after pane {slot:?}",
                frame.sub_id, frame.pane
            )
        });
        *slot = Some(frame.pane);
        match consumed.inproc.get(&(frame.sub_id, frame.pane)) {
            Some((wire, _)) => out.check(*wire == frame.answer, || {
                format!(
                    "subscription {} pane {}: TCP answer differs from the in-process frame",
                    frame.sub_id, frame.pane
                )
            }),
            None => out.mismatches.push(format!(
                "subscription {} pane {}: no in-process frame to compare with",
                frame.sub_id, frame.pane
            )),
        }
    }
    for (sub_id, query) in queries().iter().enumerate() {
        out.check(last[sub_id].is_some_and(|p| p + 1 == sealed_panes), || {
            format!(
                "subscription {sub_id}: stream ends at pane {:?}, head is {}",
                last[sub_id],
                sealed_panes.saturating_sub(1)
            )
        });
        // The engine is quiescent after finish(): its own answer now is the
        // answer at the final horizon.
        let expected = encode_answer(&live.query(query));
        let served = consumed
            .frames
            .iter()
            .rev()
            .find(|f| f.sub_id == sub_id as u32)
            .map(|f| &f.answer);
        out.check(served == Some(&expected), || {
            format!("subscription {sub_id}: final frame differs from LiveCity::query")
        });
    }
    let totals_fingerprint = live.totals().fingerprint();
    // Failures, counted from outside: a frame that some subscriber of the
    // query was handed exists, and every subscriber of that query (all of
    // them attached before the first report) is owed it. The hub's own
    // `missed_frames` also counts every pane a coalescing fan-out round
    // skipped, for every subscriber; those frames never existed, so that
    // counter is reported as a layer metric, not as a failure.
    let serve_stats = stack.hub.stats();
    let mut produced: [BTreeSet<u64>; 4] = Default::default();
    for frame in &consumed.frames {
        if let Some(panes) = produced.get_mut(frame.sub_id as usize) {
            panes.insert(frame.pane);
        }
    }
    for (query, pane) in consumed.inproc.keys() {
        produced[*query as usize].insert(*pane);
    }
    let owed_tcp: u64 = produced.iter().map(|panes| panes.len() as u64).sum();
    let owed_inproc: u64 = (0..inproc)
        .map(|i| produced[i % produced.len()].len() as u64)
        .sum();
    let undelivered = owed_tcp.saturating_sub(consumed.frames.len() as u64)
        + owed_inproc.saturating_sub(consumed.inproc_frames);
    out.attempted += owed_tcp + owed_inproc;
    out.failed += undelivered + consumed.owed_to_dropped;

    // Query cost at a full window, engine quiescent.
    let time_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&samples)
    };
    let mut query_ms = [0.0; 4];
    if traced {
        for (slot, query) in query_ms.iter_mut().zip(queries()) {
            *slot = time_ms(&mut || {
                std::hint::black_box(live.query(&query));
            });
        }
    }
    let query_sealed_ms = if traced {
        time_ms(&mut || {
            std::hint::black_box(live.query_sealed(&queries()));
        })
    } else {
        0.0
    };

    drop(live);
    stack.teardown();
    Pass {
        traced,
        streamed: Streamed {
            cost,
            fresh_ms,
            sealer,
        },
        open,
        release_to_seal_ms,
        consumed,
        fanout,
        conn,
        serve_stats,
        live_stats: stats,
        totals_fingerprint,
        query_ms,
        query_sealed_ms,
    }
}

pub fn run(args: &RunArgs, mode: Loop) -> Outcome {
    let mut out = Outcome::new();
    let poles = args.scale.pick(POLES, 40);
    let inproc = args.scale.pick(INPROC_SUBSCRIBERS, 50);
    let base = Instant::now();

    // One epoch of the open loop is due every `period`.
    let probe = synthetic_city(poles, 1, args.seed);
    let obs_per_epoch =
        probe.mean_observations_per_frame() * (1.0 - probe.miss_probability) * poles as f64;
    let period =
        Duration::from_secs_f64(obs_per_epoch / (OFFERED_OBS_PER_S_PER_POLE * poles as f64));
    // One pass over a fresh stack; a traced run makes two, untraced then
    // traced, half as long each.
    let plan: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let seconds = args.scale.pick(args.seconds, 1.6) / plan.len() as f64;
    let epochs = match mode {
        Loop::Open => (seconds / period.as_secs_f64()).round() as usize,
        Loop::Closed => (seconds * CLOSED_EPOCHS_PER_S).round() as usize,
    }
    .max(48);

    let (source, setup_laps) = timed_setup(|| {
        let source = synthetic_city(poles, epochs, args.seed);
        let mut stack = Stack::build(&source, inproc);
        let live = Arc::clone(&stack.live);
        let final_horizon = AtomicU64::new(u64::MAX);
        let mut release = ReleaseClock::new(&live);
        std::thread::scope(|scope| {
            let consumer = std::thread::Builder::new()
                .name("bench-consumer".into())
                .spawn_scoped(scope, || {
                    consume(&mut stack.client, &mut stack.subs, base, &final_horizon)
                })
                .expect("spawn consumer thread");
            stream_closed_loop(
                &live,
                &source,
                WARMUP_EPOCHS.min(epochs),
                SATURATED_LAG_PANES,
                base,
                &mut release,
                None,
            );
            final_horizon.store(live.sealed_panes(), Ordering::Release);
            consumer.join().expect("consumer thread");
        });
        drop(live);
        stack.teardown();
        source
    });

    let mut tracer = args.trace.then(|| Tracer::new(base));
    let mut runs: Vec<Pass> = Vec::new();
    for &traced in plan {
        runs.push(measure_pass(
            &mut out,
            &source,
            mode,
            epochs,
            period,
            inproc,
            base,
            tracer.as_mut().filter(|_| traced),
        ));
    }
    out.note_peak_rss();

    // The batch reference, once, after the last timed operation.
    let reference_fp = batch_fingerprint(&source);
    for (index, pass) in runs.iter().enumerate() {
        out.check(pass.totals_fingerprint == reference_fp, || {
            format!(
                "pass {index}: live totals {:#018x} != batch totals {reference_fp:#018x}",
                pass.totals_fingerprint
            )
        });
    }

    let untraced: Vec<&Pass> = runs.iter().filter(|p| !p.traced).collect();
    let rates = |traced: bool| -> Vec<f64> {
        runs.iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.streamed.cost.obs_per_s())
            .collect()
    };
    let fresh: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.streamed.fresh_ms.iter().copied())
        .collect();
    let min_samples = args
        .scale
        .pick(MIN_FRESH_SAMPLES / (1 + args.trace as usize), 8);
    if fresh.len() < min_samples {
        out.void = Some(format!(
            "{} freshness samples, {min_samples} needed for the percentiles",
            fresh.len()
        ));
    }
    // Validity of the open loop. One stall of the container (they come a
    // few times a minute and last 20–400 ms) makes one or two epochs start
    // more than a period late; the run is void when that is the generator's
    // habit rather than an accident: more than 1 % of its epochs.
    let late_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.open.late_ms.iter().copied())
        .collect();
    let late_max_ms = late_ms.iter().copied().fold(0.0, f64::max);
    let late_p99_ms = stats::percentile(&late_ms, 99.0);
    if late_p99_ms > period.as_secs_f64() * 1e3 {
        out.void = Some(format!(
            "the generator started over 1 % of its epochs more than one period late (p99 {late_p99_ms:.1} ms)"
        ));
    }
    out.median_of_trials("setup_s", &setup_laps);
    out.median_of_trials("ingest_obs_per_s", &rates(false));
    out.fresh_latency(&fresh);

    if let Some(traced) = runs.iter().rev().find(|p| p.traced) {
        layers(&mut out, traced, mode, inproc);
        // Validity of the end-to-end numbers, so from the passes they come
        // from.
        out.layer("gen.late_max_ms", late_max_ms);
        let overhead = match mode {
            Loop::Open => trace_overhead(
                &[stats::percentile(&fresh, 50.0)],
                &[stats::percentile(&traced.streamed.fresh_ms, 50.0)],
                false,
            ),
            Loop::Closed => trace_overhead(&rates(false), &rates(true), true),
        };
        out.layer("trace.overhead_share", overhead);
    }

    out.records.push((
        "passes",
        Json::Arr(
            runs.iter()
                .map(|p| {
                    let Json::Obj(mut fields) = p.streamed.record(p.traced) else {
                        unreachable!("record() returns an object")
                    };
                    fields.push((
                        "tcp_frames".into(),
                        Json::from(p.consumed.frames.len() as u64),
                    ));
                    fields.push(("inproc_frames".into(), Json::from(p.consumed.inproc_frames)));
                    fields.push(("sealed_panes".into(), Json::from(p.live_stats.sealed_panes)));
                    fields.push((
                        "fresh_p99_ms".into(),
                        Json::Num(stats::percentile(&p.streamed.fresh_ms, 99.0)),
                    ));
                    fields.push((
                        "late_max_ms".into(),
                        Json::Num(p.open.late_ms.iter().copied().fold(0.0, f64::max)),
                    ));
                    fields.push((
                        "late_p99_ms".into(),
                        Json::Num(stats::percentile(&p.open.late_ms, 99.0)),
                    ));
                    Json::Obj(fields)
                })
                .collect(),
        ),
    ));
    out.records
        .push(("period_ms", Json::Num(period.as_secs_f64() * 1e3)));
    out.records.push(("epochs", Json::from(epochs as u64)));
    out.records.push(("late_max_ms", Json::Num(late_max_ms)));
    if let Some(tracer) = tracer {
        out.tracers.push(("bench-ingest", tracer));
    }
    out
}

/// The traced pass's layer metrics: the closed-loop basics, the serving
/// threads' scheduler clocks, the wire probes and the hub's counters.
fn layers(out: &mut Outcome, pass: &Pass, mode: Loop, inproc: usize) {
    closed_loop_layers(out, &[&pass.streamed]);
    live_stats_layers(out, &pass.live_stats);
    let wall_ns = pass.streamed.cost.wall_s * 1e9;
    if mode == Loop::Open {
        out.layer(
            "live.release_to_seal_ms_p50",
            stats::percentile(&pass.release_to_seal_ms, 50.0),
        );
    }
    for (name, ms) in QUERY_LAYER_NAMES.iter().zip(pass.query_ms) {
        out.layer(name, ms);
    }
    out.layer("live.query_sealed_ms", pass.query_sealed_ms);

    let rounds = pass.serve_stats.seal_batches.max(1) as f64;
    out.layer(
        "serve.fanout_cpu_ms_per_round",
        pass.fanout.run_ns as f64 / 1e6 / rounds,
    );
    out.layer(
        "serve.fanout_busy_share",
        pass.fanout.run_ns as f64 / wall_ns,
    );
    out.layer("serve.conn_busy_share", pass.conn.run_ns as f64 / wall_ns);

    let deltas: Vec<&Received> = pass.consumed.frames.iter().filter(|f| f.delta).collect();
    out.layer(
        "serve.frames_per_pane",
        deltas.len() as f64 / queries().len() as f64 / pass.live_stats.sealed_panes.max(1) as f64,
    );
    let seal_to_tcp: Vec<f64> = deltas
        .iter()
        .filter_map(|f| {
            let (_, sealed_ns) = pass.consumed.inproc.get(&(f.sub_id, f.pane))?;
            Some(f.recv_ns.saturating_sub(*sealed_ns) as f64 / 1e6)
        })
        .collect();
    out.layer(
        "serve.seal_to_tcp_ms_p50",
        stats::percentile(&seal_to_tcp, 50.0),
    );
    out.layer(
        "serve.inproc_staleness_ms_p50",
        stats::percentile(&pass.consumed.inproc_staleness_ms, 50.0),
    );
    out.layer(
        "serve.poll_ns_per_sub",
        pass.consumed.sweep_ns as f64 / (pass.consumed.sweeps.max(1) as f64 * inproc.max(1) as f64),
    );

    // Wire cost: re-encode and decode the frames exactly as they arrived.
    let wire_frames: Vec<Frame> = deltas
        .iter()
        .map(|f| Frame::Delta {
            sub_id: f.sub_id,
            pane: f.pane,
            age_us: f.age_us,
            answer: f.answer.clone(),
        })
        .collect();
    if !wire_frames.is_empty() {
        let n = wire_frames.len() as f64;
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = wire_frames.iter().map(encode_frame).collect();
        out.layer(
            "serve.encode_us_per_frame",
            t0.elapsed().as_secs_f64() * 1e6 / n,
        );
        let t0 = Instant::now();
        for (bytes, frame) in encoded.iter().zip(&wire_frames) {
            let decoded = decode_frame(bytes);
            out.check(decoded.as_ref() == Ok(frame), || {
                "wire probe: frame does not survive encode/decode".into()
            });
        }
        out.layer(
            "serve.decode_us_per_frame",
            t0.elapsed().as_secs_f64() * 1e6 / n,
        );
        // On the wire each body follows a 4-byte length prefix.
        out.layer(
            "serve.frame_bytes",
            encoded.iter().map(|body| body.len() + 4).sum::<usize>() as f64 / n,
        );
    }

    let s = &pass.serve_stats;
    out.layer("serve.computed_frames", s.computed_frames as f64);
    out.layer("serve.cache_hit_frames", s.cache_hit_frames as f64);
    out.layer("serve.catchup_frames", s.catchup_frames as f64);
    out.layer("serve.missed_frames", s.missed_frames as f64);
    out.layer("serve.lag_notices", s.lag_notices as f64);
    out.layer("serve.dropped_subscribers", s.dropped_subscribers as f64);
}
