//! Stress tests for the live engine's concurrent seal path: many ingest
//! threads racing the dedicated sealer thread, under randomized (but
//! per-pole FIFO) delivery, must reproduce the single-threaded sealed
//! window sequence byte for byte — and the bounded-buffer overflow /
//! lateness shed counters must stay exact and observable.

use caraoke_suite::city::{
    FrameSource, PoleDirectory, PoleId, PoleReport, PoleSite, SegmentId, StoreConfig,
    SyntheticCity, TagKey, TagObservation,
};
use caraoke_suite::live::{
    IngestOutcome, LiveAnswer, LiveCity, LiveConfig, LiveQuery, LiveSubscription, WindowSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const INGEST_THREADS: usize = 16;

fn config(shards: usize) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards,
            ..Default::default()
        },
        retain_panes: 8,
        ..Default::default()
    }
}

/// Single-threaded, in-order reference delivery.
fn reference_run(source: &SyntheticCity) -> (u64, u64, u64) {
    let live = LiveCity::new(source.directory().clone(), config(1));
    for epoch in 0..source.epochs() {
        for pole in 0..source.directory().len() as u32 {
            live.ingest(&source.report(pole, epoch));
        }
    }
    live.finish();
    let stats = live.stats();
    assert_eq!(stats.shed_reports, 0);
    assert_eq!(stats.overflow_shed, 0);
    (
        live.fingerprint_chain(),
        live.totals().fingerprint(),
        stats.observations,
    )
}

/// `workers` ingest threads, each owning poles `w, w + workers, …` and
/// delivering its poles' streams in a seeded random merge: FIFO per pole
/// (the watermark contract) but a different cross-pole arrival order on
/// every thread and every seed, racing the dedicated sealer the whole time.
/// The engine's 16 ingest stripes hold poles by `pole % 16`: 16 workers each
/// own one, a count that does not divide 16 makes threads share them.
/// With `intruder`, worker 0 also delivers — halfway through its own
/// streams — a report from pole `directory.len()` and a copy of its next
/// genuine report with one observation renamed to that pole. `readers`
/// more threads ask every query kind and poll a subscription from before
/// the first report until after `finish` (see [`read_until`]).
fn stressed_run(
    source: &SyntheticCity,
    shards: usize,
    seed: u64,
    workers: usize,
    intruder: bool,
    readers: usize,
) -> (u64, u64, u64) {
    let live = LiveCity::new(source.directory().clone(), config(shards));
    let started = Barrier::new(readers + 1);
    let finished = AtomicBool::new(false);
    std::thread::scope(|outer| {
        let readers: Vec<_> = (0..readers)
            .map(|_| outer.spawn(|| read_until(&live, &started, &finished)))
            .collect();
        started.wait();
        ingest_stressed(&live, source, seed, workers, intruder);
        live.finish();
        finished.store(true, Ordering::Release);
        for reader in readers {
            let horizons = reader.join().expect("reader thread");
            assert!(
                horizons.windows(2).all(|w| w[0] <= w[1]),
                "a reader's horizon went back: {horizons:?}"
            );
            let mut distinct = horizons.clone();
            distinct.dedup();
            assert!(
                distinct.len() >= 2,
                "a reader saw one horizon: {horizons:?}"
            );
            assert_eq!(horizons.last(), Some(&live.sealed_panes()));
        }
    });
    let stats = live.stats();
    assert_eq!(stats.shed_reports, 0, "FIFO delivery must not shed");
    assert_eq!(stats.overflow_shed, 0, "buffers must be ample");
    assert_eq!(stats.buffered_observations, 0, "finish flushes everything");
    assert_eq!(stats.unknown_pole_reports, if intruder { 2 } else { 0 });
    (
        live.fingerprint_chain(),
        live.totals().fingerprint(),
        stats.observations,
    )
}

/// The ingest half of [`stressed_run`]: `workers` threads, each delivering
/// its poles in a seeded random merge, joined before it returns.
fn ingest_stressed(
    live: &LiveCity,
    source: &SyntheticCity,
    seed: u64,
    workers: usize,
    intruder: bool,
) {
    let n_poles = source.directory().len() as u32;
    let epochs = source.epochs();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let live = &live;
            scope.spawn(move || {
                let poles: Vec<u32> = (w as u32..n_poles).step_by(workers).collect();
                if poles.is_empty() {
                    return;
                }
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37));
                let mut next = vec![0usize; poles.len()];
                let mut alive: Vec<usize> = (0..poles.len()).collect();
                let mut delivered = 0;
                while !alive.is_empty() {
                    let i = rng.random_range(0..alive.len());
                    let slot = alive[i];
                    let genuine = source.report(poles[slot], next[slot]);
                    delivered += 1;
                    if intruder && w == 0 && delivered == poles.len() * epochs / 2 {
                        let t_us = genuine.timestamp_us;
                        let stranger = report(n_poles, t_us, vec![obs(1, poles[slot], t_us)]);
                        assert_eq!(live.ingest(&stranger), IngestOutcome::UnknownPole);
                        let mut smuggler = genuine.clone();
                        smuggler.observations.push(obs(2, n_poles, t_us));
                        assert_eq!(live.ingest(&smuggler), IngestOutcome::UnknownPole);
                        assert!(!live.declare_pole_dead(PoleId(n_poles)));
                    }
                    live.ingest(&genuine);
                    next[slot] += 1;
                    if next[slot] == epochs {
                        alive.swap_remove(i);
                    }
                }
            });
        }
    });
}

/// One reader of [`stressed_run`]: asks every query kind in one
/// `query_sealed` and polls a subscription, once before `started` lets the
/// ingest threads go and then in a loop, ending with one read that
/// began after `finished` was set. Every subscription poll must continue the pane
/// sequence exactly where the last one stopped. Returns the horizon of
/// every `query_sealed`.
fn read_until(live: &LiveCity, started: &Barrier, finished: &AtomicBool) -> Vec<u64> {
    let window = WindowSpec::sliding(6_000_000, 1_500_000);
    let segment = SegmentId(0);
    let queries = [
        LiveQuery::Occupancy { segment, window },
        LiveQuery::Flow {
            segment,
            last_cycles: 2,
        },
        LiveQuery::SpeedPercentile { p: 50.0, window },
        LiveQuery::TopOd { n: 5, window },
        LiveQuery::PositionAccuracy { window },
        LiveQuery::Watermark,
    ];
    let mut subscription = LiveSubscription::new();
    let mut seen = 0u64;
    let mut horizons = Vec::new();
    let mut read = || {
        let (horizon, answers) = live.query_sealed(&queries);
        match answers.last() {
            Some(LiveAnswer::Watermark { sealed_panes, .. }) => assert_eq!(*sealed_panes, horizon),
            other => panic!("unexpected answer {other:?}"),
        }
        horizons.push(horizon);
        let (panes, missed) = subscription.poll(live);
        for (i, pane) in panes.iter().enumerate() {
            assert_eq!(pane.pane, seen + missed + i as u64, "subscription skipped");
        }
        seen += missed + panes.len() as u64;
    };
    read();
    started.wait();
    loop {
        let last = finished.load(Ordering::Acquire);
        read();
        if last {
            break;
        }
    }
    assert_eq!(
        seen,
        live.sealed_panes(),
        "the subscription reached the head"
    );
    horizons
}

#[test]
fn sixteen_ingest_threads_reproduce_the_single_threaded_chain_across_seeds() {
    let source = SyntheticCity::new(48, 24, 2024);
    let reference = reference_run(&source);
    assert!(reference.2 > 4_000, "workload too small to stress anything");
    for (i, seed) in [3u64, 41, 577, 6217, 74_203, 900_001]
        .into_iter()
        .enumerate()
    {
        // Vary the shard count too, and how the ingest threads fall on
        // the stripes: the chain must not care.
        let shards = [1, 2, 5, 8, 13, 16][i];
        let workers = [INGEST_THREADS, 3, 5, 6, INGEST_THREADS, INGEST_THREADS][i];
        let stressed = stressed_run(&source, shards, seed, workers, false, 0);
        assert_eq!(
            stressed, reference,
            "seed {seed} / {shards} shards / {workers} workers diverged from the single-threaded run"
        );
    }
}

#[test]
fn readers_racing_sixteen_ingest_threads_never_starve_the_sealer() {
    // Four threads loop `query_sealed` over every query kind and poll a
    // subscription while sixteen ingest: `finish` still returns, the run
    // seals what it seals unread, and every reader watched the horizon
    // rise (asserted in `stressed_run` and `read_until`).
    let source = SyntheticCity::new(48, 24, 2024);
    let unread = stressed_run(&source, 8, 577, INGEST_THREADS, false, 0);
    assert_eq!(
        stressed_run(&source, 8, 577, INGEST_THREADS, false, 4),
        unread
    );
}

#[test]
fn reports_naming_a_pole_past_the_directory_are_refused_whole_mid_run() {
    // A pole id the directory does not hold used to take the engine down:
    // an index panic in the clock on the ingest thread, or — smuggled in as
    // one observation of a good report — in the seal fold on the sealer,
    // after which `finish` waited forever. Both are refused and counted;
    // the run seals what it would have sealed without them.
    let source = SyntheticCity::new(48, 24, 2024);
    let reference = reference_run(&source);
    assert_eq!(stressed_run(&source, 4, 31, 4, true, 0), reference);
}

#[test]
fn threads_sharing_one_stripe_seal_the_single_threaded_chain_after_one_has_exited() {
    // Poles 0, 16 and 32 all land on ingest stripe 0; the other 30 poles
    // are declared dead so these three alone drive the watermark. One
    // thread per pole: the first delivers its whole stream and is joined
    // before the others start, so nothing of it can have sealed (the
    // watermark needs all three) — data buffered by a thread that is gone
    // must seal like any other — then the remaining two race each other
    // and the sealer on the one stripe.
    const SHARED: [u32; 3] = [0, 16, 32];
    let source = SyntheticCity::new(33, 120, 909);
    let engine = |shards| {
        let live = LiveCity::new(source.directory().clone(), config(shards));
        for pole in (0..33).filter(|pole| !SHARED.contains(pole)) {
            assert!(live.declare_pole_dead(PoleId(pole)));
        }
        live
    };
    let outcome = |live: &LiveCity| {
        live.finish();
        let stats = live.stats();
        assert_eq!(stats.shed_reports, 0);
        assert_eq!(stats.shed_observations, 0);
        assert_eq!(stats.overflow_shed, 0);
        assert_eq!(stats.buffered_observations, 0);
        (live.fingerprint_chain(), live.totals(), stats.observations)
    };
    let deliver = |live: &LiveCity, pole: u32| {
        for epoch in 0..source.epochs() {
            live.ingest(&source.report(pole, epoch));
        }
    };

    let reference = engine(1);
    for epoch in 0..source.epochs() {
        for pole in SHARED {
            reference.ingest(&source.report(pole, epoch));
        }
    }
    let reference = outcome(&reference);
    assert!(reference.2 > 1_000, "workload too small to contend");

    let live = engine(4);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| deliver(&live, SHARED[0]));
        first.join().expect("first ingest thread");
        assert_eq!(live.sealed_panes(), 0, "nothing can seal on one pole");
        for pole in &SHARED[1..] {
            scope.spawn(|| deliver(&live, *pole));
        }
    });
    assert_eq!(outcome(&live), reference);
}

#[test]
fn position_carrying_observations_keep_byte_identical_fingerprints() {
    // Observations carry per-observation f64 position estimates and speed
    // is regressed from position tracks — the most float-heavy,
    // order-sensitive path in the tracker. 16 racing ingest threads across
    // shard counts and seeds must still reproduce the single-threaded chain
    // byte for byte. (SyntheticCity always synthesizes positions; crank the
    // noise so the regression inputs are non-trivial.)
    let mut source = SyntheticCity::new(48, 24, 4096);
    source.position_noise_m = 1.4;
    let reference = reference_run(&source);
    for (i, seed) in [11u64, 271, 65_537].into_iter().enumerate() {
        let shards = [1, 7, 16][i];
        assert_eq!(
            stressed_run(&source, shards, seed, INGEST_THREADS, false, 0),
            reference,
            "positions broke determinism at seed {seed} / {shards} shards"
        );
    }
    // The run really exercised the ladder: all three methods and both
    // speed sources occurred.
    let live = LiveCity::new(source.directory().clone(), config(4));
    for epoch in 0..source.epochs() {
        for pole in 0..source.directory().len() as u32 {
            live.ingest(&source.report(pole, epoch));
        }
    }
    live.finish();
    let pos = live.totals().positions;
    assert!(pos.two_reader_fixes > 0, "{pos:?}");
    assert!(pos.aoa_only_fixes > 0, "{pos:?}");
    assert!(pos.pole_fallbacks > 0, "{pos:?}");
    assert!(pos.track_speed_samples > 0, "{pos:?}");
    assert!(pos.arrival_speed_samples > 0, "{pos:?}");
    assert_eq!(pos.observations(), live.totals().observations);
}

#[test]
fn cfo_keyed_identities_survive_the_concurrent_seal_path() {
    // The §8 alias-upgrade path is the most order-sensitive part of the
    // tracker state machine; run it through the stressed delivery as well.
    let mut source = SyntheticCity::new(40, 16, 77);
    source.cfo_keyed = true;
    let reference = reference_run(&source);
    for (shards, seed) in [(8, 5u64), (8, 999), (4, 1_000), (16, 13_311)] {
        assert_eq!(
            stressed_run(&source, shards, seed, INGEST_THREADS, false, 0),
            reference,
            "cfo-keyed seed {seed} / {shards} shards diverged"
        );
    }
}

fn obs(tag: u64, pole: u32, t_us: u64) -> TagObservation {
    TagObservation {
        tag: TagKey(tag),
        pole: PoleId(pole),
        segment: SegmentId(0),
        cfo_bin: (tag % 615) as u32,
        cfo_hz: (tag % 615) as f64 * 1953.125,
        aoa_rad: 0.0,
        has_aoa: false,
        rssi_db: -40.0,
        timestamp_us: t_us,
        multi_occupied: false,
        decoded: None,
        position: None,
    }
}

fn report(pole: u32, t_us: u64, observations: Vec<TagObservation>) -> PoleReport {
    PoleReport {
        pole: PoleId(pole),
        segment: SegmentId(0),
        timestamp_us: t_us,
        count: observations.len() as u32,
        peaks: observations.len() as u32,
        observations,
    }
}

#[test]
fn shed_and_overflow_counters_are_pinned_under_tiny_buffers() {
    let directory = PoleDirectory::new(
        (0..2)
            .map(|i| PoleSite {
                segment: SegmentId(0),
                position: caraoke_suite::geom::Vec3::new(i as f64 * 30.0, -5.0, 3.8),
            })
            .collect(),
    );
    let live = LiveCity::new(
        directory,
        LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            retain_panes: 4,
            max_pending_per_stripe: 3,
            ..Default::default()
        },
    );
    // Pole 0 floods pane 0 with 9 observations while pole 1 stays silent:
    // nothing can seal, so the 3-slot stripe buffer takes 3 and sheds 6.
    for i in 0..9u64 {
        live.ingest(&report(0, 100 + i, vec![obs(i, 0, 100 + i)]));
    }
    let stats = live.stats();
    assert_eq!(stats.buffered_observations, 3);
    assert_eq!(stats.overflow_shed, 6);
    assert_eq!(stats.shed_observations, 0);

    // Both poles advance past the pane-0 boundary: pane 0 seals, draining
    // the buffer. (`wait_idle` before the next step — the sealer is a
    // separate thread, and arrivals racing an unfinished drain would find
    // the buffer still full.)
    live.ingest(&report(1, 1_200_000, vec![]));
    live.ingest(&report(0, 1_200_000, vec![]));
    live.wait_idle();
    let stats = live.stats();
    assert_eq!(stats.sealed_panes, 1);
    assert_eq!(stats.observations, 3, "the 3 buffered survivors sealed");
    assert_eq!(stats.buffered_observations, 0, "seal freed the buffer");
    assert_eq!(stats.overflow_shed, 6, "no new overflow after the drain");

    // The freed buffer accepts new in-contract observations; sealing pane 1
    // lands them.
    live.ingest(&report(0, 1_500_000, vec![obs(90, 0, 1_500_000)]));
    live.ingest(&report(1, 1_500_000, vec![obs(91, 1, 1_500_000)]));
    live.ingest(&report(0, 2_000_000, vec![]));
    live.ingest(&report(1, 2_000_000, vec![]));
    live.wait_idle();
    let stats = live.stats();
    assert_eq!(stats.sealed_panes, 2);
    assert_eq!(stats.observations, 5, "3 survivors + 2 pane-1 arrivals");
    assert_eq!(stats.overflow_shed, 6);

    // A straggler below the sealed floor is counted and shed whole.
    let late = live.ingest(&report(0, 500_000, vec![obs(99, 0, 500_000)]));
    assert_eq!(late, IngestOutcome::ShedLate);
    let stats = live.stats();
    assert_eq!(stats.shed_reports, 1);
    assert_eq!(stats.shed_observations, 1);

    live.finish();
    let stats = live.stats();
    assert_eq!(stats.observations, 5, "the straggler never lands");
    assert_eq!(stats.overflow_shed, 6);
    assert_eq!(stats.shed_observations, 1);
}
