//! End-to-end test of the live subsystem: `caraoke-sim` streets and
//! vehicles → per-pole PHY collisions → `caraoke::CaraokeReader` →
//! `caraoke-live` watermarked online ingestion, windowed aggregation and
//! the query API.

use caraoke_suite::city::aggregate::Fingerprint;
use caraoke_suite::city::{
    BatchDriver, FrameSource, PhyCity, SegmentId, StoreConfig, SyntheticCity,
};
use caraoke_suite::live::{
    Interleaving, LiveAnswer, LiveCity, LiveConfig, LiveDriver, LiveQuery, LiveSubscription,
    PaneSummary, WindowSpec,
};
use caraoke_suite::log::{LogCity, LogOptions, LogReader, LogRecord};

#[test]
fn position_accuracy_is_queryable_from_the_live_windows() {
    let city = PhyCity::campus(3, 10, 8);
    let run = live_driver(4, 8, Interleaving::PoleStriped).run(&city);
    // The whole-run counters carried through pane sealing.
    assert!(run.totals.positions.two_reader_fixes > 0);
    assert!(run.totals.positions.track_speed_samples > 0);
    // And the windowed product answers coherently.
    let live = LiveCity::new(
        city.directory().clone(),
        live_driver(1, 4, Interleaving::PoleStriped).config,
    );
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
    }
    live.finish();
    match live.query(&LiveQuery::PositionAccuracy {
        window: WindowSpec::tumbling(10_000_000),
    }) {
        LiveAnswer::PositionAccuracy {
            two_reader_fixes,
            pole_fallbacks,
            localized_fraction,
            mean_sigma_m,
            ..
        } => {
            assert!(two_reader_fixes > 0, "windowed fixes must be visible");
            assert!((0.0..=1.0).contains(&localized_fraction));
            assert!(localized_fraction > 0.5);
            assert!(mean_sigma_m > 0.0);
            let _ = pole_fallbacks;
        }
        other => panic!("unexpected answer {other:?}"),
    }
}

fn live_driver(workers: usize, shards: usize, interleaving: Interleaving) -> LiveDriver {
    LiveDriver {
        workers,
        interleaving,
        config: LiveConfig {
            store: StoreConfig {
                shards,
                ..Default::default()
            },
            pane_us: 1_000_000, // PhyCity's epoch width
            retain_panes: 32,
            ..Default::default()
        },
        pace_lag_panes: None,
    }
}

#[test]
fn sim_to_reader_to_live_produces_coherent_windowed_analytics() {
    // Four campus streets x 3 poles, 15 query epochs of real PHY collisions,
    // streamed online.
    let city = PhyCity::campus(3, 15, 8);
    let run = live_driver(4, 8, Interleaving::PoleStriped).run(&city);

    // Every pole reported every epoch; FIFO delivery sheds nothing, and
    // every pane seals after the flush.
    assert_eq!(run.stats.reports, 12 * 15);
    assert_eq!(run.stats.shed_reports, 0);
    assert_eq!(run.stats.sealed_panes, 15, "one pane per epoch");
    assert_eq!(run.stats.buffered_observations, 0);
    assert!(run.stats.observations > 0, "poles must hear tags");

    // Whole-run coherence matches the batch e2e expectations.
    let seg_a = &run.totals.segments[&0];
    assert!(seg_a.mean_occupancy() >= 1.0, "street A parked cars");
    assert!(run.totals.od.total() > 0, "no OD transitions recorded");
    assert!(run.totals.speeds.samples() > 0, "no speed samples");
    let p50 = run.totals.speeds.percentile_mph(50.0);
    assert!((5.0..=80.0).contains(&p50), "median speed {p50} mph");
    for seg in 0..4u16 {
        assert!(
            run.totals.flow.mean_flow(SegmentId(seg)) > 0.0,
            "street {seg} saw no flow"
        );
    }
}

#[test]
fn live_window_chain_is_invariant_and_totals_match_batch() {
    let city = PhyCity::campus(2, 8, 21);
    let a = live_driver(1, 1, Interleaving::PoleStriped).run(&city);
    let b = live_driver(4, 8, Interleaving::PoleStriped).run(&city);
    let c = live_driver(1, 5, Interleaving::ShuffledFifo { seed: 77 }).run(&city);
    assert_eq!(
        a.chain_fingerprint, b.chain_fingerprint,
        "worker/shard counts changed the window sequence"
    );
    assert_eq!(
        a.chain_fingerprint, c.chain_fingerprint,
        "arrival interleaving changed the window sequence"
    );
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.totals, c.totals);

    // The online totals equal the batch pipeline's aggregates for the same
    // PHY source, byte for byte.
    let batch = BatchDriver {
        workers: 4,
        consumers: 2,
        queue_capacity: 32,
        store: StoreConfig::default(),
    }
    .run(&city);
    assert_eq!(a.totals.fingerprint(), batch.aggregates.fingerprint());
    assert_eq!(a.totals, batch.aggregates);
}

#[test]
fn queries_and_subscription_work_against_a_streaming_phy_run() {
    let city = PhyCity::campus(3, 12, 5);
    let driver = live_driver(2, 4, Interleaving::PoleStriped);
    let live = LiveCity::new(city.directory().clone(), driver.config);
    let mut subscription = LiveSubscription::new();
    let mut sealed_seen = 0usize;
    let mut last_watermark = 0u64;
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
        // Watermark monotonicity while streaming.
        let w = live.watermark_us();
        assert!(w >= last_watermark, "watermark regressed mid-stream");
        last_watermark = w;
        let (panes, missed) = subscription.poll(&live);
        assert_eq!(missed, 0, "retention covers the whole run");
        sealed_seen += panes.len();
    }
    live.finish();
    let (panes, _) = subscription.poll(&live);
    sealed_seen += panes.len();
    assert_eq!(
        sealed_seen as u64,
        live.sealed_panes(),
        "every sealed pane reaches the subscriber exactly once"
    );

    // Windowed queries answer from sealed state.
    let occupancy = live.query(&LiveQuery::Occupancy {
        segment: SegmentId(0),
        window: WindowSpec::sliding(12_000_000, 1_000_000),
    });
    match occupancy {
        LiveAnswer::Occupancy { reports, .. } => {
            assert_eq!(reports, 3 * 12, "street A's poles report every epoch")
        }
        other => panic!("unexpected answer {other:?}"),
    }
    match live.query(&LiveQuery::SpeedPercentile {
        p: 90.0,
        window: WindowSpec::tumbling(12_000_000),
    }) {
        LiveAnswer::Speed { samples, mph } => {
            assert!(samples > 0);
            assert!(mph > 0.0);
        }
        other => panic!("unexpected answer {other:?}"),
    }
}

/// Extends `chain` the way the sealer does: `(pane, fingerprint)` per pane.
fn fold_chain(mut chain: Fingerprint, panes: &[PaneSummary]) -> u64 {
    for p in panes {
        chain.write_u64(p.pane);
        chain.write_u64(p.fingerprint);
    }
    chain.finish()
}

#[test]
fn subscribed_pane_fingerprints_fold_to_the_chain_live_and_recovered() {
    // The fingerprint a subscriber reads is stored with the pane, not
    // recomputed per read. Whatever is stored must be the value the chain
    // absorbed: folding a full drain reproduces the engine's chain, which
    // the sealer extends on its own.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stored-fingerprints");
    let _ = std::fs::remove_dir_all(&dir);
    let source = SyntheticCity::new(24, 12, 4242);
    let config = LiveConfig {
        retain_panes: 32,
        ..Default::default()
    };
    let live = LiveCity::with_log(
        source.directory().clone(),
        config,
        &dir,
        LogOptions::default(),
    )
    .expect("create logged engine");
    for epoch in 0..source.epochs() {
        for pole in 0..source.directory().len() as u32 {
            live.ingest(&source.report(pole, epoch));
        }
    }
    live.finish();
    let (panes, missed) = LiveSubscription::new().poll(&live);
    assert_eq!(missed, 0, "the run is shorter than the retention");
    assert_eq!(panes.len() as u64, live.sealed_panes());
    assert!(panes.len() >= 12);
    assert_eq!(
        fold_chain(Fingerprint::new(), &panes),
        live.fingerprint_chain()
    );
    drop(live);

    // A recovered engine restores only the last `retain_panes` panes. Their
    // fingerprints, folded onto the chain the log recorded just before the
    // suffix, must land on the verified replay's chain.
    let replay = LogCity::open(&dir).replay().expect("verified replay");
    let recovered = LiveCity::recover(
        &dir,
        source.directory().clone(),
        LiveConfig {
            retain_panes: 5,
            ..config
        },
        LogOptions::default(),
    )
    .expect("recover");
    let (suffix, missed) = LiveSubscription::new().poll(&recovered);
    assert_eq!(suffix.len(), 5);
    assert_eq!(missed, replay.next_pane - 5);
    assert_eq!(suffix[4].pane + 1, replay.next_pane);
    let before = LogReader::open(&dir)
        .expect("open log")
        .records()
        .find_map(|r| match r.expect("verified") {
            LogRecord::Pane(p) if p.pane + 1 == suffix[0].pane => Some(p.chain),
            _ => None,
        })
        .expect("the pane before the suffix is in the log");
    assert_eq!(
        fold_chain(Fingerprint::resume(before), &suffix),
        replay.chain
    );
    assert_eq!(recovered.fingerprint_chain(), replay.chain);
}
