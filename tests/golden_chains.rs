//! Golden fingerprint pins for the live seal path.
//!
//! Every other determinism test compares one run of the engine with
//! another run of the same engine; these literals were recorded once, at
//! the commit *before* the seal walk was unified, so a refactor that
//! changes what a pane contains — not just how it is computed — fails
//! here even when every in-process comparison still agrees with itself.
//! The logged run is also asserted against a verified replay and a
//! crash/recover/re-feed of its log; the paced `LiveDriver` run pins
//! multi-worker ingest. (Two test names still say `for_every_pool_size`:
//! the seal walk's thread pool they swept is gone, the ids are kept so
//! the suite's test list stays comparable across commits.)

use caraoke_suite::city::{FrameSource, StoreConfig, SyntheticCity};
use caraoke_suite::live::{Interleaving, LiveCity, LiveConfig, LiveDriver};
use caraoke_suite::log::{LogCity, LogOptions};
use std::path::PathBuf;

fn config() -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards: 8,
            ..Default::default()
        },
        retain_panes: 8,
        ..Default::default()
    }
}

/// In-order delivery of every epoch with `from_us <= t < until_us`.
fn deliver(live: &LiveCity, source: &SyntheticCity, from_us: u64, until_us: u64) {
    for epoch in 0..source.epochs() {
        let t = epoch as u64 * source.epoch_us();
        if t < from_us || t >= until_us {
            continue;
        }
        for pole in 0..source.directory().len() as u32 {
            live.ingest(&source.report(pole, epoch));
        }
    }
}

fn sealed(live: &LiveCity) -> (u64, u64) {
    live.finish();
    let stats = live.stats();
    assert_eq!(stats.shed_reports, 0);
    assert_eq!(stats.overflow_shed, 0);
    (live.fingerprint_chain(), live.totals().fingerprint())
}

#[test]
fn plain_run_seals_the_recorded_chain_for_every_pool_size() {
    let source = SyntheticCity::new(48, 24, 2024);
    let live = LiveCity::new(source.directory().clone(), config());
    deliver(&live, &source, 0, u64::MAX);
    assert_eq!(
        sealed(&live),
        (0xab35_9737_6a4a_0830, 0x4155_5899_9845_f0bc)
    );
}

#[test]
fn cfo_keyed_decoding_run_seals_the_recorded_chain_for_every_pool_size() {
    // CFO-signature keys colliding on 615 bins with every third
    // observation decoded: the §8 alias-upgrade state machine, the most
    // order-sensitive path in the tracker.
    let mut source = SyntheticCity::new(48, 24, 31_337);
    source.cfo_keyed = true;
    source.decode_every = 3;
    let live = LiveCity::new(source.directory().clone(), config());
    deliver(&live, &source, 0, u64::MAX);
    assert_eq!(
        sealed(&live),
        (0xe66f_526d_c319_129f, 0xa377_ed43_bd99_bdf3)
    );
}

#[test]
fn paced_two_worker_cfo_keyed_run_seals_the_recorded_chain() {
    // The smoke tier of `experiments scale`: the only golden with several
    // paced ingest workers and CFO aliasing at density (500 poles).
    let mut source = SyntheticCity::new(500, 60, 77);
    source.cfo_keyed = true;
    let run = LiveDriver {
        workers: 2,
        interleaving: Interleaving::PoleStriped,
        config: LiveConfig {
            store: StoreConfig {
                shards: 16,
                ..Default::default()
            },
            ..Default::default()
        },
        pace_lag_panes: Some(2),
    }
    .run(&source);
    assert_eq!(run.chain_fingerprint, 0x2a7a_bc7f_f2ed_570d);
    assert_eq!(run.stats.observations, 126_946);
    assert_eq!(run.stats.shed_reports, 0);
    assert_eq!(run.stats.overflow_shed, 0);
}

#[test]
fn logged_compacting_run_seals_replays_and_recovers_the_recorded_chain() {
    // 80 panes: crosses the idle-tag compaction cadence (a sweep after
    // pane 63) and two snapshot boundaries, so evictions ride pane deltas
    // and snapshots export compacted trackers. Heavy detection loss leaves
    // a few percent of the tags unseen for two epochs when the sweep runs.
    let mut source = SyntheticCity::new(32, 80, 515);
    source.miss_probability = 0.3;
    let golden = (0x2990_3e26_e491_0a6e_u64, 0xaca8_277e_7202_923c_u64);
    let opts = LogOptions {
        snapshot_every_panes: 32,
        ..Default::default()
    };
    let config = LiveConfig {
        compact_idle_us: Some(2 * source.epoch_us()),
        ..config()
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let _ = std::fs::remove_dir_all(&dir);

    // Crash mid-run (drop without finish), recover, re-feed from the seal
    // floor: the stitched run must land on the same literals as an
    // uninterrupted one.
    let crashed =
        LiveCity::with_log(source.directory().clone(), config, &dir, opts).expect("logged engine");
    deliver(&crashed, &source, 0, 70 * source.epoch_us());
    drop(crashed);
    let live = LiveCity::recover(&dir, source.directory().clone(), config, opts)
        .expect("recover from pane log");
    let floor_us = live.stats().seal_floor_us;
    assert!(floor_us > 64 * source.epoch_us(), "crashed past the sweep");
    deliver(&live, &source, floor_us, u64::MAX);
    assert_eq!(sealed(&live), golden, "logged run");
    assert_eq!(live.stats().log_errors_fatal, 0);
    drop(live);

    let replay = LogCity::open(&dir).replay().expect("verified replay");
    assert_eq!(
        (replay.chain, replay.totals.fingerprint()),
        golden,
        "replay of the stitched log"
    );
    assert_eq!(replay.next_pane, 80);
    let _ = std::fs::remove_dir_all(&dir);

    // The uninterrupted run: same literals, and compaction really evicted.
    let live = LiveCity::new(source.directory().clone(), config);
    deliver(&live, &source, 0, u64::MAX);
    assert_eq!(sealed(&live), golden, "uninterrupted, unlogged run");
    assert!(
        live.stats().compacted_tags > 0,
        "the sweep evicted idle tags"
    );
}
