//! End-to-end tests of the chaos layer: the quick scenario matrix runs
//! green from one seed, injected log faults are absorbed by the retry
//! path without losing chain equality or replayability, disk-full latches
//! fatal and `reattach_log` restores durability, and clock-skewed poles
//! crossed with `max_pane_staleness` force seals on policy time with every
//! shed observation counted.

use caraoke_suite::chaos::{
    matrix_json, run_matrix, FaultCounters, FaultSink, LogFaultSpec, MatrixConfig,
};
use caraoke_suite::city::{FrameSource, StoreConfig, SyntheticCity};
use caraoke_suite::live::{Clock, LiveCity, LiveConfig, ManualClock};
use caraoke_suite::log::{LogCity, LogOptions, SegmentWriter};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("caraoke-chaos-e2e-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(shards: usize) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards,
            ..Default::default()
        },
        pane_us: 1_500_000,
        ..Default::default()
    }
}

/// Delivers every frame of `city` in pole-major epoch order.
fn deliver_all(live: &LiveCity, city: &SyntheticCity) {
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
    }
}

#[test]
fn quick_matrix_is_green_and_every_fault_is_visible_in_a_counter() {
    let mut matrix = MatrixConfig::new(42, true);
    matrix.scratch = scratch("quick-matrix");
    let report = run_matrix(&matrix);
    assert_eq!(report.cells.len(), 28, "4 topologies x 7 quick scripts");
    for cell in &report.cells {
        assert!(
            cell.ok,
            "cell {}/{} failed: {:?}",
            cell.topology, cell.script, cell.failures
        );
    }
    assert!(report.ok());

    // No silent degradation: each fault class shows in its counter.
    fn by_script<'a>(
        report: &'a caraoke_suite::chaos::MatrixReport,
        name: &'a str,
    ) -> impl Iterator<Item = &'a caraoke_suite::chaos::CellResult> {
        report.cells.iter().filter(move |c| c.script == name)
    }
    let report_ref = &report;
    let by_script = |name: &'static str| by_script(report_ref, name);
    assert!(by_script("outage-revival").all(|c| c.skipped_reports > 0));
    assert!(by_script("clone-tags").all(|c| c.cloned_obs > 0));
    assert!(by_script("log-transient")
        .all(|c| c.log_retries > 0 && c.log_errors_transient > 0 && c.log_errors_fatal == 0));
    // Exact-output scripts sealed the clean run's chain byte for byte.
    for script in ["baseline", "clock-skew", "bursty-delivery", "log-transient"] {
        assert!(
            by_script(script).all(|c| c.chain_match == Some(true)),
            "{script} cells must be chain-identical to clean"
        );
    }
    // Kill cells recovered to the uninterrupted chain, and their logs
    // replay to the same chain.
    assert!(by_script("kill-recover").all(|c| c.chain_match == Some(true)));
    assert!(by_script("kill-recover").all(|c| c.log_chain_match == Some(true)));

    // The JSON report carries every cell and the verdict.
    let json = matrix_json(&report);
    assert!(json.contains("\"cells\": 28"));
    assert!(json.contains("\"ok\": true"));
    assert!(json.contains("\"script\": \"kill-recover\""));
    assert!(json.contains("\"log_retries\""));
}

#[test]
fn transient_log_faults_are_retried_without_losing_chain_or_replayability() {
    let city = SyntheticCity::new(12, 16, 4242);
    // Reference: same frames, no log, no faults.
    let clean = LiveCity::new(city.directory().clone(), config(4));
    deliver_all(&clean, &city);
    clean.finish();
    let clean_chain = clean.fingerprint_chain();
    drop(clean);

    let dir = scratch("transient-retry");
    let injected = FaultCounters::shared();
    let mut writer = SegmentWriter::create(&dir, LogOptions::default()).expect("create log");
    writer.set_fault_injector(Some(FaultSink::boxed(
        LogFaultSpec {
            transient_every_panes: 2,
            transient_burst: 2,
            disk_full_from_pane: None,
        },
        Arc::clone(&injected),
    )));
    let live = LiveCity::with_log_writer(city.directory().clone(), config(4), writer);
    deliver_all(&live, &city);
    live.finish();
    let stats = live.stats();
    let chain = live.fingerprint_chain();
    assert!(
        injected.transient.load(Ordering::Relaxed) > 0,
        "faults injected"
    );
    assert_eq!(
        stats.log_errors_transient,
        injected.transient.load(Ordering::Relaxed)
    );
    assert!(stats.log_retries > 0, "retries happened");
    assert_eq!(stats.log_errors_fatal, 0, "retries absorbed every burst");
    assert_eq!(chain, clean_chain, "log faults must never touch sealing");
    drop(live);

    // Durability held: the log replays verified, chain-equal, untorn.
    let replay = LogCity::open(&dir).replay().expect("verified replay");
    assert_eq!(replay.chain, chain);
    assert_eq!(replay.torn_tail_bytes, 0);
}

#[test]
fn disk_full_latches_fatal_and_reattach_log_restores_durability() {
    let city = SyntheticCity::new(10, 20, 77);
    let dir_full = scratch("disk-full-a");
    let dir_fresh = scratch("disk-full-b");
    let injected = FaultCounters::shared();
    let mut writer = SegmentWriter::create(&dir_full, LogOptions::default()).expect("create log");
    writer.set_fault_injector(Some(FaultSink::boxed(
        LogFaultSpec {
            transient_every_panes: 0,
            transient_burst: 0,
            disk_full_from_pane: Some(8),
        },
        Arc::clone(&injected),
    )));
    let live = LiveCity::with_log_writer(city.directory().clone(), config(4), writer);
    // First half: runs into the full disk.
    for epoch in 0..14 {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
    }
    live.wait_idle();
    let mid = live.stats();
    assert!(mid.log_errors_fatal >= 1, "disk-full latched the sink");
    assert!(mid.sealed_panes > 8, "sealing outlived the log failure");

    // Operator swaps the disk: reattach and finish the run durable.
    let writer = SegmentWriter::create(&dir_fresh, LogOptions::default()).expect("fresh log");
    live.reattach_log(writer).expect("reattach");
    for epoch in 14..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            live.ingest(&city.report(pole, epoch));
        }
    }
    live.finish();
    let chain = live.fingerprint_chain();
    let totals = live.totals();
    drop(live);

    // The reattached log is snapshot-headed: recovery resumes exactly at
    // the engine's final state.
    let recovered = LiveCity::recover(
        &dir_fresh,
        city.directory().clone(),
        config(4),
        LogOptions::default(),
    )
    .expect("recover from reattached log");
    assert_eq!(recovered.fingerprint_chain(), chain);
    assert_eq!(recovered.totals(), totals);
    // And the first log is still a valid (shorter) verified prefix.
    let prefix = LogCity::open(&dir_full).replay().expect("prefix replays");
    assert!(prefix.panes < 14, "prefix stops at the disk-full pane");
}

#[test]
fn skewed_pole_against_staleness_deadline_forces_seals_and_counts_sheds() {
    let city = SyntheticCity::new(8, 12, 9);
    let stalled_pole = 3u32;
    let live_config = LiveConfig {
        max_pane_staleness: Some(Duration::from_millis(40)),
        ..config(2)
    };
    // Stepped, on a clock the test advances: the staleness deadline is
    // passed exactly when the test says so.
    let manual = Arc::new(ManualClock::new());
    let clock = Clock::Manual(Arc::clone(&manual));
    let live = LiveCity::with_clock(city.directory().clone(), live_config, clock);
    // Every pole but one delivers the whole run; the victim's clock is so
    // far behind it never reports. Event-time sealing would stall forever.
    for epoch in 0..city.epochs() {
        for pole in 0..city.directory().len() as u32 {
            if pole != stalled_pole {
                live.ingest(&city.report(pole, epoch));
            }
        }
    }
    assert_eq!(live.seal_step().panes, 0, "the watermark is stuck at 0");
    // The staleness deadline forces a seal of every pane the fastest pole
    // has elapsed, past the stalled pole.
    manual.advance(Duration::from_millis(40));
    let step = live.seal_step();
    let elapsed = (city.epochs() as u64 - 1) * city.epoch_us / live_config.pane_us;
    assert!(step.forced && step.panes == elapsed, "{step:?}");
    let mid = live.stats();
    assert_eq!(mid.forced_panes, elapsed);
    assert_eq!(mid.sealed_panes, elapsed);
    assert_eq!(
        mid.forced_pole_misses, elapsed,
        "the stalled pole, and it alone, missed every forced pane"
    );

    // The pole revives with its skewed (now ancient) clock: everything
    // below the forced seal floor is shed and counted, not merged.
    let floor = live.stats().seal_floor_us;
    assert!(floor > 0);
    let mut shed_any = false;
    for epoch in 0..city.epochs() {
        let report = city.report(stalled_pole, epoch);
        if report.timestamp_us < floor {
            shed_any = true;
        }
        live.ingest(&report);
    }
    assert!(shed_any, "revival delivered data below the forced floor");
    live.finish();
    let stats = live.stats();
    assert!(
        stats.shed_reports > 0 || stats.shed_observations > 0,
        "late revival data must be shed and counted: {stats:?}"
    );
    assert_eq!(stats.buffered_observations, 0);
}
