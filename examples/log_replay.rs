//! Durable pane log: write, crash, recover, and verify by replay.
//!
//! Four acts over one synthetic city:
//!
//! 1. a **logged** online run — every sealed pane is appended to an
//!    append-only segment log *before* it becomes queryable;
//! 2. a simulated crash: the engine is dropped mid-stream, no `finish()`;
//! 3. `LiveCity::recover` rebuilds the engine from the log (watermark
//!    frontiers, tracker state, window rings) and ingest resumes at the
//!    seal floor — landing byte-identical to an uninterrupted run;
//! 4. `LogCity` replays the log with every CRC and fingerprint re-checked,
//!    closing the triangle against a direct batch run.
//!
//! Both identities are asserted, and the stitched log (pre-crash and
//! post-recovery segments) is left at `target/log-example` for `logtool
//! verify` and `servetool tail-log`.
//!
//! Run with: `cargo run --release --example log_replay`

use caraoke_suite::city::{BatchDriver, FrameSource, StoreConfig, SyntheticCity};
use caraoke_suite::live::{LiveCity, LiveConfig};
use caraoke_suite::log::{LogCity, LogOptions};
use std::path::Path;

const WORKERS: usize = 8;

/// Pole-striped delivery (FIFO per pole), restricted to epochs whose
/// event time lands in `[from_us, until_us)` — the same helper drives the
/// full run, the crashed prefix, and the post-recovery re-delivery.
fn stream(live: &LiveCity, source: &SyntheticCity, from_us: u64, until_us: u64) {
    let n_poles = source.directory().len() as u32;
    let epoch_us = source.epoch_us();
    let epochs: Vec<usize> = (0..source.epochs())
        .filter(|&e| {
            let t = e as u64 * epoch_us;
            from_us <= t && t < until_us
        })
        .collect();
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let live = &live;
            let epochs = &epochs;
            scope.spawn(move || {
                for &epoch in epochs {
                    for pole in (w as u32..n_poles).step_by(WORKERS) {
                        live.ingest(&source.report(pole, epoch));
                    }
                }
            });
        }
    });
}

fn config() -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards: 4,
            ..Default::default()
        },
        retain_panes: 16,
        ..Default::default()
    }
}

fn logged(source: &SyntheticCity, dir: &Path) -> LiveCity {
    LiveCity::with_log(
        source.directory().clone(),
        config(),
        dir,
        LogOptions::default(),
    )
    .expect("create logged engine")
}

fn main() {
    let source = SyntheticCity::new(200, 40, 31);
    let epoch_us = source.epoch_us();
    let target = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let crash_dir = target.join("log-example");
    let ref_dir = target.join("log-example-reference");
    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    // The uninterrupted reference this crash-recovery run must match.
    let reference = logged(&source, &ref_dir);
    stream(&reference, &source, 0, u64::MAX);
    reference.finish();
    let ref_chain = reference.fingerprint_chain();
    let ref_totals = reference.totals();
    drop(reference);

    // 1 + 2. A logged run that dies mid-stream: the first 25 of 40 epochs
    // are delivered, then the engine is dropped without finish().
    let crash_us = 25 * epoch_us;
    println!("act 1: logged online run into {}", crash_dir.display());
    let doomed = logged(&source, &crash_dir);
    stream(&doomed, &source, 0, crash_us);
    let sealed_before = doomed.stats().sealed_panes;
    println!("act 2: crash after {sealed_before} sealed panes (engine dropped, no finish)\n");
    drop(doomed);

    // 3. Recovery: the engine is rebuilt entirely from the bytes on disk,
    // and re-ingest resumes at the first unsealed pane.
    let recovered = LiveCity::recover(
        &crash_dir,
        source.directory().clone(),
        config(),
        LogOptions::default(),
    )
    .expect("recover from pane log");
    let floor_us = recovered.stats().seal_floor_us;
    println!(
        "act 3: recovered to pane {} (seal floor {:.1} s); re-delivering t >= floor",
        floor_us / epoch_us,
        floor_us as f64 / 1e6,
    );
    stream(&recovered, &source, floor_us, u64::MAX);
    recovered.finish();
    let identical = recovered.fingerprint_chain() == ref_chain && recovered.totals() == ref_totals;
    println!(
        "  resumed chain  {:#018x}\n  reference      {:#018x}  (byte-identical: {identical})\n",
        recovered.fingerprint_chain(),
        ref_chain,
    );
    assert!(identical, "recovery must land on the uninterrupted run");
    drop(recovered);

    // 4. Verified replay of the stitched log (pre-crash + post-recovery
    // segments), plus the third side of the triangle: a direct batch run.
    let replay = LogCity::open(&crash_dir).replay().expect("verified replay");
    let batch = BatchDriver {
        workers: WORKERS,
        consumers: 2,
        queue_capacity: 4096,
        store: StoreConfig {
            shards: 4,
            ..Default::default()
        },
    }
    .run(&source);
    println!(
        "act 4: verified replay of {} panes -> chain {:#018x}, {} observations",
        replay.panes, replay.chain, replay.totals.observations,
    );
    let closed =
        replay.chain == ref_chain && replay.totals.fingerprint() == batch.aggregates.fingerprint();
    println!("  triangle closed (replay == live == batch): {closed}");
    assert!(closed, "replay, live and batch must agree");

    println!(
        "\ninspect the log yourself: cargo run -p caraoke-log --bin logtool -- verify {}",
        crash_dir.display()
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
}
