//! `durable_cycle`: the log tier, written and then read back. Each trial is
//! `LiveCity::with_log` (default `LogOptions`) under closed-loop ingest →
//! `finish` → drop → `LogCity::replay` (verified) → `LiveCity::recover`, so a
//! faster append that bloats replay or recovery — or the reverse — shows in
//! the same run.

use crate::harness::{
    batch_fingerprint, report_trials, run_trial, stream_and_watch, synthetic_city, timed_setup,
    Outcome, RunArgs, SealWatcher, SpanSink,
};
use crate::json::Json;
use crate::stats;
use crate::trace::{Req, Tracer, NO_PARENT};
use caraoke_city::{FrameSource, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig};
use caraoke_log::{codec, LogCity, LogOptions, LogReader, LogRecord, PaneRecord, SegmentWriter};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const POLES: usize = 1_000;
/// Epochs (panes) per trial: ~1.05 M observations logged, then read twice.
const EPOCHS: usize = 250;
/// Write + replay + recover of one trial on the reference container.
const NOMINAL_TRIAL_S: f64 = 2.1;
/// Bytes the CRC probe checksums.
const CRC_PROBE_BYTES: usize = 256 << 20;

/// The read-back half of one trial.
struct ReadBack {
    traced: bool,
    log_bytes: u64,
    replay_panes_per_s: f64,
    recover_ms: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    let poles = args.scale.pick(POLES, 40);
    let epochs = args.scale.pick(EPOCHS, 16);
    let config = LiveConfig::default();
    let opts = LogOptions::default();
    let base = Instant::now();
    let watcher = SealWatcher::spawn(base);
    let scratch = |name: &str| args.run_dir.join(name);
    let logged_engine = |source: &SyntheticCity, dir: &Path| {
        let live = LiveCity::with_log(source.directory().clone(), config, dir, opts);
        Arc::new(live.expect("create pane log"))
    };

    let (source, setup_laps) = timed_setup(|| {
        let source = synthetic_city(poles, epochs, args.seed);
        let dir = scratch("log-warmup");
        let live = logged_engine(&source, &dir);
        stream_and_watch(&watcher, &live, &source, (epochs / 5).max(4), None);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
        source
    });

    let n_trials = args.trials(1.0, NOMINAL_TRIAL_S);
    let mut tracer = args.trace.then(|| Tracer::new(base));
    let mut trials = Vec::with_capacity(n_trials);
    let mut read_backs: Vec<ReadBack> = Vec::with_capacity(n_trials);
    // The last trial's log stays for the layer probes of a traced run.
    let mut kept_log = None;
    for index in 0..n_trials {
        let traced = args.traces_trial(index);
        let dir = scratch(&format!("log-{index}"));

        // Write.
        let live = logged_engine(&source, &dir);
        let trial = run_trial(
            &mut out,
            &watcher,
            &live,
            &source,
            epochs,
            index,
            tracer.as_mut().filter(|_| traced),
            "gen.report",
        );
        drop(live);
        let log_bytes = dir_bytes(&dir);
        let (chain, totals_fingerprint) = (trial.chain, trial.totals_fingerprint);
        trials.push(trial);

        // Read back: verified replay, then recovery into a running engine.
        let t0 = Instant::now();
        let replay = LogCity::open(&dir).replay();
        let replay_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let recovered = LiveCity::recover(&dir, source.directory().clone(), config, opts);
        let recover_ms = t1.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = tracer.as_mut().filter(|_| traced) {
            let end = t.now();
            let recovering = end - (recover_ms * 1e6) as u64;
            let replaying = recovering - (replay_s * 1e9) as u64;
            let req = Req::Round(index as u32);
            t.leaf("log.replay", replaying, recovering, NO_PARENT, req);
            t.leaf("live.recover", recovering, end, NO_PARENT, req);
        }

        let mut replay_panes_per_s = 0.0;
        match replay {
            Ok(replay) => {
                replay_panes_per_s = replay.panes as f64 / replay_s;
                out.check(replay.chain == chain, || {
                    format!(
                        "trial {index}: replay chain {:#018x} != live {chain:#018x}",
                        replay.chain
                    )
                });
                out.check(replay.totals.fingerprint() == totals_fingerprint, || {
                    format!("trial {index}: replay totals differ from the writer's")
                });
                out.check(replay.panes == epochs as u64, || {
                    format!("trial {index}: replayed {} panes of {epochs}", replay.panes)
                });
            }
            Err(err) => out
                .mismatches
                .push(format!("trial {index}: replay failed: {err}")),
        }
        match recovered {
            Ok(engine) => {
                let got = engine.fingerprint_chain();
                out.check(got == chain, || {
                    format!("trial {index}: recovered chain {got:#018x} != live {chain:#018x}")
                });
            }
            Err(err) => out
                .mismatches
                .push(format!("trial {index}: recovery failed: {err}")),
        }

        if args.trace && index + 1 == n_trials {
            kept_log = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        read_backs.push(ReadBack {
            traced,
            log_bytes,
            replay_panes_per_s,
            recover_ms,
        });
    }
    out.note_peak_rss();

    // Across trials and against the batch pipeline (the per-trial
    // live == replay == recovered checks ran above).
    report_trials(
        &mut out,
        args,
        &setup_laps,
        &trials,
        batch_fingerprint(&source),
    );
    let untraced = |f: fn(&ReadBack) -> f64| -> Vec<f64> {
        read_backs.iter().filter(|r| !r.traced).map(f).collect()
    };
    let replay_rates = untraced(|r| r.replay_panes_per_s);
    let recover_times = untraced(|r| r.recover_ms);
    out.layer("replay_panes_per_s", stats::median(&replay_rates));
    out.layer("recover_ms", stats::median(&recover_times));
    out.records
        .push(("replay_panes_per_s", stats::summary(&replay_rates)));
    out.records
        .push(("recover_ms", stats::summary(&recover_times)));
    out.records.push((
        "log_bytes",
        Json::Arr(read_backs.iter().map(|r| Json::from(r.log_bytes)).collect()),
    ));

    if args.trace {
        let (logged, read_back) = (&trials[n_trials - 1], &read_backs[n_trials - 1]);
        out.layer(
            "log.bytes_per_obs",
            read_back.log_bytes as f64 / logged.streamed.cost.observations.max(1) as f64,
        );
        let sealer_ns_per_obs = out.layers["live.sealer_cpu_ns_per_obs"];
        out.layer(
            "log.tax_ns_per_obs",
            sealer_ns_per_obs - unlogged_sealer_ns_per_obs(&watcher, &source, epochs),
        );
        if let Some(dir) = &kept_log {
            let replay_s = epochs as f64 / read_back.replay_panes_per_s.max(1e-9);
            log_probes(&mut out, dir, &scratch("log-probe"), replay_s);
        }
    }
    if let Some(dir) = kept_log {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(tracer) = tracer {
        out.tracers.push(("bench-ingest", tracer));
    }
    out
}

/// Sealer CPU per observation for the same stream with no log attached —
/// the baseline `log.tax_ns_per_obs` subtracts.
fn unlogged_sealer_ns_per_obs(watcher: &SealWatcher, source: &SyntheticCity, epochs: usize) -> f64 {
    let live = Arc::new(LiveCity::new(
        source.directory().clone(),
        LiveConfig::default(),
    ));
    // Traced (into a throw-away recorder) so the stream reads the sealer's
    // scheduler clock and pays the same tracing cost as the logged trials.
    let mut scrap = Tracer::new(watcher.base());
    let root = scrap.open("trial", NO_PARENT, Req::None);
    let sink = SpanSink {
        tracer: &mut scrap,
        parent: root,
        report_span: "gen.report",
    };
    let streamed = stream_and_watch(watcher, &live, source, epochs, Some(sink));
    streamed.sealer.run_ns as f64 / streamed.cost.observations.max(1) as f64
}

/// The log tier's calls timed on their own, over the panes of a log this
/// run wrote: encode, append + commit, final sync, CRC, verified cursor
/// read, record decode — and what share of a replay is the fold on top of
/// the read.
fn log_probes(out: &mut Outcome, log_dir: &Path, scratch: &Path, replay_s: f64) {
    let reader = match LogReader::open(log_dir) {
        Ok(reader) => reader,
        Err(err) => {
            out.mismatches
                .push(format!("log probe: open failed: {err}"));
            return;
        }
    };
    let t0 = Instant::now();
    let panes: Vec<PaneRecord> = reader
        .records()
        .filter_map(|record| match record {
            Ok(LogRecord::Pane(pane)) => Some(pane),
            _ => None,
        })
        .collect();
    let read_s = t0.elapsed().as_secs_f64();
    let n = panes.len().max(1) as f64;
    out.layer("log.read_us_per_pane", read_s * 1e6 / n);
    out.layer(
        "log.replay_fold_share",
        ((replay_s - read_s) / replay_s).max(0.0),
    );

    let t0 = Instant::now();
    let payloads: Vec<Vec<u8>> = panes
        .iter()
        .map(|p| {
            codec::encode_pane(
                p.pane,
                p.forced,
                p.pole_misses,
                p.fingerprint,
                p.chain,
                &p.aggregates,
                &p.deltas,
            )
        })
        .collect();
    out.layer(
        "log.encode_us_per_pane",
        t0.elapsed().as_secs_f64() * 1e6 / n,
    );

    let t0 = Instant::now();
    for payload in &payloads {
        let decoded = codec::decode_record(payload);
        out.check(decoded.is_ok(), || {
            "log probe: re-encoded pane does not decode".into()
        });
    }
    out.layer(
        "log.decode_us_per_pane",
        t0.elapsed().as_secs_f64() * 1e6 / n,
    );

    let blob: Vec<u8> = payloads.concat();
    if !blob.is_empty() {
        let passes = (CRC_PROBE_BYTES / blob.len()).max(1);
        let t0 = Instant::now();
        let mut sum = 0u32;
        for _ in 0..passes {
            sum ^= codec::crc32c(std::hint::black_box(&blob));
        }
        std::hint::black_box(sum);
        let gb = (passes * blob.len()) as f64 / 1e9;
        out.layer("log.crc_gb_per_s", gb / t0.elapsed().as_secs_f64());
    }

    let _ = std::fs::remove_dir_all(scratch);
    let appended = (|| -> std::io::Result<(f64, f64)> {
        let t0 = Instant::now();
        let mut writer = SegmentWriter::create(scratch, LogOptions::default())?;
        for p in &panes {
            writer.append_pane(
                p.pane,
                p.forced,
                p.pole_misses,
                p.fingerprint,
                p.chain,
                &p.aggregates,
                &p.deltas,
            )?;
            writer.commit_seal()?;
        }
        let append_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        writer.sync()?;
        Ok((append_s, t1.elapsed().as_secs_f64()))
    })();
    match appended {
        Ok((append_s, sync_s)) => {
            out.layer("log.append_us_per_pane", append_s * 1e6 / n);
            out.layer("log.sync_ms", sync_s * 1e3);
        }
        Err(err) => out
            .mismatches
            .push(format!("log probe: append failed: {err}")),
    }
    let _ = std::fs::remove_dir_all(scratch);
}
