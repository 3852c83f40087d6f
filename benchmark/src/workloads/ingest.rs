//! `ingest_hot` and `ingest_bigstate`: the live seal path alone
//! (`LiveCity::new`, no log, no hub), closed loop, one ingest thread paced
//! two panes behind the seal floor. The two differ only in the deployment
//! size, i.e. in whether the engine's state stays cache-resident.

use crate::harness::{
    batch_fingerprint, report_trials, run_trial, stream_and_watch, synthetic_city, timed_setup,
    Outcome, RunArgs, SealWatcher,
};
use crate::trace::Tracer;
use caraoke_city::store::{shard_of_bin, TagTracker};
use caraoke_city::{FrameSource, StoreConfig, SyntheticCity, TagObservation};
use caraoke_live::{LiveCity, LiveConfig};
use std::sync::Arc;
use std::time::Instant;

/// Deployment and trial size of one ingest workload.
pub struct Shape {
    poles: usize,
    /// Epochs per trial (one pane each).
    epochs: usize,
    /// What one trial takes on the 2-core reference container, seconds.
    nominal_trial_s: f64,
    tiny_poles: usize,
}

/// ~2.1 M observations per trial; engine state ≈ 60 MB.
pub const HOT: Shape = Shape {
    poles: 1_000,
    epochs: 500,
    nominal_trial_s: 1.55,
    tiny_poles: 40,
};

/// ~2.6 M observations per trial in 85 k-observation panes; the pane
/// buffers, sort scratch and tracker tables are far larger than the LLC.
pub const BIGSTATE: Shape = Shape {
    poles: 20_000,
    epochs: 30,
    nominal_trial_s: 2.2,
    tiny_poles: 400,
};

/// Epochs of the warm-up stream every set-up lap runs.
const WARMUP_SHARE: usize = 5;

/// Observations the tracker probe folds.
const PROBE_OBSERVATIONS: usize = 1_000_000;

pub fn run(args: &RunArgs, shape: &Shape) -> Outcome {
    let mut out = Outcome::new();
    let poles = args.scale.pick(shape.poles, shape.tiny_poles);
    let epochs = args.scale.pick(shape.epochs, 12);
    let base = Instant::now();
    let watcher = SealWatcher::spawn(base);
    let engine = |source: &SyntheticCity| {
        Arc::new(LiveCity::new(
            source.directory().clone(),
            LiveConfig::default(),
        ))
    };

    let (source, setup_laps) = timed_setup(|| {
        let source = synthetic_city(poles, epochs, args.seed);
        let warmup = (epochs / WARMUP_SHARE).max(4);
        stream_and_watch(&watcher, &engine(&source), &source, warmup, None);
        source
    });

    let n_trials = args.trials(1.0, shape.nominal_trial_s);
    let mut tracer = args.trace.then(|| Tracer::new(base));
    let mut trials = Vec::with_capacity(n_trials);
    for index in 0..n_trials {
        // A traced run mixes untraced and traced trials, so the tracing
        // overhead is measured within the run.
        let spans = tracer.as_mut().filter(|_| args.traces_trial(index));
        let live = engine(&source);
        let trial = run_trial(
            &mut out,
            &watcher,
            &live,
            &source,
            epochs,
            index,
            spans,
            "gen.report",
        );
        out.check(trial.stats.sealed_panes == epochs as u64, || {
            format!(
                "trial {index}: sealed {} panes of {epochs}",
                trial.stats.sealed_panes
            )
        });
        trials.push(trial);
    }
    out.note_peak_rss();

    report_trials(
        &mut out,
        args,
        &setup_laps,
        &trials,
        batch_fingerprint(&source),
    );
    if let Some(tracer) = tracer {
        out.layer(
            "city.tracker_apply_ns_per_obs",
            tracker_apply_ns_per_obs(&source),
        );
        out.tracers.push(("bench-ingest", tracer));
    }
    out
}

/// `TagTracker::apply` over the canonical-ordered stream, pane by pane and
/// shard by shard the way the sealer walks it, timed on its own: the fold's
/// cost with this deployment's state size and nothing else in the way.
pub fn tracker_apply_ns_per_obs(source: &SyntheticCity) -> f64 {
    let config = StoreConfig::default();
    let shards = config.shards;
    let n_poles = source.directory().len() as u32;
    let mut trackers: Vec<TagTracker> = (0..shards).map(|_| TagTracker::new()).collect();
    let mut folded = 0usize;
    let mut events = 0u64;
    let mut apply_ns = 0u128;
    for epoch in 0..source.epochs() {
        if folded >= PROBE_OBSERVATIONS {
            break;
        }
        let mut buckets: Vec<Vec<(u32, TagObservation)>> = vec![Vec::new(); shards];
        for pole in 0..n_poles {
            for (seq, obs) in source
                .report(pole, epoch)
                .observations
                .into_iter()
                .enumerate()
            {
                buckets[shard_of_bin(obs.cfo_bin, shards)].push((seq as u32, obs));
            }
        }
        for bucket in &mut buckets {
            bucket.sort_by_key(|(seq, obs)| (caraoke_city::store::canonical_obs_key(obs), *seq));
        }
        let start = Instant::now();
        for (tracker, bucket) in trackers.iter_mut().zip(&buckets) {
            for (_, obs) in bucket {
                tracker.apply(obs, source.directory(), &config, |_| events += 1);
            }
        }
        apply_ns += start.elapsed().as_nanos();
        folded += buckets.iter().map(Vec::len).sum::<usize>();
    }
    std::hint::black_box(events);
    apply_ns as f64 / folded.max(1) as f64
}
