//! What every workload shares: run arguments, the outcome record, the
//! closed-loop paced ingest, release/receive bookkeeping for freshness, and
//! the set-up clock.

use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::trace::{clock_if, Req, SchedClock, Tracer, NO_PARENT};
use caraoke_city::{BatchDriver, FrameSource, StoreConfig, SyntheticCity};
use caraoke_live::{LiveCity, LiveStats, LiveSubscription};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Panes the closed-loop ingest thread may run ahead of the seal floor
/// (except on `serve_saturated`, which says why it differs): the minimum the
/// watermark can always release (lateness + 1), so buffered memory stays
/// bounded and nothing is ever shed for overflow.
pub const PACE_LAG_PANES: u64 = 2;

/// Name of the engine's sealer thread as `/proc` shows it (15 bytes).
pub const SEALER_THREAD: &str = "caraoke-live-se";

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_LAPS: usize = 3;

/// Input size: the real benchmark, or the seconds-long version the suite
/// test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// `full` when `Full`, `tiny` otherwise.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }

    pub fn as_str(self) -> &'static str {
        self.pick("full", "tiny")
    }
}

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the run measures, at the reference machine's speed: the
    /// number of fixed-size trials (or epochs) is derived from it, so the
    /// same `(seed, seconds)` always gives the same inputs.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where this run writes its raw records, spans and scratch logs.
    pub run_dir: PathBuf,
}

impl RunArgs {
    /// Whether trial `index` of a traced run records spans. Untraced and
    /// traced trials alternate in the order U T T U, so each kind gets as
    /// many even-numbered trials as odd-numbered ones: on the reference
    /// container every other trial runs up to a fifth slower, and a plain
    /// U T U T would book that difference as tracing overhead.
    pub fn traces_trial(&self, index: usize) -> bool {
        self.trace && matches!(index % 4, 1 | 2)
    }

    /// Number of fixed-size trials that fill `share` of the measuring time,
    /// given what one trial takes on the reference machine; at least 3, so
    /// a median exists.
    pub fn trials(&self, share: f64, nominal_trial_s: f64) -> usize {
        let fit = (self.seconds * share / nominal_trial_s).round() as usize;
        self.scale.pick(fit.max(3), 2)
    }
}

/// What one workload run found.
pub struct Outcome {
    /// Oracle mismatches; empty means every output was correct.
    pub mismatches: Vec<String>,
    /// Why the run's numbers must not be used (generator too late, too few
    /// latency samples), if so.
    pub void: Option<String>,
    /// Operations offered to the program (observations, frames, decodes).
    pub attempted: u64,
    /// Operations the program shed, missed, dropped or got wrong.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Quartile spread (IQR / median) of the trial values behind an
    /// end-to-end metric, where it is a median of three or more trials.
    pub spreads: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Raw per-trial records, written to the run directory.
    pub records: Vec<(&'static str, Json)>,
    /// The traced run's span recorders, by harness thread.
    pub tracers: Vec<(&'static str, Tracer)>,
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            mismatches: Vec::new(),
            void: None,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            spreads: BTreeMap::new(),
            // Every layer metric is reported by every workload; a layer the
            // workload does not exercise did no work, which reads 0.
            layers: spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            records: Vec::new(),
            tracers: Vec::new(),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Reports an end-to-end metric as the median of its trial values and
    /// records their summary and spread next to it.
    pub fn median_of_trials(&mut self, name: &'static str, values: &[f64]) {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values);
        self.end_to_end.insert(name, median);
        if median > 0.0 && values.len() >= 3 {
            self.spreads.insert(name, (q3 - q1) / median);
        }
        self.records.push((name, stats::summary(values)));
    }

    /// Reports freshness from the pooled due-to-visible samples of the
    /// untraced streams: the median end to end, the tail percentiles as
    /// layer metrics (run to run they move by more than any bound the
    /// contract allows; see the README).
    pub fn fresh_latency(&mut self, samples_ms: &[f64]) {
        self.end_to_end
            .insert("fresh_latency_p50_ms", stats::percentile(samples_ms, 50.0));
        self.layer("fresh_latency_p90_ms", stats::percentile(samples_ms, 90.0));
        self.layer("fresh_latency_p99_ms", stats::percentile(samples_ms, 99.0));
        // The raw samples go into the record: any other statistic can be
        // derived from the file without a rerun.
        self.records.push((
            "fresh_ms",
            Json::Arr(samples_ms.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }

    /// Reads `peak_rss_mb`. Workloads call this when the last timed
    /// operation is done and before the oracles run: the batch reference
    /// holds the whole input in memory and would otherwise set the peak.
    pub fn note_peak_rss(&mut self) {
        self.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        let slot = self
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// Counts the engine's own failure counters against the observations
    /// offered to it.
    pub fn count_live(&mut self, offered_observations: u64, stats: &LiveStats) {
        self.attempted += offered_observations;
        self.failed += stats.shed_observations + stats.overflow_shed + stats.log_errors_fatal;
        self.check(
            stats.observations + stats.shed_observations + stats.overflow_shed
                == offered_observations,
            || {
                format!(
                    "observations offered {offered_observations} != sealed {} + shed {} + overflow {}",
                    stats.observations, stats.shed_observations, stats.overflow_shed
                )
            },
        );
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `lap` [`SETUP_LAPS`] times and returns the last lap's product with
/// the lap times in seconds (`setup_s` is their median). Each lap is a
/// complete set-up: it builds the source and the stack and streams a warm-up
/// through it, so work that a change moves from the timed part into set-up
/// shows here.
pub fn timed_setup<T>(mut lap: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_LAPS);
    let mut last = None;
    for _ in 0..SETUP_LAPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(lap());
        times.push(start.elapsed().as_secs_f64());
    }
    let product = last.expect("SETUP_LAPS >= 1");
    (product, times)
}

/// When the reports that released each pane were due.
///
/// A pane is released by the first report after which the engine's
/// watermark has passed the pane's end plus the lateness allowance; with one
/// ingest thread delivering epoch by epoch that is always the last report of
/// some epoch, so the clock is consulted once per epoch. All reports of an
/// epoch are due together, so the pane's clock starts at the epoch's due
/// time.
pub struct ReleaseClock {
    pane_us: u64,
    lateness_panes: u64,
    /// `due_ns[p]` is the due time of pane `p`'s releasing epoch, in ns
    /// since the run's base instant.
    due_ns: Vec<u64>,
}

impl ReleaseClock {
    pub fn new(live: &LiveCity) -> Self {
        Self {
            pane_us: live.config().pane_us,
            lateness_panes: live.config().lateness_panes,
            due_ns: Vec::new(),
        }
    }

    /// Call after the last report of an epoch went in; `due_ns` is when
    /// the epoch was due. Returns the number of panes released so far.
    pub fn after_epoch(&mut self, live: &LiveCity, due_ns: u64) -> u64 {
        let released = (live.watermark_us() / self.pane_us).saturating_sub(self.lateness_panes);
        while (self.due_ns.len() as u64) < released {
            self.due_ns.push(due_ns);
        }
        released
    }

    /// Milliseconds from each released pane's due time to `recv_ns`, for
    /// every `(pane, recv_ns)` whose pane a report released (the last panes
    /// of a run are released by `finish()` and have no due time).
    pub fn latencies_ms(&self, received: &[(u64, u64)]) -> Vec<f64> {
        received
            .iter()
            .filter_map(|&(pane, recv_ns)| {
                let due = *self.due_ns.get(pane as usize)?;
                Some(recv_ns.saturating_sub(due) as f64 / 1e6)
            })
            .collect()
    }
}

/// The in-process subscriber of the workloads that run without a hub:
/// blocks on the engine's pane-seal notification and notes when each sealed
/// pane became visible. Returns `(pane, recv_ns)` pairs.
pub fn watch_seals(live: &LiveCity, base: Instant, done: &AtomicBool) -> Vec<(u64, u64)> {
    let mut seen = Vec::new();
    let mut cursor = LiveSubscription::new();
    loop {
        // Read the flag first: a pane sealed between the last wait and the
        // flag being raised is still picked up by the wait below.
        let finished = done.load(Ordering::Acquire);
        let (panes, _missed) = cursor.wait_next(live, Duration::from_millis(20));
        let now = base.elapsed().as_nanos() as u64;
        seen.extend(panes.iter().map(|p| (p.pane, now)));
        if finished && panes.is_empty() {
            return seen;
        }
    }
}

/// Where a traced stream records its spans.
pub struct SpanSink<'a> {
    pub tracer: &'a mut Tracer,
    /// The span the stream's spans hang under.
    pub parent: u32,
    /// Name of the span around `FrameSource::report`: harness cost
    /// (`gen.report`) for the synthetic city, the reader pipeline
    /// (`city.phy_report`) for the PHY city.
    pub report_span: &'static str,
}

/// What one closed-loop stream cost, as seen from the ingest thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamCost {
    /// Observations in the reports delivered.
    pub observations: u64,
    pub reports: u64,
    /// First `ingest` to `finish()` return, seconds.
    pub wall_s: f64,
    /// Time inside `FrameSource::report`, `LiveCity::ingest`,
    /// `wait_seal_floor` and `finish`; only measured when traced.
    pub report_ns: u64,
    pub ingest_ns: u64,
    pub pace_wait_ns: u64,
    pub finish_ns: u64,
}

impl StreamCost {
    pub fn obs_per_s(&self) -> f64 {
        self.observations as f64 / self.wall_s
    }
}

/// Generates and ingests every pole's report of one epoch, adding to
/// `cost`. With a span sink each `report` and each `ingest` is a span, and
/// adjacent calls share a clock reading; without, no clock is read at all.
pub fn deliver_epoch<S: FrameSource>(
    live: &LiveCity,
    source: &S,
    epoch: usize,
    cost: &mut StreamCost,
    sink: Option<&mut SpanSink<'_>>,
) {
    let n_poles = source.directory().len() as u32;
    match sink {
        None => {
            for pole in 0..n_poles {
                let report = source.report(pole, epoch);
                cost.observations += report.observations.len() as u64;
                live.ingest(&report);
            }
        }
        Some(SpanSink {
            tracer,
            parent,
            report_span,
        }) => {
            let mut t0 = tracer.now();
            for pole in 0..n_poles {
                let req = Req::Report {
                    pole,
                    epoch: epoch as u32,
                };
                let report = source.report(pole, epoch);
                let t1 = tracer.now();
                live.ingest(&report);
                let t2 = tracer.now();
                tracer.leaf(report_span, t0, t1, *parent, req);
                tracer.leaf("live.ingest", t1, t2, *parent, req);
                cost.observations += report.observations.len() as u64;
                cost.report_ns += t1 - t0;
                cost.ingest_ns += t2 - t1;
                t0 = t2;
            }
        }
    }
    cost.reports += n_poles as u64;
}

/// Streams `epochs` epochs of `source` into `live` from the calling thread,
/// pole by pole, staying `pace_lag_panes` behind the seal floor, then
/// flushes. With a span sink, every `report`, `ingest`, pacing wait and the
/// final `finish` is a span under `parent`; without, the loop reads the
/// clock once per epoch.
pub fn stream_closed_loop<S: FrameSource>(
    live: &LiveCity,
    source: &S,
    epochs: usize,
    pace_lag_panes: u64,
    base: Instant,
    release: &mut ReleaseClock,
    mut sink: Option<SpanSink<'_>>,
) -> StreamCost {
    let pane_us = live.config().pane_us;
    let mut cost = StreamCost::default();
    let start = Instant::now();
    for epoch in 0..epochs {
        // In a closed loop an epoch is due when the harness starts
        // producing it (in the open loop, when the schedule says so).
        let epoch_due_ns = base.elapsed().as_nanos() as u64;
        deliver_epoch(live, source, epoch, &mut cost, sink.as_mut());
        release.after_epoch(live, epoch_due_ns);
        let floor = live.watermark_us().saturating_sub(pace_lag_panes * pane_us);
        if floor > 0 {
            match sink.as_mut() {
                None => live.wait_seal_floor(floor),
                Some(SpanSink { tracer, parent, .. }) => {
                    let t0 = tracer.now();
                    live.wait_seal_floor(floor);
                    let t1 = tracer.now();
                    tracer.leaf("live.pace_wait", t0, t1, *parent, Req::Pane(epoch as u64));
                    cost.pace_wait_ns += t1 - t0;
                }
            }
        }
    }
    let before_finish = Instant::now();
    live.finish();
    let end = Instant::now();
    cost.finish_ns = (end - before_finish).as_nanos() as u64;
    if let Some(SpanSink { tracer, parent, .. }) = sink.as_mut() {
        let end_ns = tracer.now();
        tracer.leaf(
            "live.finish",
            end_ns - cost.finish_ns,
            end_ns,
            *parent,
            Req::None,
        );
    }
    cost.wall_s = (end - start).as_secs_f64();
    cost
}

/// A closed-loop stream together with what the in-process subscriber and
/// the scheduler saw of it.
pub struct Streamed {
    pub cost: StreamCost,
    /// Release-to-visible latency of every pane a report released, ms.
    pub fresh_ms: Vec<f64>,
    /// CPU time and run-queue wait of the engine's sealer thread over the
    /// stream (zero unless traced).
    pub sealer: SchedClock,
}

/// The harness's second thread for the workloads that run without a hub:
/// the in-process subscriber ([`watch_seals`]), alive for the whole run and
/// handed one engine after another. One long-lived thread rather than one
/// per trial, so the only thread a trial creates is the engine's own sealer.
pub struct SealWatcher {
    base: Instant,
    jobs: Option<mpsc::Sender<(Arc<LiveCity>, Arc<AtomicBool>)>>,
    seen: mpsc::Receiver<Vec<(u64, u64)>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SealWatcher {
    /// `base` is the instant every timestamp of the run counts from.
    pub fn spawn(base: Instant) -> Self {
        let (jobs, inbox) = mpsc::channel::<(Arc<LiveCity>, Arc<AtomicBool>)>();
        let (outbox, seen) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("bench-consumer".into())
            .spawn(move || {
                for (live, done) in inbox {
                    let panes = watch_seals(&live, base, &done);
                    // Let go of the engine before reporting, so the ingest
                    // thread's drop is the one that joins the sealer.
                    drop(live);
                    if outbox.send(panes).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn consumer thread");
        Self {
            base,
            jobs: Some(jobs),
            seen,
            thread: Some(thread),
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }
}

impl Drop for SealWatcher {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// [`stream_closed_loop`] from the calling thread while the run's
/// [`SealWatcher`] plays the in-process subscriber.
pub fn stream_and_watch<S: FrameSource>(
    watcher: &SealWatcher,
    live: &Arc<LiveCity>,
    source: &S,
    epochs: usize,
    sink: Option<SpanSink<'_>>,
) -> Streamed {
    let traced = sink.is_some();
    let sealer_clock = || clock_if(traced, SEALER_THREAD);
    let mut release = ReleaseClock::new(live);
    let done = Arc::new(AtomicBool::new(false));
    let sealer_before = sealer_clock();
    let jobs = watcher.jobs.as_ref().expect("watcher is running");
    jobs.send((Arc::clone(live), Arc::clone(&done)))
        .expect("consumer thread is alive");
    let cost = stream_closed_loop(
        live,
        source,
        epochs,
        PACE_LAG_PANES,
        watcher.base,
        &mut release,
        sink,
    );
    done.store(true, Ordering::Release);
    let seen = watcher.seen.recv().expect("consumer thread is alive");
    Streamed {
        cost,
        fresh_ms: release.latencies_ms(&seen),
        sealer: sealer_clock().since(sealer_before),
    }
}

/// One closed-loop trial over a fresh engine, with what the engine says
/// it sealed.
pub struct Trial {
    pub traced: bool,
    pub streamed: Streamed,
    pub chain: u64,
    pub totals_fingerprint: u64,
    pub stats: LiveStats,
}

/// Runs trial `index`: [`stream_and_watch`] into `live` (a fresh engine),
/// under a `trial` span when a tracer is given, then reads the engine's
/// chain, totals and counters and counts its failures into `out`.
#[allow(clippy::too_many_arguments)]
pub fn run_trial<S: FrameSource>(
    out: &mut Outcome,
    watcher: &SealWatcher,
    live: &Arc<LiveCity>,
    source: &S,
    epochs: usize,
    index: usize,
    tracer: Option<&mut Tracer>,
    report_span: &'static str,
) -> Trial {
    let traced = tracer.is_some();
    let streamed = match tracer {
        Some(tracer) => {
            let root = tracer.open("trial", NO_PARENT, Req::Round(index as u32));
            let sink = SpanSink {
                tracer: &mut *tracer,
                parent: root,
                report_span,
            };
            let streamed = stream_and_watch(watcher, live, source, epochs, Some(sink));
            tracer.close(root);
            streamed
        }
        None => stream_and_watch(watcher, live, source, epochs, None),
    };
    let stats = live.stats();
    out.count_live(streamed.cost.observations, &stats);
    Trial {
        traced,
        streamed,
        chain: live.fingerprint_chain(),
        totals_fingerprint: live.totals().fingerprint(),
        stats,
    }
}

/// What every series of closed-loop trials reports. Oracles: one
/// sealed-window sequence whatever the trial, and whole-run totals equal to
/// `reference_fingerprint` (the batch pipeline's over the same source).
/// End to end: `setup_s`, `ingest_obs_per_s` (median of the untraced
/// trials) and freshness (their pooled samples). Traced: the closed-loop
/// layer metrics from the traced trials and the tracing overhead.
pub fn report_trials(
    out: &mut Outcome,
    args: &RunArgs,
    setup_laps: &[f64],
    trials: &[Trial],
    reference_fingerprint: u64,
) {
    let first = &trials[0];
    for (index, trial) in trials.iter().enumerate() {
        out.check(trial.chain == first.chain, || {
            format!(
                "trial {index}: chain {:#018x} != trial 0's {:#018x}",
                trial.chain, first.chain
            )
        });
    }
    out.check(first.totals_fingerprint == reference_fingerprint, || {
        format!(
            "live totals {:#018x} != batch totals {reference_fingerprint:#018x}",
            first.totals_fingerprint
        )
    });

    let streams = |traced: bool| -> Vec<&Streamed> {
        trials
            .iter()
            .filter(|t| t.traced == traced)
            .map(|t| &t.streamed)
            .collect()
    };
    let rates = |streams: &[&Streamed]| -> Vec<f64> {
        streams.iter().map(|s| s.cost.obs_per_s()).collect()
    };
    let pooled = |streams: &[&Streamed]| -> Vec<f64> {
        streams
            .iter()
            .flat_map(|s| s.fresh_ms.iter().copied())
            .collect()
    };
    let untraced = streams(false);
    out.median_of_trials("setup_s", setup_laps);
    out.median_of_trials("ingest_obs_per_s", &rates(&untraced));
    out.fresh_latency(&pooled(&untraced));

    if args.trace {
        let traced = streams(true);
        closed_loop_layers(out, &traced);
        live_stats_layers(out, &trials[trials.len() - 1].stats);
        out.layer(
            "trace.overhead_share",
            trace_overhead(&rates(&untraced), &rates(&traced), true),
        );
    }

    out.records.push((
        "trials",
        Json::Arr(trials.iter().map(|t| t.streamed.record(t.traced)).collect()),
    ));
    out.records
        .push(("chain", Json::str(format!("{:#018x}", first.chain))));
}

impl Streamed {
    pub fn record(&self, traced: bool) -> Json {
        Json::obj(vec![
            ("traced", Json::Bool(traced)),
            ("observations", Json::from(self.cost.observations)),
            ("wall_s", Json::Num(self.cost.wall_s)),
            ("obs_per_s", Json::Num(self.cost.obs_per_s())),
            ("finish_ms", Json::Num(self.cost.finish_ns as f64 / 1e6)),
            (
                "fresh_p50_ms",
                Json::Num(stats::percentile(&self.fresh_ms, 50.0)),
            ),
            ("fresh_samples", Json::from(self.fresh_ms.len() as u64)),
        ])
    }
}

/// Fills in the layer metrics every closed-loop stream yields, from the
/// traced streams of a run: where the ingest thread's time went (report
/// generation, `ingest`, blocked on the seal floor, `finish`) and what the
/// sealer thread cost per observation.
pub fn closed_loop_layers(out: &mut Outcome, traced: &[&Streamed]) {
    let sum = |f: fn(&Streamed) -> u64| traced.iter().map(|s| f(s)).sum::<u64>() as f64;
    let obs = sum(|s| s.cost.observations).max(1.0);
    let wall_ns = traced.iter().map(|s| s.cost.wall_s).sum::<f64>().max(1e-9) * 1e9;
    out.layer("gen.report_ns_per_obs", sum(|s| s.cost.report_ns) / obs);
    out.layer("gen.cpu_share", sum(|s| s.cost.report_ns) / wall_ns);
    out.layer("live.ingest_ns_per_obs", sum(|s| s.cost.ingest_ns) / obs);
    out.layer(
        "live.pace_wait_share",
        sum(|s| s.cost.pace_wait_ns) / wall_ns,
    );
    let finish_ms: Vec<f64> = traced
        .iter()
        .map(|s| s.cost.finish_ns as f64 / 1e6)
        .collect();
    out.layer("live.finish_ms", stats::median(&finish_ms));
    out.layer("live.sealer_cpu_ns_per_obs", sum(|s| s.sealer.run_ns) / obs);
    out.layer("live.sealer_busy_share", sum(|s| s.sealer.run_ns) / wall_ns);
    out.layer(
        "live.sealer_runq_wait_share",
        sum(|s| s.sealer.wait_ns) / wall_ns,
    );
}

/// The engine's own counters, as layer metrics.
pub fn live_stats_layers(out: &mut Outcome, stats: &LiveStats) {
    out.layer("live.log_retries", stats.log_retries as f64);
    out.layer(
        "live.log_errors_transient",
        stats.log_errors_transient as f64,
    );
    out.layer("live.log_errors_fatal", stats.log_errors_fatal as f64);
    out.layer("live.compacted_tags", stats.compacted_tags as f64);
    out.layer("live.alias_collision_rate", stats.alias.collision_rate());
}

/// `trace.overhead_share`: how much worse the traced trials' median is than
/// the untraced trials' (`higher_is_better` says which way worse points).
pub fn trace_overhead(untraced: &[f64], traced: &[f64], higher_is_better: bool) -> f64 {
    let (u, t) = (stats::median(untraced), stats::median(traced));
    if u <= 0.0 || t <= 0.0 {
        return 0.0;
    }
    if higher_is_better {
        u / t - 1.0
    } else {
        t / u - 1.0
    }
}

/// The synthetic deployment every city-tier workload streams: CFO-keyed
/// identities, so the decode-alias path runs at density (the same hot path
/// the legacy `live_scale` and `scale` benches drive).
pub fn synthetic_city(poles: usize, epochs: usize, seed: u64) -> SyntheticCity {
    let mut source = SyntheticCity::new(poles, epochs, seed);
    source.cfo_keyed = true;
    source
}

/// The independent reference for everything sealed: the batch pipeline's
/// aggregates over the same source.
pub fn batch_fingerprint<S: FrameSource>(source: &S) -> u64 {
    BatchDriver {
        workers: 2,
        consumers: 1,
        queue_capacity: 1024,
        store: StoreConfig::default(),
    }
    .run(source)
    .aggregates
    .fingerprint()
}

/// One JSON object describing the configuration a result was taken under.
pub fn environment(args: &RunArgs) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("cores", Json::from(cores as u64)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::str(args.scale.as_str())),
        ("traced", Json::Bool(args.trace)),
        (
            "live_config",
            Json::str(format!("{:?}", caraoke_live::LiveConfig::default())),
        ),
        (
            "log_options",
            Json::str(format!("{:?}", caraoke_log::LogOptions::default())),
        ),
        (
            "serve_config",
            Json::str(format!("{:?}", caraoke_serve::ServeConfig::default())),
        ),
    ])
}
