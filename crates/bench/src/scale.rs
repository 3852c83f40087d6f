//! The long-haul scale run: 10M+ observations through the live engine.
//!
//! The workload behind `experiments scale`: it streams a [`SyntheticCity`]
//! through the watermarked live engine, asserts that nothing was shed and
//! that every generated observation was sealed, and prints
//! observations/second, peak RSS (from `/proc/self/status`, `VmHWM`) and
//! the fingerprint chain, with the source's generation-only rate alongside
//! so the engine's share of the wall clock is visible, and the sealer's
//! time per observation split by seal stage
//! ([`LiveStats::seal_ns`](caraoke_live::LiveStats::seal_ns)). It writes
//! no file and is not the basis for any performance claim — that is
//! `benchmark/`.
//! It stays only because no benchmark workload streams an input this long
//! yet, and goes when one does.
//!
//! The full 100M-observation tier is opt-in (`experiments scale --full`):
//! it holds ~50k poles of tracker state and runs minutes, not seconds.

use crate::Row;
use caraoke_city::{FrameSource, StoreConfig, SyntheticCity};
use caraoke_live::{Interleaving, LiveConfig, LiveDriver, SealStageNs};

/// One scale-bench workload tier.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Poles in the synthetic deployment.
    pub n_poles: usize,
    /// Query epochs (one pane each).
    pub epochs: usize,
    /// Ingest worker threads.
    pub workers: usize,
    /// Tracker shards.
    pub shards: usize,
    /// Workload seed.
    pub seed: u64,
}

/// One ingest worker per available core, capped at `cap` (the roadmap's
/// city-scale target names 16): oversubscribing a small container measures
/// scheduler churn, not the engine. The fingerprint chain is invariant to
/// the worker count, so tiers stay comparable across machines.
fn machine_workers(cap: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(cap))
}

impl ScaleConfig {
    /// The CI smoke tier: small enough to finish in seconds.
    pub fn smoke() -> Self {
        Self {
            n_poles: 500,
            epochs: 60,
            workers: machine_workers(8),
            shards: 16,
            seed: 77,
        }
    }

    /// The default tier: ~10M observations at 10k poles.
    pub fn default_tier() -> Self {
        Self {
            n_poles: 10_000,
            epochs: 235,
            workers: machine_workers(16),
            shards: 16,
            seed: 77,
        }
    }

    /// The opt-in long tier: ~100M observations at 50k poles.
    pub fn full_tier() -> Self {
        Self {
            n_poles: 50_000,
            epochs: 470,
            workers: machine_workers(16),
            shards: 16,
            seed: 77,
        }
    }

    fn source(&self) -> SyntheticCity {
        let mut source = SyntheticCity::new(self.n_poles, self.epochs, self.seed);
        // CFO-keyed identities exercise the §8 alias path at density.
        source.cfo_keyed = true;
        source
    }

    fn driver(&self) -> LiveDriver {
        LiveDriver {
            workers: self.workers,
            interleaving: Interleaving::PoleStriped,
            config: LiveConfig {
                store: StoreConfig {
                    shards: self.shards,
                    ..Default::default()
                },
                ..Default::default()
            },
            // Bounded-memory ingest: on a small container the synthetic
            // producer outruns the sealer by >2x, and 10M+ buffered
            // observations blow through `max_pending_per_stripe` (overflow
            // shed => the no-shed assert fires; 16 stripes x 1M is at most
            // 16M engine-wide, split evenly only if the poles are). Pace
            // each worker the minimum legal lag (clamped up to lateness +
            // 1 = 2 panes): the full tier packs ~200k observations into
            // every pane. Pacing never changes sealed content.
            pace_lag_panes: Some(2),
        }
    }
}

/// What one tier measured.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Observations sealed.
    pub observations: u64,
    /// Online throughput, observations/second.
    pub obs_per_sec: f64,
    /// Generation-only throughput of the same source over the same worker
    /// count — the ceiling the source imposes on any online number.
    pub gen_obs_per_sec: f64,
    /// Sealed-window fingerprint chain of the run (determinism witness).
    pub chain_fingerprint: u64,
    /// Peak resident set size after the run, bytes (`VmHWM`; 0 when
    /// `/proc/self/status` is unavailable).
    pub peak_rss_bytes: u64,
    /// Wall-clock seconds of the online run.
    pub elapsed_secs: f64,
    /// The sealer's time by seal stage, summed over the run.
    pub seal_ns: SealStageNs,
}

/// Peak resident set size of this process so far, in bytes, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the field is
/// missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Measures the source's generation-only rate: the same striped worker
/// loop as the live driver, but reports are generated and dropped instead
/// of ingested. Returns `(observations, obs_per_sec)`.
pub fn generation_rate(source: &SyntheticCity, workers: usize) -> (u64, f64) {
    let n_poles = source.directory().len() as u32;
    let epochs = source.epochs();
    let start = std::time::Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                scope.spawn(move || {
                    let mut count = 0u64;
                    for epoch in 0..epochs {
                        for pole in (w as u32..n_poles).step_by(workers.max(1)) {
                            count += source.report(pole, epoch).observations.len() as u64;
                        }
                    }
                    count
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generation worker"))
            .sum()
    });
    let secs = start.elapsed().as_secs_f64();
    (total, if secs > 0.0 { total as f64 / secs } else { 0.0 })
}

/// Runs one tier: one timed online run plus one generation-only pass.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    let source = cfg.source();
    let run = cfg.driver().run(&source);
    assert_eq!(run.stats.shed_reports, 0, "scale run must not shed");
    assert_eq!(run.stats.overflow_shed, 0, "scale run must not overflow");
    let (gen_obs, gen_rate) = generation_rate(&source, cfg.workers);
    assert_eq!(gen_obs, run.stats.observations, "same workload both passes");
    ScaleResult {
        observations: run.stats.observations,
        obs_per_sec: run.observations_per_sec(),
        gen_obs_per_sec: gen_rate,
        chain_fingerprint: run.chain_fingerprint,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        elapsed_secs: run.elapsed.as_secs_f64(),
        seal_ns: run.stats.seal_ns,
    }
}

/// Printable rows for the `experiments scale` subcommand: the run, then
/// its seal stage split in ns per observation (the unlogged stages, in
/// pass order: the run has no log).
pub fn scale_rows(cfg: &ScaleConfig, result: &ScaleResult) -> Vec<Row> {
    let ns = &result.seal_ns;
    let per_obs = |ns: u64| ns as f64 / result.observations.max(1) as f64;
    vec![
        Row::new(
            format!("{} poles x {} epochs", cfg.n_poles, cfg.epochs),
            vec![
                ("observations", result.observations as f64),
                ("obs_per_sec", result.obs_per_sec),
                ("gen_obs_per_sec", result.gen_obs_per_sec),
                ("elapsed_secs", result.elapsed_secs),
                (
                    "peak_rss_mb",
                    result.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                ),
            ],
        ),
        Row::new(
            "seal ns/obs",
            vec![
                ("drain", per_obs(ns.drain)),
                ("bucket", per_obs(ns.bucket)),
                ("fold", per_obs(ns.fold)),
                ("pane_finish", per_obs(ns.pane_finish)),
                ("fingerprint", per_obs(ns.fingerprint)),
                ("totals", per_obs(ns.totals)),
                ("publish", per_obs(ns.publish)),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_on_linux() {
        // Off-Linux this is None; on Linux it must be a plausible number.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 1024 * 1024, "peak RSS under 1 MiB is nonsense");
        }
    }

    #[test]
    fn smoke_tier_completes_and_reports() {
        let cfg = ScaleConfig {
            n_poles: 40,
            epochs: 10,
            workers: 2,
            shards: 4,
            seed: 5,
        };
        let result = run_scale(&cfg);
        assert!(result.observations > 500);
        assert!(result.obs_per_sec > 0.0);
        assert!(result.gen_obs_per_sec > 0.0);
        // A threaded engine reads real time, so stages that ran read > 0.
        assert!(result.seal_ns.bucket > 0, "{:?}", result.seal_ns);
        assert!(result.seal_ns.fold > 0, "{:?}", result.seal_ns);
        let rows = scale_rows(&cfg, &result);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].values.len(), 7);
    }
}
