//! The online driver: streams a [`FrameSource`] through a [`LiveCity`].
//!
//! The batch driver generates everything, then sorts, then aggregates; this
//! driver *delivers* — each report is applied the moment it is produced, and
//! windows seal behind the watermark while later epochs are still being
//! generated. The ingest threads spawned here never seal: they buffer into
//! their poles' ingest stripes and signal the engine's dedicated sealer thread,
//! so generation, ingestion and sealing overlap for the whole run. Two
//! delivery disciplines exercise the determinism contract:
//!
//! * [`Interleaving::PoleStriped`] — `workers` threads each own a stripe of
//!   poles and stream their reports in epoch order. Per-pole FIFO holds by
//!   construction; the cross-pole arrival order is whatever the scheduler
//!   does, which is exactly the freedom the watermark contract allows.
//! * [`Interleaving::ShuffledFifo`] — a single thread delivers reports in a
//!   seeded random merge of the per-pole streams: each step picks a random
//!   pole and delivers its next report. Per-pole FIFO still holds, but the
//!   cross-pole order is wildly different from the striped run — and the
//!   sealed window fingerprints must come out byte-identical.

use crate::engine::{LiveCity, LiveConfig, LiveStats};
use caraoke_city::{CityAggregates, FrameSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Delivery discipline for a live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleaving {
    /// `workers` threads, each streaming its own stripe of poles in epoch
    /// order (true concurrency; per-pole FIFO by construction).
    PoleStriped,
    /// Single-threaded seeded random merge of the per-pole streams —
    /// maximally different cross-pole arrival order, still FIFO per pole.
    ShuffledFifo {
        /// Seed of the merge order.
        seed: u64,
    },
}

/// Configuration of one live streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveDriver {
    /// Ingest threads for [`Interleaving::PoleStriped`] (ignored by
    /// `ShuffledFifo`, which is single-threaded by design).
    pub workers: usize,
    /// Delivery discipline.
    pub interleaving: Interleaving,
    /// Engine tuning.
    pub config: LiveConfig,
    /// Ingest pacing for [`Interleaving::PoleStriped`]: `Some(k)` makes
    /// each worker, after delivering epoch `e` of its stripe, block
    /// ([`LiveCity::wait_seal_floor`]) until pane `e - k` is sealed. This
    /// bounds buffered memory to O(`k` panes) however far generation
    /// outruns the sealer — without it, a fast producer on a slow (or
    /// shared) machine trips the [`LiveConfig::max_pending_per_stripe`]
    /// overflow shed on long runs (engine-wide the buffers hold at most
    /// 16 × that bound). `k` must exceed [`LiveConfig::lateness_panes`] or the
    /// wait can ask for a floor the watermark never releases; sealed
    /// content is interleaving-invariant, so pacing never changes
    /// fingerprints, only arrival timing. `None` (the default) streams at
    /// full speed. Ignored by `ShuffledFifo` (small determinism runs).
    pub pace_lag_panes: Option<u64>,
}

impl Default for LiveDriver {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            workers: parallelism.clamp(2, 16),
            interleaving: Interleaving::PoleStriped,
            config: LiveConfig::default(),
            pace_lag_panes: None,
        }
    }
}

/// The outcome of a live run.
#[derive(Debug, Clone)]
pub struct LiveRun {
    /// Fingerprint chain over the sealed window sequence — the determinism
    /// witness across shard counts, worker counts and interleavings.
    pub chain_fingerprint: u64,
    /// Whole-run totals (byte-identical to the batch pipeline's aggregates
    /// for the same source).
    pub totals: CityAggregates,
    /// Telemetry at the end of the run.
    pub stats: LiveStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl LiveRun {
    /// Online ingestion throughput, observations per second of wall clock.
    pub fn observations_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.stats.observations as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

impl LiveDriver {
    /// Streams the whole source through a fresh engine and flushes it.
    pub fn run<S: FrameSource>(&self, source: &S) -> LiveRun {
        let start = crate::Clock::Real.now();
        let live = LiveCity::new(source.directory().clone(), self.config);
        self.stream(source, &live);
        live.finish();
        LiveRun {
            chain_fingerprint: live.fingerprint_chain(),
            totals: live.totals(),
            stats: live.stats(),
            elapsed: crate::Clock::Real.now() - start,
        }
    }

    /// Streams the source into an existing engine without flushing — the
    /// building block for callers that interleave ingestion with queries
    /// (see `examples/live_dashboard.rs`).
    pub fn stream<S: FrameSource>(&self, source: &S, live: &LiveCity) {
        let n_poles = source.directory().len() as u32;
        let epochs = source.epochs();
        match self.interleaving {
            Interleaving::PoleStriped => {
                let workers = self.workers.max(1);
                let pace = self.pace_lag_panes.map(|k| {
                    // Below the lateness allowance the watermark can never
                    // release the requested floor (deadlock); clamp up.
                    k.max(self.config.lateness_panes + 1)
                });
                let pane_us = self.config.pane_us;
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        scope.spawn(move || {
                            for epoch in 0..epochs {
                                for pole in (w as u32..n_poles).step_by(workers) {
                                    live.ingest(&source.report(pole, epoch));
                                }
                                if let Some(k) = pace {
                                    // `k` panes behind the current watermark
                                    // is strictly below the releasable floor
                                    // (watermark − lateness), so this wait is
                                    // always satisfiable by seals already
                                    // requested — no deadlock for any
                                    // epoch-to-pane mapping.
                                    let target = live.watermark_us().saturating_sub(k * pane_us);
                                    if target > 0 {
                                        live.wait_seal_floor(target);
                                    }
                                }
                            }
                        });
                    }
                });
            }
            Interleaving::ShuffledFifo { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut next_epoch = vec![0usize; n_poles as usize];
                let mut alive: Vec<u32> = (0..n_poles).collect();
                while !alive.is_empty() {
                    let i = rng.random_range(0..alive.len());
                    let pole = alive[i];
                    live.ingest(&source.report(pole, next_epoch[pole as usize]));
                    next_epoch[pole as usize] += 1;
                    if next_epoch[pole as usize] == epochs {
                        alive.swap_remove(i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{BatchDriver, StoreConfig, SyntheticCity};

    fn driver(workers: usize, shards: usize, interleaving: Interleaving) -> LiveDriver {
        LiveDriver {
            workers,
            interleaving,
            config: LiveConfig {
                store: StoreConfig {
                    shards,
                    ..Default::default()
                },
                retain_panes: 8,
                ..Default::default()
            },
            pace_lag_panes: None,
        }
    }

    #[test]
    fn live_run_ingests_everything_without_shedding() {
        let source = SyntheticCity::new(24, 10, 42);
        let run = driver(4, 8, Interleaving::PoleStriped).run(&source);
        assert_eq!(run.stats.reports, 24 * 10);
        assert!(run.stats.observations > 0);
        assert_eq!(run.stats.shed_reports, 0, "FIFO delivery never sheds");
        assert_eq!(run.stats.shed_observations, 0);
        assert_eq!(run.stats.overflow_shed, 0);
        assert_eq!(run.stats.buffered_observations, 0, "finish flushes");
        assert_eq!(run.stats.sealed_panes, 10, "one pane per epoch");
        assert!(run.observations_per_sec() > 0.0);
    }

    #[test]
    fn window_fingerprints_are_invariant_across_shards_workers_and_interleavings() {
        let source = SyntheticCity::new(32, 12, 7);
        let runs = [
            driver(1, 1, Interleaving::PoleStriped).run(&source),
            driver(4, 8, Interleaving::PoleStriped).run(&source),
            driver(8, 3, Interleaving::PoleStriped).run(&source),
            driver(1, 5, Interleaving::ShuffledFifo { seed: 11 }).run(&source),
            driver(1, 5, Interleaving::ShuffledFifo { seed: 999 }).run(&source),
        ];
        for pair in runs.windows(2) {
            assert_eq!(
                pair[0].chain_fingerprint, pair[1].chain_fingerprint,
                "window sequence must not depend on sharding or arrival order"
            );
            assert_eq!(pair[0].totals, pair[1].totals);
        }
        assert!(runs[0].totals.speeds.samples() > 0);
    }

    #[test]
    fn paced_ingest_is_byte_identical_and_bounds_pending() {
        let source = SyntheticCity::new(24, 16, 42);
        let free = driver(4, 8, Interleaving::PoleStriped).run(&source);
        for k in [0, 1, 2, 8] {
            let mut paced = driver(4, 8, Interleaving::PoleStriped);
            paced.pace_lag_panes = Some(k); // 0 and 1 exercise the clamp
            let run = paced.run(&source);
            assert_eq!(
                run.chain_fingerprint, free.chain_fingerprint,
                "pacing (k={k}) changes arrival timing only, never content"
            );
            assert_eq!(run.totals, free.totals);
            assert_eq!(run.stats.overflow_shed, 0);
            assert_eq!(run.stats.shed_reports, 0);
        }
    }

    #[test]
    fn live_totals_match_the_batch_pipeline_exactly() {
        let source = SyntheticCity::new(20, 8, 3);
        let live = driver(4, 8, Interleaving::PoleStriped).run(&source);
        let batch = BatchDriver {
            workers: 3,
            consumers: 2,
            queue_capacity: 64,
            store: StoreConfig::default(),
        }
        .run(&source);
        assert_eq!(
            live.totals.fingerprint(),
            batch.aggregates.fingerprint(),
            "online and batch pipelines must agree byte-for-byte"
        );
        assert_eq!(live.totals, batch.aggregates);
    }
}
