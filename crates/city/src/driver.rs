//! The multi-threaded batch driver.
//!
//! [`BatchDriver::run`] fans per-pole collision frames from a
//! [`FrameSource`] across producer threads, streams the resulting
//! [`PoleReport`]s through a bounded [`IngestQueue`] (backpressure included)
//! into the [`ShardedStore`], then applies and merges shard state — all with
//! `std::thread` only.
//!
//! Determinism: a frame source must derive each report purely from
//! `(pole, epoch, seed)`, so the set of produced reports is independent of
//! thread scheduling; the store's canonical sort before apply (see
//! [`crate::store`]) removes the remaining delivery-order freedom. The same
//! seed therefore yields byte-identical aggregates for *any* worker count,
//! consumer count, or shard count.

use crate::aggregate::CityAggregates;
use crate::event::PoleReport;
use crate::queue::{IngestQueue, QueueStats};
use crate::store::{PoleDirectory, ShardedStore, StoreConfig};
use std::time::{Duration, Instant};

/// A deterministic generator of per-pole, per-epoch reader frames.
///
/// Implementations must return the same [`PoleReport`] for the same
/// `(pole, epoch)` regardless of call order or calling thread — derive any
/// randomness from a seed mixed with both indices (see
/// [`crate::synth::mix_seed`]).
pub trait FrameSource: Sync {
    /// The deployment's pole directory.
    fn directory(&self) -> &PoleDirectory;

    /// Number of query epochs to run.
    fn epochs(&self) -> usize;

    /// Wall-clock duration of one epoch, µs.
    fn epoch_us(&self) -> u64;

    /// Produces the report of `pole` for `epoch`.
    fn report(&self, pole: u32, epoch: usize) -> PoleReport;
}

/// Configuration of one batch ingestion run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDriver {
    /// Producer threads synthesizing pole frames.
    pub workers: usize,
    /// Consumer threads draining the ingest queue into the store.
    pub consumers: usize,
    /// Capacity of the bounded ingest queue (reports).
    pub queue_capacity: usize,
    /// Store tuning (shard count, light cycle, speed gaps).
    pub store: StoreConfig,
}

impl Default for BatchDriver {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            workers: parallelism.clamp(2, 16),
            consumers: 2,
            queue_capacity: 1024,
            store: StoreConfig::default(),
        }
    }
}

/// The outcome of a batch run: final aggregates plus ingestion telemetry.
#[derive(Debug, Clone)]
pub struct CityRun {
    /// Merged city-wide aggregates.
    pub aggregates: CityAggregates,
    /// Ingest-queue telemetry (depth high-watermark, backpressure events).
    pub queue: QueueStats,
    /// Pole reports ingested.
    pub reports: u64,
    /// Tag observations ingested.
    pub observations: u64,
    /// Distinct tags tracked by the store.
    pub distinct_tags: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl CityRun {
    /// Ingestion throughput, observations per second of wall-clock time.
    pub fn observations_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.observations as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

impl BatchDriver {
    /// Runs the full pipeline over `source`.
    pub fn run<S: FrameSource>(&self, source: &S) -> CityRun {
        let start = Instant::now();
        let n_poles = source.directory().len() as u32;
        let epochs = source.epochs();
        let workers = self.workers.max(1);
        let consumers = self.consumers.max(1);
        let store = ShardedStore::new(source.directory().clone(), self.store);
        let queue: IngestQueue<PoleReport> = IngestQueue::with_capacity(self.queue_capacity);

        std::thread::scope(|scope| {
            let queue = &queue;
            let store = &store;
            let mut producers = Vec::with_capacity(workers);
            for w in 0..workers {
                producers.push(scope.spawn(move || {
                    // Pole-striped work split: worker w owns poles w, w+W, ...
                    for epoch in 0..epochs {
                        for pole in (w as u32..n_poles).step_by(workers) {
                            let report = source.report(pole, epoch);
                            if queue.push(report).is_err() {
                                return; // queue closed early (cannot happen in this driver)
                            }
                        }
                    }
                }));
            }
            for _ in 0..consumers {
                scope.spawn(move || {
                    while let Some(report) = queue.pop() {
                        store.scatter(&report);
                    }
                });
            }
            for p in producers {
                p.join().expect("producer thread");
            }
            queue.close();
            // Consumers drain the queue and exit on `None`; the scope joins them.
        });

        let aggregates = store.finalize(workers);
        CityRun {
            queue: queue.stats(),
            reports: store.reports(),
            observations: aggregates.observations,
            distinct_tags: store.distinct_tags(),
            aggregates,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticCity;

    #[test]
    fn driver_ingests_every_frame_exactly_once() {
        let source = SyntheticCity::new(24, 10, 42);
        let driver = BatchDriver {
            workers: 4,
            consumers: 2,
            queue_capacity: 8, // tiny on purpose: forces backpressure
            store: StoreConfig::default(),
        };
        let run = driver.run(&source);
        assert_eq!(run.reports, 24 * 10);
        assert!(run.observations > 0);
        assert_eq!(run.queue.accepted, run.reports);
        assert!(run.queue.high_watermark <= 8);
        assert!(run.observations_per_sec() > 0.0);
    }

    #[test]
    fn thread_and_shard_counts_do_not_change_the_aggregates() {
        let source = SyntheticCity::new(32, 12, 7);
        let mut fingerprints = Vec::new();
        for &(workers, consumers, shards) in
            &[(1usize, 1usize, 1usize), (2, 1, 4), (4, 3, 8), (8, 2, 3)]
        {
            let driver = BatchDriver {
                workers,
                consumers,
                queue_capacity: 16,
                store: StoreConfig {
                    shards,
                    ..Default::default()
                },
            };
            let run = driver.run(&source);
            fingerprints.push((run.aggregates.fingerprint(), run.observations));
        }
        for pair in fingerprints.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }
}
