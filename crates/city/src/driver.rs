//! The batch driver: the reference fold the live engine is checked against.
//!
//! [`BatchDriver::run`] fans per-pole collision frames from a
//! [`FrameSource`] across scoped producer threads, which send the resulting
//! [`PoleReport`]s through a bounded `std::sync::mpsc::sync_channel` to the
//! calling thread. That thread owns the [`ShardedStore`] outright and
//! scatters every report into it; [`ShardedStore::finalize`] then folds the
//! shards on scoped threads of its own. Nothing is shared, so nothing is
//! locked.
//!
//! Determinism: a frame source must derive each report purely from
//! `(pole, epoch, seed)`, so the set of produced reports is independent of
//! thread scheduling; the store's stable canonical sort before apply (see
//! [`crate::store`]) removes the remaining delivery-order freedom. The same
//! seed therefore yields byte-identical aggregates for *any* worker count,
//! consumer count, channel capacity or shard count.

use crate::aggregate::CityAggregates;
use crate::event::PoleReport;
use crate::store::{PoleDirectory, ShardedStore, StoreConfig};
use std::sync::mpsc;
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

/// Configuration of one batch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDriver {
    /// Producer threads synthesizing pole frames (at least one).
    pub workers: usize,
    /// Threads folding the store's shards at the end of the run (at least
    /// one, at most one per shard).
    pub consumers: usize,
    /// Reports the producers may have in flight to the store thread before
    /// they block; 0 hands each report over in a rendezvous.
    pub queue_capacity: usize,
    /// Store tuning (shard count, light cycle).
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
        let mut store = ShardedStore::new(source.directory().clone(), self.store);

        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(self.queue_capacity);
            for w in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    // Pole-striped work split: worker w owns poles w, w+W, ...
                    for epoch in 0..epochs {
                        for pole in (w as u32..n_poles).step_by(workers) {
                            // The receiver only hangs up if the store thread panicked.
                            tx.send(source.report(pole, epoch)).expect("store thread");
                        }
                    }
                });
            }
            drop(tx);
            // Ends once every producer is done and has dropped its sender.
            for report in rx {
                store.scatter(&report);
            }
        });

        let aggregates = store.finalize(self.consumers);
        CityRun {
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
            queue_capacity: 0, // rendezvous: every send waits for the store thread
            store: StoreConfig::default(),
        };
        let run = driver.run(&source);
        let generated: usize = (0..24)
            .flat_map(|p| (0..10).map(move |e| (p, e)))
            .map(|(p, e)| source.report(p, e).observations.len())
            .sum();
        assert_eq!(run.reports, 240);
        assert!(generated > 0);
        assert_eq!(run.observations, generated as u64);
        assert!(run.observations_per_sec() > 0.0);
    }

    #[test]
    fn thread_and_shard_counts_do_not_change_the_aggregates() {
        let source = SyntheticCity::new(32, 12, 7);
        let mut fingerprints = Vec::new();
        for &(workers, consumers, queue_capacity, shards) in &[
            (1usize, 1usize, 16usize, 1usize),
            (2, 1, 16, 4),
            (4, 3, 16, 8),
            (8, 2, 16, 3),
            (3, 2, 0, 5),   // rendezvous channel
            (2, 12, 4, 3),  // more consumers than shards
            (40, 1, 16, 2), // more workers than poles
        ] {
            let driver = BatchDriver {
                workers,
                consumers,
                queue_capacity,
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
