//! Seeded, replayable fault plans and the event-script catalog.
//!
//! A [`FaultPlan`] is a pure description: every fault decision downstream
//! (which pole dies, which observations are cloned, how a burst is
//! scrambled, which pane's append hiccups) is a function of the plan and
//! `(seed, pole, epoch)` via [`mix_seed`](caraoke_city::synth::mix_seed) —
//! never of wall clock or global RNG state. Running the same plan twice
//! produces byte-identical fault sequences, which is what lets the matrix
//! assert *exact* recovery (fingerprint-chain equality) instead of
//! hand-wavy "it didn't crash".

use std::time::Duration;

/// One pole losing and (optionally) regaining connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoleOutage {
    /// Index of the victim pole in the topology's site order.
    pub pole: u32,
    /// First epoch with no report from the pole.
    pub down_from: usize,
    /// First epoch the pole reports again; `None` means it never revives —
    /// the driver declares it dead after
    /// [`declare_after`](Self::declare_after) silent epochs.
    pub revive_at: Option<usize>,
    /// Silent epochs before a never-reviving pole is declared dead (so the
    /// watermark quorum releases without it).
    pub declare_after: usize,
}

/// Per-pole delivery skew: the victim's reports arrive `lag_epochs` late.
///
/// Skew delays *delivery*, never event time, and stays FIFO per pole — so
/// a skewed run carries exactly the clean run's data and must seal the
/// byte-identical window chain (the graceful-degradation claim the matrix
/// pins). Combine with [`caraoke_live::LiveConfig::max_pane_staleness`]
/// to instead force wall-clock seals and shed the laggard (exercised by
/// the chaos end-to-end tests, where chain equality is deliberately
/// forfeited).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSkew {
    /// Every `stride`-th pole is skewed (pole index % stride == 0).
    pub stride: u32,
    /// Delivery lag, epochs.
    pub lag_epochs: usize,
}

/// Cloned transponders: every `every`-th epoch, the plan duplicates one
/// observation from the victim pole's report onto a distant mirror pole
/// with the **same tag id** — two physical tags claiming one identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloneTags {
    /// Epoch period between clone injections.
    pub every: usize,
    /// Pole whose observations are cloned.
    pub pole: u32,
    /// Pole the clone is heard at (same epoch, same tag id).
    pub mirror: u32,
}

/// Bursty delivery: epochs are buffered in groups of `burst_epochs` and
/// the group's reports are delivered in a seed-scrambled order that
/// preserves each pole's own FIFO sequence (cross-pole order is fair
/// game; per-pole order is the watermark contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstDelivery {
    /// Epochs per delivery burst.
    pub burst_epochs: usize,
}

/// Pane-log I/O fault schedule (interpreted by
/// [`FaultSink`](crate::faults::FaultSink)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFaultSpec {
    /// Inject a transient-error burst on the append of every `period`-th
    /// pane (`0` disables transients).
    pub transient_every_panes: u64,
    /// Consecutive transient errors per burst; keep it below the engine's
    /// [`LOG_WRITE_ATTEMPTS`](caraoke_live::LOG_WRITE_ATTEMPTS) for retries
    /// to win.
    pub transient_burst: u32,
    /// From this pane on, every write fails `StorageFull` forever (`None`
    /// disables the disk-full regime).
    pub disk_full_from_pane: Option<u64>,
}

/// Kill the engine after this epoch's delivery, recover from the pane log,
/// and redeliver everything at or above the recovered seal floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Last epoch delivered before the simulated crash.
    pub kill_after_epoch: usize,
}

/// A complete seeded fault scenario for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision (and the synthetic traffic).
    pub seed: u64,
    /// Pole failure / revival.
    pub outage: Option<PoleOutage>,
    /// Per-pole delivery skew.
    pub skew: Option<ClockSkew>,
    /// Cloned / duplicated tag identities.
    pub clones: Option<CloneTags>,
    /// Bursty, cross-pole-reordered delivery.
    pub burst: Option<BurstDelivery>,
    /// Pane-log write faults.
    pub log_faults: Option<LogFaultSpec>,
    /// Mid-run crash + recovery.
    pub kill: Option<KillSpec>,
    /// Wall-clock staleness bound installed in the engine config (forces
    /// seals past stalled poles; costs chain determinism).
    pub staleness: Option<Duration>,
}

impl FaultPlan {
    /// A plan that injects nothing (the matrix's baseline column).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Does this plan deliver exactly the clean run's observation stream
    /// in a per-pole-FIFO order? If so the sealed window chain must equal
    /// the clean run's chain byte for byte — skew, bursts, log faults and
    /// kills are all *invisible* in the output, which is the strongest
    /// degradation guarantee the matrix checks. Outages and clones change
    /// the data itself, so their cells assert conservation and fault
    /// visibility instead.
    pub fn chain_comparable(&self) -> bool {
        self.outage.is_none() && self.clones.is_none() && self.staleness.is_none()
    }
}

/// The event-script catalog: one named [`FaultPlan`] template per column
/// of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// No faults; pins the clean chain every other column is judged by.
    Baseline,
    /// A pole dies mid-run and revives later; its silent epochs are lost
    /// and counted, everything else is exact.
    OutageRevival,
    /// A pole dies for good and is declared dead so the watermark quorum
    /// releases without it.
    OutageDead,
    /// Every third pole delivers three epochs late; output must be
    /// byte-identical to clean.
    ClockSkew,
    /// Cloned transponder ids appear at two distant poles at once.
    CloneTags,
    /// Delivery arrives in scrambled four-epoch bursts; output must be
    /// byte-identical to clean.
    BurstyDelivery,
    /// The pane log hiccups transiently every few panes; retries absorb
    /// every error and the log stays replay-verified.
    LogTransient,
    /// The log's disk fills mid-run: fatal latch, reattach to a fresh
    /// directory, snapshot-headed log recovers to the engine's exact state.
    DiskFullReattach,
    /// Crash after half the run, recover from the log, redeliver from the
    /// seal floor; the chain must equal an uninterrupted run's.
    KillRecover,
    /// The TCP serving path is cut mid-frame; a reconnecting client must
    /// resume gap-free and byte-identical.
    TcpCut,
}

impl Script {
    /// The quick matrix column set (CI): 7 scripts, covering degradation
    /// (outage), exact-output faults (skew, bursts), data faults (clones),
    /// durability faults (log transients) and crash recovery.
    pub fn quick_set() -> Vec<Script> {
        vec![
            Script::Baseline,
            Script::OutageRevival,
            Script::ClockSkew,
            Script::CloneTags,
            Script::BurstyDelivery,
            Script::LogTransient,
            Script::KillRecover,
        ]
    }

    /// The full column set: every script.
    pub fn full_set() -> Vec<Script> {
        vec![
            Script::Baseline,
            Script::OutageRevival,
            Script::OutageDead,
            Script::ClockSkew,
            Script::CloneTags,
            Script::BurstyDelivery,
            Script::LogTransient,
            Script::DiskFullReattach,
            Script::KillRecover,
            Script::TcpCut,
        ]
    }

    /// Stable name used in the matrix JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Script::Baseline => "baseline",
            Script::OutageRevival => "outage-revival",
            Script::OutageDead => "outage-dead",
            Script::ClockSkew => "clock-skew",
            Script::CloneTags => "clone-tags",
            Script::BurstyDelivery => "bursty-delivery",
            Script::LogTransient => "log-transient",
            Script::DiskFullReattach => "disk-full-reattach",
            Script::KillRecover => "kill-recover",
            Script::TcpCut => "tcp-cut",
        }
    }

    /// Instantiates the script as a concrete plan for a run of `epochs`
    /// epochs over `n_poles` poles. The victim pole and timing derive from
    /// the seed, so different cells hit different poles.
    pub fn plan(&self, seed: u64, n_poles: u32, epochs: usize) -> FaultPlan {
        use caraoke_city::synth::mix_seed;
        let victim = (mix_seed(seed, 0xC4A0, 7) % n_poles as u64) as u32;
        let mid = epochs / 2;
        let mut plan = FaultPlan::clean(seed);
        match self {
            Script::Baseline => {}
            Script::OutageRevival => {
                plan.outage = Some(PoleOutage {
                    pole: victim,
                    down_from: epochs / 3,
                    revive_at: Some(2 * epochs / 3),
                    declare_after: usize::MAX,
                });
            }
            Script::OutageDead => {
                plan.outage = Some(PoleOutage {
                    pole: victim,
                    down_from: epochs / 3,
                    revive_at: None,
                    declare_after: 2,
                });
            }
            Script::ClockSkew => {
                plan.skew = Some(ClockSkew {
                    stride: 3,
                    lag_epochs: 3,
                });
            }
            Script::CloneTags => {
                plan.clones = Some(CloneTags {
                    every: 2,
                    pole: victim,
                    mirror: (victim + n_poles / 2) % n_poles,
                });
            }
            Script::BurstyDelivery => {
                plan.burst = Some(BurstDelivery { burst_epochs: 4 });
            }
            Script::LogTransient => {
                plan.log_faults = Some(LogFaultSpec {
                    transient_every_panes: 3,
                    transient_burst: 2,
                    disk_full_from_pane: None,
                });
            }
            Script::DiskFullReattach => {
                plan.log_faults = Some(LogFaultSpec {
                    transient_every_panes: 0,
                    transient_burst: 0,
                    disk_full_from_pane: Some(mid as u64),
                });
            }
            Script::KillRecover => {
                plan.kill = Some(KillSpec {
                    kill_after_epoch: mid,
                });
            }
            Script::TcpCut => {}
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        for script in Script::full_set() {
            assert_eq!(script.plan(9, 16, 24), script.plan(9, 16, 24));
        }
    }

    #[test]
    fn chain_comparability_matches_the_script_semantics() {
        let comparable = |s: Script| s.plan(1, 16, 24).chain_comparable();
        assert!(comparable(Script::Baseline));
        assert!(comparable(Script::ClockSkew));
        assert!(comparable(Script::BurstyDelivery));
        assert!(comparable(Script::LogTransient));
        assert!(comparable(Script::KillRecover));
        assert!(!comparable(Script::OutageRevival));
        assert!(!comparable(Script::CloneTags));
    }

    #[test]
    fn quick_set_is_a_subset_of_full() {
        let full = Script::full_set();
        for s in Script::quick_set() {
            assert!(full.contains(&s));
        }
        assert_eq!(Script::quick_set().len(), 7);
        assert_eq!(full.len(), 10);
    }
}
