//! Pane-log I/O fault injection.
//!
//! [`FaultSink`] implements [`caraoke_log::WriteFault`], the hook the
//! segment writer consults *before* every append/rotate/sync — so an
//! injected failure never leaves a torn record behind and the engine's
//! retry path can safely re-attempt the same logical write. Faults are a
//! pure function of the [`LogFaultSpec`] and the pane id being written,
//! shared-counter instrumented so harnesses can assert that every injected
//! error surfaced in an engine counter (no silent degradation).

use crate::plan::LogFaultSpec;
use caraoke_log::{IoOp, WriteFault};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared tallies of what a [`FaultSink`] actually injected.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Transient (`Interrupted`) errors injected.
    pub transient: AtomicU64,
    /// Fatal (`StorageFull`) errors injected.
    pub fatal: AtomicU64,
    /// Checks that passed clean.
    pub clean: AtomicU64,
}

impl FaultCounters {
    /// Fresh zeroed counters behind an `Arc` for sharing with the sink.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Total errors injected so far.
    pub fn injected(&self) -> u64 {
        self.transient.load(Ordering::Relaxed) + self.fatal.load(Ordering::Relaxed)
    }
}

/// A deterministic [`WriteFault`] schedule over a segment writer.
///
/// Transient regime: the append of every `transient_every_panes`-th pane
/// fails `ErrorKind::Interrupted` for the first `transient_burst`
/// consecutive attempts — one burst per pane, so the engine's
/// [`LOG_WRITE_ATTEMPTS`](caraoke_live::LOG_WRITE_ATTEMPTS) `>
/// transient_burst` tries always win and durability holds.
///
/// Disk-full regime: from `disk_full_from_pane` on, *every* operation
/// fails `ErrorKind::StorageFull` forever; the engine's sink latches fatal
/// and stays down until
/// [`reattach_log`](caraoke_live::LiveCity::reattach_log).
#[derive(Debug)]
pub struct FaultSink {
    spec: LogFaultSpec,
    counters: Arc<FaultCounters>,
    /// Pane currently being error-bursted, with errors left in the burst.
    burst: Option<(u64, u32)>,
}

impl FaultSink {
    /// Builds the sink; `counters` is shared with the observing harness.
    pub fn new(spec: LogFaultSpec, counters: Arc<FaultCounters>) -> Self {
        Self {
            spec,
            counters,
            burst: None,
        }
    }

    /// Convenience: boxed for
    /// [`SegmentWriter::set_fault_injector`](caraoke_log::SegmentWriter::set_fault_injector).
    pub fn boxed(spec: LogFaultSpec, counters: Arc<FaultCounters>) -> Box<dyn WriteFault> {
        Box::new(Self::new(spec, counters))
    }

    fn pane_targeted(&self, pane: u64) -> bool {
        let period = self.spec.transient_every_panes;
        // Skip pane 0 so the log always opens with at least one clean
        // record (keeps the "empty log" edge out of the fault domain).
        period > 0 && pane > 0 && pane.is_multiple_of(period)
    }
}

impl WriteFault for FaultSink {
    fn check(&mut self, op: IoOp, pane: u64) -> Option<io::Error> {
        if let Some(full_from) = self.spec.disk_full_from_pane {
            if pane >= full_from {
                self.counters.fatal.fetch_add(1, Ordering::Relaxed);
                return Some(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected: no space left on device",
                ));
            }
        }
        if op == IoOp::Append && self.pane_targeted(pane) {
            let remaining = match self.burst {
                Some((p, left)) if p == pane => left,
                _ => {
                    // First attempt at a targeted pane: arm a fresh burst.
                    self.burst = Some((pane, self.spec.transient_burst));
                    self.spec.transient_burst
                }
            };
            if remaining > 0 {
                self.burst = Some((pane, remaining - 1));
                self.counters.transient.fetch_add(1, Ordering::Relaxed);
                return Some(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected: transient write interruption",
                ));
            }
        }
        self.counters.clean.fetch_add(1, Ordering::Relaxed);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_bursts_exhaust_then_pass() {
        let counters = FaultCounters::shared();
        let mut sink = FaultSink::new(
            LogFaultSpec {
                transient_every_panes: 2,
                transient_burst: 2,
                disk_full_from_pane: None,
            },
            Arc::clone(&counters),
        );
        // Pane 1: not targeted.
        assert!(sink.check(IoOp::Append, 1).is_none());
        // Pane 2: two injected errors, then the retry passes.
        let e = sink.check(IoOp::Append, 2).expect("first injected");
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert!(sink.check(IoOp::Append, 2).is_some());
        assert!(sink.check(IoOp::Append, 2).is_none(), "burst exhausted");
        assert_eq!(counters.transient.load(Ordering::Relaxed), 2);
        assert_eq!(counters.fatal.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn disk_full_is_permanent_and_kind_stable() {
        let counters = FaultCounters::shared();
        let mut sink = FaultSink::new(
            LogFaultSpec {
                transient_every_panes: 0,
                transient_burst: 0,
                disk_full_from_pane: Some(5),
            },
            Arc::clone(&counters),
        );
        assert!(sink.check(IoOp::Sync, 4).is_none());
        for attempt in 0..10u64 {
            let e = sink.check(IoOp::Append, 5 + attempt % 3).expect("full");
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        }
        assert_eq!(counters.fatal.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pane_zero_is_never_targeted() {
        let counters = FaultCounters::shared();
        let mut sink = FaultSink::new(
            LogFaultSpec {
                transient_every_panes: 1,
                transient_burst: 8,
                disk_full_from_pane: None,
            },
            counters,
        );
        assert!(sink.check(IoOp::Append, 0).is_none());
        assert!(sink.check(IoOp::Append, 1).is_some());
    }
}
