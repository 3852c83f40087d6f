//! Deterministic fault-injecting delivery of synthetic frames into a live
//! engine.
//!
//! [`ChaosDriver`] replays a [`SyntheticCity`]'s frames into a
//! [`LiveCity`] while acting out a [`FaultPlan`]: outaged poles go silent
//! (and are declared dead on schedule), skewed poles deliver late, cloned
//! tags appear at mirror poles, and bursts scramble cross-pole delivery
//! order — always preserving each pole's own FIFO sequence, because that
//! is the watermark contract and the boundary between "graceful
//! degradation" and "garbage in". Delivery is single-threaded and every
//! decision is a pure function of the plan, so the same plan replays the
//! byte-identical faulted stream — the property kill-and-recover cells
//! rely on when they redeliver from the seal floor.

use crate::plan::FaultPlan;
use caraoke_city::synth::mix_seed;
use caraoke_city::{FrameSource, PoleId, PoleReport, SyntheticCity};
use caraoke_live::LiveCity;
use std::ops::Range;

/// What the driver actually delivered, skipped and injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryCounters {
    /// Reports handed to [`LiveCity::ingest`].
    pub delivered_reports: u64,
    /// Observations inside those reports (clones included).
    pub delivered_obs: u64,
    /// Reports suppressed by a pole outage.
    pub skipped_reports: u64,
    /// Observations lost inside the suppressed reports.
    pub skipped_obs: u64,
    /// Cloned observations injected at mirror poles.
    pub cloned_obs: u64,
    /// Whether the driver declared the outaged pole dead.
    pub declared_dead: bool,
}

/// One scheduled frame delivery.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pole: u32,
    epoch: usize,
    /// Ordering key: the epoch the frame *arrives* (≥ its event epoch for
    /// skewed poles).
    delivery_epoch: usize,
}

/// Fault-scripted delivery of one synthetic run.
#[derive(Debug)]
pub struct ChaosDriver<'a> {
    city: &'a SyntheticCity,
    plan: FaultPlan,
}

impl<'a> ChaosDriver<'a> {
    /// Pairs a frame source with a fault plan.
    pub fn new(city: &'a SyntheticCity, plan: FaultPlan) -> Self {
        Self { city, plan }
    }

    fn pole_down(&self, pole: u32, epoch: usize) -> bool {
        match self.plan.outage {
            Some(o) if o.pole == pole && epoch >= o.down_from => match o.revive_at {
                Some(revive) => epoch < revive,
                None => true,
            },
            _ => false,
        }
    }

    fn delivery_epoch(&self, pole: u32, epoch: usize) -> usize {
        match self.plan.skew {
            Some(s) if s.stride > 0 && pole.is_multiple_of(s.stride) => epoch + s.lag_epochs,
            _ => epoch,
        }
    }

    /// Builds the delivery order for `range`: skew shifts each victim's
    /// frames later, bursts scramble cross-pole order inside each
    /// `burst_epochs`-wide group — and a final per-pole pass restores each
    /// pole's own epoch order, so the scramble never violates FIFO.
    fn schedule(&self, range: Range<usize>, counters: &mut DeliveryCounters) -> Vec<Slot> {
        let n_poles = self.city.directory().len() as u32;
        let mut slots = Vec::with_capacity(range.len() * n_poles as usize);
        for epoch in range {
            for pole in 0..n_poles {
                if self.pole_down(pole, epoch) {
                    counters.skipped_reports += 1;
                    counters.skipped_obs += self.city.report(pole, epoch).observations.len() as u64;
                    continue;
                }
                slots.push(Slot {
                    pole,
                    epoch,
                    delivery_epoch: self.delivery_epoch(pole, epoch),
                });
            }
        }
        // Stable by arrival epoch: per-pole order survives because each
        // pole's delivery epochs are strictly increasing.
        slots.sort_by_key(|s| s.delivery_epoch);
        if let Some(burst) = self.plan.burst {
            let width = burst.burst_epochs.max(1);
            let mut start = 0;
            while start < slots.len() {
                let group = slots[start].delivery_epoch / width;
                let mut end = start + 1;
                while end < slots.len() && slots[end].delivery_epoch / width == group {
                    end += 1;
                }
                scramble_preserving_pole_fifo(
                    &mut slots[start..end],
                    self.plan.seed ^ group as u64,
                );
                start = end;
            }
        }
        slots
    }

    /// Materialises the (possibly clone-injected) report for one slot.
    fn frame(&self, slot: Slot, counters: &mut DeliveryCounters) -> PoleReport {
        let mut report = self.city.report(slot.pole, slot.epoch);
        if let Some(clones) = self.plan.clones {
            if clones.every > 0
                && slot.epoch.is_multiple_of(clones.every)
                && slot.pole == clones.mirror
            {
                // A second physical tag carrying the victim's id is heard
                // here, in the same epoch, at a pole far from the original.
                let donor = self.city.report(clones.pole, slot.epoch);
                if let Some(obs) = donor.observations.first() {
                    let mut clone = *obs;
                    clone.pole = PoleId(slot.pole);
                    clone.segment = report.segment;
                    clone.timestamp_us = report.timestamp_us;
                    report.observations.push(clone);
                    report.count += 1;
                    report.peaks += 1;
                    counters.cloned_obs += 1;
                }
            }
        }
        report
    }

    /// Delivers every in-plan frame of `range` into `live`, acting out the
    /// plan. Returns the delivery tallies (merge across calls for split
    /// kill/recover deliveries).
    pub fn deliver(&self, live: &LiveCity, range: Range<usize>) -> DeliveryCounters {
        let mut counters = DeliveryCounters::default();
        let declare_at = self.plan.outage.and_then(|o| match o.revive_at {
            None if o.declare_after != usize::MAX => Some((o.pole, o.down_from + o.declare_after)),
            _ => None,
        });
        let slots = self.schedule(range, &mut counters);
        for slot in slots {
            if let Some((dead_pole, at)) = declare_at {
                if !counters.declared_dead && slot.delivery_epoch >= at {
                    counters.declared_dead = live.declare_pole_dead(PoleId(dead_pole));
                }
            }
            let report = self.frame(slot, &mut counters);
            counters.delivered_reports += 1;
            counters.delivered_obs += report.observations.len() as u64;
            live.ingest(&report);
        }
        counters
    }
}

/// Reorders `slots` pseudo-randomly across poles while keeping each pole's
/// own slots in their original relative order: positions are scrambled,
/// then each pole's slots are re-laid into *its own* position set in
/// original order.
fn scramble_preserving_pole_fifo(slots: &mut [Slot], seed: u64) {
    let original = slots.to_vec();
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| mix_seed(seed, original[i].pole, original[i].epoch));
    // `order` now maps scrambled position -> original index; rewrite each
    // pole's scrambled positions with that pole's slots in FIFO order.
    let mut scrambled: Vec<Slot> = order.iter().map(|&i| original[i]).collect();
    let mut by_pole: std::collections::HashMap<u32, std::collections::VecDeque<Slot>> =
        std::collections::HashMap::new();
    for slot in &original {
        by_pole.entry(slot.pole).or_default().push_back(*slot);
    }
    for slot in &mut scrambled {
        *slot = by_pole
            .get_mut(&slot.pole)
            .and_then(|q| q.pop_front())
            .expect("pole slot conservation");
    }
    slots.copy_from_slice(&scrambled);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BurstDelivery, ClockSkew, PoleOutage, Script};

    fn city() -> SyntheticCity {
        SyntheticCity::new(8, 12, 77)
    }

    #[test]
    fn schedules_are_deterministic_and_fifo_per_pole() {
        let city = city();
        for script in Script::full_set() {
            let plan = script.plan(5, 8, 12);
            let driver = ChaosDriver::new(&city, plan);
            let mut c1 = DeliveryCounters::default();
            let mut c2 = DeliveryCounters::default();
            let a = driver.schedule(0..12, &mut c1);
            let b = driver.schedule(0..12, &mut c2);
            assert_eq!(a.len(), b.len(), "{}", script.name());
            assert_eq!(c1, c2);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.pole, x.epoch), (y.pole, y.epoch));
            }
            // FIFO per pole: each pole's epochs appear in increasing order.
            let mut last = std::collections::HashMap::new();
            for slot in &a {
                let prev = last.insert(slot.pole, slot.epoch);
                if let Some(prev) = prev {
                    assert!(prev < slot.epoch, "{}: pole FIFO broken", script.name());
                }
            }
        }
    }

    #[test]
    fn outage_skips_the_victim_and_only_the_victim() {
        let city = city();
        let plan = FaultPlan {
            seed: 5,
            outage: Some(PoleOutage {
                pole: 3,
                down_from: 4,
                revive_at: Some(8),
                declare_after: usize::MAX,
            }),
            ..FaultPlan::clean(5)
        };
        let driver = ChaosDriver::new(&city, plan);
        let mut counters = DeliveryCounters::default();
        let slots = driver.schedule(0..12, &mut counters);
        assert_eq!(counters.skipped_reports, 4, "epochs 4..8 of pole 3");
        assert_eq!(slots.len(), 8 * 12 - 4);
        assert!(slots
            .iter()
            .all(|s| s.pole != 3 || !(4..8).contains(&s.epoch)));
    }

    #[test]
    fn skew_delays_delivery_without_changing_the_frame_set() {
        let city = city();
        let plan = FaultPlan {
            skew: Some(ClockSkew {
                stride: 2,
                lag_epochs: 3,
            }),
            ..FaultPlan::clean(5)
        };
        let driver = ChaosDriver::new(&city, plan);
        let mut counters = DeliveryCounters::default();
        let slots = driver.schedule(0..12, &mut counters);
        assert_eq!(slots.len(), 8 * 12, "skew must not drop frames");
        let skewed: Vec<_> = slots.iter().filter(|s| s.pole % 2 == 0).collect();
        assert!(skewed.iter().all(|s| s.delivery_epoch == s.epoch + 3));
    }

    #[test]
    fn bursts_scramble_across_poles_but_conserve_slots() {
        let city = city();
        let plan = FaultPlan {
            burst: Some(BurstDelivery { burst_epochs: 4 }),
            ..FaultPlan::clean(9)
        };
        let driver = ChaosDriver::new(&city, plan);
        let mut counters = DeliveryCounters::default();
        let scrambled = driver.schedule(0..12, &mut counters);
        let clean_driver = ChaosDriver::new(&city, FaultPlan::clean(9));
        let mut c2 = DeliveryCounters::default();
        let ordered = clean_driver.schedule(0..12, &mut c2);
        assert_eq!(scrambled.len(), ordered.len());
        let key = |s: &Slot| (s.pole, s.epoch);
        let mut a: Vec<_> = scrambled.iter().map(key).collect();
        let mut b: Vec<_> = ordered.iter().map(key).collect();
        assert_ne!(a, b, "burst should actually reorder something");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same multiset of frames");
    }
}
