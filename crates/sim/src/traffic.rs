//! Traffic lights, Poisson arrivals and the intersection queue model.
//!
//! Fig. 12 of the paper shows the number of cars a Caraoke reader counts at
//! an intersection over two light cycles: a queue builds during red and
//! drains during green, and the busier street (C) carries about ten times
//! the traffic of the smaller one (A) while getting only three times the
//! green time. This module provides the queue dynamics that produce that
//! pattern; the reader-side counting is layered on top by the scenario
//! runner.

use caraoke_phy::noise::poisson;
use rand::Rng;

/// Phase of a traffic light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LightPhase {
    /// Vehicles may proceed.
    Green,
    /// Clearance interval.
    Yellow,
    /// Vehicles must stop.
    Red,
}

/// A fixed-cycle traffic light.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficLight {
    /// Green duration, seconds.
    pub green_s: f64,
    /// Yellow duration, seconds.
    pub yellow_s: f64,
    /// Red duration, seconds.
    pub red_s: f64,
    /// Offset of the cycle start (start of green), seconds.
    pub offset_s: f64,
}

impl TrafficLight {
    /// Cycle length.
    pub fn cycle_s(&self) -> f64 {
        self.green_s + self.yellow_s + self.red_s
    }

    /// Phase at time `t`.
    pub fn phase_at(&self, t: f64) -> LightPhase {
        let cycle = self.cycle_s();
        let x = (t - self.offset_s).rem_euclid(cycle);
        if x < self.green_s {
            LightPhase::Green
        } else if x < self.green_s + self.yellow_s {
            LightPhase::Yellow
        } else {
            LightPhase::Red
        }
    }
}

/// One approach (street direction) of an intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Approach {
    /// Mean vehicle arrivals per second (Poisson).
    pub arrival_rate: f64,
    /// Vehicles that can depart per second of green (saturation flow).
    pub departure_rate: f64,
    /// The light governing this approach.
    pub light: TrafficLight,
}

/// A time series sample of the intersection state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Time of the sample, seconds.
    pub time: f64,
    /// Number of cars queued (or slowly moving) at the approach.
    pub queue: usize,
    /// Light phase at that time.
    pub phase: LightPhase,
}

/// Discrete-time (1 s steps) queue simulation of one or more approaches.
#[derive(Debug, Clone)]
pub struct IntersectionSim {
    /// The approaches being simulated.
    pub approaches: Vec<Approach>,
}

impl IntersectionSim {
    /// The Fig. 12 configuration: street A (minor) and street C (major, ~10×
    /// the traffic, ~3× the green time).
    pub fn street_a_and_c() -> Self {
        let cycle = 90.0;
        Self {
            approaches: vec![
                // Street A: low arrival rate, short green.
                Approach {
                    arrival_rate: 0.03,
                    departure_rate: 0.5,
                    light: TrafficLight {
                        green_s: 20.0,
                        yellow_s: 3.0,
                        red_s: cycle - 23.0,
                        offset_s: 0.0,
                    },
                },
                // Street C: ~10x the traffic, ~3x the green time.
                Approach {
                    arrival_rate: 0.30,
                    departure_rate: 1.5,
                    light: TrafficLight {
                        green_s: 60.0,
                        yellow_s: 3.0,
                        red_s: cycle - 63.0,
                        offset_s: 23.0,
                    },
                },
            ],
        }
    }

    /// Simulates `duration_s` seconds and returns, for each approach, a
    /// per-second time series of queue length and light phase.
    pub fn run<R: Rng + ?Sized>(&self, duration_s: usize, rng: &mut R) -> Vec<Vec<QueueSample>> {
        let mut queues = vec![0usize; self.approaches.len()];
        let mut series = vec![Vec::with_capacity(duration_s); self.approaches.len()];
        for t in 0..duration_s {
            for (i, approach) in self.approaches.iter().enumerate() {
                let arrivals = poisson(rng, approach.arrival_rate) as usize;
                queues[i] += arrivals;
                let phase = approach.light.phase_at(t as f64);
                if phase == LightPhase::Green {
                    let departures = poisson(rng, approach.departure_rate) as usize;
                    queues[i] = queues[i].saturating_sub(departures);
                }
                series[i].push(QueueSample {
                    time: t as f64,
                    queue: queues[i],
                    phase,
                });
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn light_cycles_through_phases() {
        let light = TrafficLight {
            green_s: 30.0,
            yellow_s: 3.0,
            red_s: 27.0,
            offset_s: 0.0,
        };
        assert_eq!(light.cycle_s(), 60.0);
        assert_eq!(light.phase_at(0.0), LightPhase::Green);
        assert_eq!(light.phase_at(31.0), LightPhase::Yellow);
        assert_eq!(light.phase_at(40.0), LightPhase::Red);
        assert_eq!(light.phase_at(60.0), LightPhase::Green);
        assert_eq!(light.phase_at(-29.0), LightPhase::Yellow);
    }

    #[test]
    fn queue_builds_during_red_and_drains_during_green() {
        let mut rng = StdRng::seed_from_u64(1);
        let sim = IntersectionSim::street_a_and_c();
        let series = sim.run(360, &mut rng);
        let c = &series[1];
        // Average queue during red must exceed the average right at the end
        // of green phases.
        let red_avg: f64 = {
            let reds: Vec<f64> = c
                .iter()
                .filter(|s| s.phase == LightPhase::Red)
                .map(|s| s.queue as f64)
                .collect();
            caraoke_dsp::mean(&reds)
        };
        let green_tail: Vec<f64> = c
            .windows(2)
            .filter(|w| w[0].phase == LightPhase::Green && w[1].phase == LightPhase::Yellow)
            .map(|w| w[0].queue as f64)
            .collect();
        let green_end_avg = caraoke_dsp::mean(&green_tail);
        assert!(
            red_avg > green_end_avg,
            "red avg {red_avg} should exceed end-of-green avg {green_end_avg}"
        );
    }

    #[test]
    fn street_c_is_busier_than_street_a() {
        let mut rng = StdRng::seed_from_u64(2);
        let sim = IntersectionSim::street_a_and_c();
        let totals: Vec<f64> = sim
            .approaches
            .iter()
            .map(|a| a.arrival_rate * 3600.0)
            .collect();
        assert!((totals[1] / totals[0] - 10.0).abs() < 0.5);
        let avgs: Vec<f64> = sim
            .run(600, &mut rng)
            .iter()
            .map(|series| series.iter().map(|s| s.queue as f64).sum::<f64>() / series.len() as f64)
            .collect();
        assert!(avgs[1] > avgs[0], "street C should have the longer queue");
    }

    #[test]
    fn queues_stay_bounded_when_green_time_is_sufficient() {
        let mut rng = StdRng::seed_from_u64(3);
        let sim = IntersectionSim::street_a_and_c();
        let series = sim.run(1800, &mut rng);
        for approach in &series {
            let max_queue = approach.iter().map(|s| s.queue).max().unwrap();
            assert!(max_queue < 60, "queue exploded to {max_queue}");
        }
    }
}
