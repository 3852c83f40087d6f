//! Speed detection pipeline (§7, §12.3).
//!
//! Speed is derived from two position fixes of the same transponder obtained
//! at different times from readers mounted on different poles, divided by the
//! elapsed time. The poles' clocks are synchronised with NTP over their LTE
//! connections, so the elapsed time carries a bounded synchronisation error.

use crate::localization::AoaEstimate;
use caraoke_geom::localize::RoadRegion;
use caraoke_geom::{speed_from_fixes, try_localize_two_readers, ReaderPose, SpeedEstimate, Vec3};

/// A timestamped pair of AoA estimates of the same tag seen by two readers.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedObservation {
    /// AoA estimate from the first reader.
    pub from_a: AoaEstimate,
    /// AoA estimate from the second reader.
    pub from_b: AoaEstimate,
    /// Timestamp of the observation (seconds, in the observing reader's
    /// clock; NTP error should already be folded in by the caller/simulator).
    pub timestamp: f64,
}

/// Two-pole speed estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedPipeline {
    /// Road region used to disambiguate localization solutions.
    pub region: RoadRegion,
}

impl SpeedPipeline {
    /// Creates a pipeline over a given road region.
    pub fn new(region: RoadRegion) -> Self {
        Self { region }
    }

    /// Computes a position fix from a pair of AoA estimates (the reader pose
    /// is embedded in each estimate's baseline/midpoint).
    pub fn fix(&self, from_a: &AoaEstimate, from_b: &AoaEstimate) -> Option<Vec3> {
        let pose_a = ReaderPose::new(from_a.midpoint, from_a.baseline);
        let pose_b = ReaderPose::new(from_b.midpoint, from_b.baseline);
        try_localize_two_readers(
            &pose_a,
            from_a.angle_rad,
            &pose_b,
            from_b.angle_rad,
            &self.region,
        )
        .ok()
    }

    /// Estimates speed from two observations. Returns `None` if either fix
    /// fails or the timestamps are not increasing.
    pub fn speed(
        &self,
        first: &SpeedObservation,
        second: &SpeedObservation,
    ) -> Option<SpeedEstimate> {
        let p1 = self.fix(&first.from_a, &first.from_b)?;
        let p2 = self.fix(&second.from_a, &second.from_b)?;
        speed_from_fixes(p1, first.timestamp, p2, second.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReaderConfig;
    use crate::localization::localize_peaks;
    use crate::spectrum::analyze_collision;
    use caraoke_geom::units::{feet_to_meters, mph_to_mps, mps_to_mph};
    use caraoke_phy::{
        antenna::{AntennaArray, ArrayGeometry},
        cfo::MIN_TAG_CARRIER_HZ,
        channel::PropagationModel,
        protocol::{TransponderId, TransponderPacket},
        synthesize_collision, Transponder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array_at(pole: Vec3) -> AntennaArray {
        AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        )
    }

    /// Localizes a single tag at `car` using two poles and returns the AoA
    /// estimates from each.
    fn observe(
        car: Vec3,
        pole_a: Vec3,
        pole_b: Vec3,
        rng: &mut StdRng,
        config: &ReaderConfig,
    ) -> (AoaEstimate, AoaEstimate) {
        let tag = Transponder::new(
            TransponderPacket::from_id(TransponderId(1)),
            MIN_TAG_CARRIER_HZ + 300.0 * config.signal.bin_resolution(),
            car + Vec3::new(0.0, 0.0, 0.5),
        );
        let model = PropagationModel::line_of_sight();
        let mut est_for = |pole: Vec3| {
            let array = array_at(pole);
            let sig = synthesize_collision(
                std::slice::from_ref(&tag),
                &array,
                &model,
                &config.signal,
                rng,
            );
            let spec = analyze_collision(&sig, config).unwrap();
            localize_peaks(&spec, &array, config).unwrap().remove(0)
        };
        (est_for(pole_a), est_for(pole_b))
    }

    #[test]
    fn constant_speed_car_is_measured_within_paper_accuracy() {
        let mut rng = StdRng::seed_from_u64(51);
        let config = ReaderConfig::default();
        let height = feet_to_meters(12.5);
        let separation = feet_to_meters(200.0);
        // Two pole pairs: one at x=0 and one at x=separation.
        let region = RoadRegion {
            x_min: -20.0,
            x_max: separation + 20.0,
            y_min: -4.5,
            y_max: 4.5,
            z: 0.0,
        };
        let pipeline = SpeedPipeline::new(region);
        let true_mph = 30.0;
        let v = mph_to_mps(true_mph);
        let t1 = 0.0;
        let t2 = separation / v;
        let car_at = |t: f64| Vec3::new(v * t, -1.5, 0.0);

        let (a1, b1) = observe(
            car_at(t1),
            Vec3::new(0.0, -5.0, height),
            Vec3::new(6.0, 5.0, height),
            &mut rng,
            &config,
        );
        let (a2, b2) = observe(
            car_at(t2),
            Vec3::new(separation, -5.0, height),
            Vec3::new(separation - 6.0, 5.0, height),
            &mut rng,
            &config,
        );
        // 30 ms of NTP error between the two pole clocks.
        let est = pipeline
            .speed(
                &SpeedObservation {
                    from_a: a1,
                    from_b: b1,
                    timestamp: t1,
                },
                &SpeedObservation {
                    from_a: a2,
                    from_b: b2,
                    timestamp: t2 + 0.03,
                },
            )
            .expect("speed estimate");
        let rel_err = (mps_to_mph(est.speed_mps) - true_mph).abs() / true_mph;
        assert!(rel_err < 0.10, "relative speed error {rel_err}");
    }

    #[test]
    fn non_increasing_timestamps_give_none() {
        let mut rng = StdRng::seed_from_u64(52);
        let config = ReaderConfig::default();
        let region = RoadRegion {
            x_min: -40.0,
            x_max: 40.0,
            y_min: -4.5,
            y_max: 4.5,
            z: 0.0,
        };
        let pipeline = SpeedPipeline::new(region);
        let (a, b) = observe(
            Vec3::new(5.0, -1.0, 0.0),
            Vec3::new(0.0, -5.0, 3.8),
            Vec3::new(10.0, 5.0, 3.8),
            &mut rng,
            &config,
        );
        let obs = SpeedObservation {
            from_a: a,
            from_b: b,
            timestamp: 1.0,
        };
        assert!(pipeline.speed(&obs, &obs).is_none());
    }

    #[test]
    fn fix_fails_gracefully_off_road() {
        let mut rng = StdRng::seed_from_u64(53);
        let config = ReaderConfig::default();
        // Tiny region that excludes the car -> fix is None -> speed is None.
        let region = RoadRegion {
            x_min: -1.0,
            x_max: 1.0,
            y_min: -0.5,
            y_max: 0.5,
            z: 0.0,
        };
        let pipeline = SpeedPipeline::new(region);
        let (a, b) = observe(
            Vec3::new(20.0, -1.0, 0.0),
            Vec3::new(0.0, -5.0, 3.8),
            Vec3::new(30.0, 5.0, 3.8),
            &mut rng,
            &config,
        );
        assert!(pipeline.fix(&a, &b).is_none());
    }
}
