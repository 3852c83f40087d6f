//! Position estimates and the method ladder they are tagged with (§6–§7).
//!
//! Caraoke's headline capability is localizing cars from transponder phase
//! across reader antennas — two-reader conic fixes (§6, Fig. 7) — and
//! deriving speed from *position tracks*, not from which pole heard the tag
//! (§7). The city layer therefore carries an optional [`PositionEstimate`]
//! on every [`TagObservation`]: frame sources that can localize attach one,
//! and every consumer downstream (speed estimator, OD aggregator, live
//! windows) works from the estimate when present and falls back to the
//! pole's fixed position otherwise — with the method tagged either way, so
//! accuracy is observable per method.
//!
//! The method ladder, best to worst:
//!
//! 1. [`PositionMethod::TwoReaderFix`] — two readers' AoA cones intersected
//!    on the road plane (`caraoke_geom::try_localize_two_readers`); the
//!    paper reports ~1 m accuracy.
//! 2. [`PositionMethod::AoaOnly`] — one reader's cone cut with the road
//!    plane at a lane-centre prior; well-constrained along the road, poor
//!    across it.
//! 3. [`PositionMethod::PolePosition`] — no localization: the observation
//!    is attributed to the pole that heard it.
//!
//! [`TagObservation`]: crate::event::TagObservation

use crate::event::TagObservation;
use crate::store::PoleSite;
use caraoke_geom::Vec3;

/// How a [`PositionEstimate`] was obtained (best to worst).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PositionMethod {
    /// Two readers' AoA cones intersected on the road plane (§6).
    TwoReaderFix,
    /// A single reader's cone cut with the road plane at a lane prior.
    AoaOnly,
    /// No localization: the pole's own position stands in for the car's.
    PolePosition,
}

/// Nominal 1-σ uncertainty of a pole-position fallback, metres: half a
/// typical pole coverage radius. Used when an observation carries no
/// estimate at all and a consumer synthesizes the fallback.
pub const POLE_FALLBACK_SIGMA_M: f64 = 10.0;

/// A car-position estimate on the road plane, attached to one observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionEstimate {
    /// Estimated position on the road plane, metres (global frame — the
    /// same frame as [`PoleSite::position`]).
    pub xy: (f64, f64),
    /// 2×2 covariance of the estimate, metres²: `[σ_xx, σ_xy, σ_yy]`.
    pub covariance: [f64; 3],
    /// How the estimate was obtained.
    pub method: PositionMethod,
}

impl PositionEstimate {
    /// A two-reader conic fix with isotropic 1-σ uncertainty `sigma_m`.
    pub fn two_reader(x: f64, y: f64, sigma_m: f64) -> Self {
        Self {
            xy: (x, y),
            covariance: [sigma_m * sigma_m, 0.0, sigma_m * sigma_m],
            method: PositionMethod::TwoReaderFix,
        }
    }

    /// An AoA-only fix: `sigma_along_m` along the road (x), `sigma_across_m`
    /// across it (y).
    pub fn aoa_only(x: f64, y: f64, sigma_along_m: f64, sigma_across_m: f64) -> Self {
        Self {
            xy: (x, y),
            covariance: [
                sigma_along_m * sigma_along_m,
                0.0,
                sigma_across_m * sigma_across_m,
            ],
            method: PositionMethod::AoaOnly,
        }
    }

    /// The pole-position fallback for a pole at `position`.
    pub fn pole_fallback(position: Vec3) -> Self {
        Self {
            xy: (position.x, position.y),
            covariance: [
                POLE_FALLBACK_SIGMA_M * POLE_FALLBACK_SIGMA_M,
                0.0,
                POLE_FALLBACK_SIGMA_M * POLE_FALLBACK_SIGMA_M,
            ],
            method: PositionMethod::PolePosition,
        }
    }

    /// RMS 1-σ uncertainty over both axes, metres: `sqrt(trace(cov) / 2)`.
    pub fn sigma_m(&self) -> f64 {
        ((self.covariance[0] + self.covariance[2]) / 2.0)
            .max(0.0)
            .sqrt()
    }

    /// Whether every field is finite (frame sources must never attach NaNs).
    pub fn is_finite(&self) -> bool {
        self.xy.0.is_finite()
            && self.xy.1.is_finite()
            && self.covariance.iter().all(|c| c.is_finite())
    }
}

/// Resolves the position every consumer should use for an observation: the
/// attached estimate when present (and finite), otherwise the heard pole's
/// position as a tagged fallback.
pub fn resolve_position(obs: &TagObservation, site: &PoleSite) -> PositionEstimate {
    match obs.position {
        Some(est) if est.is_finite() => est,
        _ => PositionEstimate::pole_fallback(site.position),
    }
}

/// Least-squares velocity fit over a position track: `(timestamp µs, x, y)`
/// samples, any spacing, any order. Returns the speed in m/s, or `None`
/// when the track has fewer than two distinct timestamps (no baseline to
/// regress over).
///
/// This is the §7 estimator the paper's position tracks feed: fitting a
/// straight-line trajectory through several fixes averages down the
/// per-fix localization noise, where a naive first-to-last delta would eat
/// it whole.
pub fn track_speed_mps(track: &[(u64, f64, f64)]) -> Option<f64> {
    if track.len() < 2 {
        return None;
    }
    let n = track.len() as f64;
    // Anchor deltas at the *minimum* timestamp: repeated batch finalizes
    // can append late fixes out of order, and `u64` deltas from the first
    // element would underflow on such a track.
    let t0 = track.iter().map(|&(t, _, _)| t).min().expect("non-empty");
    let mean_t = track.iter().map(|&(t, _, _)| (t - t0) as f64).sum::<f64>() / n;
    let mean_x = track.iter().map(|&(_, x, _)| x).sum::<f64>() / n;
    let mean_y = track.iter().map(|&(_, _, y)| y).sum::<f64>() / n;
    let mut stt = 0.0;
    let mut stx = 0.0;
    let mut sty = 0.0;
    for &(t, x, y) in track {
        let dt = (t - t0) as f64 - mean_t;
        stt += dt * dt;
        stx += dt * (x - mean_x);
        sty += dt * (y - mean_y);
    }
    if stt <= 0.0 {
        return None;
    }
    // Slopes are per µs; convert to per second.
    let vx = stx / stt * 1e6;
    let vy = sty / stt * 1e6;
    Some(vx.hypot(vy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PoleId, SegmentId, TagKey};
    use crate::store::PoleSite;

    fn obs_with(position: Option<PositionEstimate>) -> TagObservation {
        TagObservation {
            tag: TagKey(7),
            pole: PoleId(0),
            segment: SegmentId(0),
            cfo_bin: 7,
            cfo_hz: 0.0,
            aoa_rad: 0.0,
            has_aoa: false,
            rssi_db: -40.0,
            timestamp_us: 0,
            multi_occupied: false,
            decoded: None,
            position,
        }
    }

    #[test]
    fn estimate_constructors_tag_their_methods() {
        let fix = PositionEstimate::two_reader(3.0, -1.0, 1.0);
        assert_eq!(fix.method, PositionMethod::TwoReaderFix);
        assert!((fix.sigma_m() - 1.0).abs() < 1e-12);
        let aoa = PositionEstimate::aoa_only(3.0, -1.0, 3.0, 4.0);
        assert_eq!(aoa.method, PositionMethod::AoaOnly);
        // RMS of (3, 4) is sqrt(25/2).
        assert!((aoa.sigma_m() - (12.5f64).sqrt()).abs() < 1e-12);
        let pole = PositionEstimate::pole_fallback(Vec3::new(5.0, -6.0, 3.8));
        assert_eq!(pole.method, PositionMethod::PolePosition);
        assert_eq!(pole.xy, (5.0, -6.0));
    }

    #[test]
    fn resolve_position_falls_back_to_the_pole_and_rejects_nans() {
        let site = PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(12.0, -6.0, 3.8),
        };
        let resolved = resolve_position(&obs_with(None), &site);
        assert_eq!(resolved.method, PositionMethod::PolePosition);
        assert_eq!(resolved.xy, (12.0, -6.0));
        let mut bad = PositionEstimate::two_reader(1.0, 2.0, 1.0);
        bad.xy.0 = f64::NAN;
        let resolved = resolve_position(&obs_with(Some(bad)), &site);
        assert_eq!(resolved.method, PositionMethod::PolePosition);
        let good = PositionEstimate::two_reader(1.0, 2.0, 1.0);
        let resolved = resolve_position(&obs_with(Some(good)), &site);
        assert_eq!(resolved.method, PositionMethod::TwoReaderFix);
        assert_eq!(resolved.xy, (1.0, 2.0));
    }

    #[test]
    fn track_regression_recovers_constant_velocity() {
        // 15 m/s along x with a little across-road drift.
        let track: Vec<(u64, f64, f64)> = (0..5u64)
            .map(|i| (i * 1_000_000, 15.0 * i as f64, 0.1 * i as f64))
            .collect();
        let v = track_speed_mps(&track).unwrap();
        assert!((v - (15.0f64.powi(2) + 0.1f64.powi(2)).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn track_regression_averages_down_fix_noise() {
        // Noisy fixes around a 20 m/s trajectory: regression lands close.
        let noise = [0.6, -0.4, 0.5, -0.7, 0.2, 0.3];
        let track: Vec<(u64, f64, f64)> = noise
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 * 500_000, 10.0 * i as f64 + n, n))
            .collect();
        let v = track_speed_mps(&track).unwrap();
        assert!((v - 20.0).abs() < 1.5, "got {v} m/s");
    }

    #[test]
    fn unsorted_tracks_regress_without_underflow() {
        // Late fixes from a previous finalize batch can land out of time
        // order; the fit must not underflow u64 deltas and must match the
        // sorted answer bit for bit only up to summation order — so pin the
        // value loosely and the sorted equivalence tightly.
        let unsorted = [
            (5_000_000u64, 75.0, 0.0),
            (3_000_000, 45.0, 0.0),
            (4_000_000, 60.0, 0.0),
        ];
        let v = track_speed_mps(&unsorted).unwrap();
        assert!((v - 15.0).abs() < 1e-9, "got {v} m/s");
    }

    #[test]
    fn degenerate_tracks_yield_no_speed() {
        assert_eq!(track_speed_mps(&[]), None);
        assert_eq!(track_speed_mps(&[(0, 1.0, 2.0)]), None);
        // Two samples at the same instant: no time baseline.
        assert_eq!(track_speed_mps(&[(5, 1.0, 2.0), (5, 3.0, 4.0)]), None);
        // A stationary (parked) track regresses to zero, not None.
        let parked: Vec<(u64, f64, f64)> = (0..4u64).map(|i| (i * 1_000_000, 3.0, -5.0)).collect();
        assert_eq!(track_speed_mps(&parked), Some(0.0));
    }
}
