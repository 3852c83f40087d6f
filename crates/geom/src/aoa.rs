//! Angle-of-arrival (AoA) math (Eq. 10 of the paper).
//!
//! For two antennas separated by `d`, a plane wave arriving at spatial angle
//! `α` (measured from the antenna baseline) produces a phase difference
//! `Δφ = 2π·d·cos(α)/λ`. Inverting the relation recovers `α` from the
//! measured `Δφ`. Because `Δφ ∝ cos α`, the estimate is most sensitive near
//! `α = 0°/180°` and most accurate near `90°` — the reason the reader uses a
//! three-antenna equilateral triangle and always picks a pair for which the
//! angle falls between 60° and 120° (§6).

use crate::vec3::Vec3;

/// Errors returned by the AoA conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AoaError {
    /// The measured phase difference implies `|cos α| > 1`, i.e. it is not
    /// consistent with the given antenna spacing (after tolerance).
    PhaseOutOfRange,
    /// The antenna spacing or wavelength is not positive.
    InvalidGeometry,
}

impl std::fmt::Display for AoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AoaError::PhaseOutOfRange => {
                write!(
                    f,
                    "phase difference outside the range allowed by the antenna spacing"
                )
            }
            AoaError::InvalidGeometry => {
                write!(f, "antenna spacing and wavelength must be positive")
            }
        }
    }
}

impl std::error::Error for AoaError {}

/// Wraps a phase to `(-π, π]`.
pub fn wrap_phase(phi: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut p = phi.rem_euclid(two_pi);
    if p > std::f64::consts::PI {
        p -= two_pi;
    }
    p
}

/// Converts a measured phase difference `Δφ = φ2 − φ1` (radians) into the
/// spatial angle `α` (radians, in `[0, π]`) for antennas separated by
/// `spacing` metres at wavelength `wavelength` metres.
///
/// Phase differences that map slightly outside `[-1, 1]` in cosine (up to 2 %)
/// are clamped — this happens routinely with noisy measurements at grazing
/// angles. Larger violations return [`AoaError::PhaseOutOfRange`].
pub fn phase_diff_to_angle(delta_phi: f64, spacing: f64, wavelength: f64) -> Result<f64, AoaError> {
    if spacing <= 0.0 || wavelength <= 0.0 {
        return Err(AoaError::InvalidGeometry);
    }
    let cos_alpha = wrap_phase(delta_phi) * wavelength / (2.0 * std::f64::consts::PI * spacing);
    if cos_alpha.abs() > 1.02 {
        return Err(AoaError::PhaseOutOfRange);
    }
    Ok(cos_alpha.clamp(-1.0, 1.0).acos())
}

/// Converts a spatial angle `α` (radians) into the phase difference that a
/// pair of antennas separated by `spacing` metres would measure.
pub fn angle_to_phase_diff(alpha: f64, spacing: f64, wavelength: f64) -> f64 {
    2.0 * std::f64::consts::PI * spacing * alpha.cos() / wavelength
}

/// Computes the true spatial angle between an antenna-baseline axis and the
/// direction from the array centre to a target point. Both the axis and the
/// target position are expressed in the reader's coordinate frame.
pub fn true_spatial_angle(baseline_axis: Vec3, target: Vec3) -> f64 {
    baseline_axis.angle_to(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::CARRIER_WAVELENGTH_M;

    const SPACING: f64 = CARRIER_WAVELENGTH_M / 2.0;

    #[test]
    fn round_trip_angle_phase_angle() {
        for deg in [10.0_f64, 30.0, 60.0, 90.0, 120.0, 150.0, 170.0] {
            let alpha = deg.to_radians();
            let dphi = angle_to_phase_diff(alpha, SPACING, CARRIER_WAVELENGTH_M);
            let back = phase_diff_to_angle(dphi, SPACING, CARRIER_WAVELENGTH_M).unwrap();
            assert!((back - alpha).abs() < 1e-9, "failed at {deg} degrees");
        }
    }

    #[test]
    fn broadside_angle_gives_zero_phase() {
        let dphi = angle_to_phase_diff(std::f64::consts::FRAC_PI_2, SPACING, CARRIER_WAVELENGTH_M);
        assert!(dphi.abs() < 1e-12);
    }

    #[test]
    fn endfire_angle_gives_pi_phase_at_half_wavelength() {
        // cos(0) = 1 -> Δφ = 2π·(λ/2)/λ = π.
        let dphi = angle_to_phase_diff(0.0, SPACING, CARRIER_WAVELENGTH_M);
        assert!((dphi - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn wrap_phase_stays_in_range() {
        for k in -20..20 {
            let p = wrap_phase(k as f64 * 1.3);
            assert!(p > -std::f64::consts::PI - 1e-12 && p <= std::f64::consts::PI + 1e-12);
        }
        assert!((wrap_phase(3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_phase_is_rejected_for_wide_spacing() {
        // With spacing = 2λ a phase of ~π corresponds to cos α = 0.25, fine;
        // but with spacing = λ/4, a (wrapped) phase of π gives cos α = 2 -> error.
        let err = phase_diff_to_angle(
            std::f64::consts::PI,
            CARRIER_WAVELENGTH_M / 4.0,
            CARRIER_WAVELENGTH_M,
        );
        assert_eq!(err, Err(AoaError::PhaseOutOfRange));
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert_eq!(
            phase_diff_to_angle(0.1, 0.0, CARRIER_WAVELENGTH_M),
            Err(AoaError::InvalidGeometry)
        );
        assert_eq!(
            phase_diff_to_angle(0.1, SPACING, -1.0),
            Err(AoaError::InvalidGeometry)
        );
    }

    #[test]
    fn true_spatial_angle_from_geometry() {
        // Target directly broadside of an x-axis baseline -> 90 degrees.
        let axis = Vec3::new(1.0, 0.0, 0.0);
        let target = Vec3::new(0.0, 10.0, -4.0);
        let alpha = true_spatial_angle(axis, target);
        assert!((alpha - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // Target along the axis -> 0 degrees.
        let along = Vec3::new(25.0, 0.0, 0.0);
        assert!(true_spatial_angle(axis, along) < 1e-9);
    }
}
