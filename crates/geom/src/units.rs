//! Unit conversions and physical constants.
//!
//! The paper mixes US customary units (feet for pole heights and lane widths,
//! miles/hour for speeds) with SI quantities (MHz, metres for wavelengths).
//! Keeping the conversions in one place avoids unit bugs in the evaluation.

/// Speed of light in vacuum (m/s).
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// E-toll carrier frequency (Hz): 915 MHz (§3).
pub const CARRIER_FREQUENCY_HZ: f64 = 915.0e6;

/// Carrier wavelength λ = c / f ≈ 0.3276 m.
pub const CARRIER_WAVELENGTH_M: f64 = SPEED_OF_LIGHT_M_S / CARRIER_FREQUENCY_HZ;

/// One foot in metres.
pub const FOOT_M: f64 = 0.3048;

/// One mile in metres.
pub const MILE_M: f64 = 1609.344;

/// Converts feet to metres.
pub fn feet_to_meters(feet: f64) -> f64 {
    feet * FOOT_M
}

/// Converts metres to feet.
pub fn meters_to_feet(meters: f64) -> f64 {
    meters / FOOT_M
}

/// Converts miles per hour to metres per second.
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * MILE_M / 3600.0
}

/// Converts metres per second to miles per hour.
pub fn mps_to_mph(mps: f64) -> f64 {
    mps * 3600.0 / MILE_M
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_is_about_a_third_of_a_meter() {
        assert!((CARRIER_WAVELENGTH_M - 0.3276).abs() < 1e-3);
    }

    #[test]
    fn half_wavelength_matches_paper_antenna_spacing() {
        // The paper separates the antennas by λ/2 = 6.5 inches.
        let half_lambda_inches = CARRIER_WAVELENGTH_M / 2.0 / 0.0254;
        assert!((half_lambda_inches - 6.45).abs() < 0.1);
    }

    #[test]
    fn feet_meters_round_trip() {
        for v in [0.0, 1.0, 12.5, 360.0] {
            assert!((meters_to_feet(feet_to_meters(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn mph_mps_round_trip() {
        for v in [10.0, 20.0, 35.0, 50.0] {
            assert!((mps_to_mph(mph_to_mps(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn known_speed_conversion() {
        // 60 mph is about 26.82 m/s.
        assert!((mph_to_mps(60.0) - 26.8224).abs() < 1e-4);
    }
}
