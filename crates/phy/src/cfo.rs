//! Carrier-frequency-offset (CFO) models.
//!
//! E-toll transponders are active RFIDs with free-running oscillators; their
//! carrier frequencies fall anywhere between 914.3 MHz and 915.5 MHz, so the
//! CFO relative to the reader can be as large as 1.2 MHz (§3). Caraoke's
//! counting analysis (§5) assumes a uniform CFO distribution; the empirical
//! validation uses the distribution measured from 155 real transponders,
//! whose carrier frequencies have mean 914.84 MHz and standard deviation
//! 0.21 MHz (footnote 7).

use crate::noise::normal;
use crate::timing::CFO_SPAN_HZ;
use rand::{Rng, RngExt};

/// Lowest transponder carrier frequency (Hz).
pub const MIN_TAG_CARRIER_HZ: f64 = 914.3e6;

/// Highest transponder carrier frequency (Hz).
pub const MAX_TAG_CARRIER_HZ: f64 = MIN_TAG_CARRIER_HZ + CFO_SPAN_HZ;

/// Mean transponder carrier frequency measured from 155 tags (footnote 7).
pub const EMPIRICAL_MEAN_CARRIER_HZ: f64 = 914.84e6;

/// Standard deviation of the measured carrier frequencies (footnote 7).
pub const EMPIRICAL_STD_CARRIER_HZ: f64 = 0.21e6;

/// A model for drawing transponder carrier frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CfoModel {
    /// Carrier frequencies uniform over `[914.3, 915.5]` MHz — the assumption
    /// behind Eq. 7 and Eq. 9.
    Uniform,
    /// Carrier frequencies normal with the empirical mean/σ of footnote 7,
    /// clamped to the legal span.
    Empirical,
    /// A fixed carrier frequency (useful for tests).
    Fixed(
        /// The carrier frequency in Hz.
        f64,
    ),
}

impl CfoModel {
    /// Draws a transponder carrier frequency in Hz.
    pub fn sample_carrier<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            CfoModel::Uniform => rng.random_range(MIN_TAG_CARRIER_HZ..MAX_TAG_CARRIER_HZ),
            CfoModel::Empirical => {
                let f = normal(rng, EMPIRICAL_MEAN_CARRIER_HZ, EMPIRICAL_STD_CARRIER_HZ);
                f.clamp(MIN_TAG_CARRIER_HZ, MAX_TAG_CARRIER_HZ)
            }
            CfoModel::Fixed(f) => *f,
        }
    }

    /// Draws the CFO (Hz) of a transponder relative to a reader whose local
    /// oscillator sits at the *bottom* of the tag band. This convention makes
    /// every CFO positive and in `[0, 1.2 MHz]`, matching how the paper
    /// counts FFT bins: "the peak of a transponder can fall in any of
    /// N = 1.2 MHz / 1.95 kHz bins".
    pub fn sample_cfo<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_carrier(rng) - MIN_TAG_CARRIER_HZ
    }

    /// The CFO corresponding to a carrier frequency under the same
    /// bottom-of-band reader convention.
    pub fn cfo_of_carrier(carrier_hz: f64) -> f64 {
        carrier_hz - MIN_TAG_CARRIER_HZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_cfos_cover_the_span() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfos: Vec<f64> = (0..20_000)
            .map(|_| CfoModel::Uniform.sample_cfo(&mut rng))
            .collect();
        assert!(cfos.iter().all(|&f| (0.0..CFO_SPAN_HZ).contains(&f)));
        let mean = caraoke_dsp::mean(&cfos);
        assert!((mean - CFO_SPAN_HZ / 2.0).abs() < 0.02e6, "mean {mean}");
        // Should reach close to both edges.
        assert!(cfos.iter().copied().fold(f64::INFINITY, f64::min) < 0.02e6);
        assert!(cfos.iter().copied().fold(f64::NEG_INFINITY, f64::max) > 1.18e6);
    }

    #[test]
    fn empirical_cfos_match_footnote_statistics() {
        let mut rng = StdRng::seed_from_u64(12);
        let carriers: Vec<f64> = (0..50_000)
            .map(|_| CfoModel::Empirical.sample_carrier(&mut rng))
            .collect();
        let mean = caraoke_dsp::mean(&carriers);
        let sd = caraoke_dsp::std_dev(&carriers);
        assert!(
            (mean - EMPIRICAL_MEAN_CARRIER_HZ).abs() < 5e3,
            "mean {mean}"
        );
        // Clamping trims the tails slightly, so allow a little shrinkage.
        assert!((sd - EMPIRICAL_STD_CARRIER_HZ).abs() < 0.02e6, "sd {sd}");
        assert!(carriers
            .iter()
            .all(|&f| (MIN_TAG_CARRIER_HZ..=MAX_TAG_CARRIER_HZ).contains(&f)));
    }

    #[test]
    fn fixed_model_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = CfoModel::Fixed(914.9e6);
        assert_eq!(m.sample_carrier(&mut rng), 914.9e6);
        assert!((m.sample_cfo(&mut rng) - 0.6e6).abs() < 1e-6);
    }

    #[test]
    fn cfo_of_carrier_is_inverse_of_band_start() {
        assert_eq!(CfoModel::cfo_of_carrier(MIN_TAG_CARRIER_HZ), 0.0);
        assert!((CfoModel::cfo_of_carrier(MAX_TAG_CARRIER_HZ) - CFO_SPAN_HZ).abs() < 1e-9);
    }
}
