//! Reader configuration.

use caraoke_dsp::PeakConfig;
use caraoke_phy::SignalConfig;

/// Configuration of the Caraoke reader's signal-processing pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ReaderConfig {
    /// Sampling configuration (must match the front end producing the
    /// collision samples).
    pub signal: SignalConfig,
    /// Peak-detection threshold over the spectral noise floor.
    pub peak_threshold_over_noise: f64,
    /// Minimum separation (bins) between detected peaks.
    pub peak_min_separation: usize,
    /// Half-width (bins) of the local window used to estimate the noise floor
    /// around each candidate peak (0 = use the global median). A local floor
    /// copes with the coloured OOK-sideband floor of strong nearby tags.
    pub peak_local_window: usize,
    /// Time shift (in samples) applied for the multi-occupancy bin test of
    /// §5. Half the response window by default, which rotates two tags that
    /// share a bin by up to ~π relative to each other.
    pub occupancy_shift_samples: usize,
    /// Relative magnitude change above which a bin is declared to hold two or
    /// more transponders.
    pub occupancy_rel_threshold: f64,
    /// Maximum number of queries the decoder may combine before giving up;
    /// at least 2, since a packet is accepted only when two accumulations
    /// in a row slice to it (§8).
    pub max_decode_queries: usize,
    /// Antenna spacing (metres) used for AoA; λ/2 by default.
    pub antenna_spacing: f64,
    /// Carrier wavelength (metres).
    pub wavelength: f64,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        let signal = SignalConfig::default();
        Self {
            signal,
            peak_threshold_over_noise: 6.0,
            peak_min_separation: 3,
            peak_local_window: 48,
            occupancy_shift_samples: signal.response_samples() / 2,
            occupancy_rel_threshold: 0.25,
            max_decode_queries: 64,
            antenna_spacing: caraoke_geom::CARRIER_WAVELENGTH_M / 2.0,
            wavelength: caraoke_geom::CARRIER_WAVELENGTH_M,
        }
    }
}

impl ReaderConfig {
    /// Peak-detector configuration restricted to the CFO band.
    pub fn peak_config(&self) -> PeakConfig {
        PeakConfig {
            threshold_over_noise: self.peak_threshold_over_noise,
            min_separation: self.peak_min_separation,
            min_bin: 0,
            max_bin: self.signal.cfo_bins() + 2,
            local_window: self.peak_local_window,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), crate::CaraokeError> {
        self.signal
            .validate()
            .map_err(crate::CaraokeError::InvalidConfig)?;
        if self.occupancy_shift_samples == 0
            || self.occupancy_shift_samples >= self.signal.response_samples()
        {
            return Err(crate::CaraokeError::InvalidConfig(
                "occupancy shift must be within the response window".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.occupancy_rel_threshold) {
            return Err(crate::CaraokeError::InvalidConfig(
                "occupancy threshold must be in (0, 1)".into(),
            ));
        }
        if self.max_decode_queries < 2 {
            return Err(crate::CaraokeError::InvalidConfig(
                "decoder needs at least two queries to confirm a packet".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ReaderConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.occupancy_shift_samples, 1024);
        let pc = cfg.peak_config();
        assert!(pc.max_bin >= 614);
    }

    #[test]
    fn invalid_shift_is_rejected() {
        let cfg = ReaderConfig {
            occupancy_shift_samples: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ReaderConfig {
            occupancy_shift_samples: 5000,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let cfg = ReaderConfig {
            occupancy_rel_threshold: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_query_budget_is_rejected() {
        let cfg = ReaderConfig {
            max_decode_queries: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn one_query_budget_is_rejected() {
        // §8 accepts a packet only once a second accumulation confirms it.
        let cfg = ReaderConfig {
            max_decode_queries: 1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ReaderConfig {
            max_decode_queries: 2,
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }
}
