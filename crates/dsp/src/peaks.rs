//! Peak detection on magnitude spectra.
//!
//! Each transponder in a collision produces a spectral spike at its CFO
//! (Fig. 4 of the paper). The counting and localization stages both start by
//! finding those spikes. The detector here is a local-maximum search with a
//! noise-floor-relative threshold and a minimum bin separation, which mirrors
//! what the reader firmware does.
//!
//! The local-floor test `m ≥ max(median(window), MIN_POSITIVE)·t` is decided
//! by counting, not by sorting: for an odd window and `t > 0` it holds exactly
//! when more than half the window's `v` satisfy `m ≥ max(v, MIN_POSITIVE)·t`
//! (that map is monotone and an odd window's median is an order statistic).
//! Even windows (the region's edges) and `t ≤ 0` take the median itself.

use crate::stats::median_select;

/// A detected spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// FFT bin index of the peak.
    pub bin: usize,
    /// Magnitude of the peak.
    pub magnitude: f64,
}

/// Configuration of the peak detector.
#[derive(Debug, Clone, Copy)]
pub struct PeakConfig {
    /// A bin is a candidate peak only if its magnitude exceeds
    /// `threshold_over_noise × noise_floor`, where the noise floor is the
    /// median bin magnitude of the searched region (or of the local window,
    /// see `local_window`).
    pub threshold_over_noise: f64,
    /// Minimum separation (in bins) between two reported peaks. When two
    /// candidates are closer, only the stronger is kept.
    pub min_separation: usize,
    /// Restrict the search to bins `[min_bin, max_bin)`. The Caraoke reader
    /// only searches the 1.2 MHz CFO band (≈615 bins at 1.95 kHz/bin).
    pub min_bin: usize,
    /// Exclusive upper bound of the search range. `0` means "to the end".
    pub max_bin: usize,
    /// If non-zero, the noise floor for each candidate is the median of the
    /// `±local_window` bins around it instead of the whole region. A local
    /// floor is robust to a coloured noise floor — e.g. the OOK data
    /// sidebands of a strong nearby transponder, whose level varies across
    /// the CFO band.
    pub local_window: usize,
}

impl Default for PeakConfig {
    fn default() -> Self {
        Self {
            threshold_over_noise: 4.0,
            min_separation: 2,
            min_bin: 0,
            max_bin: 0,
            local_window: 0,
        }
    }
}

impl PeakConfig {
    /// Resolves the effective search range for a spectrum of length `len`.
    fn range(&self, len: usize) -> (usize, usize) {
        let hi = if self.max_bin == 0 || self.max_bin > len {
            len
        } else {
            self.max_bin
        };
        let lo = self.min_bin.min(hi);
        (lo, hi)
    }
}

/// Detects peaks in a magnitude spectrum.
///
/// Returns peaks sorted by bin index. A bin qualifies when it is a local
/// maximum (≥ both neighbours within the search range), exceeds the
/// noise-relative threshold, and is not within `min_separation` bins of a
/// stronger peak.
pub fn detect_peaks(magnitudes: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let (lo, hi) = config.range(magnitudes.len());
    if hi <= lo {
        return Vec::new();
    }
    let region = &magnitudes[lo..hi];
    let threshold = config.threshold_over_noise;
    let mut scratch = Vec::with_capacity(region.len());
    let global_floor = median_select(region, &mut scratch).max(f64::MIN_POSITIVE);

    // Collect local maxima above threshold.
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 0..region.len() {
        let m = region[i];
        // Cheap pre-filter against the global floor before paying for a local
        // one.
        if m < global_floor * threshold.clamp(0.0, 1.0) {
            continue;
        }
        let left = if i == 0 { 0.0 } else { region[i - 1] };
        let right = if i + 1 == region.len() {
            0.0
        } else {
            region[i + 1]
        };
        if m < left || m < right {
            continue;
        }
        let above_floor = if config.local_window == 0 {
            m >= global_floor * threshold
        } else {
            let w = config.local_window;
            let window = &region[i.saturating_sub(w)..(i + w + 1).min(region.len())];
            if window.len() % 2 == 1 && threshold > 0.0 {
                let cleared = window
                    .iter()
                    .filter(|v| m >= v.max(f64::MIN_POSITIVE) * threshold)
                    .count();
                cleared > window.len() / 2
            } else {
                m >= median_select(window, &mut scratch).max(f64::MIN_POSITIVE) * threshold
            }
        };
        if above_floor {
            candidates.push(Peak {
                bin: lo + i,
                magnitude: m,
            });
        }
    }

    // Enforce minimum separation, keeping the strongest of any cluster.
    candidates.sort_by(|a, b| b.magnitude.partial_cmp(&a.magnitude).unwrap());
    let mut accepted: Vec<Peak> = Vec::new();
    for cand in candidates {
        let too_close = accepted.iter().any(|p| {
            let d = p.bin.abs_diff(cand.bin);
            d < config.min_separation.max(1)
        });
        if !too_close {
            accepted.push(cand);
        }
    }
    accepted.sort_by_key(|p| p.bin);
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    fn flat_with_peaks(len: usize, peaks: &[(usize, f64)]) -> Vec<f64> {
        let mut v = vec![1.0; len];
        for &(bin, mag) in peaks {
            v[bin] = mag;
        }
        v
    }

    #[test]
    fn detects_isolated_peaks() {
        let spec = flat_with_peaks(128, &[(10, 20.0), (50, 15.0), (100, 30.0)]);
        let peaks = detect_peaks(&spec, &PeakConfig::default());
        let bins: Vec<usize> = peaks.iter().map(|p| p.bin).collect();
        assert_eq!(bins, vec![10, 50, 100]);
    }

    #[test]
    fn ignores_peaks_below_threshold() {
        let spec = flat_with_peaks(128, &[(10, 2.0), (50, 20.0)]);
        let peaks = detect_peaks(&spec, &PeakConfig::default());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 50);
    }

    #[test]
    fn respects_min_separation() {
        let spec = flat_with_peaks(128, &[(40, 20.0), (41, 25.0), (42, 18.0)]);
        let cfg = PeakConfig {
            min_separation: 3,
            ..Default::default()
        };
        let peaks = detect_peaks(&spec, &cfg);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 41);
    }

    #[test]
    fn respects_search_range() {
        let spec = flat_with_peaks(128, &[(10, 50.0), (100, 50.0)]);
        let cfg = PeakConfig {
            min_bin: 20,
            max_bin: 90,
            ..Default::default()
        };
        let peaks = detect_peaks(&spec, &cfg);
        assert!(peaks.is_empty());
    }

    #[test]
    fn empty_spectrum_gives_no_peaks() {
        assert!(detect_peaks(&[], &PeakConfig::default()).is_empty());
    }

    #[test]
    fn all_equal_spectrum_gives_no_peaks() {
        // Median == every value, so nothing exceeds threshold_over_noise > 1.
        let spec = vec![5.0; 64];
        assert!(detect_peaks(&spec, &PeakConfig::default()).is_empty());
    }

    #[test]
    fn peak_at_edges_detected() {
        let spec = flat_with_peaks(64, &[(0, 30.0), (63, 25.0)]);
        let peaks = detect_peaks(&spec, &PeakConfig::default());
        let bins: Vec<usize> = peaks.iter().map(|p| p.bin).collect();
        assert_eq!(bins, vec![0, 63]);
    }

    #[test]
    fn noise_floor_is_median() {
        // One huge outlier drags the mean of this spectrum to ~2 but leaves
        // its median at 1: a bin just over `threshold × 1` is a peak only
        // if the global floor is the median.
        let config = PeakConfig {
            local_window: 0,
            ..PeakConfig::default()
        };
        let just_over = config.threshold_over_noise * 1.01;
        let spec = flat_with_peaks(101, &[(3, 100.0), (50, just_over)]);
        let bins: Vec<usize> = detect_peaks(&spec, &config).iter().map(|p| p.bin).collect();
        assert_eq!(bins, vec![3, 50]);
        let just_under = config.threshold_over_noise * 0.99;
        let spec = flat_with_peaks(101, &[(3, 100.0), (50, just_under)]);
        let bins: Vec<usize> = detect_peaks(&spec, &config).iter().map(|p| p.bin).collect();
        assert_eq!(bins, vec![3]);
    }

    #[test]
    fn local_window_finds_peaks_over_a_coloured_floor() {
        // A noise floor that ramps from 1 to 10 across the band hides a small
        // peak from a global-median detector but not from a local one.
        let mut spec: Vec<f64> = (0..512)
            .map(|i| 1.0 + 9.0 * i as f64 / 511.0 + 0.1 * ((i * 37) % 11) as f64 / 11.0)
            .collect();
        spec[40] = 9.0; // 6x the local floor (~1.7) but only ~1.6x the global median (~5.5)
        spec[470] = 60.0;
        let global = PeakConfig {
            threshold_over_noise: 5.0,
            ..Default::default()
        };
        let local = PeakConfig {
            threshold_over_noise: 5.0,
            local_window: 30,
            ..Default::default()
        };
        let bins_global: Vec<usize> = detect_peaks(&spec, &global).iter().map(|p| p.bin).collect();
        let bins_local: Vec<usize> = detect_peaks(&spec, &local).iter().map(|p| p.bin).collect();
        assert!(!bins_global.contains(&40));
        assert!(bins_local.contains(&40));
        assert!(bins_local.contains(&470));
        // The local detector must not invent peaks in the smooth ramp.
        assert_eq!(bins_local.len(), 2, "got {bins_local:?}");
    }

    /// `detect_peaks` as it was when every local floor was a sorted copy of
    /// the window: the reference the counting test is held to.
    fn detect_peaks_by_sorting(magnitudes: &[f64], config: &PeakConfig) -> Vec<Peak> {
        let (lo, hi) = config.range(magnitudes.len());
        if hi <= lo {
            return Vec::new();
        }
        let region = &magnitudes[lo..hi];
        let global_floor = median(region).max(f64::MIN_POSITIVE);

        let mut candidates: Vec<Peak> = Vec::new();
        for i in 0..region.len() {
            let m = region[i];
            if m < global_floor * config.threshold_over_noise.clamp(0.0, 1.0) {
                continue;
            }
            let left = if i == 0 { 0.0 } else { region[i - 1] };
            let right = if i + 1 == region.len() {
                0.0
            } else {
                region[i + 1]
            };
            if m < left || m < right {
                continue;
            }
            let floor = if config.local_window == 0 {
                global_floor
            } else {
                let w = config.local_window;
                let a = i.saturating_sub(w);
                let b = (i + w + 1).min(region.len());
                median(&region[a..b]).max(f64::MIN_POSITIVE)
            };
            if m >= floor * config.threshold_over_noise {
                candidates.push(Peak {
                    bin: lo + i,
                    magnitude: m,
                });
            }
        }

        candidates.sort_by(|a, b| b.magnitude.partial_cmp(&a.magnitude).unwrap());
        let mut accepted: Vec<Peak> = Vec::new();
        for cand in candidates {
            let too_close = accepted.iter().any(|p| {
                let d = p.bin.abs_diff(cand.bin);
                d < config.min_separation.max(1)
            });
            if !too_close {
                accepted.push(cand);
            }
        }
        accepted.sort_by_key(|p| p.bin);
        accepted
    }

    #[test]
    fn counting_detector_equals_the_sorting_detector() {
        let mut rng = crate::testrng::TestRng(0x9ea4);
        let mut compared = 0;
        let mut peaks_seen = 0;
        for round in 0..90 {
            // Odd and even region lengths, some shorter than a window.
            let len = [40, 97, 128, 333, 500][round % 5] + rng.below(2);
            let min_bin = [0, 0, 5][round % 3];
            let max_bin = if round % 4 == 0 {
                0
            } else {
                len - rng.below(8)
            };
            // A coloured floor, quantised on every other round so that whole
            // runs of bins tie exactly; stretches of exact zeros; spikes
            // everywhere, the first and last bins of the region included.
            let coarse = round % 2 == 0;
            let mut spec: Vec<f64> = (0..len)
                .map(|i| {
                    let v = (1.0 + i as f64 / len as f64) * (0.5 + rng.unit());
                    if coarse {
                        (v * 4.0).round() / 4.0
                    } else {
                        v
                    }
                })
                .collect();
            for _ in 0..rng.below(4) {
                let start = rng.below(len);
                let run = 1 + rng.below(60);
                spec[start..(start + run).min(len)].fill(0.0);
            }
            for _ in 0..rng.below(12) {
                spec[rng.below(len)] = [3.0, 6.0, 6.5, 12.0, 40.0][rng.below(5)];
            }
            let hi = if max_bin == 0 { len } else { max_bin };
            spec[min_bin] = 30.0;
            spec[hi - 1] = 30.0;
            spec[min_bin + 1 + rng.below(20)] = 25.0;
            spec[hi - 2 - rng.below(20)] = 25.0;

            for local_window in [0, 1, 8, 48, 1000] {
                for threshold_over_noise in [0.0, 0.5, 1.0, 4.0, 6.0] {
                    let cfg = PeakConfig {
                        threshold_over_noise,
                        min_separation: 1 + round % 3,
                        min_bin,
                        max_bin,
                        local_window,
                    };
                    let got = detect_peaks(&spec, &cfg);
                    let want = detect_peaks_by_sorting(&spec, &cfg);
                    assert_eq!(got.len(), want.len(), "{cfg:?} on {spec:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (g.bin, g.magnitude.to_bits()),
                            (w.bin, w.magnitude.to_bits()),
                            "{cfg:?} on {spec:?}"
                        );
                    }
                    compared += 1;
                    peaks_seen += got.len();
                }
            }
        }
        assert!(compared >= 2000);
        assert!(peaks_seen > compared, "the sweep must not be vacuous");
    }

    #[test]
    fn five_transponder_like_spectrum() {
        // Mimics Fig. 4: five strong spikes over a noisy floor.
        let mut spec = vec![0.0; 1024];
        for (i, v) in spec.iter_mut().enumerate() {
            *v = 0.8 + 0.2 * ((i * 7919) % 97) as f64 / 97.0;
        }
        let bins = [51, 160, 333, 480, 601];
        for &b in &bins {
            spec[b] = 25.0;
        }
        let peaks = detect_peaks(&spec, &PeakConfig::default());
        assert_eq!(peaks.len(), 5);
        for (p, b) in peaks.iter().zip(bins.iter()) {
            assert_eq!(p.bin, *b);
        }
    }
}
