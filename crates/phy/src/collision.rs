//! Collision synthesis: the superposition of many transponder responses at
//! each antenna of a reader.
//!
//! Because e-toll transponders have no MAC, every tag in range answers a
//! query simultaneously; the received baseband signal at antenna `a` is
//!
//! `r_a(t) = Σ_i h_{a,i} · e^{jθ_i} · s_i(t) · e^{j2π·Δf_i·t} + n_a(t)`
//!
//! where `h_{a,i}` is the geometric channel, `θ_i` the tag's random initial
//! oscillator phase for this query (common to all antennas of the reader),
//! `s_i(t)` the OOK/Manchester waveform, `Δf_i` the CFO, and `n_a` receiver
//! noise. This is exactly the signal the Caraoke reader algorithms consume.

use crate::antenna::AntennaArray;
use crate::channel::PropagationModel;
use crate::config::SignalConfig;
use crate::noise::add_awgn;
use crate::transponder::Transponder;
use caraoke_dsp::Complex;
use caraoke_geom::Vec3;
use rand::{Rng, RngExt};

/// The sampled collision at every antenna of one reader for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionSignal {
    /// One complex baseband sample vector per antenna.
    pub antennas: Vec<Vec<Complex>>,
    /// Sample rate of the vectors, Hz.
    pub sample_rate: f64,
}

impl CollisionSignal {
    /// Number of antennas.
    pub fn num_antennas(&self) -> usize {
        self.antennas.len()
    }

    /// Number of samples per antenna (0 if there are no antennas).
    pub fn num_samples(&self) -> usize {
        self.antennas.first().map_or(0, |a| a.len())
    }

    /// Samples of one antenna.
    pub fn antenna(&self, idx: usize) -> &[Complex] {
        &self.antennas[idx]
    }
}

/// Synthesizes the collision produced by `tags` at the antennas of `array`
/// for a single reader query.
///
/// Each tag gets a fresh uniformly-random initial phase — this is what makes
/// repeated queries combine incoherently for all tags except the one the
/// decoder compensates for (§8). This is [`CollisionSynth`] run over every
/// antenna: the phases first, then each antenna's tag sum and noise.
pub fn synthesize_collision<R: Rng + ?Sized>(
    tags: &[Transponder],
    array: &AntennaArray,
    propagation: &PropagationModel,
    config: &SignalConfig,
    rng: &mut R,
) -> CollisionSignal {
    let mut synth = CollisionSynth::new(tags, array, propagation, config, rng);
    CollisionSignal {
        antennas: (0..array.len()).map(|_| synth.next_antenna(rng)).collect(),
        sample_rate: config.sample_rate,
    }
}

/// One tag's response, common to every antenna of the reader.
struct TagResponse {
    position: Vec3,
    /// `e^{jθ}` of the tag's initial phase for this query.
    init: Complex,
    /// Per-sample CFO rotation.
    step: Complex,
    waveform: Vec<f64>,
}

/// A collision synthesized one antenna at a time, so a reader can stop
/// after the antennas it needs.
///
/// [`CollisionSynth::new`] draws every tag's phase; each
/// [`CollisionSynth::next_antenna`] then sums the tags at the next antenna
/// in array order and draws that antenna's noise. That is the draw order
/// of [`synthesize_collision`], so antennas `0..a` come out bit for bit as
/// in the full signal, whether or not the rest are ever synthesized,
/// provided nothing else draws from the generator in between.
pub struct CollisionSynth<'a> {
    tags: Vec<TagResponse>,
    array: &'a AntennaArray,
    propagation: &'a PropagationModel,
    config: &'a SignalConfig,
    next: usize,
}

impl<'a> CollisionSynth<'a> {
    /// Draws the phase of each of `tags`, in order.
    pub fn new<R: Rng + ?Sized>(
        tags: &[Transponder],
        array: &'a AntennaArray,
        propagation: &'a PropagationModel,
        config: &'a SignalConfig,
        rng: &mut R,
    ) -> Self {
        let tags = tags
            .iter()
            .map(|tag| {
                let phase = rng.random_range(0.0..2.0 * std::f64::consts::PI);
                TagResponse {
                    position: tag.position,
                    init: Complex::from_angle(phase),
                    step: Complex::from_angle(
                        2.0 * std::f64::consts::PI * tag.cfo() / config.sample_rate,
                    ),
                    waveform: tag.baseband_waveform(config),
                }
            })
            .collect();
        Self {
            tags,
            array,
            propagation,
            config,
            next: 0,
        }
    }

    /// The samples of the next antenna: every tag's response at it, summed
    /// in tag order, plus its receiver noise.
    ///
    /// # Panics
    /// Panics once every antenna has been synthesized.
    pub fn next_antenna<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Complex> {
        let antenna_pos = *self
            .array
            .elements()
            .get(self.next)
            .expect("every antenna of the collision is synthesized");
        self.next += 1;
        let mut out = vec![Complex::ZERO; self.config.response_samples()];
        for tag in &self.tags {
            let h = self.propagation.channel(tag.position, antenna_pos).gain * tag.init;
            // Per-sample CFO rotation computed incrementally.
            let mut rot = Complex::ONE;
            for (sample, &s) in out.iter_mut().zip(tag.waveform.iter()) {
                if s != 0.0 {
                    *sample += h * rot;
                }
                rot *= tag.step;
            }
        }
        add_awgn(&mut out, self.config.noise_std, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::ArrayGeometry;
    use crate::cfo::CfoModel;
    use caraoke_dsp::{detect_peaks, fft, magnitude_spectrum, PeakConfig};
    use caraoke_geom::Vec3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_array() -> AntennaArray {
        AntennaArray::from_geometry(
            Vec3::new(0.0, -4.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        )
    }

    fn make_tags(n: usize, rng: &mut StdRng) -> Vec<Transponder> {
        (0..n)
            .map(|i| {
                Transponder::with_id(
                    i as u64 + 1,
                    Vec3::new(3.0 + 2.0 * i as f64, 1.5, 0.5),
                    CfoModel::Uniform,
                    rng,
                )
            })
            .collect()
    }

    #[test]
    fn collision_has_expected_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let tags = make_tags(3, &mut rng);
        let sig = synthesize_collision(
            &tags,
            &test_array(),
            &PropagationModel::line_of_sight(),
            &SignalConfig::default(),
            &mut rng,
        );
        assert_eq!(sig.num_antennas(), 2);
        assert_eq!(sig.num_samples(), 2048);
        assert!((sig.sample_rate - 4.0e6).abs() < 1e-9);
    }

    #[test]
    fn empty_tag_set_gives_noise_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SignalConfig {
            noise_std: 0.0,
            ..Default::default()
        };
        let sig = synthesize_collision(
            &[],
            &test_array(),
            &PropagationModel::line_of_sight(),
            &cfg,
            &mut rng,
        );
        assert!(sig.antennas.iter().flatten().all(|c| c.abs() == 0.0));
    }

    #[test]
    fn spectrum_shows_one_peak_per_tag() {
        // The core premise of Fig. 4: each colliding tag produces a spectral
        // spike at its CFO.
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SignalConfig::default();
        // Pick well-separated CFOs so the test is deterministic.
        let carriers = [914.35e6, 914.6e6, 914.85e6, 915.1e6, 915.4e6];
        let tags: Vec<Transponder> = carriers
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                Transponder::new(
                    crate::protocol::TransponderPacket::from_id(crate::protocol::TransponderId(
                        i as u64,
                    )),
                    f,
                    Vec3::new(4.0 + i as f64, 1.0, 0.5),
                )
            })
            .collect();
        let sig = synthesize_collision(
            &tags,
            &test_array(),
            &PropagationModel::line_of_sight(),
            &cfg,
            &mut rng,
        );
        let spec = magnitude_spectrum(&fft(sig.antenna(0)));
        let peaks = detect_peaks(
            &spec,
            &PeakConfig {
                threshold_over_noise: 5.0,
                min_separation: 4,
                min_bin: 0,
                max_bin: cfg.cfo_bins() + 10,
                local_window: 48,
            },
        );
        assert_eq!(peaks.len(), tags.len(), "expected one peak per tag");
        // Each peak should be within a couple of bins of a tag CFO.
        for tag in &tags {
            let expected_bin = (tag.cfo() / cfg.bin_resolution()).round() as usize;
            assert!(
                peaks.iter().any(|p| p.bin.abs_diff(expected_bin) <= 2),
                "no peak near bin {expected_bin}"
            );
        }
    }

    #[test]
    fn peak_value_estimates_channel() {
        // Eq. 5: R(Δf) = h/2 (times the window length in DFT scaling).
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SignalConfig {
            noise_std: 0.0,
            ..Default::default()
        };
        // CFO exactly on a bin centre to avoid scalloping.
        let bin = 300;
        let carrier = crate::cfo::MIN_TAG_CARRIER_HZ + bin as f64 * cfg.bin_resolution();
        let pos = Vec3::new(6.0, 2.0, 0.5);
        let tag = Transponder::new(
            crate::protocol::TransponderPacket::from_id(crate::protocol::TransponderId(7)),
            carrier,
            pos,
        );
        let array = test_array();
        let sig = synthesize_collision(
            std::slice::from_ref(&tag),
            &array,
            &PropagationModel::line_of_sight(),
            &cfg,
            &mut rng,
        );
        let spec = fft(sig.antenna(0));
        let n = cfg.response_samples() as f64;
        let h_true = PropagationModel::line_of_sight()
            .channel(pos, array.elements()[0])
            .gain;
        // |R(Δf)| = |h|/2 · N (the random initial phase only rotates it).
        let measured = spec[bin].abs();
        let expected = h_true.abs() / 2.0 * n;
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn inter_antenna_phase_matches_geometry() {
        // The phase difference of the same tag's peak across the two antennas
        // must equal the geometric channel phase difference — the basis of
        // AoA localization from collisions (§6).
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SignalConfig {
            noise_std: 0.0,
            ..Default::default()
        };
        let bin = 450;
        let carrier = crate::cfo::MIN_TAG_CARRIER_HZ + bin as f64 * cfg.bin_resolution();
        let pos = Vec3::new(9.0, 3.0, 0.5);
        let tag = Transponder::new(
            crate::protocol::TransponderPacket::from_id(crate::protocol::TransponderId(8)),
            carrier,
            pos,
        );
        let array = test_array();
        let model = PropagationModel::line_of_sight();
        let sig = synthesize_collision(std::slice::from_ref(&tag), &array, &model, &cfg, &mut rng);
        let s0 = fft(sig.antenna(0));
        let s1 = fft(sig.antenna(1));
        let measured = (s1[bin] / s0[bin]).arg();
        let h0 = model.channel(pos, array.elements()[0]).gain;
        let h1 = model.channel(pos, array.elements()[1]).gain;
        let expected = (h1 / h0).arg();
        assert!(
            caraoke_geom::wrap_phase(measured - expected).abs() < 1e-3,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn collisions_are_reproducible_with_same_seed() {
        let cfg = SignalConfig::default();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let tags = make_tags(4, &mut rng);
            synthesize_collision(
                &tags,
                &test_array(),
                &PropagationModel::line_of_sight(),
                &cfg,
                &mut rng,
            )
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
