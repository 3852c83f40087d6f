//! Wireless channel model.
//!
//! The reader sits on a 12.5-ft pole outdoors, so the channel to a
//! transponder is dominated by the line-of-sight (LOS) path (§6 footnote 8,
//! §12.2/Fig. 14). The model here is:
//!
//! * **LOS path**: amplitude `A_ref / d` (free-space 1/d field decay relative
//!   to a 1 m reference) and phase `−2π·d/λ`, where `d` is the 3-D distance.
//! * **Optional multipath rays**: each ray reflects off a scatterer; its path
//!   length is `|tx→scatterer| + |scatterer→rx|` and its amplitude is scaled
//!   by a reflection loss. The paper measures the strongest multipath
//!   component to be ~27× weaker than the LOS peak; the default scenario
//!   generator uses losses of that order.
//! * **Per-query random phase**: transponders start transmitting with a
//!   random oscillator phase, which is why the decoder's coherent combining
//!   works (§8). That phase is applied by the collision synthesizer, not
//!   here, because it is common to all antennas of a reader.

use caraoke_dsp::Complex;
use caraoke_geom::units::CARRIER_WAVELENGTH_M;
use caraoke_geom::Vec3;

/// A complex channel coefficient between a transponder and one antenna.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// The complex gain `h`.
    pub gain: Complex,
}

impl Channel {
    /// Creates a channel from a complex gain.
    pub fn new(gain: Complex) -> Self {
        Self { gain }
    }

    /// Magnitude of the channel gain.
    pub fn magnitude(&self) -> f64 {
        self.gain.abs()
    }

    /// Phase of the channel gain in radians.
    pub fn phase(&self) -> f64 {
        self.gain.arg()
    }
}

/// A single-bounce multipath ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultipathRay {
    /// Location of the reflecting scatterer (building façade, parked car, ...).
    pub scatterer: Vec3,
    /// Linear amplitude loss applied on reflection (0..1). A value of 0.2
    /// makes the reflected path ~14 dB weaker than an equal-length LOS path.
    pub reflection_loss: f64,
}

/// Free-space propagation with optional single-bounce multipath.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationModel {
    /// Field amplitude at the 1 m reference distance.
    pub reference_amplitude: f64,
    /// Carrier wavelength in metres.
    pub wavelength: f64,
    /// Additional single-bounce rays (empty = pure LOS).
    pub rays: Vec<MultipathRay>,
}

impl Default for PropagationModel {
    fn default() -> Self {
        Self {
            reference_amplitude: 1.0,
            wavelength: CARRIER_WAVELENGTH_M,
            rays: Vec::new(),
        }
    }
}

impl PropagationModel {
    /// Pure line-of-sight propagation.
    pub fn line_of_sight() -> Self {
        Self::default()
    }

    /// Line-of-sight plus the provided multipath rays.
    pub fn with_rays(rays: Vec<MultipathRay>) -> Self {
        Self {
            rays,
            ..Self::default()
        }
    }

    /// Complex gain contributed by a single path of total length `d` metres
    /// with an extra amplitude factor.
    fn path_gain(&self, d: f64, extra_loss: f64) -> Complex {
        let d = d.max(0.1);
        let amp = self.reference_amplitude / d * extra_loss;
        let phase = -2.0 * std::f64::consts::PI * d / self.wavelength;
        Complex::from_polar(amp, phase)
    }

    /// Total channel between a transponder at `tx` and an antenna at `rx`:
    /// LOS plus all configured rays.
    pub fn channel(&self, tx: Vec3, rx: Vec3) -> Channel {
        let mut h = self.path_gain(tx.distance(rx), 1.0);
        for ray in &self.rays {
            let d = tx.distance(ray.scatterer) + ray.scatterer.distance(rx);
            h += self.path_gain(d, ray.reflection_loss);
        }
        Channel::new(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_decays_as_one_over_distance() {
        let model = PropagationModel::line_of_sight();
        let tx = Vec3::new(0.0, 0.0, 0.0);
        let near = model.channel(tx, Vec3::new(5.0, 0.0, 0.0));
        let far = model.channel(tx, Vec3::new(10.0, 0.0, 0.0));
        assert!((near.magnitude() / far.magnitude() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phase_advances_with_distance() {
        let model = PropagationModel::line_of_sight();
        let tx = Vec3::ZERO;
        let d1 = 7.0;
        let d2 = d1 + model.wavelength / 4.0;
        let h1 = model.channel(tx, Vec3::new(d1, 0.0, 0.0));
        let h2 = model.channel(tx, Vec3::new(d2, 0.0, 0.0));
        let dphi = caraoke_geom::wrap_phase(h2.phase() - h1.phase());
        assert!(
            (dphi + std::f64::consts::FRAC_PI_2).abs() < 1e-6,
            "got {dphi}"
        );
    }

    #[test]
    fn full_wavelength_extra_distance_gives_same_phase() {
        let model = PropagationModel::line_of_sight();
        let tx = Vec3::ZERO;
        let h1 = model.channel(tx, Vec3::new(4.0, 0.0, 0.0));
        let h2 = model.channel(tx, Vec3::new(4.0 + model.wavelength, 0.0, 0.0));
        let dphi = caraoke_geom::wrap_phase(h2.phase() - h1.phase());
        assert!(dphi.abs() < 1e-6);
    }

    #[test]
    fn multipath_ray_adds_weaker_component() {
        let tx = Vec3::new(0.0, 0.0, 0.5);
        let rx = Vec3::new(10.0, 0.0, 4.0);
        let scatterer = Vec3::new(5.0, 8.0, 1.0);
        let los_only = PropagationModel::line_of_sight();
        let with_mp = PropagationModel::with_rays(vec![MultipathRay {
            scatterer,
            reflection_loss: 0.2,
        }]);
        let h_los = los_only.channel(tx, rx);
        let h_mp = with_mp.channel(tx, rx);
        // The composite differs from LOS but not by more than the ray's
        // amplitude.
        let diff = (h_mp.gain - h_los.gain).abs();
        assert!(diff > 0.0);
        let ray_len = tx.distance(scatterer) + scatterer.distance(rx);
        let ray_amp = 1.0 / ray_len * 0.2;
        assert!((diff - ray_amp).abs() < 1e-9);
    }

    #[test]
    fn los_dominates_multipath_in_street_geometry() {
        // Reader on a pole, car 10 m away, reflector on a building 12 m off
        // the road: LOS power should be well over 10x the reflected power,
        // consistent with the ~27x of Fig. 14.
        let tx = Vec3::new(8.0, 2.0, 0.5);
        let rx = Vec3::new(0.0, -4.0, 3.8);
        let ray = MultipathRay {
            scatterer: Vec3::new(4.0, 14.0, 2.0),
            reflection_loss: 0.35,
        };
        let los = PropagationModel::line_of_sight().channel(tx, rx);
        let ray_len = tx.distance(ray.scatterer) + ray.scatterer.distance(rx);
        let ray_power = (1.0 / ray_len * ray.reflection_loss).powi(2);
        assert!(los.magnitude().powi(2) / ray_power > 10.0);
    }

    #[test]
    fn minimum_distance_is_clamped() {
        let model = PropagationModel::line_of_sight();
        let h = model.channel(Vec3::ZERO, Vec3::ZERO);
        assert!(h.magnitude().is_finite());
    }
}
