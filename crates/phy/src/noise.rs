//! Seeded Gaussian noise generation.
//!
//! The workspace's only randomness dependency is `rand`; every Gaussian
//! draw goes through [`standard_normal`], a 256-layer ziggurat (Marsaglia &
//! Tsang, *J. Stat. Softw.* 5(8), 2000). All generators take
//! `&mut impl Rng` so experiments can run from a seeded `StdRng` and stay
//! reproducible.
//!
//! # The ziggurat
//!
//! The density `e^{−x²/2}` on `x ≥ 0` is covered by 256 horizontal layers
//! of equal area: 255 rectangles stacked from the top, and a bottom layer
//! that is a rectangle out to `x = R ≈ 3.6542` plus the tail beyond it.
//! Layer `i` spans `|x| < x[i]`; the part `|x| < x[i + 1]`, under the layer
//! above it, lies wholly under the curve. A draw picks a layer and a
//! uniform `u` in `[−1, 1)` and returns `u · x[i]` when `|u| < x[i + 1] /
//! x[i]`, about 99 % of draws: one `next_u64`, one table read, one
//! compare, one multiply. Otherwise it tests the wedge between the two
//! heights against the density with a second uniform (layers 1…255), or,
//! in the bottom layer past `R`, draws the tail by Marsaglia's exponential
//! method (`x = −ln u₁ / R`, `y = −ln u₂`, accept when `2y > x²`, return
//! `R + x`). Rejected draws start over, so every output is exactly normal.
//!
//! The layer index is the low byte of the 64-bit word and the uniform its
//! top 53 bits: disjoint bits, so the layer a draw lands in says nothing
//! about where in the layer it falls (Doornik, 2005, on the correlation
//! that sharing bits introduces). The edges `x[0..=256]` and their ratios
//! are built once per process on first use, as `caraoke_dsp::fft` builds
//! its twiddle tables.
//!
//! # One routine
//!
//! [`normal`], [`complex_gaussian`], [`add_awgn`] and the large-mean branch
//! of [`poisson`] all call [`standard_normal`], so the receiver noise of
//! every collision, every empirical CFO and every traffic count come from
//! one sampler that `tests/phy_distributions.rs` judges against the exact
//! normal law. Changing it changes every PHY bit (the bit-for-bit pins in
//! `tests/golden_reader.rs` move with it) but no PHY distribution.

use caraoke_dsp::Complex;
use rand::{Rng, RngExt};
use std::sync::OnceLock;

/// Layers of the ziggurat.
const LAYERS: usize = 256;

/// Where the bottom layer's rectangle ends and its tail begins.
const TAIL_START: f64 = 3.654_152_885_361_009;

/// The area of every layer under `e^{−x²/2}`, `x ≥ 0`: each rectangle's,
/// and the bottom rectangle's plus its tail's.
const LAYER_AREA: f64 = 4.928_673_233_99e-3;

/// The ziggurat's layer edges.
struct Layers {
    /// `x[i]`: the half-width of layer `i`, falling from `x[0]` (the bottom
    /// layer's area over its height, wider than `R` by its tail) through
    /// `x[1] = R` to `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `x[i + 1] / x[i]`: the share of layer `i` that lies under the curve
    /// whatever its height.
    inner: [f64; LAYERS],
}

/// The layer tables, built on first use.
fn layers() -> &'static Layers {
    static LAYERS_TABLE: OnceLock<Layers> = OnceLock::new();
    LAYERS_TABLE.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = LAYER_AREA / density(TAIL_START);
        x[1] = TAIL_START;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (LAYER_AREA / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        let inner = std::array::from_fn(|i| x[i + 1] / x[i]);
        Layers { x, inner }
    })
}

/// Draws one sample from a standard normal distribution (the ziggurat
/// described in the module docs).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let layers = layers();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
        if u.abs() < layers.inner[i] {
            return u * layers.x[i];
        }
        if i == 0 {
            return tail(rng, u < 0.0);
        }
        let x = u * layers.x[i];
        let (outer, inner) = (layers.x[i], layers.x[i + 1]);
        // The layer's two heights over the density at x.
        let low = (-0.5 * (outer * outer - x * x)).exp();
        let high = (-0.5 * (inner * inner - x * x)).exp();
        if high + rng.random::<f64>() * (low - high) < 1.0 {
            return x;
        }
    }
}

/// A draw from the normal tail beyond [`TAIL_START`], on the side `negative`
/// names (Marsaglia's exponential method).
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // `1 − U` is uniform on (0, 1], so neither logarithm is infinite.
        let x = -(1.0 - rng.random::<f64>()).ln() / TAIL_START;
        let y = -(1.0 - rng.random::<f64>()).ln();
        if 2.0 * y > x * x {
            let z = TAIL_START + x;
            return if negative { -z } else { z };
        }
    }
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Draws a circularly-symmetric complex Gaussian sample with the given
/// per-component standard deviation.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, std_dev: f64) -> Complex {
    Complex::new(
        standard_normal(rng) * std_dev,
        standard_normal(rng) * std_dev,
    )
}

/// Adds white complex Gaussian noise of per-component standard deviation
/// `std_dev` to a signal, in place.
pub fn add_awgn<R: Rng + ?Sized>(signal: &mut [Complex], std_dev: f64, rng: &mut R) {
    if std_dev <= 0.0 {
        return;
    }
    for s in signal.iter_mut() {
        *s += complex_gaussian(rng, std_dev);
    }
}

/// Draws a Poisson-distributed count with the given mean (Knuth's algorithm
/// for small means, normal approximation for large means). Used by the
/// traffic generator.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        // Normal approximation with continuity correction.
        let x = normal(rng, mean, mean.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k: u64 = 0;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = caraoke_dsp::mean(&samples);
        let sd = caraoke_dsp::std_dev(&samples);
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.03, "sd {sd}");
    }

    #[test]
    fn normal_respects_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        assert!((caraoke_dsp::mean(&samples) - 5.0).abs() < 0.1);
        assert!((caraoke_dsp::std_dev(&samples) - 2.0).abs() < 0.1);
    }

    #[test]
    fn complex_gaussian_is_circularly_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<Complex> = (0..20_000)
            .map(|_| complex_gaussian(&mut rng, 0.5))
            .collect();
        let re: Vec<f64> = samples.iter().map(|c| c.re).collect();
        let im: Vec<f64> = samples.iter().map(|c| c.im).collect();
        assert!((caraoke_dsp::std_dev(&re) - 0.5).abs() < 0.02);
        assert!((caraoke_dsp::std_dev(&im) - 0.5).abs() < 0.02);
        assert!(caraoke_dsp::mean(&re).abs() < 0.02);
    }

    #[test]
    fn add_awgn_with_zero_std_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sig = vec![Complex::new(1.0, -1.0); 64];
        let orig = sig.clone();
        add_awgn(&mut sig, 0.0, &mut rng);
        assert_eq!(sig, orig);
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = StdRng::seed_from_u64(6);
        for &mean in &[0.5, 3.0, 12.0, 80.0] {
            let n = 5000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let emp = total as f64 / n as f64;
            assert!(
                (emp - mean).abs() < mean.max(1.0) * 0.1,
                "mean {mean}: got {emp}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn the_layers_have_equal_area_and_close_at_the_mode() {
        let layers = layers();
        let density = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(layers.x[1], TAIL_START);
        assert_eq!(layers.x[LAYERS], 0.0);
        assert!(layers.x.windows(2).all(|w| w[0] > w[1]), "edges fall");
        for i in 1..LAYERS {
            let area = layers.x[i] * (density(layers.x[i + 1]) - density(layers.x[i]));
            assert!(
                (area - LAYER_AREA).abs() < 1e-9,
                "layer {i}: area {area}, want {LAYER_AREA}"
            );
        }
        // The top layer closes at the mode: the constants fit together.
        assert!(
            (layers.x[LAYERS - 1] * (1.0 - density(layers.x[LAYERS - 1])) - LAYER_AREA).abs()
                < 1e-9
        );
    }

    /// Replays fixed 64-bit words.
    struct Script(Vec<u64>);

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn the_index_and_the_uniform_come_from_disjoint_bits() {
        // Layer 0x80, u = 0: the low byte picks the layer, the top bits
        // alone give the value.
        let mut rng = Script(vec![(1u64 << 63) | 0x80]);
        assert_eq!(standard_normal(&mut rng), 0.0);
        // Layer 5, u just below 1: outside the layer's inner part, so the
        // wedge test reads one more word (a uniform just below 1, under the
        // density there).
        let mut rng = Script(vec![u64::MAX << 8 | 5, u64::MAX]);
        let z = standard_normal(&mut rng);
        assert!(z > layers().x[6] && z < layers().x[5], "{z}");
        assert!(rng.0.is_empty());
    }

    #[test]
    fn the_bottom_layer_past_its_rectangle_draws_the_tail() {
        // Layer 0 with |u| ≈ 1 lies beyond R: the tail's two uniforms of
        // 0.5 give x = ln 2 / R and y = ln 2, accepted since 2y > x².
        for (word, sign) in [(u64::MAX << 8, 1.0), (0, -1.0)] {
            let half = 1u64 << 63;
            let mut rng = Script(vec![word, half, half]);
            let z = standard_normal(&mut rng);
            let want = sign * (TAIL_START + 2.0_f64.ln() / TAIL_START);
            assert!((z - want).abs() < 1e-12, "{z}, want {want}");
        }
    }

    #[test]
    fn seeded_generators_are_reproducible() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
