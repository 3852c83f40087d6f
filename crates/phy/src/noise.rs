//! Seeded Gaussian noise generation.
//!
//! The workspace's only randomness dependency is `rand`; Gaussian samples are
//! produced with the Box–Muller transform so that no distribution crate is
//! needed. All generators take `&mut impl Rng` so experiments can run from a
//! seeded `StdRng` and stay reproducible.

use caraoke_dsp::Complex;
use rand::{Rng, RngExt};

/// Draws one sample from a standard normal distribution using Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would make ln(0) = -inf.
    let u1: f64 = loop {
        let v = rng.random::<f64>();
        if v > f64::MIN_POSITIVE {
            break v;
        }
    };
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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
