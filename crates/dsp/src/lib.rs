//! # caraoke-dsp
//!
//! Signal-processing substrate for the Caraoke reproduction.
//!
//! The Caraoke reader (SIGCOMM 2015) operates on baseband collision signals in
//! the frequency domain: it takes an FFT of the received collision, finds the
//! spectral peaks created by each transponder's carrier-frequency offset (CFO),
//! and uses the complex peak values as channel estimates. This crate provides
//! everything that layer needs, implemented from scratch with no external DSP
//! dependencies:
//!
//! * [`Complex`] — complex arithmetic on `f64`.
//! * [`fft` (module)](mod@crate::fft) — iterative radix-2 decimation-in-time FFT / inverse FFT
//!   and spectrum helpers.
//! * [`goertzel`] — single-bin DFT evaluation, used by the sparse-FFT
//!   estimation stage and by targeted channel probing.
//! * [`sfft`] — a software sparse FFT (subsample/alias + voting + Goertzel
//!   estimation) standing in for the sFFT hardware of §10.
//! * [`window`] — window functions.
//! * [`peaks`] — noise-threshold peak detection on magnitude spectra.
//! * [`stats`] — summary statistics and percentiles used throughout the
//!   evaluation harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod goertzel;
pub mod peaks;
pub mod sfft;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use fft::{fft, fft_bins, fft_in_place, ifft, magnitude_spectrum, power_spectrum};
pub use goertzel::{goertzel_bin, goertzel_bins};
pub use peaks::{detect_peaks, Peak, PeakConfig};
pub use sfft::{SparseFft, SparseFftConfig, SparsePeak};
pub use stats::{mean, percentile, std_dev, variance, Summary};

/// Seeded inputs for this crate's bit-equality tests (the crate has no
/// dependencies, `rand` included).
#[cfg(test)]
pub(crate) mod testrng {
    /// SplitMix64.
    pub(crate) struct TestRng(pub u64);

    impl TestRng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub(crate) fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }
}
