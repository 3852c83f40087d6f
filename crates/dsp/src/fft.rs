//! Radix-2 fast Fourier transform and related helpers.
//!
//! The Caraoke reader takes the FFT of a 512 µs collision window (2048 complex
//! samples at 4 MS/s), giving a bin resolution of 1/512 µs ≈ 1.95 kHz — the
//! numbers quoted in §5 of the paper. This module implements an iterative
//! radix-2 decimation-in-time transform (with arbitrary-size fallback via the
//! direct DFT, used only in tests), the inverse transform, and spectrum
//! helpers.
//!
//! # Twiddle tables
//!
//! The butterflies read their twiddle factors from a table built once per
//! `(log2 n, direction)`: `n − 1` entries, the `len/2` factors of stage `len`
//! at `[len/2 − 1, len − 1)`. The table is filled by the recurrence
//! `w ← w·e^{±j2π/len}` — not by an exact `from_angle(k)` per entry — because
//! that is how the transform derived them inline before the table existed,
//! and every spectrum (and everything pinned downstream of one) is promised
//! bit for bit. The recurrence's rounding drift is part of that contract.
//! A table lives as long as the process: `16·(n − 1)` bytes, 32 KB at the
//! reader's 2048 points.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Computes the forward FFT of `input`, returning a new vector.
///
/// The input length must be a power of two; use [`dft`] for arbitrary sizes.
///
/// The transform follows the engineering convention
/// `X[k] = Σ_n x[n]·e^{-j2πkn/N}` with no normalisation on the forward pass.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    fft_in_place(&mut data);
    data
}

/// In-place forward FFT. See [`fft`].
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// Computes the inverse FFT, returning a new vector.
///
/// Normalised by `1/N` so that `ifft(fft(x)) == x`.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    ifft_in_place(&mut data);
    data
}

/// In-place inverse FFT. See [`ifft`].
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for x in data.iter_mut() {
        *x = *x / n;
    }
}

/// The twiddle table of a `2^bits`-point transform (see the module docs).
fn twiddles(bits: u32, inverse: bool) -> &'static [Complex] {
    static TABLES: [[OnceLock<Vec<Complex>>; 2]; usize::BITS as usize] =
        [const { [const { OnceLock::new() }; 2] }; usize::BITS as usize];
    TABLES[bits as usize][usize::from(inverse)].get_or_init(|| {
        let n = 1usize << bits;
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut table = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_angle(ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                table.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        table
    })
}

/// Returns `fft(input)[k]` for each `k` of `bins`, in `bins`' order, bit for
/// bit.
///
/// A bin of the transform depends on one node per block at every stage:
/// the node of stage `len` at offset `k mod len` of its block. So each bin
/// folds the bit-reversed input in half once per stage, `u ± v·w` with the
/// twiddle `transform` uses at that node, which makes every node the same
/// float operations on the same operands as in [`fft`]. That is `n − 1`
/// half-butterflies per bin against `(n/2)·log₂ n` butterflies for the whole
/// spectrum, so a few bins of a long transform cost a fraction of it.
/// Bins may come in any order and repeat; an empty `bins` returns nothing.
///
/// # Panics
/// Panics if the length is not a power of two, or if a bin is `≥ n`.
pub fn fft_bins(input: &[Complex], bins: &[usize]) -> Vec<Complex> {
    let n = input.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if let Some(&k) = bins.iter().find(|&&k| k >= n) {
        panic!("FFT bin {k} out of range for a {n}-point transform");
    }
    let bits = n.trailing_zeros();
    let reversed: Vec<Complex> = match bits {
        0 => input.to_vec(),
        _ => (0..n)
            .map(|i| input[i.reverse_bits() >> (usize::BITS - bits)])
            .collect(),
    };
    let table = twiddles(bits, false);
    let mut level = Vec::with_capacity(n);
    bins.iter()
        .map(|&k| {
            level.clear();
            level.extend_from_slice(&reversed);
            let mut len = 2usize;
            while len <= n {
                let half = len / 2;
                let offset = k % len;
                let w = table[half - 1 + offset % half];
                for b in 0..n / len {
                    let u = level[2 * b];
                    let v = level[2 * b + 1] * w;
                    level[b] = if offset < half { u + v } else { u - v };
                }
                len <<= 1;
            }
            level[0]
        })
        .collect()
}

/// Core iterative radix-2 decimation-in-time transform.
fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let table = twiddles(bits, inverse);
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let stage = &table[half - 1..len - 1];
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        len <<= 1;
    }
}

/// Direct O(N²) discrete Fourier transform for arbitrary lengths.
///
/// Used as a reference implementation in tests and for the odd-length
/// sub-problems of the sparse FFT.
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (idx, &x) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * idx) as f64 / n as f64;
            acc += x * Complex::from_angle(ang);
        }
        *slot = acc;
    }
    out
}

/// Returns the magnitude of each FFT bin.
pub fn magnitude_spectrum(spectrum: &[Complex]) -> Vec<f64> {
    spectrum.iter().map(|c| c.abs()).collect()
}

/// Returns the power (squared magnitude) of each FFT bin.
pub fn power_spectrum(spectrum: &[Complex]) -> Vec<f64> {
    spectrum.iter().map(|c| c.norm_sqr()).collect()
}

/// Frequency resolution of an FFT window of `fft_size` samples at
/// `sample_rate` Hz (the `δf = 1/T` of Eq. 6 in the paper).
pub fn bin_resolution(fft_size: usize, sample_rate: f64) -> f64 {
    sample_rate / fft_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn approx_c(a: Complex, b: Complex, tol: f64) -> bool {
        approx(a.re, b.re, tol) && approx(a.im, b.im, tol)
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let spec = fft(&x);
        for c in spec {
            assert!(approx_c(c, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_concentrates_in_dc() {
        let x = vec![Complex::ONE; 32];
        let spec = fft(&x);
        assert!(approx(spec[0].re, 32.0, 1e-9));
        for c in &spec[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_complex_exponential_has_single_peak() {
        let n = 256;
        let k = 37;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (bin, c) in spec.iter().enumerate() {
            if bin == k {
                assert!(approx(c.abs(), n as f64, 1e-6));
            } else {
                assert!(c.abs() < 1e-6, "unexpected energy in bin {bin}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!(approx_c(*a, *b, 1e-9));
        }
    }

    #[test]
    fn fft_matches_direct_dft() {
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos() * 0.5))
            .collect();
        let a = fft(&x);
        let b = dft(&x);
        for (p, q) in a.iter().zip(b.iter()) {
            assert!(approx_c(*p, *q, 1e-7));
        }
    }

    #[test]
    fn fft_is_linear() {
        let n = 64;
        let x: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i * i % 7) as f64))
            .collect();
        let sum: Vec<Complex> = x.iter().zip(y.iter()).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for i in 0..n {
            assert!(approx_c(fsum[i], fx[i] + fy[i], 1e-7));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!(approx(time_energy, freq_energy, 1e-6));
    }

    #[test]
    fn bin_resolution_matches_paper() {
        // 512 us window at 4 MS/s -> 2048 samples -> 1.953 kHz bins (paper: 1.95 kHz).
        let res = bin_resolution(2048, 4.0e6);
        assert!(approx(res, 1953.125, 1e-9));
    }

    /// The transform as it was before the twiddle table: every factor
    /// derived inline by `w *= wlen`, per block, per call.
    fn reference_transform(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_angle(ang);
            let half = len / 2;
            let mut start = 0;
            while start < n {
                let mut w = Complex::ONE;
                for k in 0..half {
                    let u = data[start + k];
                    let v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                    w *= wlen;
                }
                start += len;
            }
            len <<= 1;
        }
        if inverse {
            for x in data.iter_mut() {
                *x = *x / n as f64;
            }
        }
    }

    fn bits_of(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn tabled_transform_is_bit_identical_to_the_inline_recurrence() {
        // Two threads start together on every size, so each table is built
        // under contention by one of them and read warm by both afterwards
        // (the second pass of the loop).
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = crate::testrng::TestRng(0xfe11 + thread);
                    for log2 in 1..=12u32 {
                        barrier.wait();
                        for _pass in 0..2 {
                            let x: Vec<Complex> = (0..1usize << log2)
                                .map(|_| {
                                    Complex::new(rng.unit() * 2.0 - 1.0, rng.unit() * 2.0 - 1.0)
                                })
                                .collect();
                            for inverse in [false, true] {
                                let mut want = x.clone();
                                reference_transform(&mut want, inverse);
                                let got = if inverse { ifft(&x) } else { fft(&x) };
                                assert_eq!(
                                    bits_of(&got),
                                    bits_of(&want),
                                    "n = 2^{log2}, inverse = {inverse}"
                                );
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn fft_bins_is_fft_bit_for_bit() {
        let mut rng = crate::testrng::TestRng(0xb125);
        for log2 in 0..=11u32 {
            let n = 1usize << log2;
            let x: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.unit() * 2.0 - 1.0, rng.unit() * 2.0 - 1.0))
                .collect();
            let full = fft(&x);
            for (k, want) in full.iter().enumerate() {
                assert_eq!(
                    bits_of(&fft_bins(&x, &[k])),
                    bits_of(&[*want]),
                    "n = {n}, bin {k}"
                );
            }
            // Several bins in one call: unsorted, repeated, and none.
            let bins: Vec<usize> = (0..9)
                .map(|_| rng.below(n))
                .chain([n - 1, 0, n - 1])
                .collect();
            let want: Vec<Complex> = bins.iter().map(|&k| full[k]).collect();
            assert_eq!(
                bits_of(&fft_bins(&x, &bins)),
                bits_of(&want),
                "n = {n}, {bins:?}"
            );
            assert!(fft_bins(&x, &[]).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_bins_rejects_non_power_of_two() {
        fft_bins(&[Complex::ZERO; 12], &[0]);
    }

    #[test]
    #[should_panic(expected = "bin 8 out of range for a 8-point")]
    fn fft_bins_rejects_a_bin_past_the_end() {
        fft_bins(&[Complex::ONE; 8], &[3, 8]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let x = vec![Complex::ZERO; 12];
        fft(&x);
    }

    #[test]
    fn negative_frequencies_map_to_upper_bins() {
        // A tone one bin below DC lands in the top bin of the spectrum.
        let fs = 4.0e6;
        let n = 2048;
        let freq = -bin_resolution(n, fs);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(2.0 * std::f64::consts::PI * freq * i as f64 / fs))
            .collect();
        let spec = fft(&x);
        assert!(approx(spec[n - 1].abs(), n as f64, 1e-6));
        for (bin, c) in spec.iter().enumerate().take(n - 1) {
            assert!(c.abs() < 1e-6, "unexpected energy in bin {bin}");
        }
    }
}
