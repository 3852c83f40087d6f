//! Decoding transponder ids in the presence of collisions (§8).
//!
//! A band-pass filter around a tag's CFO spike cannot isolate its bits —
//! OOK data occupies a wide band. Instead, Caraoke combines *multiple*
//! collisions: for each query it estimates the target tag's channel (the
//! complex value of its CFO spike) and CFO, removes both, and accumulates the
//! result. The target's signal adds coherently (it is the thing being
//! compensated); every other tag keeps a random phase per query (tags restart
//! their oscillators for every response) and averages out. The reader keeps
//! issuing queries until two accumulations in a row slice to the same
//! packet and that packet passes the checksum: a CRC-16 alone passes one
//! noisy slice in 2¹⁶, and a reader that tries after every query of every
//! peak it cannot decode sees enough slices to accept a wrong id.
//!
//! The algorithm needs one antenna: it reads antenna 0 of every collision.

use crate::config::ReaderConfig;
use crate::error::CaraokeError;
use crate::spectrum::{analyze_antennas, CollisionSpectrum};
use caraoke_dsp::goertzel::{dtft_at_frequencies, dtft_at_frequency};
use caraoke_dsp::Complex;
use caraoke_phy::modulation::slice_bits;
use caraoke_phy::protocol::TransponderPacket;
use caraoke_phy::timing::QUERY_PERIOD_S;
use caraoke_phy::CollisionSignal;

/// A successfully decoded transponder.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// The decoded, CRC-verified packet.
    pub packet: TransponderPacket,
    /// Number of collisions (queries) combined to decode it.
    pub queries_used: usize,
    /// Identification time in milliseconds, assuming queries are issued every
    /// millisecond (§12.4).
    pub identification_time_ms: f64,
    /// The refined CFO estimate used for compensation, Hz.
    pub cfo_hz: f64,
}

/// Result of attempting to decode every tag visible in a collision set.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReport {
    /// CFO (Hz) of the peak this entry refers to.
    pub cfo_hz: f64,
    /// The outcome: a decoded packet or the error that stopped decoding.
    pub outcome: Result<DecodeOutcome, CaraokeError>,
}

/// Refines a CFO estimate by maximising the DTFT magnitude around the peak
/// bin (ternary search over ±1 bin).
fn refine_cfo(samples: &[Complex], coarse_cfo: f64, bin_resolution: f64, sample_rate: f64) -> f64 {
    let mut lo = coarse_cfo - bin_resolution;
    let mut hi = coarse_cfo + bin_resolution;
    for _ in 0..40 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        // Both probes in one lane-batched signal pass (bit-identical to
        // two separate evaluations).
        let probes = dtft_at_frequencies(samples, &[m1, m2], sample_rate);
        let (v1, v2) = (probes[0].abs(), probes[1].abs());
        if v1 < v2 {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    (lo + hi) / 2.0
}

/// Decodes the tag whose CFO spike lies near `target_cfo_hz`, combining the
/// provided collisions in order until two accumulations in a row slice to
/// the same checksum-valid packet.
///
/// Returns [`CaraokeError::DecodeFailed`] if that never happens,
/// [`CaraokeError::NoPeak`] if the first collision shows no spike near the
/// requested CFO, or [`CaraokeError::MalformedSignal`] if a later collision
/// has no antenna or another sample count than the first.
pub fn decode_target(
    queries: &[CollisionSignal],
    target_cfo_hz: f64,
    config: &ReaderConfig,
) -> Result<DecodeOutcome, CaraokeError> {
    if queries.is_empty() {
        return Err(CaraokeError::DecodeFailed { queries_used: 0 });
    }
    let first_spectrum = analyze_first_antenna(&queries[0], config)?;
    check_combinable(queries)?;
    decode_with_spectrum(queries, target_cfo_hz, config, &first_spectrum)
}

/// §8 adds antenna 0 of every collision to the first's, sample by sample:
/// a later collision with no antenna, or with another sample count, cannot
/// be combined. Checked once per call, before any target is decoded.
fn check_combinable(queries: &[CollisionSignal]) -> Result<(), CaraokeError> {
    let n = queries[0].num_samples();
    for query in &queries[1..] {
        if query.num_antennas() == 0 {
            return Err(CaraokeError::MalformedSignal("a collision has no antenna"));
        }
        if query.num_samples() != n {
            return Err(CaraokeError::MalformedSignal(
                "collisions differ in sample count",
            ));
        }
    }
    Ok(())
}

/// The spikes of `signal`'s antenna 0, the one §8 combines; the other
/// antennas are not read.
fn analyze_first_antenna(
    signal: &CollisionSignal,
    config: &ReaderConfig,
) -> Result<CollisionSpectrum, CaraokeError> {
    analyze_antennas(
        signal.num_antennas().min(1),
        signal.sample_rate,
        || signal.antenna(0),
        config,
    )
}

/// [`decode_target`] given the analysis of `queries[0]`, which must be
/// non-empty and pass [`check_combinable`]: [`decode_all`] analyses and
/// checks the collisions once for all its targets instead of once per
/// target.
fn decode_with_spectrum(
    queries: &[CollisionSignal],
    target_cfo_hz: f64,
    config: &ReaderConfig,
    first_spectrum: &CollisionSpectrum,
) -> Result<DecodeOutcome, CaraokeError> {
    let sample_rate = queries[0].sample_rate;
    let n = queries[0].num_samples();

    // Locate and refine the target's CFO from the first collision.
    let peak = first_spectrum
        .peak_near_cfo(target_cfo_hz, 2)
        .ok_or(CaraokeError::NoPeak)?;
    let cfo = refine_cfo(
        queries[0].antenna(0),
        peak.cfo_hz,
        first_spectrum.bin_resolution,
        sample_rate,
    );

    let samples_per_chip = (config.signal.samples_per_chip().max(1)).min(n);
    let n_bits = caraoke_phy::timing::RESPONSE_BITS;
    let mut accumulator = vec![Complex::ZERO; n];
    let max_queries = config.max_decode_queries.min(queries.len());
    let mut previous = None;

    for (q_idx, query) in queries.iter().take(max_queries).enumerate() {
        let samples = query.antenna(0);
        // Per-query channel estimate: the DTFT value at the refined CFO is
        // h·N/2 (Eq. 5), rotated by this query's random initial phase.
        let peak_value = dtft_at_frequency(samples, cfo, sample_rate);
        if peak_value.abs() < 1e-12 {
            continue;
        }
        let h = peak_value / (n as f64 / 2.0);
        // Remove CFO and channel, accumulate.
        let step = Complex::from_angle(-2.0 * std::f64::consts::PI * cfo / sample_rate);
        let mut rot = Complex::ONE;
        let inv_h = h.recip();
        for (acc, &s) in accumulator.iter_mut().zip(samples.iter()) {
            *acc += s * rot * inv_h;
            rot *= step;
        }

        // Attempt to decode after every combined query; accept a packet the
        // previous accumulation also sliced to.
        let packet =
            TransponderPacket::from_bits(&slice_bits(&accumulator, samples_per_chip, n_bits));
        if let Some(packet) = packet.filter(|p| previous.as_ref() == Some(p)) {
            let queries_used = q_idx + 1;
            return Ok(DecodeOutcome {
                packet,
                queries_used,
                identification_time_ms: queries_used as f64 * QUERY_PERIOD_S * 1e3,
                cfo_hz: cfo,
            });
        }
        previous = packet;
    }

    Err(CaraokeError::DecodeFailed {
        queries_used: max_queries,
    })
}

/// Decodes every tag visible in the first collision of `queries`.
///
/// As §12.4 notes, no extra air time is needed per tag: the same set of
/// collisions is re-processed with a different CFO/channel compensation for
/// each target, so the identification time for *all* tags equals the time for
/// the slowest one. Collisions that cannot be combined are refused whole, as
/// [`decode_target`] refuses them.
pub fn decode_all(
    queries: &[CollisionSignal],
    config: &ReaderConfig,
) -> Result<Vec<DecodeReport>, CaraokeError> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let spectrum = analyze_first_antenna(&queries[0], config)?;
    check_combinable(queries)?;
    Ok(spectrum
        .peaks
        .iter()
        .map(|peak| DecodeReport {
            cfo_hz: peak.cfo_hz,
            outcome: decode_with_spectrum(queries, peak.cfo_hz, config, &spectrum),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::analyze_collision;
    use caraoke_geom::Vec3;
    use caraoke_phy::{
        antenna::{AntennaArray, ArrayGeometry},
        cfo::MIN_TAG_CARRIER_HZ,
        channel::PropagationModel,
        protocol::{TransponderId, TransponderPacket},
        synthesize_collision, CfoModel, Transponder,
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

    fn make_queries(
        tags: &[Transponder],
        count: usize,
        rng: &mut StdRng,
        config: &ReaderConfig,
    ) -> Vec<CollisionSignal> {
        (0..count)
            .map(|_| {
                synthesize_collision(
                    tags,
                    &array(),
                    &PropagationModel::line_of_sight(),
                    &config.signal,
                    rng,
                )
            })
            .collect()
    }

    fn random_tags(m: usize, rng: &mut StdRng) -> Vec<Transponder> {
        (0..m)
            .map(|i| {
                Transponder::with_id(
                    1000 + i as u64,
                    Vec3::new(4.0 + 2.0 * i as f64, (i % 3) as f64 - 1.0, 0.5),
                    CfoModel::Uniform,
                    rng,
                )
            })
            .collect()
    }

    #[test]
    fn single_tag_decodes_quickly() {
        let mut rng = StdRng::seed_from_u64(41);
        let config = ReaderConfig::default();
        let tags = random_tags(1, &mut rng);
        let queries = make_queries(&tags, 8, &mut rng, &config);
        let out = decode_target(&queries, tags[0].cfo(), &config).expect("decode");
        assert_eq!(out.packet, tags[0].packet);
        assert!(out.queries_used <= 3, "used {}", out.queries_used);
        assert!((out.cfo_hz - tags[0].cfo()).abs() < 300.0);
    }

    #[test]
    fn five_colliding_tags_all_decode() {
        let mut rng = StdRng::seed_from_u64(42);
        let config = ReaderConfig::default();
        let tags = random_tags(5, &mut rng);
        let queries = make_queries(&tags, 48, &mut rng, &config);
        for tag in &tags {
            let out = decode_target(&queries, tag.cfo(), &config)
                .unwrap_or_else(|e| panic!("tag {} failed: {e}", tag.id()));
            assert_eq!(out.packet.id, tag.id());
        }
    }

    #[test]
    fn decode_time_grows_with_collider_count() {
        // Fig. 16: more colliding tags -> more queries needed for a target.
        let config = ReaderConfig::default();
        let mut avg_queries = Vec::new();
        for &m in &[1usize, 5] {
            let mut total = 0usize;
            let runs = 3;
            for r in 0..runs {
                let mut run_rng = StdRng::seed_from_u64(43 + 100 * m as u64 + r);
                let tags = random_tags(m, &mut run_rng);
                let queries = make_queries(&tags, 60, &mut run_rng, &config);
                let out = decode_target(&queries, tags[0].cfo(), &config).expect("decode");
                total += out.queries_used;
            }
            avg_queries.push(total as f64 / runs as f64);
        }
        assert!(
            avg_queries[1] >= avg_queries[0],
            "5-tag decode ({}) should need at least as many queries as 1-tag ({})",
            avg_queries[1],
            avg_queries[0]
        );
    }

    #[test]
    fn decode_all_reports_every_visible_tag() {
        let mut rng = StdRng::seed_from_u64(44);
        let config = ReaderConfig::default();
        // Use well-separated CFOs so all 4 peaks are distinct.
        let tags: Vec<Transponder> = (0..4)
            .map(|i| {
                Transponder::new(
                    TransponderPacket::from_id(TransponderId(7000 + i as u64)),
                    MIN_TAG_CARRIER_HZ + (80 + i * 140) as f64 * config.signal.bin_resolution(),
                    Vec3::new(4.0 + 2.0 * i as f64, 0.0, 0.5),
                )
            })
            .collect();
        let queries = make_queries(&tags, 48, &mut rng, &config);
        let reports = decode_all(&queries, &config).unwrap();
        assert_eq!(reports.len(), 4);
        let mut decoded_ids: Vec<u64> = reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| o.packet.id.0))
            .collect();
        decoded_ids.sort_unstable();
        assert_eq!(decoded_ids, vec![7000, 7001, 7002, 7003]);
    }

    #[test]
    fn decode_all_equals_decode_target_per_peak() {
        // `decode_all` analyses the first collision once and shares it;
        // `decode_target` analyses it per call. Same reports either way.
        let mut rng = StdRng::seed_from_u64(48);
        let config = ReaderConfig::default();
        let tags = random_tags(3, &mut rng);
        let queries = make_queries(&tags, 16, &mut rng, &config);
        let reports = decode_all(&queries, &config).unwrap();
        let spectrum = analyze_collision(&queries[0], &config).unwrap();
        assert_eq!(reports.len(), spectrum.peaks.len());
        assert!(reports.len() >= 3);
        assert!(reports.iter().any(|r| r.outcome.is_ok()));
        for (report, peak) in reports.iter().zip(&spectrum.peaks) {
            assert_eq!(report.cfo_hz.to_bits(), peak.cfo_hz.to_bits());
            let alone = decode_target(&queries, peak.cfo_hz, &config);
            match (&report.outcome, &alone) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.packet, b.packet);
                    assert_eq!(a.queries_used, b.queries_used);
                    assert_eq!(
                        a.identification_time_ms.to_bits(),
                        b.identification_time_ms.to_bits()
                    );
                    assert_eq!(a.cfo_hz.to_bits(), b.cfo_hz.to_bits());
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn decoding_reads_antenna_zero_only() {
        let mut rng = StdRng::seed_from_u64(48);
        let config = ReaderConfig::default();
        let tags = random_tags(3, &mut rng);
        let queries = make_queries(&tags, 16, &mut rng, &config);
        let reports = decode_all(&queries, &config).unwrap();
        // Antenna 1 is neither analysed nor combined: a first collision
        // whose antenna 1 is garbage decodes the same, and so does a set
        // with antenna 0 alone.
        let mut garbage = queries.clone();
        garbage[0].antennas[1]
            .iter_mut()
            .for_each(|s| s.re = f64::NAN);
        garbage[0].antennas[1].truncate(3);
        assert_eq!(decode_all(&garbage, &config).unwrap(), reports);
        let mut single = queries.clone();
        single.iter_mut().for_each(|q| q.antennas.truncate(1));
        assert_eq!(decode_all(&single, &config).unwrap(), reports);
        // No antenna at all is refused.
        single[0].antennas.clear();
        assert!(matches!(
            decode_all(&single, &config),
            Err(CaraokeError::NotEnoughAntennas { .. })
        ));
    }

    #[test]
    fn a_later_collision_with_no_antenna_is_refused_not_indexed() {
        let mut rng = StdRng::seed_from_u64(48);
        let config = ReaderConfig::default();
        let tags = random_tags(3, &mut rng);
        let mut queries = make_queries(&tags, 16, &mut rng, &config);
        queries[5].antennas.clear();
        let refused = CaraokeError::MalformedSignal("a collision has no antenna");
        assert_eq!(decode_all(&queries, &config).unwrap_err(), refused);
        assert_eq!(
            decode_target(&queries, tags[0].cfo(), &config).unwrap_err(),
            refused
        );
    }

    #[test]
    fn a_shorter_later_collision_is_refused_not_combined_over_its_prefix() {
        let mut rng = StdRng::seed_from_u64(41);
        let config = ReaderConfig::default();
        let tags = random_tags(1, &mut rng);
        let mut queries = make_queries(&tags, 8, &mut rng, &config);
        let n = queries[0].num_samples();
        queries[1].antennas[0].truncate(n / 2);
        let refused = CaraokeError::MalformedSignal("collisions differ in sample count");
        assert_eq!(
            decode_target(&queries, tags[0].cfo(), &config).unwrap_err(),
            refused
        );
        assert_eq!(decode_all(&queries, &config).unwrap_err(), refused);
    }

    #[test]
    fn a_packet_is_accepted_only_when_two_accumulations_in_a_row_agree() {
        let mut rng = StdRng::seed_from_u64(41);
        let config = ReaderConfig::default();
        let tags = random_tags(1, &mut rng);
        let queries = make_queries(&tags, 8, &mut rng, &config);
        let out = decode_target(&queries, tags[0].cfo(), &config).expect("decode");
        assert!(out.queries_used >= 2);
        // One query fewer leaves the last match unconfirmed.
        let used = out.queries_used;
        assert_eq!(
            decode_target(&queries[..used - 1], tags[0].cfo(), &config),
            Err(CaraokeError::DecodeFailed {
                queries_used: used - 1
            })
        );
    }

    #[test]
    fn identification_time_is_queries_times_query_period() {
        let mut rng = StdRng::seed_from_u64(45);
        let config = ReaderConfig::default();
        let tags = random_tags(2, &mut rng);
        let queries = make_queries(&tags, 32, &mut rng, &config);
        let out = decode_target(&queries, tags[0].cfo(), &config).expect("decode");
        assert!((out.identification_time_ms - out.queries_used as f64).abs() < 1e-9);
    }

    #[test]
    fn decoding_with_no_queries_fails() {
        let config = ReaderConfig::default();
        let err = decode_target(&[], 500e3, &config).unwrap_err();
        assert!(matches!(
            err,
            CaraokeError::DecodeFailed { queries_used: 0 }
        ));
    }

    #[test]
    fn decoding_an_absent_cfo_fails_with_no_peak() {
        let mut rng = StdRng::seed_from_u64(46);
        let config = ReaderConfig::default();
        let tags = vec![Transponder::new(
            TransponderPacket::from_id(TransponderId(1)),
            MIN_TAG_CARRIER_HZ + 100.0 * config.signal.bin_resolution(),
            Vec3::new(5.0, 0.0, 0.5),
        )];
        let queries = make_queries(&tags, 4, &mut rng, &config);
        // Ask for a CFO far away from the only tag.
        let err = decode_target(&queries, 1.0e6, &config).unwrap_err();
        assert_eq!(err, CaraokeError::NoPeak);
    }

    #[test]
    fn truncated_query_budget_reports_failure() {
        let mut rng = StdRng::seed_from_u64(47);
        let config = ReaderConfig {
            max_decode_queries: 1,
            ..Default::default()
        };
        // One query allowed: nothing can confirm the packet it slices to,
        // so decoding fails whatever the colliders.
        let tags = random_tags(8, &mut rng);
        let queries = make_queries(&tags, 1, &mut rng, &config);
        let result = decode_target(&queries, tags[7].cfo(), &config);
        assert!(matches!(
            result,
            Err(CaraokeError::DecodeFailed { queries_used: 1 } | CaraokeError::NoPeak)
        ));
    }
}
