//! The end-to-end Caraoke reader.
//!
//! [`CaraokeReader`] bundles the configuration, the antenna array mounted on
//! the pole, and the per-query processing pipeline: spectrum analysis →
//! counting → per-tag AoA, plus multi-query decoding. It is the object a
//! deployment (or the [`caraoke-sim`](../caraoke_sim/index.html) testbed)
//! instantiates once per pole.

use crate::config::ReaderConfig;
use crate::counting::{count_from_spectrum, CountEstimate};
use crate::decoding::{decode_all, decode_target, DecodeOutcome, DecodeReport};
use crate::error::CaraokeError;
use crate::localization::{localize_peaks, AoaEstimate};
use crate::spectrum::{analyze_collision, CollisionSpectrum};
use caraoke_phy::antenna::AntennaArray;
use caraoke_phy::CollisionSignal;

/// Everything the reader learned from one query's collision.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The analysed spectrum (peaks, per-antenna channel estimates).
    pub spectrum: CollisionSpectrum,
    /// The counting estimate.
    pub count: CountEstimate,
    /// Per-tag AoA estimates (present when the reader has ≥2 antennas).
    pub aoa: Vec<AoaEstimate>,
}

/// A Caraoke reader: configuration plus the pole-mounted antenna array.
#[derive(Debug, Clone)]
pub struct CaraokeReader {
    config: ReaderConfig,
    array: AntennaArray,
}

impl CaraokeReader {
    /// Creates a reader. Fails if the configuration is inconsistent.
    pub fn new(config: ReaderConfig, array: AntennaArray) -> Result<Self, CaraokeError> {
        config.validate()?;
        Ok(Self { config, array })
    }

    /// The reader's configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.config
    }

    /// The reader's antenna array.
    pub fn array(&self) -> &AntennaArray {
        &self.array
    }

    /// Processes the collision received in response to one query: counts the
    /// responding transponders and estimates each one's AoA.
    pub fn process_query(&self, signal: &CollisionSignal) -> Result<QueryReport, CaraokeError> {
        self.process_spectrum(analyze_collision(signal, &self.config)?)
    }

    /// Counts and localizes the spikes of a collision analysed by
    /// [`crate::spectrum::analyze_antennas`] on this reader's array.
    pub fn process_spectrum(
        &self,
        spectrum: CollisionSpectrum,
    ) -> Result<QueryReport, CaraokeError> {
        let count = count_from_spectrum(&spectrum);
        let aoa = if spectrum.num_antennas() >= 2 {
            localize_peaks(&spectrum, &self.array, &self.config)?
        } else {
            Vec::new()
        };
        Ok(QueryReport {
            spectrum,
            count,
            aoa,
        })
    }

    /// Decodes the id of the tag whose CFO spike is near `target_cfo_hz` by
    /// combining the provided collisions (§8).
    pub fn decode(
        &self,
        queries: &[CollisionSignal],
        target_cfo_hz: f64,
    ) -> Result<DecodeOutcome, CaraokeError> {
        decode_target(queries, target_cfo_hz, &self.config)
    }

    /// Decodes every tag visible in the first collision of `queries`.
    pub fn decode_everyone(
        &self,
        queries: &[CollisionSignal],
    ) -> Result<Vec<DecodeReport>, CaraokeError> {
        decode_all(queries, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_geom::Vec3;
    use caraoke_phy::{
        antenna::ArrayGeometry,
        cfo::MIN_TAG_CARRIER_HZ,
        channel::PropagationModel,
        protocol::{TransponderId, TransponderPacket},
        synthesize_collision, Transponder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reader_at(pole: Vec3) -> CaraokeReader {
        let array = AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        );
        CaraokeReader::new(ReaderConfig::default(), array).unwrap()
    }

    fn tags_for_test(config: &ReaderConfig) -> Vec<Transponder> {
        [120usize, 330, 540]
            .iter()
            .enumerate()
            .map(|(i, &bin)| {
                Transponder::new(
                    TransponderPacket::from_id(TransponderId(100 + i as u64)),
                    MIN_TAG_CARRIER_HZ + bin as f64 * config.signal.bin_resolution(),
                    Vec3::new(4.0 + 3.0 * i as f64, 1.0 - i as f64, 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn end_to_end_query_counts_and_localizes() {
        let mut rng = StdRng::seed_from_u64(61);
        let reader = reader_at(Vec3::new(0.0, -4.0, 3.8));
        let tags = tags_for_test(reader.config());
        let sig = synthesize_collision(
            &tags,
            reader.array(),
            &PropagationModel::line_of_sight(),
            &reader.config().signal,
            &mut rng,
        );
        let report = reader.process_query(&sig).unwrap();
        assert_eq!(report.count.count, 3);
        assert_eq!(report.aoa.len(), 3);
        for est in &report.aoa {
            let tag = tags
                .iter()
                .find(|t| (t.cfo() - est.cfo_hz).abs() < 2.0 * report.spectrum.bin_resolution)
                .unwrap();
            let truth = reader
                .array()
                .true_angle(est.pair.0, est.pair.1, tag.position);
            assert!((est.angle_rad - truth).to_degrees().abs() < 4.0);
        }
    }

    #[test]
    fn end_to_end_decode_recovers_ids() {
        let mut rng = StdRng::seed_from_u64(62);
        let reader = reader_at(Vec3::new(0.0, -4.0, 3.8));
        let tags = tags_for_test(reader.config());
        let queries: Vec<_> = (0..40)
            .map(|_| {
                synthesize_collision(
                    &tags,
                    reader.array(),
                    &PropagationModel::line_of_sight(),
                    &reader.config().signal,
                    &mut rng,
                )
            })
            .collect();
        let out = reader.decode(&queries, tags[1].cfo()).unwrap();
        assert_eq!(out.packet.id, tags[1].id());
        let everyone = reader.decode_everyone(&queries).unwrap();
        assert_eq!(everyone.len(), 3);
        assert!(everyone.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let array = AntennaArray::from_geometry(
            Vec3::new(0.0, -4.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        );
        let bad = ReaderConfig {
            max_decode_queries: 0,
            ..Default::default()
        };
        assert!(CaraokeReader::new(bad, array).is_err());
    }
}
