//! The city-layer event model.
//!
//! A reader pole's per-query output ([`caraoke::QueryReport`]) is distilled
//! into a [`PoleReport`] carrying one [`TagObservation`] per detected spike:
//! tag key, AoA fix, CFO bin, RSSI and timestamp. These are the only types
//! that cross the wire from poles to the city aggregation tier, so they are
//! deliberately small, `Copy` where possible, and free of DSP payloads.

use caraoke::QueryReport;
use caraoke_phy::TransponderId;

/// Identifier of a reader pole within a city deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoleId(pub u32);

/// Identifier of a street segment (the unit of occupancy / flow analytics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u16);

/// A city-wide tag identity.
///
/// Caraoke distinguishes colliding tags by their carrier-frequency offset
/// long before it decodes their ids (§5), so the city layer accepts either a
/// decoded transponder id or a CFO-signature key. CFOs are oscillator
/// properties of the tag, stable across poles to within a bin (§4), which is
/// what makes CFO-keyed re-sighting analytics (speed, OD matrix) work before
/// any tag has been decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagKey(pub u64);

/// Bit set on [`TagKey`]s derived from decoded ids, so they can never collide
/// with CFO-signature keys.
const DECODED_BIT: u64 = 1 << 63;

impl TagKey {
    /// Key for a tag whose id was decoded (§8).
    pub fn from_decoded(id: TransponderId) -> Self {
        Self(id.0 | DECODED_BIT)
    }

    /// Key for a tag known only by its CFO spike, quantized to a bin.
    pub fn from_cfo_bin(bin: usize) -> Self {
        Self(bin as u64)
    }
}

/// One tag sighting at one pole: the atom of city-scale analytics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagObservation {
    /// City-wide identity of the tag (decoded id or CFO signature).
    pub tag: TagKey,
    /// Pole that heard the tag.
    pub pole: PoleId,
    /// Street segment the pole monitors.
    pub segment: SegmentId,
    /// FFT bin of the tag's CFO spike.
    pub cfo_bin: u32,
    /// Estimated CFO of the spike, Hz.
    pub cfo_hz: f64,
    /// Angle of arrival at the pole's array, radians (NaN-free: poles with a
    /// single antenna report `0.0` and set `has_aoa = false`).
    pub aoa_rad: f64,
    /// Whether `aoa_rad` carries a real fix.
    pub has_aoa: bool,
    /// Received signal strength, dB relative to the pole's reference level.
    pub rssi_db: f64,
    /// Time of the query, microseconds since deployment start.
    pub timestamp_us: u64,
    /// Whether the §5 time-shift test flagged this spike as holding two tags.
    pub multi_occupied: bool,
    /// The tag's decoded id (§8), when the pole managed a decode for this
    /// spike. Feeds the store's mid-stream [`TagKey`] alias upgrade: the
    /// CFO-signature key the tag was first tracked under is re-pointed at the
    /// decoded key on first decode.
    pub decoded: Option<TransponderId>,
    /// The car-position estimate for this sighting (§6), when the frame
    /// source could localize it — a two-reader conic fix, or an AoA-only
    /// fallback, method-tagged either way. `None` means downstream
    /// consumers fall back to the pole's own position
    /// ([`crate::position::PositionMethod::PolePosition`]).
    pub position: Option<crate::position::PositionEstimate>,
}

/// Everything one pole reports for one query: per-tag observations plus the
/// pole-level counting estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PoleReport {
    /// Reporting pole.
    pub pole: PoleId,
    /// Street segment the pole monitors.
    pub segment: SegmentId,
    /// Time of the query, microseconds since deployment start.
    pub timestamp_us: u64,
    /// The pole's §5 count for this query (spikes + shared-bin correction).
    pub count: u32,
    /// Number of spikes the count was derived from.
    pub peaks: u32,
    /// Per-spike observations.
    pub observations: Vec<TagObservation>,
}

impl PoleReport {
    /// Distils a reader's [`QueryReport`] into the city event model.
    ///
    /// Tags are keyed by CFO bin (the pre-decoding identity); AoA estimates
    /// are matched to spikes by bin. RSSI is the spike magnitude in dB.
    pub fn from_query(
        pole: PoleId,
        segment: SegmentId,
        timestamp_us: u64,
        report: &QueryReport,
    ) -> Self {
        let observations = report
            .spectrum
            .peaks
            .iter()
            .map(|peak| {
                let aoa = report.aoa.iter().find(|a| a.bin == peak.bin);
                TagObservation {
                    tag: TagKey::from_cfo_bin(peak.bin),
                    pole,
                    segment,
                    cfo_bin: peak.bin as u32,
                    cfo_hz: peak.cfo_hz,
                    aoa_rad: aoa.map(|a| a.angle_rad).unwrap_or(0.0),
                    has_aoa: aoa.is_some(),
                    rssi_db: 20.0 * peak.magnitude.max(1e-12).log10(),
                    timestamp_us,
                    multi_occupied: peak.multi_occupied,
                    decoded: None,
                    position: None,
                }
            })
            .collect();
        Self {
            pole,
            segment,
            timestamp_us,
            count: report.count.count as u32,
            peaks: report.count.peaks as u32,
            observations,
        }
    }

    /// Number of observations carried by this report.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the report carries no observations (an empty road).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke::{CaraokeReader, ReaderConfig};
    use caraoke_geom::Vec3;
    use caraoke_phy::antenna::{AntennaArray, ArrayGeometry};
    use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
    use caraoke_phy::channel::PropagationModel;
    use caraoke_phy::protocol::TransponderPacket;
    use caraoke_phy::{synthesize_collision, Transponder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn decoded_and_cfo_keys_never_collide() {
        let decoded = TagKey::from_decoded(TransponderId(300));
        let cfo = TagKey::from_cfo_bin(300);
        assert_ne!(decoded, cfo);
        assert_eq!(decoded.0 & DECODED_BIT, DECODED_BIT);
        assert_eq!(cfo.0 & DECODED_BIT, 0);
    }

    #[test]
    fn pole_report_distils_a_real_query() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ReaderConfig::default();
        let array = AntennaArray::from_geometry(
            Vec3::new(0.0, -4.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        );
        let reader = CaraokeReader::new(config, array).unwrap();
        let tags: Vec<Transponder> = [150usize, 400]
            .iter()
            .enumerate()
            .map(|(i, &bin)| {
                Transponder::new(
                    TransponderPacket::from_id(TransponderId(i as u64)),
                    MIN_TAG_CARRIER_HZ + bin as f64 * reader.config().signal.bin_resolution(),
                    Vec3::new(5.0 + 3.0 * i as f64, 1.0, 0.5),
                )
            })
            .collect();
        let sig = synthesize_collision(
            &tags,
            reader.array(),
            &PropagationModel::line_of_sight(),
            &reader.config().signal,
            &mut rng,
        );
        let query = reader.process_query(&sig).unwrap();
        let report = PoleReport::from_query(PoleId(7), SegmentId(2), 1_000_000, &query);
        assert_eq!(report.len(), 2);
        assert_eq!(report.count, 2);
        for obs in &report.observations {
            assert_eq!(obs.pole, PoleId(7));
            assert_eq!(obs.segment, SegmentId(2));
            assert_eq!(obs.timestamp_us, 1_000_000);
            assert!(obs.has_aoa, "two-antenna pole must fix AoA");
            assert!(obs.rssi_db.is_finite());
        }
        // Keys follow the CFO bins, so the same tag keys again at other poles.
        let bins: Vec<u32> = report.observations.iter().map(|o| o.cfo_bin).collect();
        for (obs, bin) in report.observations.iter().zip(bins) {
            assert_eq!(obs.tag, TagKey::from_cfo_bin(bin as usize));
        }
    }
}
