//! Reader poles.
//!
//! Caraoke readers are mounted on street-lamp poles (12.5 ft in the campus
//! experiments). A [`Pole`] couples a position with an antenna array and a
//! constructed [`CaraokeReader`], and knows how to take one "measurement":
//! synthesize the collision from the tags currently in range and run the
//! reader pipeline over it.

use caraoke::{analyze_antennas, CaraokeReader, QueryReport, ReaderConfig};
use caraoke_geom::Vec3;
use caraoke_phy::antenna::{AntennaArray, ArrayGeometry};
use caraoke_phy::channel::PropagationModel;
use caraoke_phy::timing::READER_RANGE_M;
use caraoke_phy::{synthesize_collision, CollisionSignal, CollisionSynth, Transponder};
use rand::Rng;

/// A reader pole.
#[derive(Debug, Clone)]
pub struct Pole {
    /// Name for reporting ("pole 1", ...).
    pub name: String,
    /// Position of the pole top (antenna-array centre).
    pub position: Vec3,
    /// The reader mounted on the pole.
    pub reader: CaraokeReader,
    /// Radio range of the reader, metres.
    pub range: f64,
}

impl Pole {
    /// Creates a pole at `(x, y)` of the given height with the default
    /// two-antenna array and reader configuration. `toward_road` should point
    /// from the pole towards the road (used to orient tilted arrays).
    pub fn new(name: &str, x: f64, y: f64, height: f64, geometry: ArrayGeometry) -> Self {
        let position = Vec3::new(x, y, height);
        let toward_road = Vec3::new(0.0, -y.signum().max(-1.0), 0.0);
        let array = AntennaArray::from_geometry(position, toward_road, geometry);
        let reader = CaraokeReader::new(ReaderConfig::default(), array)
            .expect("default reader configuration is valid");
        Self {
            name: name.to_string(),
            position,
            reader,
            range: READER_RANGE_M,
        }
    }

    /// The transponders (of the given set) currently within radio range.
    pub fn tags_in_range<'a>(&self, tags: &'a [Transponder]) -> Vec<&'a Transponder> {
        tags.iter()
            .filter(|t| t.position.distance(self.position) <= self.range)
            .collect()
    }

    /// Synthesizes the collision this pole would receive from `tags` for one
    /// query.
    pub fn receive<R: Rng + ?Sized>(
        &self,
        tags: &[Transponder],
        propagation: &PropagationModel,
        rng: &mut R,
    ) -> CollisionSignal {
        let in_range: Vec<Transponder> = self.tags_in_range(tags).into_iter().cloned().collect();
        synthesize_collision(
            &in_range,
            self.reader.array(),
            propagation,
            &self.reader.config().signal,
            rng,
        )
    }

    /// Issues one query and runs the reader's per-query pipeline (count +
    /// AoA) over it. The first antenna is synthesized and analysed in full;
    /// the others are synthesized only if it heard a spike, then read at
    /// the spike bins only (§6 reads them nowhere else). The report equals
    /// [`CaraokeReader::process_query`] of [`Self::receive`] from the same
    /// generator state, but when the other antennas are skipped `rng` has
    /// drawn less than `receive` draws. So a caller that wants each query
    /// to be reproducible alone gives it a generator of its own, as
    /// `PhyCity` does.
    pub fn query<R: Rng + ?Sized>(
        &self,
        tags: &[Transponder],
        propagation: &PropagationModel,
        rng: &mut R,
    ) -> QueryReport {
        let in_range: Vec<Transponder> = self.tags_in_range(tags).into_iter().cloned().collect();
        let (array, config) = (self.reader.array(), self.reader.config());
        let mut collision = CollisionSynth::new(&in_range, array, propagation, &config.signal, rng);
        analyze_antennas(
            array.len(),
            config.signal.sample_rate,
            || collision.next_antenna(rng),
            config,
        )
        .and_then(|spectrum| self.reader.process_spectrum(spectrum))
        .expect("signal from this pole's own array is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::street::Street;
    use caraoke_dsp::fft;
    use caraoke_phy::CfoModel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn pole_filters_tags_by_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let pole = Pole::new(
            "p",
            0.0,
            -5.0,
            Street::pole_height(),
            ArrayGeometry::default_pair(),
        );
        let near = Transponder::with_id(1, Vec3::new(5.0, 0.0, 1.2), CfoModel::Uniform, &mut rng);
        let far = Transponder::with_id(2, Vec3::new(500.0, 0.0, 1.2), CfoModel::Uniform, &mut rng);
        let tags = vec![near, far];
        let in_range = pole.tags_in_range(&tags);
        assert_eq!(in_range.len(), 1);
        assert_eq!(in_range[0].id().0, 1);
    }

    #[test]
    fn query_counts_tags_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let pole = Pole::new(
            "p",
            0.0,
            -5.0,
            Street::pole_height(),
            ArrayGeometry::default_pair(),
        );
        let tags: Vec<Transponder> = (0..3)
            .map(|i| {
                Transponder::with_id(
                    i,
                    Vec3::new(4.0 + 4.0 * i as f64, 0.0, 1.2),
                    CfoModel::Uniform,
                    &mut rng,
                )
            })
            .collect();
        let report = pole.query(&tags, &PropagationModel::line_of_sight(), &mut rng);
        // CFOs are random; occasionally two share a bin, but the count should
        // be close to the truth and never zero.
        assert!(report.count.count >= 2 && report.count.count <= 4);
        assert_eq!(report.aoa.len(), report.count.peaks);
    }

    /// Runs `query`, checks it against the signal `receive` draws from the
    /// same seed, and returns it: the report equals a fresh analysis of
    /// that signal, and every peak value is its antenna's full transform at
    /// the peak bin, bit for bit.
    fn checked_query(pole: &Pole, tags: &[Transponder], seed: u64) -> QueryReport {
        let model = PropagationModel::line_of_sight();
        let report = pole.query(tags, &model, &mut StdRng::seed_from_u64(seed));
        let signal = pole.receive(tags, &model, &mut StdRng::seed_from_u64(seed));
        assert_eq!(signal.num_antennas(), pole.reader.array().len());
        let fresh = pole.reader.process_query(&signal).expect("own signal");
        assert_eq!(report, fresh, "seed {seed}");
        let spectra: Vec<_> = signal.antennas.iter().map(|a| fft(a)).collect();
        for peak in &report.spectrum.peaks {
            assert_eq!(peak.values.len(), spectra.len());
            for (value, spectrum) in peak.values.iter().zip(&spectra) {
                assert_eq!(value.re.to_bits(), spectrum[peak.bin].re.to_bits());
                assert_eq!(value.im.to_bits(), spectrum[peak.bin].im.to_bits());
            }
        }
        report
    }

    #[test]
    fn a_query_without_spectra_still_localizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let pole = Pole::new(
            "p",
            0.0,
            -5.0,
            Street::pole_height(),
            ArrayGeometry::default_pair(),
        );
        let tags: Vec<Transponder> = (0..3)
            .map(|i| {
                Transponder::with_id(
                    i,
                    Vec3::new(4.0 + 4.0 * i as f64, 0.0, 1.2),
                    CfoModel::Uniform,
                    &mut rng,
                )
            })
            .collect();
        let report = pole.query(&tags, &PropagationModel::line_of_sight(), &mut rng);
        assert!(!report.aoa.is_empty());
        // Every peak carries both antennas' values, so no spectrum is
        // needed to localize it again.
        assert_eq!(report.spectrum.num_antennas(), 2);
        let again =
            caraoke::localize_peaks(&report.spectrum, pole.reader.array(), pole.reader.config())
                .expect("the peaks keep every antenna's value");
        assert_eq!(again, report.aoa);
    }

    #[test]
    fn query_reads_the_received_antennas_at_the_peaks() {
        use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
        use caraoke_phy::protocol::{TransponderId, TransponderPacket};
        // Nothing in range: no peak, so only the first antenna is drawn.
        let pair = Pole::new("p", 0.0, -4.0, 3.8, ArrayGeometry::default_pair());
        let silent = checked_query(&pair, &[], 10);
        assert!(silent.spectrum.peaks.is_empty());
        assert_eq!(silent.spectrum.num_antennas(), 2);
        let model = PropagationModel::line_of_sight();
        let mut after_query = StdRng::seed_from_u64(10);
        pair.query(&[], &model, &mut after_query);
        let mut after_one = StdRng::seed_from_u64(10);
        let signal = &pair.reader.config().signal;
        CollisionSynth::new(&[], pair.reader.array(), &model, signal, &mut after_one)
            .next_antenna(&mut after_one);
        assert_eq!(after_query.random::<u64>(), after_one.random::<u64>());

        // `spectrum.rs`'s shared-bin collision (seed 9): two tags less than
        // a bin apart flag their peak multi-occupied, beside an isolated one.
        let bin_hz = pair.reader.config().signal.bin_resolution();
        let tag = |id, hz: f64, pos| {
            Transponder::new(
                TransponderPacket::from_id(TransponderId(id)),
                MIN_TAG_CARRIER_HZ + hz,
                pos,
            )
        };
        let shared = [
            tag(1, 300.0 * bin_hz, Vec3::new(5.0, 1.0, 0.5)),
            tag(3, 520.0 * bin_hz, Vec3::new(9.0, -1.0, 0.5)),
            tag(2, 300.0 * bin_hz + 900.0, Vec3::new(6.5, 2.0, 0.5)),
        ];
        let report = checked_query(&pair, &shared, 9);
        assert_eq!(report.spectrum.peaks.len(), 2);
        assert!(report.spectrum.peaks.iter().any(|p| p.multi_occupied));
        assert_eq!(report.aoa.len(), 2);

        // A three-antenna pole reads antenna 2 after antenna 1, in the full
        // signal's draw order.
        let triangle = Pole::new("t", 0.0, -4.0, 3.8, ArrayGeometry::default_triangle());
        let mut rng = StdRng::seed_from_u64(12);
        let tags: Vec<Transponder> = (0..5)
            .map(|i| {
                Transponder::with_id(
                    i,
                    Vec3::new(-8.0 + 4.0 * i as f64, 1.0, 1.2),
                    CfoModel::Uniform,
                    &mut rng,
                )
            })
            .collect();
        for seed in 0..8 {
            let report = checked_query(&triangle, &tags, seed);
            assert_eq!(report.spectrum.num_antennas(), 3);
            assert!(report.spectrum.peaks.len() >= 2);
            assert!(report.spectrum.peaks.iter().all(|p| p.values.len() == 3));
        }
        assert!(checked_query(&triangle, &[], 1).spectrum.peaks.is_empty());
    }

    #[test]
    fn toward_road_orientation_follows_pole_side() {
        let near_side = Pole::new("a", 0.0, -5.0, 3.8, ArrayGeometry::default_triangle());
        let far_side = Pole::new("b", 0.0, 5.0, 3.8, ArrayGeometry::default_triangle());
        // Arrays differ because the tilt leans towards the road.
        assert_ne!(
            near_side.reader.array().elements(),
            far_side.reader.array().elements()
        );
    }
}
