//! Reader poles.
//!
//! Caraoke readers are mounted on street-lamp poles (12.5 ft in the campus
//! experiments). A [`Pole`] couples a position with an antenna array and a
//! constructed [`CaraokeReader`], and knows how to take one "measurement":
//! synthesize the collision from the tags currently in range and run the
//! reader pipeline over it.

use caraoke::{CaraokeReader, QueryReport, ReaderConfig};
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

    /// Issues one query: synthesizes the collision and runs the reader's
    /// per-query pipeline (count + AoA). The report keeps every antenna's
    /// full spectrum; [`Self::observe`] returns the rest of it for less.
    pub fn query<R: Rng + ?Sized>(
        &self,
        tags: &[Transponder],
        propagation: &PropagationModel,
        rng: &mut R,
    ) -> QueryReport {
        let signal = self.receive(tags, propagation, rng);
        self.reader
            .process_query(&signal)
            .expect("signal from this pole's own array is well-formed")
    }

    /// [`Self::query`] without the spectra, bit for bit, at less cost (§6
    /// reads the second antenna only at each spike): the first antenna is
    /// synthesized and analysed in full, and the others are synthesized
    /// only if it heard a spike, then read at the spike bins only. When
    /// they are skipped, `rng` has drawn less than after `query`, so a
    /// caller that wants every query to match `query`'s gives each query a
    /// generator of its own, as `PhyCity` does.
    pub fn observe<R: Rng + ?Sized>(
        &self,
        tags: &[Transponder],
        propagation: &PropagationModel,
        rng: &mut R,
    ) -> QueryReport {
        let in_range: Vec<Transponder> = self.tags_in_range(tags).into_iter().cloned().collect();
        let signal = &self.reader.config().signal;
        let mut collision =
            CollisionSynth::new(&in_range, self.reader.array(), propagation, signal, rng);
        self.reader
            .process_query_at_peaks(signal.sample_rate, || collision.next_antenna(rng))
            .expect("signal from this pole's own array is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::street::Street;
    use caraoke_phy::CfoModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Runs `observe` and `query` from the same seed, checks the lazy report
    /// equals the full one with its spectra removed, and returns it.
    fn observed(pole: &Pole, tags: &[Transponder], seed: u64) -> QueryReport {
        let model = PropagationModel::line_of_sight();
        let lazy = pole.observe(tags, &model, &mut StdRng::seed_from_u64(seed));
        let mut full = pole.query(tags, &model, &mut StdRng::seed_from_u64(seed));
        assert_eq!(full.spectrum.spectra.len(), pole.reader.array().len());
        full.spectrum.spectra.clear();
        assert_eq!(lazy, full, "seed {seed}");
        lazy
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
        // Every peak carries both antennas' values, so the spectra are not
        // needed to localize it again.
        let mut spectrum = report.spectrum.clone();
        spectrum.spectra.clear();
        assert_eq!(spectrum.num_antennas(), 2);
        let again = caraoke::localize_peaks(&spectrum, pole.reader.array(), pole.reader.config())
            .expect("the peaks keep every antenna's value");
        assert_eq!(again, report.aoa);
    }

    #[test]
    fn observe_is_query_without_spectra() {
        use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
        use caraoke_phy::protocol::{TransponderId, TransponderPacket};
        // Nothing in range: no peak, so only the first antenna is drawn.
        let pair = Pole::new("p", 0.0, -4.0, 3.8, ArrayGeometry::default_pair());
        let silent = observed(&pair, &[], 10);
        assert!(silent.spectrum.peaks.is_empty());
        assert_eq!(silent.spectrum.num_antennas(), 2);

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
        let report = observed(&pair, &shared, 9);
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
            let report = observed(&triangle, &tags, seed);
            assert_eq!(report.spectrum.num_antennas(), 3);
            assert!(report.spectrum.peaks.len() >= 2);
            assert!(report.spectrum.peaks.iter().all(|p| p.values.len() == 3));
        }
        assert!(observed(&triangle, &[], 1).spectrum.peaks.is_empty());
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
