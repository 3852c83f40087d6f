//! The full-fidelity frame source: sim streets → PHY collisions →
//! [`caraoke::CaraokeReader`] → city events.
//!
//! [`PhyCity`] is the evaluation-grade counterpart of
//! [`crate::synth::SyntheticCity`]: every frame is a real synthesized
//! collision processed by a real per-pole reader pipeline, exactly what a
//! deployment would run (§9, §11). It is orders of magnitude slower per
//! frame, so it drives the end-to-end tests and the dashboard example while
//! the synthetic source drives the 1k–10k-pole ingestion benchmarks.
//!
//! # Where positions come from (§6)
//!
//! This source is where the paper's phase-based localization enters the
//! observation stream. For every spike with an AoA fix, the pole pairs up
//! with its street neighbour (whose query for the same epoch is
//! deterministically reproducible from `(seed, pole, epoch)`), matches the
//! neighbour's AoA estimate for the same CFO bin, and intersects the two
//! cones on the road plane with
//! [`caraoke_geom::try_localize_two_readers`] — a
//! [`crate::position::PositionMethod::TwoReaderFix`]. When the pair is
//! degenerate or the cones miss the road, it falls back to cutting its
//! *own* cone with the road plane at a lane-centre prior
//! ([`crate::position::PositionMethod::AoaOnly`]); spikes with no AoA at
//! all carry no estimate and downstream consumers fall back to the pole
//! position. Every fallback is method-tagged, so the per-method accuracy
//! counters in [`crate::aggregate::PositionCounters`] expose exactly how
//! often each rung of the ladder fired.

use crate::driver::FrameSource;
use crate::event::{PoleId, PoleReport, SegmentId};
use crate::position::PositionEstimate;
use crate::store::{PoleDirectory, PoleSite};
use crate::synth::mix_seed;
use caraoke::localization::AoaEstimate;
use caraoke::QueryReport;
use caraoke_geom::localize::RoadRegion;
use caraoke_geom::{try_localize_two_readers, ReaderPose, Vec3};
use caraoke_phy::antenna::ArrayGeometry;
use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
use caraoke_phy::channel::PropagationModel;
use caraoke_phy::protocol::{TransponderId, TransponderPacket};
use caraoke_phy::Transponder;
use caraoke_sim::{Pole, Street, Vehicle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FFT bin spacing of the default reader window, Hz (§5).
const BIN_RESOLUTION_HZ: f64 = 1953.125;

/// Streets are laid out on parallel corridors this far apart so that poles
/// only ever hear their own street's tags.
const STREET_PITCH_M: f64 = 1000.0;

/// Nominal 1-σ accuracy of a two-reader fix, metres (§12.2 reports a ~1 m
/// median).
const TWO_READER_SIGMA_M: f64 = 1.0;

/// Nominal 1-σ along-road accuracy of an AoA-only fix (the across-road
/// sigma is the lane-prior's spread, roughly a quarter road width).
const AOA_ONLY_SIGMA_ALONG_M: f64 = 2.5;

/// A deployment of real reader poles over [`caraoke_sim`] streets and
/// vehicles.
pub struct PhyCity {
    poles: Vec<Pole>,
    street_of_pole: Vec<usize>,
    streets: Vec<Street>,
    poles_per_street: usize,
    directory: PoleDirectory,
    vehicles: Vec<(usize, Vehicle)>,
    epochs: usize,
    epoch_us: u64,
    seed: u64,
    propagation: PropagationModel,
    /// Memoized `(pole, epoch)` query reports. Neighbour pairing replays
    /// the partner pole's full PHY query per report, which used to double
    /// the PHY cost of an e2e sweep; queries are deterministic per
    /// `(seed, pole, epoch)`, so caching is invisible to the output.
    query_cache: Mutex<HashMap<(usize, usize), Arc<QueryReport>>>,
    query_cache_hits: AtomicU64,
}

impl PhyCity {
    /// Builds the four campus streets of Fig. 10, each instrumented with
    /// `poles_per_street` poles 24 m apart, populated with parked cars (in
    /// the streets' parking rows) and through traffic at street-specific
    /// speeds. All transponders get distinct CFO bins so CFO-keyed identities
    /// are collision-free, as §5 assumes for modest tag counts.
    pub fn campus(poles_per_street: usize, epochs: usize, seed: u64) -> Self {
        let streets = Street::campus();
        let mut poles = Vec::new();
        let mut street_of_pole = Vec::new();
        let mut sites = Vec::new();
        let mut vehicles = Vec::new();
        let mut next_bin = 30usize;
        let mut next_id = 1u64;
        let tag = |bin: &mut usize, id: &mut u64, pos: Vec3, speed_mph: f64| {
            let carrier = MIN_TAG_CARRIER_HZ + *bin as f64 * BIN_RESOLUTION_HZ;
            let transponder = Transponder::new(
                TransponderPacket::from_id(TransponderId(*id)),
                carrier,
                pos + Vec3::new(0.0, 0.0, 1.2),
            );
            *bin += 25;
            *id += 1;
            Vehicle {
                transponder,
                start: pos,
                velocity: Vec3::new(caraoke_geom::mph_to_mps(speed_mph), 0.0, 0.0),
            }
        };

        for (s, street) in streets.iter().enumerate() {
            let y_offset = s as f64 * STREET_PITCH_M;
            for p in 0..poles_per_street {
                let x = p as f64 * 24.0;
                let pole = Pole::new(
                    &format!("{} pole {}", street.name, p),
                    x,
                    -6.0,
                    Street::pole_height(),
                    ArrayGeometry::default_pair(),
                );
                sites.push(PoleSite {
                    segment: SegmentId(s as u16),
                    // Directory positions carry the corridor offset so
                    // cross-street distances are huge; in-street distances
                    // match the real pole geometry.
                    position: pole.position + Vec3::new(0.0, y_offset, 0.0),
                });
                poles.push(pole);
                street_of_pole.push(s);
            }
            // Two parked cars in the street's parking row (where it has one).
            if street.parking_near_side {
                for spot in street.parking_row(4.0, 2) {
                    let v = tag(&mut next_bin, &mut next_id, spot.center, 0.0);
                    vehicles.push((s, v));
                }
            }
            // Two through cars, staggered so one enters mid-run.
            let lane_y = street.lane_center_y(0);
            let speed = 24.0 + 3.0 * s as f64;
            vehicles.push((
                s,
                tag(
                    &mut next_bin,
                    &mut next_id,
                    Vec3::new(2.0, lane_y, 0.0),
                    speed,
                ),
            ));
            vehicles.push((
                s,
                tag(
                    &mut next_bin,
                    &mut next_id,
                    Vec3::new(-18.0, lane_y, 0.0),
                    speed + 4.0,
                ),
            ));
        }

        Self {
            poles,
            street_of_pole,
            streets,
            poles_per_street,
            directory: PoleDirectory::new(sites),
            vehicles,
            epochs,
            epoch_us: 1_000_000,
            seed,
            propagation: PropagationModel::line_of_sight(),
            query_cache: Mutex::new(HashMap::new()),
            query_cache_hits: AtomicU64::new(0),
        }
    }

    /// Number of `(pole, epoch)` query reports served from the memo cache —
    /// each one a full PHY query (collision synthesis plus reader pipeline)
    /// that neighbour pairing did not have to recompute.
    pub fn query_cache_hits(&self) -> u64 {
        self.query_cache_hits.load(Ordering::Relaxed)
    }

    /// Ground-truth number of transponders deployed.
    pub fn n_tags(&self) -> usize {
        self.vehicles.len()
    }

    /// The road region the localizer searches for one street: the
    /// instrumented stretch plus a margin, spanning the street's paved
    /// width (footnote 10: the car must be on the road).
    fn region(&self, street: usize) -> RoadRegion {
        let half_width = self.streets[street].width() / 2.0;
        RoadRegion {
            x_min: -40.0,
            x_max: (self.poles_per_street.saturating_sub(1)) as f64 * 24.0 + 40.0,
            y_min: -half_width,
            y_max: half_width,
            z: 0.0,
        }
    }

    /// The transponders on `street` at `t_s`, as the poles there hear them.
    fn street_tags(&self, street: usize, t_s: f64) -> Vec<Transponder> {
        self.vehicles
            .iter()
            .filter(|(s, _)| *s == street)
            .map(|(_, v)| v.transponder_at(t_s))
            .collect()
    }

    /// The query the given pole produces for `epoch` — bit-identical to the
    /// one its own `report(pole, epoch)` distils, so a neighbour pole can
    /// reproduce this pole's AoA estimates without any shared state.
    fn pole_query(&self, pole: usize, epoch: usize, tags: &[Transponder]) -> Arc<QueryReport> {
        if let Some(hit) = self
            .query_cache
            .lock()
            .expect("query cache poisoned")
            .get(&(pole, epoch))
            .cloned()
        {
            self.query_cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Miss: synthesize outside the lock — the query is the expensive
        // part, and a racing thread computing the same key produces an
        // identical report, so whichever insert wins is correct.
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, pole as u32, epoch));
        let query = Arc::new(self.poles[pole].query(tags, &self.propagation, &mut rng));
        let mut cache = self.query_cache.lock().expect("query cache poisoned");
        if cache.len() > 4 * self.poles.len().max(8) {
            // Drivers sweep epochs roughly in lockstep across threads;
            // entries more than a few epochs behind will never be asked
            // for again, so the cache stays O(poles), not O(poles·epochs).
            cache.retain(|&(_, e), _| e + 4 >= epoch);
        }
        Arc::clone(cache.entry((pole, epoch)).or_insert(query))
    }

    /// Cuts a single AoA cone with the road plane at the street's
    /// lane-centre prior: the [`PositionMethod::AoaOnly`] fallback.
    /// Well-constrained along the road, prior-quality across it; `None`
    /// near end-fire, where the along-road solution degenerates.
    ///
    /// [`PositionMethod::AoaOnly`]: crate::position::PositionMethod::AoaOnly
    fn aoa_only_fix(est: &AoaEstimate, lane_y: f64) -> Option<(f64, f64)> {
        let u = est.baseline.normalized();
        let cos_a = est.angle_rad.cos();
        let sin2 = (1.0 - cos_a * cos_a).max(0.0);
        if sin2 < 0.03 {
            return None;
        }
        let dy = lane_y - est.midpoint.y;
        let dz = -est.midpoint.z;
        let along = cos_a * ((dy * dy + dz * dz) / sin2).sqrt();
        let x = est.midpoint.x + along * u.x.signum();
        x.is_finite().then_some((x, lane_y))
    }

    /// Attaches §6 position estimates to every observation of a report:
    /// two-reader conic fixes against the street-neighbour pole where the
    /// geometry allows, AoA-only fixes otherwise, nothing (= downstream
    /// pole fallback) for spikes without an AoA.
    fn attach_positions(
        &self,
        pole: usize,
        epoch: usize,
        query: &QueryReport,
        tags: &[Transponder],
        report: &mut PoleReport,
    ) {
        let street_idx = self.street_of_pole[pole];
        let street = &self.streets[street_idx];
        let y_offset = street_idx as f64 * STREET_PITCH_M;
        let lane_y = street.lane_center_y(0);
        let region = self.region(street_idx);
        // Street neighbour for the two-reader pair (§6 mounts readers on
        // separate poles; 24 m apart here).
        let local = pole % self.poles_per_street.max(1);
        let partner = if local + 1 < self.poles_per_street {
            Some(pole + 1)
        } else if local >= 1 {
            Some(pole - 1)
        } else {
            None
        };
        let partner_query = partner.map(|p| self.pole_query(p, epoch, tags));
        for obs in &mut report.observations {
            if !obs.has_aoa {
                continue;
            }
            let Some(own) = query.aoa.iter().find(|a| a.bin == obs.cfo_bin as usize) else {
                continue;
            };
            let fix = partner_query
                .as_ref()
                .and_then(|pq| pq.aoa.iter().find(|a| a.bin == own.bin))
                .and_then(|theirs| {
                    try_localize_two_readers(
                        &ReaderPose::new(own.midpoint, own.baseline),
                        own.angle_rad,
                        &ReaderPose::new(theirs.midpoint, theirs.baseline),
                        theirs.angle_rad,
                        &region,
                    )
                    .ok()
                });
            obs.position = match fix {
                Some(p) => Some(PositionEstimate::two_reader(
                    p.x,
                    p.y + y_offset,
                    TWO_READER_SIGMA_M,
                )),
                None => Self::aoa_only_fix(own, lane_y).map(|(x, y)| {
                    PositionEstimate::aoa_only(
                        x,
                        y + y_offset,
                        AOA_ONLY_SIGMA_ALONG_M,
                        street.width() / 4.0,
                    )
                }),
            };
        }
    }
}

impl FrameSource for PhyCity {
    fn directory(&self) -> &PoleDirectory {
        &self.directory
    }

    fn epochs(&self) -> usize {
        self.epochs
    }

    fn epoch_us(&self) -> u64 {
        self.epoch_us
    }

    fn report(&self, pole: u32, epoch: usize) -> PoleReport {
        let t_s = epoch as f64 * self.epoch_us as f64 / 1e6;
        let street = self.street_of_pole[pole as usize];
        let tags = self.street_tags(street, t_s);
        let query = self.pole_query(pole as usize, epoch, &tags);
        let mut report = PoleReport::from_query(
            PoleId(pole),
            SegmentId(street as u16),
            epoch as u64 * self.epoch_us,
            &query,
        );
        self.attach_positions(pole as usize, epoch, &query, &tags, &mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_deployment_has_poles_and_tags() {
        let city = PhyCity::campus(2, 4, 11);
        assert_eq!(city.directory().len(), 8);
        // 3 streets with near-side parking x 2 parked + 4 streets x 2 through.
        assert_eq!(city.n_tags(), 14);
    }

    #[test]
    fn phy_frames_are_deterministic_and_see_real_tags() {
        let city = PhyCity::campus(2, 4, 11);
        let a = city.report(0, 0);
        let b = city.report(0, 0);
        assert_eq!(a, b, "frames must be reproducible per (pole, epoch)");
        // Street A: 2 parked + up to 2 through cars near x ∈ [0, 24].
        assert!(!a.is_empty(), "pole 0 must hear street A's tags");
        assert!(a.count >= 2);
        for obs in &a.observations {
            assert_eq!(obs.segment, SegmentId(0));
            assert!(obs.has_aoa);
        }
    }

    #[test]
    fn neighbour_query_memoization_is_hit_and_invisible() {
        let city = PhyCity::campus(2, 2, 11);
        let baseline = PhyCity::campus(2, 2, 11);
        let mut reports = Vec::new();
        for epoch in 0..2 {
            for pole in 0..4u32 {
                reports.push(city.report(pole, epoch));
            }
        }
        // Pole p's own query primes the entry its street neighbour needs,
        // so partner lookups after the first per (pole, epoch) are hits.
        assert!(
            city.query_cache_hits() > 0,
            "partner queries must be served from the cache"
        );
        // Memoization must be invisible to the output: a fresh (cold-cache)
        // instance produces byte-identical reports.
        let mut it = reports.iter();
        for epoch in 0..2 {
            for pole in 0..4u32 {
                assert_eq!(it.next().unwrap(), &baseline.report(pole, epoch));
            }
        }
    }

    #[test]
    fn phy_observations_carry_method_tagged_position_fixes() {
        use crate::position::PositionMethod;
        let city = PhyCity::campus(2, 4, 11);
        let report = city.report(0, 0);
        let positioned = report
            .observations
            .iter()
            .filter(|o| o.position.is_some())
            .count();
        assert!(positioned > 0, "two-antenna poles must localize something");
        // Ground truth: street 0's transponders at t = 0.
        let truth: Vec<Vec3> = city
            .street_tags(0, 0.0)
            .iter()
            .map(|t| t.position)
            .collect();
        let mut two_reader = 0;
        for obs in &report.observations {
            let Some(p) = obs.position else { continue };
            assert!(p.is_finite(), "no NaN fixes may leak");
            if p.method == PositionMethod::TwoReaderFix {
                two_reader += 1;
                let err = truth
                    .iter()
                    .map(|t| t.horizontal().distance(Vec3::new(p.xy.0, p.xy.1, 0.0)))
                    .fold(f64::INFINITY, f64::min);
                assert!(err < 6.0, "two-reader fix {:?} is {err:.1} m off", p.xy);
            }
        }
        assert!(two_reader > 0, "neighbour pairing must produce conic fixes");
    }
}
