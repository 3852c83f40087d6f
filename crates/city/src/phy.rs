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
//!
//! # Where the time goes
//!
//! A pole query is a synthesized collision plus the reader pipeline, and
//! a report needs two of them: its own and its neighbour's. Every pole of
//! a street pairs inside the street, so the unit of PHY work is the
//! street-epoch: the first report that touches one computes all of that
//! street's pole queries at once, spread over the machine's cores as a
//! deployment spreads them over its poles, and the street's other
//! reports read them. Each query is seeded by `(seed, pole, epoch)` alone,
//! so which thread computes it, and in what order, moves no bit.
//!
//! A query is [`Pole::query`]: it synthesizes and analyses the first
//! antenna in full, and the second only if the first heard a spike, then
//! only at the spike bins (§6 reads it nowhere else). Most campus queries
//! hear no spike (69 % of `campus(6, 64, 77)`'s), so most skip the second
//! antenna. What is left is mostly the first antenna's receiver noise
//! (≈ 48 % of a query), then its 2 048-point transform and, per report,
//! the two-reader fixes.

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
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

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

/// Epochs of street queries the memo keeps, counting the newest one asked
/// for. An entry serves only its own street-epoch's reports: a sequential
/// sweep is done with it before it moves on, and concurrent workers (such
/// as `BatchDriver`'s pole stripes) drift apart by less than this. An entry
/// evicted too early is computed again, bit for bit the same.
const RETAINED_EPOCHS: usize = 5;

/// One street's pole queries for one epoch, in pole order; empty until the
/// first report that needs them has computed all of them.
type StreetQueries = Arc<OnceLock<Vec<QueryReport>>>;

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
    /// Threads that compute one street's queries: the street's size, capped
    /// by the machine's parallelism.
    street_threads: usize,
    /// Memoized `(street, epoch)` pole queries. A report reads its own
    /// query and its neighbour's, so each would otherwise be computed
    /// twice. Entries are computed once even under concurrent callers (the
    /// others wait on the `OnceLock`) and are dropped [`RETAINED_EPOCHS`]
    /// behind the newest epoch asked for.
    query_cache: Mutex<HashMap<(usize, usize), StreetQueries>>,
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
            street_threads: poles_per_street
                .min(thread::available_parallelism().map_or(1, NonZeroUsize::get)),
            query_cache: Mutex::new(HashMap::new()),
            query_cache_hits: AtomicU64::new(0),
        }
    }

    /// Number of pole queries (collision synthesis plus reader pipeline)
    /// that reports read from the memo without computing them. A report
    /// reads two, its own and its neighbour's (one on a one-pole street);
    /// the report that computes its street-epoch counts none, every other
    /// report counts both, including one that waited for another thread
    /// to finish computing them.
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

    /// The memo entry of `(street, epoch)`, created empty if it is new.
    /// Creating one evicts every entry [`RETAINED_EPOCHS`] or more behind
    /// `epoch` once the memo holds that many epochs of the whole city.
    fn street_entry(&self, street: usize, epoch: usize) -> StreetQueries {
        let mut cache = self.query_cache.lock().expect("query cache poisoned");
        if cache.len() >= RETAINED_EPOCHS * self.streets.len()
            && !cache.contains_key(&(street, epoch))
        {
            cache.retain(|&(_, e), _| e + RETAINED_EPOCHS > epoch);
        }
        Arc::clone(cache.entry((street, epoch)).or_default())
    }

    /// Every pole query of `street` for `epoch`, in pole order, each
    /// bit-identical whichever thread computes it: a query's randomness
    /// comes from `(seed, pole, epoch)` alone, since [`Pole::query`] draws
    /// less on a query that hears no spike.
    fn street_queries(&self, street: usize, epoch: usize) -> Vec<QueryReport> {
        let t_s = epoch as f64 * self.epoch_us as f64 / 1e6;
        let tags = self.street_tags(street, t_s);
        let first = street * self.poles_per_street;
        par_map(self.poles_per_street, self.street_threads, |local| {
            let pole = first + local;
            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, pole as u32, epoch));
            self.poles[pole].query(&tags, &self.propagation, &mut rng)
        })
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
        query: &QueryReport,
        partner_query: Option<&QueryReport>,
        report: &mut PoleReport,
    ) {
        let street_idx = self.street_of_pole[pole];
        let street = &self.streets[street_idx];
        let y_offset = street_idx as f64 * STREET_PITCH_M;
        let lane_y = street.lane_center_y(0);
        let region = self.region(street_idx);
        for obs in &mut report.observations {
            if !obs.has_aoa {
                continue;
            }
            let Some(own) = query.aoa.iter().find(|a| a.bin == obs.cfo_bin as usize) else {
                continue;
            };
            let fix = partner_query
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
        let street = self.street_of_pole[pole as usize];
        let entry = self.street_entry(street, epoch);
        let mut computed = false;
        let queries = entry.get_or_init(|| {
            computed = true;
            self.street_queries(street, epoch)
        });
        // Street neighbour for the two-reader pair (§6 mounts readers on
        // separate poles; 24 m apart here).
        let local = pole as usize - street * self.poles_per_street;
        let partner = if local + 1 < self.poles_per_street {
            Some(local + 1)
        } else {
            local.checked_sub(1)
        };
        if !computed {
            let reads = 1 + u64::from(partner.is_some());
            self.query_cache_hits.fetch_add(reads, Ordering::Relaxed);
        }
        let query = &queries[local];
        let mut report = PoleReport::from_query(
            PoleId(pole),
            SegmentId(street as u16),
            epoch as u64 * self.epoch_us,
            query,
        );
        let partner_query = partner.map(|p| &queries[p]);
        self.attach_positions(pole as usize, query, partner_query, &mut report);
        report
    }
}

/// `f(0), …, f(n - 1)`, computed on `threads` scoped threads (the caller
/// is one of them) that take indices from a shared counter, returned in
/// index order. A panic in any call reaches the caller once every thread
/// has stopped, and nothing is returned.
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::panic::AssertUnwindSafe;

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
        // A street-epoch's first report computes the street's queries; its
        // other reports read theirs and their neighbour's from the memo.
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

        // A cold report equals the warm one for the first, middle and last
        // pole of a street, whichever pole's report filled the street's entry.
        let warm = PhyCity::campus(3, 2, 11);
        let swept: Vec<PoleReport> = (0..12).map(|pole| warm.report(pole, 1)).collect();
        for pole in 3..6u32 {
            let cold = PhyCity::campus(3, 2, 11);
            assert_eq!(cold.report(pole, 1), swept[pole as usize], "pole {pole}");
        }

        // The memo stays bounded over a long sweep.
        let long = PhyCity::campus(2, 64, 11);
        for epoch in 0..64 {
            for pole in 0..8u32 {
                long.report(pole, epoch);
                let held = long.query_cache.lock().unwrap().len();
                assert!(held <= RETAINED_EPOCHS * 4, "{held} street-epochs held");
            }
        }
    }

    #[test]
    fn concurrent_sweeps_compute_each_pole_query_once() {
        // 4 streets × 3 poles; 4 epochs, fewer than the memo retains, so
        // no entry is evicted mid-test.
        const POLES: usize = 12;
        const EPOCHS: usize = 4;
        const _: () = assert!(EPOCHS < RETAINED_EPOCHS);
        const STREET_EPOCHS: u64 = 4 * EPOCHS as u64;
        let sequential = PhyCity::campus(3, EPOCHS, 11);
        let expected: Vec<PoleReport> = (0..EPOCHS)
            .flat_map(|epoch| (0..POLES).map(move |pole| (pole, epoch)))
            .map(|(pole, epoch)| sequential.report(pole as u32, epoch))
            .collect();
        // A street-epoch's first report computes it and counts no hit;
        // every other report hits twice (its own query and its partner's).
        assert_eq!(sequential.query_cache_hits(), 64);
        assert_eq!(
            sequential.query_cache_hits(),
            2 * (POLES * EPOCHS) as u64 - 2 * STREET_EPOCHS
        );

        const SWEEPS: usize = 4;
        let city = PhyCity::campus(3, EPOCHS, 11);
        let start = std::sync::Barrier::new(SWEEPS);
        std::thread::scope(|scope| {
            for sweep in 0..SWEEPS {
                let (city, expected, start) = (&city, &expected, &start);
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..POLES * EPOCHS).collect();
                    let mut rng = StdRng::seed_from_u64(sweep as u64);
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.random_range(0..=i));
                    }
                    start.wait();
                    for k in order {
                        let (pole, epoch) = (k % POLES, k / POLES);
                        assert_eq!(city.report(pole as u32, epoch), expected[k]);
                    }
                });
            }
        });
        let reports = (SWEEPS * POLES * EPOCHS) as u64;
        assert_eq!(city.query_cache_hits(), 2 * reports - 2 * STREET_EPOCHS);
    }

    #[test]
    fn lazy_pole_queries_equal_full_ones_over_the_campus() {
        // The reference is the whole signal `receive` draws from the same
        // seed, every antenna synthesized and analysed. Per query: peaks,
        // multi-occupied peaks.
        let mut shapes = Vec::new();
        for seed in [77, 78, 123] {
            let city = PhyCity::campus(6, 64, seed);
            let poles = city.poles.len();
            shapes.extend(par_map(poles * city.epochs, 2, |k| {
                let (pole, epoch) = (k % poles, k / poles);
                let t_s = epoch as f64 * city.epoch_us as f64 / 1e6;
                let tags = city.street_tags(city.street_of_pole[pole], t_s);
                let rng = || StdRng::seed_from_u64(mix_seed(seed, pole as u32, epoch));
                let station = &city.poles[pole];
                let lazy = station.query(&tags, &city.propagation, &mut rng());
                let signal = station.receive(&tags, &city.propagation, &mut rng());
                let full = station.reader.process_query(&signal).unwrap();
                assert_eq!(lazy, full, "seed {seed} pole {pole} epoch {epoch}");
                let peaks = &lazy.spectrum.peaks;
                (
                    peaks.len(),
                    peaks.iter().filter(|p| p.multi_occupied).count(),
                )
            }));
        }
        let silent = shapes.iter().filter(|&&(peaks, _)| peaks == 0).count();
        eprintln!(
            "{silent} of {} campus queries hear no spike ({:.1} %)",
            shapes.len(),
            100.0 * silent as f64 / shapes.len() as f64
        );
        // Both branches of the lazy path are swept: queries that stop
        // after the first antenna, and ones that read several peaks, one
        // of them multi-occupied (`sim`'s deployment tests add a shared
        // bin and a three-antenna pole).
        assert!(silent > 0);
        assert!(shapes.iter().any(|&(peaks, _)| peaks >= 2));
        assert!(shapes.iter().any(|&(_, multi)| multi > 0));
    }

    #[test]
    fn a_panicking_street_batch_leaves_its_entry_empty() {
        // `report` fills an entry with `get_or_init(|| par_map(..))`. No
        // deployment input makes a PHY query panic, so the same composition
        // is driven here with a query that does.
        let entry = OnceLock::new();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            entry.get_or_init(|| {
                par_map(6, 2, |i| {
                    assert_ne!(i, 4, "query {i} fails");
                    i
                })
            })
        }));
        assert!(attempt.is_err(), "the panic reaches the caller");
        assert!(entry.get().is_none(), "no half batch is published");
        // The next caller computes the whole batch again.
        let refilled = entry.get_or_init(|| par_map(6, 2, |i| i));
        assert_eq!(refilled, &(0..6).collect::<Vec<_>>());
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
