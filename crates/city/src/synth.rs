//! Synthetic city-scale frame source.
//!
//! Running the full PHY + reader pipeline for thousands of poles is the
//! evaluation path (see [`crate::phy`]); sizing the *ingestion tier* needs a
//! source that emits realistic [`PoleReport`]s orders of magnitude faster.
//! [`SyntheticCity`] models a ring road of poles with three deterministic
//! traffic classes:
//!
//! * **parked** tags per pole (the occupancy workload, Fig. 13),
//! * **through** vehicles advancing one pole per epoch (speed / OD / flow),
//! * **slow** vehicles advancing one pole every two epochs (speed diversity).
//!
//! Every quantity is derived from `(seed, pole, epoch)` via [`mix_seed`], so
//! any thread may generate any frame and the result is identical — the
//! contract [`crate::driver::FrameSource`] requires.

use crate::driver::FrameSource;
use crate::event::{PoleId, PoleReport, SegmentId, TagKey, TagObservation};
use crate::position::PositionEstimate;
use crate::store::{PoleDirectory, PoleSite};
use caraoke_geom::Vec3;
use caraoke_phy::TransponderId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Key space offsets keeping the three traffic classes distinct.
const THROUGH_BASE: u64 = 1 << 40;
const SLOW_BASE: u64 = 2 << 40;
const PARKED_BASE: u64 = 3 << 40;

/// SplitMix64-style finalizer mixing a seed with frame coordinates, so that
/// per-frame randomness is independent of generation order.
pub fn mix_seed(seed: u64, pole: u32, epoch: usize) -> u64 {
    let mut z = seed
        .wrapping_add((pole as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((epoch as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic synthetic deployment: `n_poles` along a ring road.
#[derive(Debug, Clone)]
pub struct SyntheticCity {
    directory: PoleDirectory,
    epochs: usize,
    seed: u64,
    /// Through vehicles per pole slot (density of the fast class).
    pub through_density: u32,
    /// Slow vehicles per pole slot.
    pub slow_density: u32,
    /// Maximum parked tags per pole (actual count varies by pole).
    pub max_parked: u32,
    /// Probability that any single observation is missed (detection loss).
    pub miss_probability: f64,
    /// Epoch duration, µs (one query burst per epoch, §9-style pacing).
    pub epoch_us: u64,
    /// One in `decode_every` observations carries the tag's decoded id (§8
    /// decode averaging succeeds only occasionally per query burst); `0`
    /// disables decoding entirely.
    pub decode_every: u32,
    /// When set, tags are keyed by CFO signature ([`TagKey::from_cfo_bin`])
    /// instead of by unique synthetic key, so distinct tags *collide* on the
    /// 615 CFO bins at high density — the regime that exercises the store's
    /// decode-alias upgrade path and its collision counters.
    pub cfo_keyed: bool,
    /// 1-σ of the noise added to the ground-truth position, metres (the
    /// paper's two-reader fixes are ~1 m; AoA-only fixes get 3× this along
    /// the road).
    pub position_noise_m: f64,
}

/// Poles per street segment in the synthetic layout.
const POLES_PER_SEGMENT: u32 = 8;

impl SyntheticCity {
    /// Builds a city of `n_poles` reader poles running `epochs` query epochs.
    ///
    /// Pole spacing varies 20–45 m around the ring so the through traffic
    /// exhibits a spread of ground-truth speeds (≈30–65 mph at the default
    /// 1.5 s epoch).
    pub fn new(n_poles: usize, epochs: usize, seed: u64) -> Self {
        let mut x = 0.0;
        let sites = (0..n_poles)
            .map(|i| {
                let spacing = 20.0 + (i % 6) as f64 * 5.0;
                x += spacing;
                PoleSite {
                    segment: SegmentId((i as u32 / POLES_PER_SEGMENT) as u16),
                    position: Vec3::new(x, -5.0, 3.8),
                }
            })
            .collect();
        Self::with_sites(sites, epochs, seed)
    }

    /// Builds a city over an explicit pole layout — arbitrary topologies
    /// (grids, radial rings, corridors, chokepoints) instead of the default
    /// ring. The traffic model is unchanged: through vehicles advance one
    /// pole *index* per epoch, so the site order defines the route, and
    /// every frame stays a pure function of `(seed, pole, epoch)`.
    pub fn with_sites(sites: Vec<PoleSite>, epochs: usize, seed: u64) -> Self {
        Self {
            directory: PoleDirectory::new(sites),
            epochs,
            seed,
            through_density: 2,
            slow_density: 1,
            max_parked: 3,
            miss_probability: 0.05,
            epoch_us: 1_500_000,
            decode_every: 6,
            cfo_keyed: false,
            position_noise_m: 0.8,
        }
    }

    /// Average observations per frame with the current densities (used to
    /// size benchmark workloads).
    pub fn mean_observations_per_frame(&self) -> f64 {
        self.through_density as f64 + self.slow_density as f64 + self.max_parked as f64 / 2.0
    }

    fn n_poles(&self) -> u32 {
        self.directory.len() as u32
    }

    fn observation(
        &self,
        raw: u64,
        pole: u32,
        timestamp_us: u64,
        rng: &mut StdRng,
    ) -> TagObservation {
        let site = self.directory.site(PoleId(pole));
        let cfo_bin = (raw % 615) as u32;
        // CFO-keyed mode models the pre-decoding identity the paper's §5
        // pipeline really has: the key is the (possibly shared) CFO bin, and
        // only a decode pins down which transponder it was.
        let tag = if self.cfo_keyed {
            TagKey::from_cfo_bin(cfo_bin as usize)
        } else {
            TagKey(raw)
        };
        let decoded = if self.decode_every > 0 && rng.random_range(0..self.decode_every) == 0 {
            Some(TransponderId(raw))
        } else {
            None
        };
        // Synthetic §6 localization: noisy ground truth (the heard pole's
        // road slot, one lane off the pole line) with a deterministic
        // method mix — 70% two-reader fixes, 20% AoA-only (noisier along
        // the road), 10% no estimate so the pole fallback stays exercised.
        let truth_x = site.position.x;
        let truth_y = site.position.y + 3.0;
        let noise = self.position_noise_m;
        let position = match rng.random_range(0..10u32) {
            0..=6 => {
                let x = truth_x + rng.random_range(-noise..noise.max(1e-9));
                let y = truth_y + rng.random_range(-noise..noise.max(1e-9));
                Some(PositionEstimate::two_reader(x, y, noise))
            }
            7 | 8 => {
                let wide = 3.0 * noise;
                let x = truth_x + rng.random_range(-wide..wide.max(1e-9));
                let y = truth_y + rng.random_range(-noise..noise.max(1e-9));
                Some(PositionEstimate::aoa_only(x, y, wide, 2.0))
            }
            _ => None,
        };
        TagObservation {
            tag,
            pole: PoleId(pole),
            segment: site.segment,
            cfo_bin,
            cfo_hz: cfo_bin as f64 * 1953.125,
            aoa_rad: rng.random_range(0.35..2.8),
            has_aoa: true,
            rssi_db: rng.random_range(-62.0..-38.0),
            timestamp_us,
            multi_occupied: rng.random_range(0.0..1.0) < 0.02,
            decoded,
            position,
        }
    }
}

impl FrameSource for SyntheticCity {
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
        let n = self.n_poles();
        let t = epoch as u64 * self.epoch_us;
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, pole, epoch));
        let mut observations = Vec::new();

        // Through traffic: vehicle `v` sits at pole `(v + epoch) % n`, so the
        // vehicles now at `pole` are those with `v ≡ pole - epoch (mod n)`.
        let residue = (pole as i64 - epoch as i64).rem_euclid(n as i64) as u64;
        for m in 0..self.through_density as u64 {
            let v = m * n as u64 + residue;
            observations.push(self.observation(THROUGH_BASE + v, pole, t, &mut rng));
        }

        // Slow traffic advances every other epoch: at `(v + epoch/2) % n`.
        let slow_residue = (pole as i64 - (epoch / 2) as i64).rem_euclid(n as i64) as u64;
        for m in 0..self.slow_density as u64 {
            let v = m * n as u64 + slow_residue;
            observations.push(self.observation(SLOW_BASE + v, pole, t, &mut rng));
        }

        // Parked tags: a per-pole constant population (0..=max_parked).
        let parked_here = if self.max_parked == 0 {
            0
        } else {
            (mix_seed(self.seed, pole, usize::MAX) % (self.max_parked as u64 + 1)) as u32
        };
        for k in 0..parked_here as u64 {
            // 2^20 stride per pole: keys stay collision-free for any
            // max_parked < 2^20 and pole count < 2^20.
            let tag = PARKED_BASE + ((pole as u64) << 20) + k;
            observations.push(self.observation(tag, pole, t, &mut rng));
        }

        // Detection losses: each observation independently missed with
        // `miss_probability` (drawn after generation, order-stable).
        observations.retain(|_| rng.random_range(0.0..1.0) >= self.miss_probability);

        let count = observations.len() as u32;
        PoleReport {
            pole: PoleId(pole),
            segment: self.directory.site(PoleId(pole)).segment,
            timestamp_us: t,
            count,
            peaks: count,
            observations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic_per_coordinate() {
        let city = SyntheticCity::new(50, 20, 99);
        let a = city.report(17, 9);
        let b = city.report(17, 9);
        assert_eq!(a, b);
        let c = city.report(18, 9);
        assert_ne!(a, c);
    }

    #[test]
    fn through_vehicles_advance_one_pole_per_epoch() {
        let mut city = SyntheticCity::new(40, 10, 1);
        city.miss_probability = 0.0;
        city.max_parked = 0;
        city.slow_density = 0;
        // Vehicle present at pole 5 / epoch 3 must be at pole 6 / epoch 4.
        let now = city.report(5, 3);
        let next = city.report(6, 4);
        let tags_now: Vec<u64> = now.observations.iter().map(|o| o.tag.0).collect();
        let tags_next: Vec<u64> = next.observations.iter().map(|o| o.tag.0).collect();
        assert_eq!(tags_now, tags_next, "same vehicles, one pole downstream");
        assert_eq!(tags_now.len(), city.through_density as usize);
    }

    #[test]
    fn parked_population_is_stable_over_time() {
        let city = SyntheticCity::new(30, 10, 5);
        let parked = |r: &PoleReport| -> Vec<u64> {
            r.observations
                .iter()
                .filter(|o| o.tag.0 >= PARKED_BASE)
                .map(|o| o.tag.0)
                .collect()
        };
        // Same pole, different epochs: parked set identical up to misses.
        let mut city_no_miss = city.clone();
        city_no_miss.miss_probability = 0.0;
        let a = parked(&city_no_miss.report(12, 0));
        let b = parked(&city_no_miss.report(12, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn synthetic_positions_are_noisy_ground_truth_with_a_method_mix() {
        use crate::position::PositionMethod;
        let city = SyntheticCity::new(40, 12, 31);
        let mut counts = [0usize; 3];
        for pole in 0..40u32 {
            for epoch in 0..12 {
                let site_x = city.directory.site(PoleId(pole)).position.x;
                for obs in &city.report(pole, epoch).observations {
                    match obs.position {
                        Some(p) => {
                            assert!(p.is_finite());
                            let slack = match p.method {
                                PositionMethod::TwoReaderFix => {
                                    counts[0] += 1;
                                    city.position_noise_m
                                }
                                PositionMethod::AoaOnly => {
                                    counts[1] += 1;
                                    3.0 * city.position_noise_m
                                }
                                PositionMethod::PolePosition => unreachable!(),
                            };
                            assert!(
                                (p.xy.0 - site_x).abs() <= slack + 1e-9,
                                "fix strayed {} m from the pole slot",
                                (p.xy.0 - site_x).abs()
                            );
                        }
                        None => counts[2] += 1,
                    }
                }
            }
        }
        // All three rungs of the method ladder occur, in roughly the
        // configured 70/20/10 proportions.
        let total = (counts[0] + counts[1] + counts[2]) as f64;
        assert!(counts.iter().all(|&c| c > 0), "method mix {counts:?}");
        assert!((counts[0] as f64 / total) > 0.5, "mix {counts:?}");
        assert!((counts[2] as f64 / total) < 0.25, "mix {counts:?}");
    }

    #[test]
    fn misses_thin_the_observations() {
        let mut lossless = SyntheticCity::new(64, 30, 3);
        lossless.miss_probability = 0.0;
        let mut lossy = lossless.clone();
        lossy.miss_probability = 0.5;
        let count = |city: &SyntheticCity| -> usize {
            (0..64u32)
                .flat_map(|p| (0..30).map(move |e| (p, e)))
                .map(|(p, e)| city.report(p, e).observations.len())
                .sum()
        };
        let full = count(&lossless);
        let thinned = count(&lossy);
        assert!(thinned < full * 7 / 10, "{thinned} vs {full}");
        assert!(thinned > full * 3 / 10, "{thinned} vs {full}");
    }
}
