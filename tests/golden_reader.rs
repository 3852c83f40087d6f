//! Golden pins for the reader side: PHY reports, spectra, two-reader fixes.
//!
//! `tests/golden_chains.rs` pins what the live tier seals from a
//! *synthetic* city; nothing pinned what the reader pipeline (`dsp` →
//! `core` → `geom`) hands it. These literals were recorded once, on the
//! code *before* the reader's per-query path was optimised, so a change
//! that moves one bit of a spectrum, a peak, an AoA or a fix fails here
//! even though every in-process comparison still agrees with itself.
//! The digest is an inline FNV-1a-64 over `to_bits()` and integers — no
//! `Debug` formatting, no `DefaultHasher`, nothing a toolchain can change.

use caraoke_suite::city::{
    synth::mix_seed, FrameSource, PhyCity, PoleReport, PositionMethod, TagObservation,
};
use caraoke_suite::dsp::{fft, Complex};
use caraoke_suite::geom::localize::{LocalizeError, RoadRegion};
use caraoke_suite::geom::{try_localize_two_readers, ReaderPose, Vec3};
use caraoke_suite::live::{LiveCity, LiveConfig};
use caraoke_suite::phy::antenna::ArrayGeometry;
use caraoke_suite::phy::cfo::MIN_TAG_CARRIER_HZ;
use caraoke_suite::phy::channel::PropagationModel;
use caraoke_suite::phy::protocol::{TransponderId, TransponderPacket};
use caraoke_suite::phy::Transponder;
use caraoke_suite::reader::QueryReport;
use caraoke_suite::sim::{Pole, Street, Vehicle};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// FNV-1a, 64 bit, fed eight little-endian bytes at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }
}

fn hash_observation(h: &mut Fnv, obs: &TagObservation) {
    h.u64(obs.tag.0);
    h.u64(u64::from(obs.pole.0));
    h.u64(u64::from(obs.segment.0));
    h.u64(u64::from(obs.cfo_bin));
    h.f64(obs.cfo_hz);
    h.f64(obs.aoa_rad);
    h.u64(u64::from(obs.has_aoa));
    h.f64(obs.rssi_db);
    h.u64(obs.timestamp_us);
    h.u64(u64::from(obs.multi_occupied));
    h.u64(obs.decoded.map_or(u64::MAX, |id| id.0));
    match obs.position {
        None => h.u64(0),
        Some(p) => {
            h.u64(1);
            h.f64(p.xy.0);
            h.f64(p.xy.1);
            for c in p.covariance {
                h.f64(c);
            }
            h.u64(match p.method {
                PositionMethod::TwoReaderFix => 1,
                PositionMethod::AoaOnly => 2,
                PositionMethod::PolePosition => 3,
            });
        }
    }
}

fn hash_report(h: &mut Fnv, report: &PoleReport) {
    h.u64(u64::from(report.pole.0));
    h.u64(u64::from(report.segment.0));
    h.u64(report.timestamp_us);
    h.u64(u64::from(report.count));
    h.u64(u64::from(report.peaks));
    h.u64(report.observations.len() as u64);
    for obs in &report.observations {
        hash_observation(h, obs);
    }
}

/// Every report of `city`, epoch by epoch, pole by pole.
fn all_reports(city: &PhyCity) -> Vec<PoleReport> {
    let poles = city.directory().len() as u32;
    (0..city.epochs())
        .flat_map(|epoch| (0..poles).map(move |pole| (pole, epoch)))
        .map(|(pole, epoch)| city.report(pole, epoch))
        .collect()
}

fn reports_digest(reports: &[PoleReport]) -> u64 {
    let mut h = Fnv::new();
    for report in reports {
        hash_report(&mut h, report);
    }
    h.0
}

#[test]
fn campus_6_16_77_reports_and_their_live_chain_are_the_recorded_ones() {
    let city = PhyCity::campus(6, 16, 77);
    let reports = all_reports(&city);
    assert_eq!(reports.len(), 24 * 16);
    assert_eq!(reports_digest(&reports), 0x5959_65f6_fff7_6683);

    // The same reports, streamed in order through the live tier.
    let live = LiveCity::new(city.directory().clone(), LiveConfig::default());
    for report in &reports {
        live.ingest(report);
    }
    live.finish();
    assert_eq!(
        (live.fingerprint_chain(), live.totals().fingerprint()),
        (0xb136_f08b_efb9_40d9, 0x4ab4_a348_c48b_dc22)
    );
}

#[test]
fn campus_2_4_11_reports_are_the_recorded_ones() {
    let city = PhyCity::campus(2, 4, 11);
    let reports = all_reports(&city);
    assert_eq!(reports.len(), 8 * 4);
    assert_eq!(reports_digest(&reports), 0xdc5a_6ef2_e643_3a9f);
}

/// The transponders `PhyCity::campus` puts on `street` (two parked cars
/// where the street has near-side parking, two through cars), at `t_s`
/// seconds. CFO bins and ids run on across streets as they do there.
fn campus_street_tags(streets: &[Street], street: usize, t_s: f64) -> Vec<Transponder> {
    let mut next_bin = 30usize;
    let mut next_id = 1u64;
    let mut out = Vec::new();
    for (s, st) in streets.iter().enumerate() {
        let lane_y = st.lane_center_y(0);
        let speed = 24.0 + 3.0 * s as f64;
        let mut cars: Vec<(Vec3, f64)> = Vec::new();
        if st.parking_near_side {
            cars.extend(st.parking_row(4.0, 2).iter().map(|spot| (spot.center, 0.0)));
        }
        cars.push((Vec3::new(2.0, lane_y, 0.0), speed));
        cars.push((Vec3::new(-18.0, lane_y, 0.0), speed + 4.0));
        for (start, mph) in cars {
            let vehicle = Vehicle {
                transponder: Transponder::new(
                    TransponderPacket::from_id(TransponderId(next_id)),
                    MIN_TAG_CARRIER_HZ + next_bin as f64 * 1953.125,
                    start + Vec3::new(0.0, 0.0, 1.2),
                ),
                start,
                velocity: Vec3::new(caraoke_suite::geom::mph_to_mps(mph), 0.0, 0.0),
            };
            next_bin += 25;
            next_id += 1;
            if s == street {
                out.push(vehicle.transponder_at(t_s));
            }
        }
    }
    out
}

/// `q` and the full per-antenna `spectra` of the signal it analysed.
fn hash_query(h: &mut Fnv, q: &QueryReport, spectra: &[Vec<Complex>]) {
    h.f64(q.spectrum.bin_resolution);
    h.u64(spectra.len() as u64);
    for spectrum in spectra {
        h.u64(spectrum.len() as u64);
        for c in spectrum {
            h.f64(c.re);
            h.f64(c.im);
        }
    }
    h.u64(q.spectrum.peaks.len() as u64);
    for peak in &q.spectrum.peaks {
        h.u64(peak.bin as u64);
        h.f64(peak.cfo_hz);
        h.u64(peak.values.len() as u64);
        for v in &peak.values {
            h.f64(v.re);
            h.f64(v.im);
        }
        h.f64(peak.magnitude);
        h.u64(u64::from(peak.multi_occupied));
    }
    h.u64(q.count.count as u64);
    h.u64(q.count.peaks as u64);
    h.u64(q.count.multi_occupied_peaks as u64);
    h.u64(q.aoa.len() as u64);
    for a in &q.aoa {
        h.u64(a.peak_index as u64);
        h.u64(a.bin as u64);
        h.f64(a.cfo_hz);
        h.f64(a.angle_rad);
        h.u64(a.pair.0 as u64);
        h.u64(a.pair.1 as u64);
        h.vec3(a.baseline);
        h.vec3(a.midpoint);
    }
}

#[test]
fn one_pole_query_per_campus_street_is_the_recorded_one() {
    let streets = Street::campus();
    let recorded = [
        0x90ea_9014_c332_27b4_u64,
        0xd6e8_f918_b10b_c77c,
        0x9339_b21d_c65b_fbcd,
        0x4e98_f255_0529_172e,
    ];
    for (street, &want) in recorded.iter().enumerate() {
        let pole = Pole::new(
            "golden",
            24.0,
            -6.0,
            Street::pole_height(),
            ArrayGeometry::default_pair(),
        );
        let tags = campus_street_tags(&streets, street, 1.0);
        let model = PropagationModel::line_of_sight();
        let rng = || StdRng::seed_from_u64(mix_seed(77, street as u32, 1));
        let query = pole.query(&tags, &model, &mut rng());
        assert!(!query.spectrum.peaks.is_empty(), "street {street} is empty");
        // The query keeps no spectrum; the ones recorded are the full
        // transforms of the signal it heard, received from the same seed.
        let signal = pole.receive(&tags, &model, &mut rng());
        let spectra: Vec<Vec<Complex>> = signal.antennas.iter().map(|a| fft(a)).collect();
        assert_eq!(spectra.len(), 2);
        let mut h = Fnv::new();
        hash_query(&mut h, &query, &spectra);
        assert_eq!(h.0, want, "street {street}: got {:#018x}", h.0);
    }
}

/// §8 decoding on the campus, as the benchmark's decode phase draws it: the
/// street's first pole, the street's tags at `round % 8` seconds, and 16
/// collisions from `Pole::receive`. These are the cases where accepting
/// the first accumulation whose bits pass the CRC decoded an id that no
/// tag in range has.
#[test]
fn campus_decoding_accepts_no_id_out_of_range() {
    let streets = Street::campus();
    let pole = Pole::new(
        "decode",
        0.0,
        -6.0,
        Street::pole_height(),
        ArrayGeometry::default_pair(),
    );
    let (mut correct, mut wrong) = (0, Vec::new());
    for (seed, round, street) in [
        (87, 8, 0),
        (92, 1, 0),
        (384, 17, 3),
        (388, 8, 0),
        (405, 9, 0),
    ] {
        let tags = campus_street_tags(&streets, street, (round % 8) as f64);
        let truth: Vec<u64> = pole.tags_in_range(&tags).iter().map(|t| t.id().0).collect();
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, street as u32, 1_000_000 + round));
        let collisions: Vec<_> = (0..16)
            .map(|_| pole.receive(&tags, &PropagationModel::line_of_sight(), &mut rng))
            .collect();
        let reports = pole
            .reader
            .decode_everyone(&collisions)
            .expect("own signal");
        for outcome in reports.iter().filter_map(|r| r.outcome.as_ref().ok()) {
            let id = outcome.packet.id.0;
            if truth.contains(&id) {
                correct += 1;
            } else {
                wrong.push((seed, round, street, id));
            }
        }
    }
    assert_eq!(wrong, [], "(seed, round, street, id) decoded out of range");
    assert!(correct > 0, "the cases decode some tag in range");
}

#[test]
fn two_reader_fix_sweep_is_the_recorded_one() {
    let mut rng = StdRng::seed_from_u64(0x6f1d_2015);
    let h_pole = Street::pole_height();
    let tilt = 60.0_f64.to_radians();
    let region = RoadRegion {
        x_min: -20.0,
        x_max: 50.0,
        y_min: -5.0,
        y_max: 5.0,
        z: 0.0,
    };
    let mut h = Fnv::new();
    // Ok, NoIntersection, AmbiguousFix, anything else.
    let mut outcomes = [0u32; 4];
    for i in 0..256usize {
        let tilted = i % 2 == 1;
        let mount = (i / 2) % 4;
        let perturb = match (i / 8) % 3 {
            0 => 0.0,
            1 => 3.0_f64.to_radians(),
            _ => -(3.0_f64.to_radians()),
        };
        let gap = rng.random_range(15.0..30.0);
        // Opposite sides, same side, both on the median (mirror-symmetric),
        // opposite sides with the car off the road.
        let (ya, yb) = match mount {
            1 => (-6.0, -6.0),
            2 => (0.0, 0.0),
            _ => (-6.0, 6.0),
        };
        let pose = |x: f64, y: f64| {
            if tilted {
                ReaderPose::tilted(x, y, h_pole, tilt)
            } else {
                ReaderPose::road_parallel(x, y, h_pole)
            }
        };
        let a = pose(0.0, ya);
        let b = pose(gap, yb);
        let car = if mount == 3 {
            Vec3::new(
                rng.random_range(60.0..120.0),
                rng.random_range(8.0..30.0),
                0.0,
            )
        } else {
            Vec3::new(
                rng.random_range(-10.0..40.0),
                rng.random_range(-4.5..4.5),
                0.0,
            )
        };
        let alpha_a = a.baseline.angle_to(car - a.position) + perturb;
        let alpha_b = b.baseline.angle_to(car - b.position) - perturb;
        let fix = try_localize_two_readers(
            &a,
            alpha_a.clamp(0.0, std::f64::consts::PI),
            &b,
            alpha_b.clamp(0.0, std::f64::consts::PI),
            &region,
        );
        match fix {
            Ok(p) => {
                outcomes[0] += 1;
                h.u64(0);
                h.vec3(p);
            }
            Err(e) => {
                let code = match e {
                    LocalizeError::NonFiniteInput => 1,
                    LocalizeError::ZeroBaseline => 2,
                    LocalizeError::InvalidAoa => 3,
                    LocalizeError::CollinearReaders => 4,
                    LocalizeError::EmptyRegion => 5,
                    LocalizeError::AmbiguousFix => 6,
                    LocalizeError::NoIntersection => 7,
                };
                outcomes[match e {
                    LocalizeError::NoIntersection => 1,
                    LocalizeError::AmbiguousFix => 2,
                    _ => 3,
                }] += 1;
                h.u64(code);
            }
        }
    }
    assert_eq!(
        outcomes,
        [203, 26, 27, 0],
        "Ok / NoIntersection / Ambiguous / other"
    );
    assert_eq!(h.0, 0xb68c_46cb_dfa0_7534);
}
