//! Cross-crate integration tests: the full pipeline from the PHY simulator
//! through the reader algorithms to the applications, exercised the way the
//! examples and benches use it.

use caraoke::{CaraokeReader, ReaderConfig};
use caraoke_geom::Vec3;
use caraoke_phy::antenna::{AntennaArray, ArrayGeometry};
use caraoke_phy::channel::PropagationModel;
use caraoke_phy::{synthesize_collision, CfoModel, Transponder};
use caraoke_sim::{DecodingScenario, ParkingScenario, SpeedScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reader_on_pole(x: f64, y: f64) -> CaraokeReader {
    let array = AntennaArray::from_geometry(
        Vec3::new(x, y, 3.8),
        Vec3::new(0.0, -y.signum(), 0.0),
        ArrayGeometry::default_pair(),
    );
    CaraokeReader::new(ReaderConfig::default(), array).expect("valid reader")
}

#[test]
fn count_localize_and_decode_one_collision_set() {
    let mut rng = StdRng::seed_from_u64(1001);
    let reader = reader_on_pole(0.0, -5.0);
    let tags: Vec<Transponder> = (0..4)
        .map(|i| {
            Transponder::with_id(
                0xAA00 + i as u64,
                Vec3::new(3.0 + 4.0 * i as f64, (i % 2) as f64 * 3.0 - 1.5, 1.2),
                CfoModel::Empirical,
                &mut rng,
            )
        })
        .collect();
    let model = PropagationModel::line_of_sight();
    let queries: Vec<_> = (0..48)
        .map(|_| {
            synthesize_collision(
                &tags,
                reader.array(),
                &model,
                &reader.config().signal,
                &mut rng,
            )
        })
        .collect();

    // Counting from a single collision.
    let report = reader.process_query(&queries[0]).expect("query report");
    assert!(
        report.count.count >= 3 && report.count.count <= 5,
        "count {} far from truth 4",
        report.count.count
    );

    // Localization: every matched AoA within a few degrees of geometry.
    for est in &report.aoa {
        if let Some(tag) = tags
            .iter()
            .find(|t| (t.cfo() - est.cfo_hz).abs() < 2.0 * report.spectrum.bin_resolution)
        {
            let truth = reader
                .array()
                .true_angle(est.pair.0, est.pair.1, tag.position);
            assert!(
                (est.angle_rad - truth).to_degrees().abs() < 6.0,
                "AoA error too large"
            );
        }
    }

    // Decoding: every tag's id is recovered from the same recorded collisions.
    let mut decoded: Vec<u64> = reader
        .decode_everyone(&queries)
        .expect("decode")
        .into_iter()
        .filter_map(|r| r.outcome.ok().map(|o| o.packet.id.0))
        .collect();
    decoded.sort_unstable();
    decoded.dedup();
    for tag in &tags {
        assert!(
            decoded.contains(&tag.id().0),
            "tag {} was not decoded",
            tag.id()
        );
    }
}

#[test]
fn smart_parking_application_runs_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1002);
    let results = ParkingScenario {
        spots: 4,
        colliders: 2,
        ..Default::default()
    }
    .run(2, &mut rng);
    assert_eq!(results.len(), 4);
    // At least three of the four spots must have produced matched estimates
    // with small errors.
    let good = results
        .iter()
        .filter(|(_, s)| s.count > 0 && s.mean < 10.0)
        .count();
    assert!(good >= 3, "only {good} spots localized well");
}

#[test]
fn speed_enforcement_application_runs_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1003);
    let est = SpeedScenario::new(25.0).run(&mut rng).expect("speed");
    assert!((est - 25.0).abs() / 25.0 < 0.12, "estimated {est} mph");
}

#[test]
fn identification_time_grows_with_density() {
    // One seed is a coin flip on the noise stream: every failure is a
    // 6-tag decode that used up its 64-query budget. The property is its
    // rate: over seeds 20 000–20 099, both decodes succeeded and 1 tag was
    // no slower than 6 on 96 seeds, recorded on the Box–Muller sampler; a
    // fresh count must be within the two-sample 99.9 % bound of that rate.
    let held = (20_000..20_100)
        .filter(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let t1 = DecodingScenario::new(1).run(&mut rng);
            let t6 = DecodingScenario::new(6).run(&mut rng);
            matches!((t1, t6), (Ok(t1), Ok(t6)) if t1 <= t6)
        })
        .count();
    let p: f64 = 96.0 / 100.0;
    let bound = 3.29 * (2.0 * p * (1.0 - p) / 100.0).sqrt() * 100.0;
    assert!(
        (held as f64 - 96.0).abs() <= bound,
        "decoding did not get faster with more colliders on {held} of 100 seeds, recorded 96 ± {bound:.0}"
    );
}

#[test]
fn facade_crate_reexports_work() {
    // The caraoke-suite facade exposes every sub-crate under a stable name.
    let _ = caraoke_suite::dsp::Complex::ONE;
    let _ = caraoke_suite::geom::Vec3::ZERO;
    let _ = caraoke_suite::reader::ReaderConfig::default();
    let _ = caraoke_suite::power::EnergyBudget::default();
    let _ = caraoke_suite::baseline::camera::CameraCondition::GoodDaylight;
}
