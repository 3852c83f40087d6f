//! The campus street layout `PhyCity::campus` and the benchmark's
//! `reader_phy` build, shared by the integration tests that replay it.

use caraoke_suite::geom::Vec3;
use caraoke_suite::phy::cfo::MIN_TAG_CARRIER_HZ;
use caraoke_suite::phy::protocol::{TransponderId, TransponderPacket};
use caraoke_suite::phy::Transponder;
use caraoke_suite::sim::{Street, Vehicle};

/// The transponders `PhyCity::campus` puts on `street` (two parked cars
/// where the street has near-side parking, two through cars), at `t_s`
/// seconds. CFO bins and ids run on across streets as they do there.
pub fn campus_street_tags(streets: &[Street], street: usize, t_s: f64) -> Vec<Transponder> {
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
