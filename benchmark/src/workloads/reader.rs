//! `reader_phy`: the reader side. The only workload where `phy`, `dsp`,
//! `core` and `geom` do the work and `live` does almost none.
//!
//! * **Phase A** — `PhyCity::campus(6, …)` (24 poles; every report is a
//!   synthesized collision run through the real per-pole reader pipeline,
//!   with §6 localization against the street neighbour) streamed into a
//!   `LiveCity`, closed loop, one thread.
//! * **Phase B** — §8 decoding: per street, 16 collisions from
//!   `Pole::receive` combined by `CaraokeReader::decode_everyone`.
//!
//! `PhyCity` keeps its poles and vehicles private, so the harness builds
//! the same campus a second time from the public `sim` and `phy` types
//! ([`Campus`]). That replica is the ground truth of both phases and, run
//! through the public reader calls one at a time, the traced run's per-call
//! breakdown of a pole query.

use crate::harness::{
    batch_fingerprint, report_trials, run_trial, stream_and_watch, timed_setup, Outcome, RunArgs,
    SealWatcher,
};
use crate::json::Json;
use crate::stats;
use crate::trace::{self, Req, Tracer, NO_PARENT};
use caraoke::counting::count_from_spectrum;
use caraoke::{analyze_collision, localize_peaks, QueryReport};
use caraoke_city::synth::mix_seed;
use caraoke_city::{FrameSource, PhyCity, PoleId, PoleReport, SegmentId};
use caraoke_dsp::{fft, goertzel::goertzel_bins, SparseFft};
use caraoke_geom::{try_localize_two_readers, ReaderPose, Vec3};
use caraoke_live::{LiveCity, LiveConfig};
use caraoke_phy::antenna::ArrayGeometry;
use caraoke_phy::cfo::MIN_TAG_CARRIER_HZ;
use caraoke_phy::channel::PropagationModel;
use caraoke_phy::protocol::{TransponderId, TransponderPacket};
use caraoke_phy::{synthesize_collision, Transponder};
use caraoke_sim::{Pole, Street, Vehicle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const POLES_PER_STREET: usize = 6;
/// Epochs per phase-A trial: 24 poles × 64 = 1 536 pole queries.
const EPOCHS: usize = 64;
/// One phase-A trial on the reference container, seconds.
const NOMINAL_TRIAL_S: f64 = 1.15;
/// Share of the measuring time phase A gets; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.65;
/// Collisions combined per decode (§8 decodes most tags within 16).
const DECODE_COLLISIONS: usize = 16;
/// One phase-B round (four streets) on the reference container, seconds.
const NOMINAL_ROUND_S: f64 = 0.16;
/// Pole queries the oracle re-derives through the replica, and the traced
/// run breaks down call by call.
const SAMPLED_QUERIES: usize = 192;
/// FFT bin spacing of the default reader window, Hz (§5).
const BIN_RESOLUTION_HZ: f64 = 1953.125;

/// The campus of `PhyCity::campus`, rebuilt from public types: four
/// streets, `poles_per_street` poles 24 m apart on each, two parked cars
/// where a street has near-side parking, two through cars per street, every
/// transponder on a CFO bin of its own.
struct Campus {
    streets: Vec<Street>,
    /// Pole `p` stands on street `p / poles_per_street`.
    poles: Vec<Pole>,
    poles_per_street: usize,
    vehicles: Vec<(usize, Vehicle)>,
    propagation: PropagationModel,
}

impl Campus {
    fn new(poles_per_street: usize) -> Campus {
        let streets = Street::campus();
        let mut poles = Vec::new();
        let mut vehicles = Vec::new();
        let mut next_bin = 30usize;
        let mut next_id = 1u64;
        let mut car = |pos: Vec3, speed_mph: f64| {
            let carrier = MIN_TAG_CARRIER_HZ + next_bin as f64 * BIN_RESOLUTION_HZ;
            let transponder = Transponder::new(
                TransponderPacket::from_id(TransponderId(next_id)),
                carrier,
                pos + Vec3::new(0.0, 0.0, 1.2),
            );
            next_bin += 25;
            next_id += 1;
            Vehicle {
                transponder,
                start: pos,
                velocity: Vec3::new(caraoke_geom::mph_to_mps(speed_mph), 0.0, 0.0),
            }
        };
        for (s, street) in streets.iter().enumerate() {
            for p in 0..poles_per_street {
                poles.push(Pole::new(
                    &format!("{} pole {}", street.name, p),
                    p as f64 * 24.0,
                    -6.0,
                    Street::pole_height(),
                    ArrayGeometry::default_pair(),
                ));
            }
            if street.parking_near_side {
                for spot in street.parking_row(4.0, 2) {
                    vehicles.push((s, car(spot.center, 0.0)));
                }
            }
            let lane_y = street.lane_center_y(0);
            let speed = 24.0 + 3.0 * s as f64;
            vehicles.push((s, car(Vec3::new(2.0, lane_y, 0.0), speed)));
            vehicles.push((s, car(Vec3::new(-18.0, lane_y, 0.0), speed + 4.0)));
        }
        Campus {
            streets,
            poles,
            poles_per_street,
            vehicles,
            propagation: PropagationModel::line_of_sight(),
        }
    }

    fn street_of(&self, pole: usize) -> usize {
        pole / self.poles_per_street
    }

    /// The transponders on `street` at `t_s`.
    fn tags(&self, street: usize, t_s: f64) -> Vec<Transponder> {
        self.vehicles
            .iter()
            .filter(|(s, _)| *s == street)
            .map(|(_, v)| v.transponder_at(t_s))
            .collect()
    }

    /// The street neighbour a pole pairs with for two-reader fixes.
    fn partner(&self, pole: usize) -> Option<usize> {
        let local = pole % self.poles_per_street;
        if local + 1 < self.poles_per_street {
            Some(pole + 1)
        } else if local >= 1 {
            Some(pole - 1)
        } else {
            None
        }
    }
}

/// Seconds of simulated time at `epoch` (`PhyCity` epochs are 1 s apart).
fn epoch_time_s(city: &PhyCity, epoch: usize) -> f64 {
    epoch as f64 * city.epoch_us() as f64 / 1e6
}

/// The `(pole, epoch)` pairs the oracle and the breakdown sample: evenly
/// spread over the trial.
fn sampled_queries(n_poles: usize, epochs: usize, want: usize) -> Vec<(usize, usize)> {
    let total = n_poles * epochs;
    let step = (total / want.min(total).max(1)).max(1);
    (0..total)
        .step_by(step)
        .map(|i| (i % n_poles, i / n_poles))
        .collect()
}

/// What phase B decoded.
#[derive(Default)]
struct Decoded {
    wall_s: f64,
    tags: u64,
    correct: u64,
    wrong: u64,
    decode_ms: Vec<f64>,
}

/// Phase B: `rounds` rounds of one decode per street. The first pole of the
/// street records [`DECODE_COLLISIONS`] collisions of the tags in range and
/// `decode_everyone` identifies them; an id counts as correct when the
/// deployment really has that transponder in range of the pole.
fn decode_rounds(campus: &Campus, seed: u64, rounds: usize) -> Decoded {
    let mut decoded = Decoded::default();
    let start = Instant::now();
    for round in 0..rounds {
        for street in 0..campus.streets.len() {
            let pole = &campus.poles[street * campus.poles_per_street];
            // Through cars drive out of range within seconds; cycle the
            // first eight so every round has tags to decode.
            let tags = campus.tags(street, (round % 8) as f64);
            let truth: BTreeSet<u64> = pole.tags_in_range(&tags).iter().map(|t| t.id().0).collect();
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, street as u32, 1_000_000 + round));
            let collisions: Vec<_> = (0..DECODE_COLLISIONS)
                .map(|_| pole.receive(&tags, &campus.propagation, &mut rng))
                .collect();
            let t0 = Instant::now();
            let reports = pole.reader.decode_everyone(&collisions);
            decoded.decode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            decoded.tags += truth.len() as u64;
            let mut seen = BTreeSet::new();
            for report in reports.unwrap_or_default() {
                if let Ok(outcome) = report.outcome {
                    let id = outcome.packet.id.0;
                    if truth.contains(&id) && seen.insert(id) {
                        decoded.correct += 1;
                    } else if !truth.contains(&id) {
                        decoded.wrong += 1;
                    }
                }
            }
        }
    }
    decoded.wall_s = start.elapsed().as_secs_f64();
    decoded
}

/// One pole query through the public reader calls, one at a time.
fn replica_query(
    campus: &Campus,
    seed: u64,
    pole: usize,
    epoch: usize,
    t_s: f64,
    tracer: Option<&mut Tracer>,
) -> QueryReport {
    let station = &campus.poles[pole];
    let tags = campus.tags(campus.street_of(pole), t_s);
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, pole as u32, epoch));
    let Some(tracer) = tracer else {
        return station.query(&tags, &campus.propagation, &mut rng);
    };
    let req = Req::Report {
        pole: pole as u32,
        epoch: epoch as u32,
    };
    let root = tracer.open("replica.query", NO_PARENT, req);
    let in_range: Vec<Transponder> = station.tags_in_range(&tags).into_iter().cloned().collect();
    let reader = &station.reader;
    let signal = tracer.time("phy.synthesize", root, req, || {
        synthesize_collision(
            &in_range,
            reader.array(),
            &campus.propagation,
            &reader.config().signal,
            &mut rng,
        )
    });
    let spectrum = tracer.time("core.analyze", root, req, || {
        analyze_collision(&signal, reader.config()).expect("own array's signal is well-formed")
    });
    let count = tracer.time("core.count", root, req, || count_from_spectrum(&spectrum));
    let aoa = tracer.time("core.aoa", root, req, || {
        localize_peaks(&spectrum, reader.array(), reader.config()).expect("two-antenna array")
    });
    // The transforms under `analyze_collision`, on the same samples: the
    // sparse FFT of §10, the dense FFT it replaces, and Goertzel at the
    // detected spikes.
    let samples = signal.antenna(0);
    tracer.time("dsp.sfft", root, req, || {
        std::hint::black_box(SparseFft::with_defaults().analyze(samples));
    });
    tracer.time("dsp.fft", root, req, || {
        std::hint::black_box(fft(samples));
    });
    let bins: Vec<f64> = spectrum.peaks.iter().map(|p| p.bin as f64).collect();
    tracer.time("dsp.goertzel", root, req, || {
        std::hint::black_box(goertzel_bins(samples, &bins));
    });
    tracer.close(root);
    QueryReport {
        spectrum,
        count,
        aoa,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    let poles_per_street = args.scale.pick(POLES_PER_STREET, 2);
    let epochs = args.scale.pick(EPOCHS, 12);
    let base = Instant::now();
    let campus = Campus::new(poles_per_street);
    let n_poles = campus.poles.len();

    let watcher = SealWatcher::spawn(base);
    let engine = |city: &PhyCity| {
        Arc::new(LiveCity::new(
            city.directory().clone(),
            LiveConfig::default(),
        ))
    };

    let setup_laps = timed_setup(|| {
        let city = PhyCity::campus(poles_per_street, epochs, args.seed);
        stream_and_watch(&watcher, &engine(&city), &city, (epochs / 4).max(4), None);
    })
    .1;

    // Phase A.
    let n_trials = args.trials(PHASE_A_SHARE, NOMINAL_TRIAL_S);
    let mut tracer = args.trace.then(|| Tracer::new(base));
    let mut trials = Vec::with_capacity(n_trials);
    // Query-memo hits of the traced trials' cities.
    let mut traced_cache_hits = 0;
    for index in 0..n_trials {
        let traced = args.traces_trial(index);
        // A fresh city per trial: its query memo starts cold every time.
        let city = PhyCity::campus(poles_per_street, epochs, args.seed);
        trials.push(run_trial(
            &mut out,
            &watcher,
            &engine(&city),
            &city,
            epochs,
            index,
            tracer.as_mut().filter(|_| traced),
            "city.phy_report",
        ));
        if traced {
            traced_cache_hits += city.query_cache_hits();
        }
    }

    // Phase B.
    let rounds = args.scale.pick(
        ((args.seconds * (1.0 - PHASE_A_SHARE) / NOMINAL_ROUND_S).round() as usize).max(4),
        2,
    );
    let decoded = decode_rounds(&campus, args.seed, rounds);
    out.note_peak_rss();
    out.attempted += decoded.tags;
    out.failed += decoded.wrong;

    // Oracles and the shared report. The sealed stream: one chain across
    // trials, totals equal to the batch pipeline over a fresh city.
    let city = PhyCity::campus(poles_per_street, epochs, args.seed);
    report_trials(
        &mut out,
        args,
        &setup_laps,
        &trials,
        batch_fingerprint(&city),
    );
    // The reports themselves: for a sample of pole queries, the count is
    // the number of transponders the deployment has in range (on at least
    // 95 % of them), and the report equals the one the replica derives through the public
    // reader calls (positions aside — those need the neighbour's query).
    let mut probe_tracer = args.trace.then(|| Tracer::new(base));
    let mut fixes = (0u64, 0u64);
    let (mut sampled, mut miscounted) = (0u64, 0u64);
    for (pole, epoch) in sampled_queries(n_poles, epochs, args.scale.pick(SAMPLED_QUERIES, 24)) {
        let t_s = epoch_time_s(&city, epoch);
        let mut served = city.report(pole as u32, epoch);
        let in_range = campus.poles[pole]
            .tags_in_range(&campus.tags(campus.street_of(pole), t_s))
            .len();
        sampled += 1;
        miscounted += u64::from(served.count as usize != in_range);
        let query = replica_query(&campus, args.seed, pole, epoch, t_s, probe_tracer.as_mut());
        let expected = PoleReport::from_query(
            PoleId(pole as u32),
            SegmentId(campus.street_of(pole) as u16),
            epoch as u64 * city.epoch_us(),
            &query,
        );
        for obs in &mut served.observations {
            obs.position = None;
        }
        out.check(served == expected, || {
            format!("pole {pole} epoch {epoch}: PhyCity's report differs from the replica's")
        });
        if let Some(tracer) = probe_tracer.as_mut() {
            two_reader_fixes(
                &campus, args.seed, pole, epoch, t_s, &query, tracer, &mut fixes,
            );
        }
    }
    // §5 counting is an estimate (the shared-bin test can fire on a lone
    // transponder), so the count is held to the paper's accuracy, not to
    // equality on every query.
    out.check(miscounted * 20 <= sampled, || {
        format!(
            "{miscounted} of {sampled} sampled pole queries miscounted the transponders in range"
        )
    });
    out.records.push((
        "count_accuracy",
        Json::Num(1.0 - miscounted as f64 / sampled.max(1) as f64),
    ));
    out.check(decoded.wrong == 0, || {
        format!("{} decoded ids are not in the deployment", decoded.wrong)
    });

    let query_rates: Vec<f64> = trials
        .iter()
        .filter(|t| !t.traced)
        .map(|t| t.streamed.cost.reports as f64 / t.streamed.cost.wall_s)
        .collect();
    out.layer("phy_queries_per_s", stats::median(&query_rates));
    out.layer("decode_ids_per_s", decoded.correct as f64 / decoded.wall_s);
    out.records
        .push(("phy_queries_per_s", stats::summary(&query_rates)));
    out.records.push((
        "decode",
        Json::obj(vec![
            ("rounds", Json::from(rounds as u64)),
            ("wall_s", Json::Num(decoded.wall_s)),
            ("tags", Json::from(decoded.tags)),
            ("correct", Json::from(decoded.correct)),
            ("wrong", Json::from(decoded.wrong)),
        ]),
    ));

    if args.trace {
        // The report call is the reader pipeline here, not harness cost.
        out.layer("gen.report_ns_per_obs", 0.0);
        out.layer("gen.cpu_share", 0.0);
        let traced = trials.iter().filter(|t| t.traced);
        let (report_ns, reports) = traced.fold((0, 0), |(ns, n), t| {
            (ns + t.streamed.cost.report_ns, n + t.streamed.cost.reports)
        });
        let reports = reports.max(1) as f64;
        out.layer("city.phy_report_us", report_ns as f64 / reports / 1e3);
        out.layer(
            "city.phy_cache_hit_share",
            traced_cache_hits as f64 / reports,
        );

        let probe = probe_tracer
            .as_ref()
            .expect("traced run has a probe tracer");
        let totals = trace::aggregate(&[probe]);
        for (layer, span) in [
            ("phy.synthesize_us", "phy.synthesize"),
            ("core.analyze_us", "core.analyze"),
            ("core.count_us", "core.count"),
            ("core.aoa_us", "core.aoa"),
            ("dsp.sfft_us", "dsp.sfft"),
            ("dsp.fft_us", "dsp.fft"),
            ("dsp.goertzel_us", "dsp.goertzel"),
            ("geom.two_reader_fix_us", "geom.two_reader_fix"),
        ] {
            out.layer(layer, trace::mean(&totals, span, 1e3));
        }
        out.layer("geom.fix_ok_share", fixes.0 as f64 / fixes.1.max(1) as f64);
        out.layer("core.decode_ms", stats::median(&decoded.decode_ms));
        out.layer(
            "core.decode_ok_share",
            decoded.correct as f64 / decoded.tags.max(1) as f64,
        );
    }

    if let Some(tracer) = tracer {
        out.tracers.push(("bench-ingest", tracer));
    }
    if let Some(tracer) = probe_tracer {
        out.tracers.push(("bench-probe", tracer));
    }
    out
}

/// §6 on the replica: pairs the pole's AoA estimates with its street
/// neighbour's for the same CFO bin and intersects the two cones on the
/// road, the way `PhyCity` does per observation. `fixes` accumulates
/// `(fixes, attempts)` — the ladder's first rung and how often it holds.
#[allow(clippy::too_many_arguments)]
fn two_reader_fixes(
    campus: &Campus,
    seed: u64,
    pole: usize,
    epoch: usize,
    t_s: f64,
    own: &QueryReport,
    tracer: &mut Tracer,
    fixes: &mut (u64, u64),
) {
    let Some(partner) = campus.partner(pole) else {
        return;
    };
    let theirs = replica_query(campus, seed, partner, epoch, t_s, None);
    let region = campus.streets[campus.street_of(pole)].region();
    let req = Req::Report {
        pole: pole as u32,
        epoch: epoch as u32,
    };
    for a in &own.aoa {
        let Some(b) = theirs.aoa.iter().find(|b| b.bin == a.bin) else {
            continue;
        };
        let fix = tracer.time("geom.two_reader_fix", NO_PARENT, req, || {
            try_localize_two_readers(
                &ReaderPose::new(a.midpoint, a.baseline),
                a.angle_rad,
                &ReaderPose::new(b.midpoint, b.baseline),
                b.angle_rad,
                &region,
            )
        });
        fixes.1 += 1;
        fixes.0 += u64::from(fix.is_ok());
    }
}
