//! Distribution pins for the PHY: what the receiver hears, judged as
//! statistics, not bits.
//!
//! `tests/golden_reader.rs` pins the reader side bit for bit, so any change
//! to the stream of the noise generator moves every one of its literals and
//! says nothing about whether the physics stayed right. This file pins what
//! such a change must keep:
//!
//! * the Gaussian sampler against the exact normal law, with every bound
//!   computed from the number of draws alone;
//! * the paper's PHY outcomes (§5 counting, noise-only spikes, §6 AoA, §8
//!   decoding, and the campus city the benchmark's `reader_phy` runs) over
//!   fixed seed ranges of at least 100 seeds each.
//!
//! Each outcome is a [`Recorded`] literal: a share as hits of n, a mean
//! with its standard deviation and n. The literals were measured on the
//! code as it stood before its Gaussian sampler was replaced (one-output
//! Box–Muller). A fresh measurement must fall within the two-sample 99.9 %
//! bound of the recorded one: the difference of two independent estimates
//! of the same quantity, each from its own n. A quantile is pinned as the
//! share of the sample at or below the recorded value, which needs no
//! assumption about the error's distribution.

mod campus;

use campus::campus_street_tags;
use caraoke_suite::city::{synth::mix_seed, FrameSource, PhyCity, PositionMethod, TagObservation};
use caraoke_suite::phy::antenna::ArrayGeometry;
use caraoke_suite::phy::channel::PropagationModel;
use caraoke_suite::phy::noise::standard_normal;
use caraoke_suite::phy::CfoModel;
use caraoke_suite::sim::{CountingScenario, DecodingScenario, ParkingScenario, Pole, Street};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-sided 99.9 % quantile of the standard normal.
const Z_999: f64 = 3.290_526_731_491_926;

/// A statistic as it was recorded: its value and the sample it came from.
#[derive(Debug, Clone, Copy)]
enum Recorded {
    /// `hits` of `n` trials.
    Share { hits: u64, n: u64 },
    /// A mean over `n` independent units whose standard deviation was `sd`;
    /// one unit moves by multiples of `step`.
    Mean {
        mean: f64,
        sd: f64,
        n: u64,
        step: f64,
    },
}

/// A fresh measurement of a [`Recorded`] statistic.
#[derive(Debug, Clone, Copy)]
enum Measured {
    Share { hits: u64, n: u64 },
    Mean { mean: f64, n: u64 },
}

impl Recorded {
    fn value(self) -> f64 {
        match self {
            Recorded::Share { hits, n } => hits as f64 / n as f64,
            Recorded::Mean { mean, .. } => mean,
        }
    }

    /// The two-sample 99.9 % bound on `|measured − recorded|` for a fresh
    /// sample of `n_now`. A share's variance is taken at
    /// `p = (hits + 2) / (n + 4)`, so a share recorded at 0 or 1 still has
    /// a width; likewise a mean's standard deviation is at least that of
    /// a share `p` of its units one `step` off, so a mean recorded with no
    /// spread still has one.
    fn tolerance(self, n_now: u64) -> f64 {
        let shrunk = |hits: f64, n: u64| {
            let p = (hits + 2.0) / (n as f64 + 4.0);
            p * (1.0 - p)
        };
        let (variance, n) = match self {
            Recorded::Share { hits, n } => (shrunk(hits as f64, n), n),
            Recorded::Mean { sd, n, step, .. } => ((sd * sd).max(step * step * shrunk(0.0, n)), n),
        };
        Z_999 * (variance * (1.0 / n as f64 + 1.0 / n_now as f64)).sqrt()
    }
}

impl Measured {
    fn value(self) -> f64 {
        match self {
            Measured::Share { hits, n } => hits as f64 / n.max(1) as f64,
            Measured::Mean { mean, .. } => mean,
        }
    }

    fn n(self) -> u64 {
        match self {
            Measured::Share { n, .. } | Measured::Mean { n, .. } => n,
        }
    }
}

/// Asserts every `(name, recorded, measured)` row, reporting all rows that
/// miss their bound at once.
fn judge(rows: &[(String, Recorded, Measured)]) {
    let mut missed = Vec::new();
    for (name, recorded, measured) in rows {
        let (want, got) = (recorded.value(), measured.value());
        let tolerance = recorded.tolerance(measured.n());
        let line = format!(
            "{name}: measured {got:.6} (n {}), recorded {want:.6} ± {tolerance:.6} — {measured:?}",
            measured.n()
        );
        eprintln!("{line}");
        if (got - want).abs() > tolerance {
            missed.push(line);
        }
    }
    assert!(
        missed.is_empty(),
        "outside the two-sample bound:\n{}",
        missed.join("\n")
    );
}

/// Mean and population standard deviation of `values`.
fn mean_sd(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn mean_of(values: &[f64]) -> Measured {
    Measured::Mean {
        mean: mean_sd(values).0,
        n: values.len() as u64,
    }
}

/// `1 − erf(x)`, fractional error below 1.2·10⁻⁷ everywhere (the Chebyshev
/// fit of Press et al., *Numerical Recipes*, §6.2).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// The standard normal distribution function.
fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[test]
fn the_sampler_is_the_standard_normal() {
    // Every bound here is the 99.9 % bound of a correct sampler at n
    // draws; nothing is taken from any generator's own stream.
    const N: usize = 1 << 22;
    let mut rng = StdRng::seed_from_u64(0x5a17_0001);
    let mut draws: Vec<f64> = (0..N).map(|_| standard_normal(&mut rng)).collect();
    let n = N as f64;
    let mean = draws.iter().sum::<f64>() / n;
    let var = draws.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n;
    // Var(mean) = 1/n, Var(s²) = 2/n for a normal sample.
    assert!(mean.abs() <= Z_999 / n.sqrt(), "mean {mean}");
    assert!(
        (var - 1.0).abs() <= Z_999 * (2.0 / n).sqrt(),
        "variance {var}"
    );
    // Two-sided tail masses, exact: erfc(3/√2) and erfc(4/√2).
    for (k, exact) in [(3.0, 2.699_796_063_260_2e-3), (4.0, 6.334_248_366_624e-5)] {
        let beyond = draws.iter().filter(|z| z.abs() > k).count() as f64 / n;
        let bound = Z_999 * (exact * (1.0 - exact) / n).sqrt();
        assert!(
            (beyond - exact).abs() <= bound,
            "P(|z| > {k}) = {beyond}, exact {exact} ± {bound}"
        );
    }
    // Kolmogorov–Smirnov distance against Φ; the asymptotic 0.1 % critical
    // value is 1.9495 / √n.
    draws.sort_by(f64::total_cmp);
    let d = draws
        .iter()
        .enumerate()
        .map(|(i, &z)| {
            let f = phi(z);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max);
    assert!(d <= 1.9495 / n.sqrt(), "KS distance {d} over {N} draws");
}

/// Seeds 0..100, 10 collisions of `n_tags` empirical-CFO tags on street C
/// per seed (`CountingScenario`): the mean accuracy (percent) and the mean
/// absolute count error over the 1 000 collisions.
fn counting(n_tags: usize) -> (f64, f64) {
    let scenario = CountingScenario::new(n_tags, CfoModel::Empirical);
    let (accuracy, error) = (0..100).fold((0.0, 0.0), |(accuracy, error), seed| {
        let (seed_accuracy, errors) = scenario.run(10, &mut StdRng::seed_from_u64(seed));
        (accuracy + seed_accuracy, error + errors.mean)
    });
    (accuracy / 100.0, error / 100.0)
}

#[test]
fn counting_accuracy_and_error_are_the_recorded_ones() {
    // (tags, accuracy %, its sd, mean |error|, its sd) over 1 000
    // collisions.
    let recorded: [(usize, f64, f64, f64, f64); 4] = [
        (1, 100.0, 0.0, 0.0, 0.0),
        (2, 98.6, 8.2486, 0.028, 0.16497),
        (5, 89.5, 15.380, 0.525, 0.76901),
        (10, 65.5, 17.162, 3.45, 1.7162),
    ];
    let mut rows = Vec::new();
    for (tags, accuracy, accuracy_sd, error, error_sd) in recorded {
        let (accuracy_now, error_now) = counting(tags);
        let n = 1_000;
        rows.push((
            format!("counting accuracy %, {tags} tags"),
            Recorded::Mean {
                mean: accuracy,
                sd: accuracy_sd,
                n,
                step: 100.0 / tags as f64,
            },
            Measured::Mean {
                mean: accuracy_now,
                n,
            },
        ));
        rows.push((
            format!("counting mean |error|, {tags} tags"),
            Recorded::Mean {
                mean: error,
                sd: error_sd,
                n,
                step: 1.0,
            },
            Measured::Mean { mean: error_now, n },
        ));
    }
    judge(&rows);
}

#[test]
fn noise_only_queries_spike_as_recorded() {
    // 10 queries of an empty street per seed, seeds 0..100.
    let pole = Pole::new(
        "noise",
        0.0,
        -6.0,
        Street::pole_height(),
        ArrayGeometry::default_pair(),
    );
    let model = PropagationModel::line_of_sight();
    let (mut spikes, mut queries) = (0u64, 0u64);
    for seed in 0..100 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            spikes += pole.query(&[], &model, &mut rng).spectrum.peaks.len() as u64;
            queries += 1;
        }
    }
    judge(&[(
        "spikes per noise-only query".into(),
        Recorded::Share { hits: 0, n: 1000 },
        Measured::Share {
            hits: spikes,
            n: queries,
        },
    )]);
}

#[test]
fn parking_aoa_error_quantiles_are_the_recorded_ones() {
    // Fig. 13's setup (six spots, three colliders, the tilted triangle),
    // one run per spot per seed, seeds 0..200: every matched spike's
    // absolute AoA error, degrees.
    let scenario = ParkingScenario::default();
    let mut errors = Vec::new();
    for seed in 0..200 {
        let mut rng = StdRng::seed_from_u64(seed);
        for (_, summary) in scenario.run(1, &mut rng) {
            if summary.count == 1 {
                errors.push(summary.mean);
            }
        }
    }
    let n = errors.len() as u64;
    let at_or_below = |x: f64| errors.iter().filter(|&&e| e <= x).count() as u64;
    // (recorded quantile value, degrees; errors at or below it, of n).
    let (p50, p50_hits, p90, p90_hits, recorded_n) = (
        0.722_752_762_353_802_6,
        473,
        3.886_799_583_757_773_6,
        852,
        946,
    );
    judge(&[
        (
            format!("AoA error ≤ {p50}° (p50)"),
            Recorded::Share {
                hits: p50_hits,
                n: recorded_n,
            },
            Measured::Share {
                hits: at_or_below(p50),
                n,
            },
        ),
        (
            format!("AoA error ≤ {p90}° (p90)"),
            Recorded::Share {
                hits: p90_hits,
                n: recorded_n,
            },
            Measured::Share {
                hits: at_or_below(p90),
                n,
            },
        ),
        (
            "AoA errors matched to a spike".into(),
            Recorded::Share {
                hits: recorded_n,
                n: 1200,
            },
            Measured::Share { hits: n, n: 1200 },
        ),
    ]);
}

#[test]
fn decoding_budget_failures_and_time_are_the_recorded_ones() {
    // One §8 decode per seed (64-query budget, `DecodingScenario`), seeds
    // 0..100 for each tag count.
    // (tags, budget failures of 100, mean identification time ms, its sd).
    let recorded: [(usize, u64, f64, f64); 3] = [
        (1, 0, 2.0, 0.0),
        (2, 0, 2.98, 1.7662),
        (6, 9, 15.022, 11.059),
    ];
    let mut rows = Vec::new();
    for (tags, failures, time_ms, time_sd) in recorded {
        let outcomes: Vec<_> = (0..100)
            .map(|seed| DecodingScenario::new(tags).run(&mut StdRng::seed_from_u64(seed)))
            .collect();
        let times: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().copied())
            .collect();
        let failed = (outcomes.len() - times.len()) as u64;
        rows.push((
            format!("§8 budget failures, {tags} tags"),
            Recorded::Share {
                hits: failures,
                n: 100,
            },
            Measured::Share {
                hits: failed,
                n: 100,
            },
        ));
        rows.push((
            format!("§8 identification time ms, {tags} tags"),
            Recorded::Mean {
                mean: time_ms,
                sd: time_sd,
                n: 100 - failures,
                step: 1.0,
            },
            mean_of(&times),
        ));
    }
    judge(&rows);
}

/// Poles per campus street, as the benchmark's `reader_phy` builds it.
const CAMPUS_POLES: usize = 6;

/// Pole `local` of a campus street, where `PhyCity::campus` stands it.
fn campus_pole(local: usize) -> Pole {
    Pole::new(
        "campus",
        local as f64 * 24.0,
        -6.0,
        Street::pole_height(),
        ArrayGeometry::default_pair(),
    )
}

#[test]
fn campus_counts_and_two_reader_fixes_are_the_recorded_ones() {
    // `PhyCity::campus(6, 64, s)`, s in 0..100; per seed every pole's
    // report at the four epochs e ≡ s (mod 16), so the range covers all 64
    // epochs: 100 × 4 × 24 = 9 600 pole queries.
    let streets = Street::campus();
    let poles: Vec<Pole> = (0..CAMPUS_POLES).map(campus_pole).collect();
    let (mut queries, mut counted_right) = (0u64, 0u64);
    let (mut with_aoa, mut fixed) = (0u64, 0u64);
    for seed in 0..100u64 {
        let city = PhyCity::campus(CAMPUS_POLES, 64, seed);
        for epoch in (0..64).filter(|e| e % 16 == seed as usize % 16) {
            for pole in 0..city.directory().len() as u32 {
                let report = city.report(pole, epoch);
                let street = pole as usize / CAMPUS_POLES;
                let tags = campus_street_tags(&streets, street, epoch as f64);
                let in_range = poles[pole as usize % CAMPUS_POLES]
                    .tags_in_range(&tags)
                    .len();
                queries += 1;
                counted_right += u64::from(report.count as usize == in_range);
                let aoa: Vec<&TagObservation> =
                    report.observations.iter().filter(|o| o.has_aoa).collect();
                with_aoa += aoa.len() as u64;
                fixed += aoa
                    .iter()
                    .filter(|o| {
                        o.position
                            .is_some_and(|p| p.method == PositionMethod::TwoReaderFix)
                    })
                    .count() as u64;
            }
        }
    }
    judge(&[
        (
            "campus queries counting the tags in range".into(),
            Recorded::Share {
                hits: 9_600,
                n: 9_600,
            },
            Measured::Share {
                hits: counted_right,
                n: queries,
            },
        ),
        (
            "campus AoA observations with a two-reader fix".into(),
            Recorded::Share {
                hits: 3_202,
                n: 6_116,
            },
            Measured::Share {
                hits: fixed,
                n: with_aoa,
            },
        ),
    ]);
}

#[test]
fn campus_decoding_decodes_no_id_out_of_range() {
    // The benchmark's §8 phase: each street's first pole, the street's
    // tags at `round % 8` seconds, 16 collisions from `Pole::receive`;
    // seeds 0..100, one round each (round = seed % 16).
    let streets = Street::campus();
    let pole = Pole::new(
        "decode",
        0.0,
        -6.0,
        Street::pole_height(),
        ArrayGeometry::default_pair(),
    );
    let model = PropagationModel::line_of_sight();
    let (mut in_range, mut correct, mut wrong) = (0u64, 0u64, Vec::new());
    for seed in 0..100u64 {
        let round = seed as usize % 16;
        for street in 0..streets.len() {
            let tags = campus_street_tags(&streets, street, (round % 8) as f64);
            let truth: Vec<u64> = pole.tags_in_range(&tags).iter().map(|t| t.id().0).collect();
            in_range += truth.len() as u64;
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, street as u32, 1_000_000 + round));
            let collisions: Vec<_> = (0..16)
                .map(|_| pole.receive(&tags, &model, &mut rng))
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
    }
    assert_eq!(wrong, [], "(seed, round, street, id) decoded out of range");
    judge(&[(
        "campus tags in range decoded within 16 collisions".into(),
        Recorded::Share { hits: 802, n: 938 },
        Measured::Share {
            hits: correct,
            n: in_range,
        },
    )]);
}
