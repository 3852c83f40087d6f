//! Seeded schedules over a stepped engine and hub: deterministic
//! simulation of the live and serving tiers.
//!
//! A stepped engine ([`LiveCity::with_clock`]) seals only in
//! [`LiveCity::seal_step`], and a hub over it fans out only in
//! [`ServeHub::fan_out`], so every interleaving the threaded tiers can
//! produce between ingest, the sealer and the fan-out thread is one
//! sequence of calls. Each seed draws one such sequence — ingest a pole's
//! next report (FIFO per pole), a seal step, a fan-out round, a poll of a
//! hub subscription or of a [`LiveSubscription`], a clock advance — over a
//! small [`SyntheticCity`], and checks it against runs that involve no
//! schedule at all:
//!
//! * the chain and totals equal a sequential threaded [`LiveCity::new`]
//!   run's;
//! * every hub frame arrives in pane order with no duplicate, and its wire
//!   bytes equal a reference stepped run's answer at that pane, one pane
//!   sealed per step and every query answered after each (a Watermark
//!   answer is compared on `sealed_panes` only: its `watermark_us` tells how
//!   far ingest has run, not which pane was sealed);
//! * the [`LiveSubscription`] sees every pane once, in order, equal to the
//!   reference's;
//! * `watermark_us` and `seal_floor_us` never go backwards.
//!
//! Staleness is off, so the clock advances move no output; they age the
//! hub's frames past its lag grace, which the lag policy (switched off
//! here) would read. A failing schedule prints its seed.

use caraoke_suite::city::{FrameSource, SegmentId, StoreConfig, SyntheticCity};
use caraoke_suite::live::{
    Clock, IngestOutcome, LiveAnswer, LiveCity, LiveConfig, LiveQuery, LiveSubscription,
    ManualClock, PaneSummary, SealStep, WindowSpec,
};
use caraoke_suite::serve::{encode_answer, ServeConfig, ServeEvent, ServeHub, Subscription};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per run of [`seeded_schedules_match_the_sequential_chain`]: a
/// quarter of them under debug codegen, which runs them ~5x slower.
const SEEDS: u64 = if cfg!(debug_assertions) { 256 } else { 1024 };

/// One pane per synthetic epoch, and no lateness allowance: the round of
/// reports stamped in epoch `e` releases exactly pane `e - 1`, and the
/// final flush exactly the last pane, so a step after every report seals
/// at most one pane.
fn config(shards: usize) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards,
            ..Default::default()
        },
        pane_us: 1_500_000,
        lateness_panes: 0,
        ..Default::default()
    }
}

/// The queries every schedule subscribes to, one hub subscription each.
fn queries(pane_us: u64) -> [LiveQuery; 5] {
    [
        LiveQuery::Occupancy {
            segment: SegmentId(0),
            window: WindowSpec::tumbling(3 * pane_us),
        },
        LiveQuery::SpeedPercentile {
            p: 50.0,
            window: WindowSpec::sliding(4 * pane_us, pane_us),
        },
        LiveQuery::TopOd {
            n: 5,
            window: WindowSpec::tumbling(4 * pane_us),
        },
        LiveQuery::Flow {
            segment: SegmentId(0),
            last_cycles: 2,
        },
        LiveQuery::Watermark,
    ]
}

/// What the schedule is checked against.
struct Reference {
    chain: u64,
    totals: caraoke_suite::city::CityAggregates,
    /// `wire[q][pane]`: query `q`'s answer bytes once `pane` is the newest.
    wire: Vec<Vec<Vec<u8>>>,
    panes: Vec<PaneSummary>,
}

fn reference(city: &SyntheticCity) -> Reference {
    let n_poles = city.directory().len() as u32;
    let sequential = LiveCity::new(city.directory().clone(), config(1));
    for epoch in 0..city.epochs() {
        for pole in 0..n_poles {
            sequential.ingest(&city.report(pole, epoch));
        }
    }
    sequential.finish();

    let stepped = LiveCity::with_clock(city.directory().clone(), config(1), Clock::Real);
    let queries = queries(stepped.config().pane_us);
    let mut wire = vec![Vec::new(); queries.len()];
    let mut answer_each_pane = |live: &LiveCity, step: SealStep| {
        assert!(step.panes <= 1 && !step.forced, "{step:?}");
        if step.panes == 1 {
            for (q, query) in queries.iter().enumerate() {
                wire[q].push(encode_answer(&live.query(query)));
            }
        }
    };
    for epoch in 0..city.epochs() {
        for pole in 0..n_poles {
            stepped.ingest(&city.report(pole, epoch));
            answer_each_pane(&stepped, stepped.seal_step());
        }
    }
    let before = stepped.sealed_panes();
    stepped.finish();
    let flushed = stepped.sealed_panes() - before;
    answer_each_pane(
        &stepped,
        SealStep {
            panes: flushed,
            forced: false,
        },
    );
    assert_eq!(wire[0].len() as u64, stepped.sealed_panes());
    assert_eq!(stepped.fingerprint_chain(), sequential.fingerprint_chain());
    let (panes, missed) = LiveSubscription::new().poll(&stepped);
    assert_eq!(missed, 0);
    Reference {
        chain: sequential.fingerprint_chain(),
        totals: sequential.totals(),
        wire,
        panes,
    }
}

/// One hub subscription of one query, and the newest pane it has taken.
struct HubReader {
    query: LiveQuery,
    sub: Subscription,
    newest: Option<u64>,
}

impl HubReader {
    /// Polls once: every frame is newer than the last, and answers as the
    /// reference does at its pane.
    fn poll(&mut self, q: usize, reference: &Reference) {
        for event in self.sub.poll() {
            let ServeEvent::Frame { frame, .. } = event else {
                panic!("the lag policy is off, yet got {event:?}");
            };
            assert!(
                self.newest.is_none_or(|newest| frame.pane > newest),
                "{:?}: frame at pane {} after pane {:?}",
                self.query,
                frame.pane,
                self.newest
            );
            self.newest = Some(frame.pane);
            match frame.answer {
                LiveAnswer::Watermark { sealed_panes, .. } => {
                    assert_eq!(sealed_panes, frame.pane + 1)
                }
                _ => assert!(
                    frame.wire == reference.wire[q][frame.pane as usize],
                    "{:?}: frame at pane {} differs from the reference",
                    self.query,
                    frame.pane
                ),
            }
        }
    }
}

/// Runs the schedule `seed` draws and checks it (see the module docs).
fn run_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Past 16 poles, poles share an ingest stripe (pole % 16), and the
    // schedule delivers into one stripe out of pane order.
    let city = SyntheticCity::new(
        rng.random_range(2..41usize),
        rng.random_range(3..11usize),
        seed,
    );
    let reference = reference(&city);
    let n_poles = city.directory().len();

    let manual = Arc::new(ManualClock::new());
    let clock = Clock::Manual(Arc::clone(&manual));
    let shards = rng.random_range(1..5usize);
    let live = Arc::new(LiveCity::with_clock(
        city.directory().clone(),
        config(shards),
        clock,
    ));
    let serve = ServeConfig {
        lag_notice_panes: u64::MAX,
        max_cursor_lag_panes: u64::MAX,
        ..Default::default()
    };
    let hub = ServeHub::over_live(Arc::clone(&live), None, serve);
    let mut readers: Vec<HubReader> = queries(live.config().pane_us)
        .into_iter()
        .map(|query| HubReader {
            sub: hub.subscribe(&[query], false),
            query,
            newest: None,
        })
        .collect();
    let mut cursor = LiveSubscription::new();
    let mut seen = 0usize;
    let mut poll_cursor = |seen: &mut usize| {
        let (panes, missed) = cursor.poll(&live);
        assert_eq!(missed, 0);
        for pane in panes {
            assert_eq!(pane, reference.panes[*seen], "pane {}", *seen);
            *seen += 1;
        }
    };

    // Each pole's next epoch: FIFO per pole, any order across poles.
    let mut next_epoch = vec![0usize; n_poles];
    let (mut watermark_us, mut seal_floor_us) = (0, 0);
    while next_epoch.iter().any(|&e| e < city.epochs()) {
        match rng.random_range(0..10u32) {
            0..=3 => {
                let pole = rng.random_range(0..n_poles);
                if next_epoch[pole] < city.epochs() {
                    let report = city.report(pole as u32, next_epoch[pole]);
                    next_epoch[pole] += 1;
                    let outcome = live.ingest(&report);
                    assert_eq!(outcome, IngestOutcome::Applied);
                }
            }
            4 => {
                let before = live.sealed_panes();
                let step = live.seal_step();
                assert!(!step.forced, "staleness is off");
                assert_eq!(live.sealed_panes() - before, step.panes);
            }
            5 => hub.fan_out(),
            6 | 7 => {
                let q = rng.random_range(0..readers.len());
                readers[q].poll(q, &reference);
            }
            8 => poll_cursor(&mut seen),
            _ => manual.advance(Duration::from_millis(rng.random_range(0..400u64))),
        }
        let stats = live.stats();
        assert!(stats.watermark_us >= watermark_us, "watermark went back");
        assert!(stats.seal_floor_us >= seal_floor_us, "seal floor went back");
        (watermark_us, seal_floor_us) = (stats.watermark_us, stats.seal_floor_us);
    }

    live.finish();
    hub.fan_out();
    let horizon = live.sealed_panes();
    assert_eq!(horizon, reference.panes.len() as u64);
    for (q, reader) in readers.iter_mut().enumerate() {
        reader.poll(q, &reference);
        assert_eq!(reader.newest, Some(horizon - 1), "{:?}", reader.query);
    }
    poll_cursor(&mut seen);
    assert_eq!(seen as u64, horizon, "every pane once");
    assert_eq!(live.fingerprint_chain(), reference.chain);
    assert_eq!(live.totals(), reference.totals);
}

#[test]
fn seeded_schedules_match_the_sequential_chain() {
    for seed in 0..SEEDS {
        if catch_unwind(AssertUnwindSafe(|| run_schedule(seed))).is_err() {
            panic!("schedule seed {seed} failed; rerun it with run_schedule({seed})");
        }
    }
}
