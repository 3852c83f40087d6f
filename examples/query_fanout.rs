//! Query fan-out over TCP: a live engine ingests a synthetic city on one
//! thread while three remote dashboards — each a [`ServeClient`] over
//! loopback TCP — subscribe to windowed queries and print every delivered
//! snapshot with its seal-to-delivery staleness. It asserts that every
//! dashboard reached the final sealed pane and prints the median staleness.
//!
//! Each distinct query is evaluated **once per seal** by the hub's fan-out
//! thread, whatever the subscriber count; the clients below only ever
//! receive cached frames.
//!
//! Run with: `cargo run --release --example query_fanout`

use caraoke_suite::city::{FrameSource, SegmentId, SyntheticCity};
use caraoke_suite::live::{LiveAnswer, LiveCity, LiveConfig, LiveQuery, WindowSpec};
use caraoke_suite::serve::{decode_answer, Frame, ServeClient, ServeConfig, ServeHub, ServeServer};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let source = SyntheticCity::new(100, 40, 7);
    let live = Arc::new(LiveCity::new(
        source.directory().clone(),
        LiveConfig::default(),
    ));
    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
    let server = ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    println!("serving live city on {addr}\n");

    // Three dashboards, three windowed queries (windows in multiples of
    // the 1.5 s pane).
    let dashboards: Vec<(&str, LiveQuery)> = vec![
        (
            "occupancy seg0/30s",
            LiveQuery::Occupancy {
                segment: SegmentId(0),
                window: WindowSpec::tumbling(30_000_000),
            },
        ),
        (
            "p50 speed/30s",
            LiveQuery::SpeedPercentile {
                p: 50.0,
                window: WindowSpec::tumbling(30_000_000),
            },
        ),
        (
            "top-3 OD/60s",
            LiveQuery::TopOd {
                n: 3,
                window: WindowSpec::tumbling(60_000_000),
            },
        ),
    ];

    std::thread::scope(|scope| {
        // Ingest thread: stream every pole report in event-time order,
        // then seal the tail.
        let ingest = {
            let live = Arc::clone(&live);
            let source = &source;
            scope.spawn(move || {
                for epoch in 0..source.epochs() {
                    for pole in 0..source.directory().len() as u32 {
                        live.ingest(&source.report(pole, epoch));
                    }
                }
                live.finish();
            })
        };

        // One TCP subscriber thread per dashboard.
        let mut clients = Vec::new();
        for (i, (name, query)) in dashboards.iter().enumerate() {
            clients.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                client.subscribe(i as u32, query, false).expect("subscribe");
                let mut ages_us = Vec::new();
                let mut last_pane = None;
                // Idle for 2 s (several fan-out waits) means the run ended.
                let mut quiet = 0u32;
                while quiet < 4 {
                    match client
                        .next_frame(Duration::from_millis(500))
                        .expect("frame")
                    {
                        Some(Frame::Snapshot {
                            pane,
                            age_us,
                            answer,
                            ..
                        })
                        | Some(Frame::Delta {
                            pane,
                            age_us,
                            answer,
                            ..
                        }) => {
                            quiet = 0;
                            ages_us.push(age_us);
                            last_pane = Some(pane);
                            let decoded = decode_answer(&answer).expect("wire answer");
                            println!(
                                "[{name:>18}] pane {pane:>3}  staleness {age_us:>6} us  {}",
                                render(&decoded)
                            );
                        }
                        Some(_) => {}
                        None => quiet += 1,
                    }
                }
                (ages_us, last_pane)
            }));
        }

        ingest.join().expect("ingest");
        let final_pane = live.sealed_panes().checked_sub(1).expect("panes sealed");
        let mut ages_us = Vec::new();
        for (handle, (name, _)) in clients.into_iter().zip(&dashboards) {
            let (ages, last_pane) = handle.join().expect("dashboard");
            println!("[{name:>18}] {} frames delivered", ages.len());
            assert_eq!(
                last_pane,
                Some(final_pane),
                "{name} must reach the final sealed pane"
            );
            ages_us.extend(ages);
        }
        ages_us.sort_unstable();
        println!(
            "median staleness over {} frames: {} us",
            ages_us.len(),
            ages_us[ages_us.len() / 2]
        );
    });

    let stats = hub.stats();
    println!(
        "\n{} sealed panes -> {} evaluations fanned out as {} frames \
         (cache hits: {})",
        live.sealed_panes(),
        stats.computed_frames,
        stats.frames_delivered,
        stats.cache_hit_frames,
    );
}

fn render(answer: &LiveAnswer) -> String {
    match answer {
        LiveAnswer::Occupancy { mean, peak, .. } => {
            format!("mean occupancy {mean:.1}, peak {peak}")
        }
        LiveAnswer::Speed { mph, samples } => {
            format!("{mph:.1} mph over {samples} samples")
        }
        LiveAnswer::TopOd { pairs } => {
            let rendered: Vec<String> = pairs
                .iter()
                .map(|((from, to), n)| format!("{from}->{to} x{n}"))
                .collect();
            format!("busiest OD: {}", rendered.join(", "))
        }
        other => format!("{other:?}"),
    }
}
