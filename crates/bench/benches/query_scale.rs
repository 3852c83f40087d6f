//! Serving-tier benchmark: 150k concurrent subscribers with per-subscriber
//! cursors over a live hub, measured while ingest runs — queries/s
//! (delivered frames), seal-to-delivery staleness p50/p99, and concurrent
//! ingest throughput, written to `BENCH_query.json` for the regression
//! gate.
//!
//! Throughput numbers are best-of-2 (see `crates/bench/README.md`: the
//! shared-container noise floor is around ±20% for single runs; this
//! workload is long enough that two runs bound it adequately).

use caraoke_bench::query_scale::{query_scale, QueryScaleConfig, QueryScaleReport};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let cfg = QueryScaleConfig::default();

    // Best-of-2 full-scale runs; both must sustain every subscriber (the
    // workload hard-asserts zero drops and zero shed reports).
    let mut best: QueryScaleReport = query_scale(&cfg);
    let rerun = query_scale(&cfg);
    if rerun.queries_per_sec > best.queries_per_sec {
        best = rerun;
    }

    println!(
        "query_scale: {} subscribers x {} queries -> {:.0} queries/s delivered \
         ({:.0} obs/s concurrent ingest), staleness p50 {:.0} us / p99 {:.0} us, \
         {} frames from {} evaluations ({:.0}x fan-out amortization)",
        best.subscribers,
        best.stats.registered_queries,
        best.queries_per_sec,
        best.obs_per_sec,
        best.staleness_p50_us,
        best.staleness_p99_us,
        best.stats.frames_delivered,
        best.stats.computed_frames,
        best.stats.frames_delivered as f64 / best.stats.computed_frames.max(1) as f64,
    );

    match caraoke_bench::write_bench_json(
        "query",
        &[
            ("poles", cfg.n_poles.to_string()),
            ("epochs", cfg.epochs.to_string()),
            ("subscribers", cfg.subscribers.to_string()),
            ("ingest_workers", cfg.ingest_workers.to_string()),
            ("pollers", cfg.pollers.to_string()),
            ("cores", caraoke_bench::cores().to_string()),
            (
                "registered_queries",
                best.stats.registered_queries.to_string(),
            ),
        ],
        &[
            ("observations", best.observations.to_string()),
            ("sealed_panes", best.sealed_panes.to_string()),
            ("queries_per_sec", format!("{:.0}", best.queries_per_sec)),
            ("concurrent_obs_per_sec", format!("{:.0}", best.obs_per_sec)),
            ("staleness_p50_us", format!("{:.0}", best.staleness_p50_us)),
            ("staleness_p99_us", format!("{:.0}", best.staleness_p99_us)),
            ("frames_delivered", best.stats.frames_delivered.to_string()),
            ("computed_frames", best.stats.computed_frames.to_string()),
            (
                "dropped_subscribers",
                best.stats.dropped_subscribers.to_string(),
            ),
        ],
    ) {
        Ok(path) => println!("query_scale: wrote {}", path.display()),
        Err(err) => eprintln!("query_scale: could not write BENCH_query.json: {err}"),
    }

    // A Criterion-timed reduced run so the bench also yields a tracked
    // distribution without re-running the 150k-subscriber workload per
    // sample.
    let small = QueryScaleConfig {
        n_poles: 64,
        epochs: 10,
        subscribers: 2_000,
        ingest_workers: 2,
        pollers: 4,
        ..cfg
    };
    c.bench_function("query_scale_2k_subscribers", |b| {
        b.iter(|| std::hint::black_box(query_scale(&small).stats.frames_delivered))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench
}
criterion_main!(benches);
