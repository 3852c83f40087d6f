//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same tables; `tests/suite.rs` asserts they are equal.

/// The command `BENCHMARK.json` names; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "bench",
    "--results",
    "benchmark/results",
];

/// How long one run measures, seconds (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen; per-layer metrics carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest_hot",
        why: "1 000 poles, cache-resident state, no log, no hub: the live seal path does nearly all the work",
    },
    Workload {
        name: "ingest_bigstate",
        why: "20 000 poles, same code with a working set far beyond the LLC: a table or prefetch change shows here, not on ingest_hot",
    },
    Workload {
        name: "durable_cycle",
        why: "logged ingest, then verified replay, then recovery: the log tier written and read back in the same row",
    },
    Workload {
        name: "serve_fanout",
        why: "open loop at 300 k obs/s with TCP and in-process subscribers: freshness while query evaluation and fan-out dominate",
    },
    Workload {
        name: "serve_saturated",
        why: "the same hub and subscribers under closed-loop ingest: sealer against fan-out on the sealed-state lock",
    },
    Workload {
        name: "reader_phy",
        why: "full-PHY pole queries and id decoding: only phy, dsp, core and geom do the work, live does almost none",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics. The benchmark contract has every workload report
/// every one of them, never 0 and steady within its bound, so the list
/// holds what all six workloads measure and the reference container can
/// hold steady; the workload-specific headline numbers
/// (`replay_panes_per_s`, `recover_ms`, `phy_queries_per_s`,
/// `decode_ids_per_s`) and the freshness tail are in [`PER_LAYER`], and
/// `failed_share` is the result line's `failed / attempted` (see README,
/// "Deviations from the issue").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_obs_per_s", "obs/s", Better::Higher, 0.25),
    e2e("fresh_latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher as Up, Lower as Down};

/// The per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific headline numbers (one tier each).
    layer("replay_panes_per_s", "panes/s", Up),
    layer("recover_ms", "ms", Down),
    layer("phy_queries_per_s", "1/s", Up),
    layer("decode_ids_per_s", "1/s", Up),
    layer("fresh_latency_p90_ms", "ms", Down),
    layer("fresh_latency_p99_ms", "ms", Down),
    layer("failed_share", "ratio", Down),
    // Harness cost and validity.
    layer("gen.report_ns_per_obs", "ns", Down),
    layer("gen.late_max_ms", "ms", Down),
    layer("gen.cpu_share", "ratio", Down),
    // live
    layer("live.ingest_ns_per_obs", "ns", Down),
    layer("live.pace_wait_share", "ratio", Down),
    layer("live.finish_ms", "ms", Down),
    layer("live.sealer_cpu_ns_per_obs", "ns", Down),
    layer("live.sealer_busy_share", "ratio", Down),
    layer("live.sealer_runq_wait_share", "ratio", Down),
    layer("live.release_to_seal_ms_p50", "ms", Down),
    layer("live.query_ms.occupancy", "ms", Down),
    layer("live.query_ms.speed_p50", "ms", Down),
    layer("live.query_ms.top_od", "ms", Down),
    layer("live.query_ms.watermark", "ms", Down),
    layer("live.query_sealed_ms", "ms", Down),
    layer("live.log_retries", "count", Down),
    layer("live.log_errors_transient", "count", Down),
    layer("live.log_errors_fatal", "count", Down),
    layer("live.compacted_tags", "count", Up),
    layer("live.alias_collision_rate", "ratio", Down),
    // city
    layer("city.tracker_apply_ns_per_obs", "ns", Down),
    layer("city.phy_report_us", "us", Down),
    layer("city.phy_cache_hit_share", "ratio", Up),
    // serve
    layer("serve.fanout_cpu_ms_per_round", "ms", Down),
    layer("serve.fanout_busy_share", "ratio", Down),
    layer("serve.conn_busy_share", "ratio", Down),
    layer("serve.frames_per_pane", "ratio", Up),
    layer("serve.seal_to_tcp_ms_p50", "ms", Down),
    layer("serve.inproc_staleness_ms_p50", "ms", Down),
    layer("serve.encode_us_per_frame", "us", Down),
    layer("serve.decode_us_per_frame", "us", Down),
    layer("serve.frame_bytes", "B", Down),
    layer("serve.poll_ns_per_sub", "ns", Down),
    layer("serve.computed_frames", "count", Down),
    layer("serve.cache_hit_frames", "count", Up),
    layer("serve.catchup_frames", "count", Down),
    layer("serve.missed_frames", "count", Down),
    layer("serve.lag_notices", "count", Down),
    layer("serve.dropped_subscribers", "count", Down),
    // log
    layer("log.append_us_per_pane", "us", Down),
    layer("log.encode_us_per_pane", "us", Down),
    layer("log.sync_ms", "ms", Down),
    layer("log.crc_gb_per_s", "GB/s", Up),
    layer("log.bytes_per_obs", "B", Down),
    layer("log.tax_ns_per_obs", "ns", Down),
    layer("log.read_us_per_pane", "us", Down),
    layer("log.decode_us_per_pane", "us", Down),
    layer("log.replay_fold_share", "ratio", Down),
    // reader side
    layer("phy.synthesize_us", "us", Down),
    layer("core.analyze_us", "us", Down),
    layer("dsp.sfft_us", "us", Down),
    layer("dsp.fft_us", "us", Down),
    layer("dsp.goertzel_us", "us", Down),
    layer("core.count_us", "us", Down),
    layer("core.aoa_us", "us", Down),
    layer("geom.two_reader_fix_us", "us", Down),
    layer("geom.fix_ok_share", "ratio", Up),
    layer("core.decode_ms", "ms", Down),
    layer("core.decode_ok_share", "ratio", Up),
    // tracing itself
    layer("trace.overhead_share", "ratio", Down),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
