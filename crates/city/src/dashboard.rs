//! Text rendering of a city run — the `city_dashboard` example's output.

use crate::driver::CityRun;
use std::fmt::Write as _;

/// Renders a [`CityRun`] as an aligned text dashboard: ingest telemetry,
/// per-segment occupancy, flow, speed percentiles and the busiest OD pairs.
pub fn render(run: &CityRun) -> String {
    let mut out = String::new();
    let agg = &run.aggregates;
    let _ = writeln!(out, "== caraoke-city run ==");
    let _ = writeln!(
        out,
        "  ingest: {} observations in {} reports from {} distinct tags",
        run.observations, run.reports, run.distinct_tags
    );
    let _ = writeln!(
        out,
        "  throughput: {:.0} obs/s (wall {:.3} s)",
        run.observations_per_sec(),
        run.elapsed.as_secs_f64(),
    );
    let _ = writeln!(out, "  fingerprint: {:#018x}", agg.fingerprint());

    let _ = writeln!(out, "-- occupancy by street segment (Fig. 13 workload) --");
    const MAX_SEGMENT_ROWS: usize = 12;
    for (seg, stats) in agg.segments.iter().take(MAX_SEGMENT_ROWS) {
        let _ = writeln!(
            out,
            "  segment {:>3}: mean {:>5.2} peak {:>3} over {:>6} reports ({} shared-bin spikes)",
            seg,
            stats.mean_occupancy(),
            stats.peak_count,
            stats.reports,
            stats.multi_occupied_peaks,
        );
    }
    if agg.segments.len() > MAX_SEGMENT_ROWS {
        let _ = writeln!(
            out,
            "  ... and {} more segments",
            agg.segments.len() - MAX_SEGMENT_ROWS
        );
    }

    let _ = writeln!(out, "-- flow per light cycle (Fig. 12 workload) --");
    let segs: Vec<u16> = agg.segments.keys().copied().collect();
    for seg in segs.iter().take(8) {
        let _ = writeln!(
            out,
            "  segment {:>3}: {:>7.1} vehicles/cycle",
            seg,
            agg.flow.mean_flow(crate::event::SegmentId(*seg)),
        );
    }

    let _ = writeln!(out, "-- speeds from position tracks (§7) --");
    let _ = writeln!(
        out,
        "  {} samples: mean {:>5.1} mph, p50 {:>5.1}, p90 {:>5.1}, p99 {:>5.1}",
        agg.speeds.samples(),
        agg.speeds.mean_mph(),
        agg.speeds.percentile_mph(50.0),
        agg.speeds.percentile_mph(90.0),
        agg.speeds.percentile_mph(99.0),
    );
    let _ = writeln!(
        out,
        "  speed sources: {} from position-track regression, {} arrival-time fallbacks",
        agg.positions.track_speed_samples, agg.positions.arrival_speed_samples,
    );

    let _ = writeln!(out, "-- localization (§6 position ladder) --");
    let _ = writeln!(
        out,
        "  {} two-reader fixes, {} AoA-only, {} pole fallbacks ({:>5.1}% localized, mean sigma {:.1} m)",
        agg.positions.two_reader_fixes,
        agg.positions.aoa_only_fixes,
        agg.positions.pole_fallbacks,
        agg.positions.localized_fraction() * 100.0,
        agg.positions.mean_sigma_m(),
    );

    let _ = writeln!(out, "-- busiest origin->destination pole pairs --");
    for ((from, to), n) in agg.od.top(5) {
        let _ = writeln!(out, "  pole {from:>4} -> pole {to:>4}: {n:>7} transitions");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BatchDriver;
    use crate::synth::SyntheticCity;

    #[test]
    fn dashboard_renders_every_section() {
        let run = BatchDriver {
            workers: 2,
            consumers: 1,
            queue_capacity: 32,
            store: Default::default(),
        }
        .run(&SyntheticCity::new(16, 8, 2));
        let text = render(&run);
        for needle in [
            "caraoke-city run",
            "occupancy by street segment",
            "flow per light cycle",
            "speeds from position tracks",
            "localization (§6 position ladder)",
            "two-reader fixes",
            "origin->destination",
            "fingerprint",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
