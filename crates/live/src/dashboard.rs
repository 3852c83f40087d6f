//! Text rendering of a live engine's rolling state — the
//! `live_dashboard` example's output.

use crate::engine::LiveCity;
use crate::query::{LiveAnswer, LiveQuery, PaneSummary};
use crate::window::WindowSpec;
use caraoke_city::SegmentId;
use std::fmt::Write as _;

/// Renders the rolling-window view a dashboard would poll: watermark
/// position, ingest/shed telemetry, recent sealed panes, and windowed
/// occupancy / speed / OD answers.
pub fn render(live: &LiveCity, last_panes: usize) -> String {
    let snap = live.snapshot(last_panes);
    let pane_us = live.config().pane_us;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== caraoke-live @ watermark {:.1} s ==",
        snap.watermark_us as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  ingest: {} reports, {} observations sealed over {} panes ({} buffered above the watermark)",
        snap.stats.reports,
        snap.stats.observations,
        snap.stats.sealed_panes,
        snap.stats.buffered_observations,
    );
    let _ = writeln!(
        out,
        "  shed: {} late reports, {} late observations, {} buffer overflows",
        snap.stats.shed_reports, snap.stats.shed_observations, snap.stats.overflow_shed,
    );
    let _ = writeln!(
        out,
        "  staleness: {} forced panes ({} pole misses)",
        snap.stats.forced_panes, snap.stats.forced_pole_misses,
    );
    let _ = writeln!(
        out,
        "  aliases (§8): {} decode upgrades, {} alias hits, {} shared-bin collisions ({:.1} % collision rate)",
        snap.stats.alias.decode_upgrades,
        snap.stats.alias.alias_hits,
        snap.stats.alias.alias_collisions,
        snap.stats.alias.collision_rate() * 100.0,
    );
    let _ = writeln!(
        out,
        "  window fingerprint chain: {:#018x}",
        live.fingerprint_chain()
    );

    let _ = writeln!(out, "-- rolling panes (last {last_panes}) --");
    for pane in &snap.recent {
        let _ = render_pane(&mut out, pane);
    }

    // Windowed answers over the trailing four panes.
    let window = WindowSpec::sliding(4 * pane_us, pane_us);
    let _ = writeln!(
        out,
        "-- windowed analytics (trailing {:.1} s) --",
        window.width_us as f64 / 1e6
    );
    for segment in 0..3u16 {
        if let LiveAnswer::Occupancy {
            mean,
            peak,
            reports,
        } = live.query(&LiveQuery::Occupancy {
            segment: SegmentId(segment),
            window,
        }) {
            if reports > 0 {
                let _ = writeln!(
                    out,
                    "  occupancy segment {segment:>3}: mean {mean:>5.2} peak {peak:>3} over {reports:>5} reports"
                );
            }
        }
    }
    if let LiveAnswer::Speed { mph, samples } =
        live.query(&LiveQuery::SpeedPercentile { p: 50.0, window })
    {
        let p90 = match live.query(&LiveQuery::SpeedPercentile { p: 90.0, window }) {
            LiveAnswer::Speed { mph, .. } => mph,
            _ => 0.0,
        };
        let _ = writeln!(
            out,
            "  speeds: p50 {mph:>5.1} mph, p90 {p90:>5.1} mph ({samples} samples)"
        );
    }
    if let LiveAnswer::TopOd { pairs } = live.query(&LiveQuery::TopOd { n: 3, window }) {
        for ((from, to), n) in pairs {
            let _ = writeln!(
                out,
                "  od: pole {from:>4} -> pole {to:>4}: {n:>6} transitions"
            );
        }
    }
    out
}

fn render_pane(out: &mut String, pane: &PaneSummary) -> std::fmt::Result {
    writeln!(
        out,
        "  pane {:>5} @ {:>7.1} s: {:>6} obs, {:>5} flow, {:>4} od, p50 {:>5.1} mph ({} speed samples), fp {:#018x}",
        pane.pane,
        pane.start_us as f64 / 1e6,
        pane.observations,
        pane.flow_events,
        pane.od_transitions,
        pane.p50_speed_mph,
        pane.speed_samples,
        pane.fingerprint,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Interleaving, LiveDriver};
    use crate::engine::LiveConfig;
    use caraoke_city::{FrameSource, SyntheticCity};

    #[test]
    fn dashboard_renders_every_section() {
        let source = SyntheticCity::new(16, 8, 2);
        let driver = LiveDriver {
            workers: 2,
            interleaving: Interleaving::PoleStriped,
            config: LiveConfig::default(),
            pace_lag_panes: None,
        };
        let live = crate::engine::LiveCity::new(source.directory().clone(), driver.config);
        driver.stream(&source, &live);
        live.finish();
        let text = render(&live, 4);
        for needle in [
            "caraoke-live @ watermark",
            "rolling panes",
            "windowed analytics",
            "occupancy segment",
            "speeds: p50",
            "fingerprint chain",
            "aliases",
            "shed:",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
