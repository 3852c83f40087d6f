//! Regenerates every table and figure of the Caraoke evaluation and prints
//! paper-vs-measured rows.
//!
//! Usage: `experiments [all|<one of COMMANDS>] [--quick] [--full] [--jobs N]`;
//! an unknown subcommand prints the usage on stderr and exits 2.
//!
//! `--quick` reduces trial counts so the whole sweep finishes in a couple of
//! minutes; without it the counts match the paper's methodology (e.g. 1000
//! runs per point for Fig. 11).
//!
//! `--jobs N` runs the chaos scenario matrix on `N` worker threads (cells
//! are independent; the report keeps grid order and is identical for any
//! value). `--full` adds the opt-in 100M-observation tier to `scale`, the
//! print-only long-haul run (it writes no file; performance claims come
//! from `benchmark/`).

use caraoke_bench as bench;
use caraoke_geom::speed::paper_speed_error_bound;

/// Every subcommand besides `all`.
const COMMANDS: [&str; 16] = [
    "fig4",
    "fig8",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table-counting-prob",
    "table-speed-bound",
    "table-power",
    "table-mac",
    "sfft",
    "localize2",
    "chaos",
    "scale",
];

fn is_known(which: &str) -> bool {
    which == "all" || COMMANDS.contains(&which)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    let jobs = parse_jobs(&args);
    let which = {
        let mut which = None;
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            if a == "--jobs" {
                iter.next(); // consume the value so it is not taken as a subcommand
            } else if !a.starts_with("--") && which.is_none() {
                which = Some(a.clone());
            }
        }
        which.unwrap_or_else(|| "all".to_string())
    };

    if !is_known(&which) {
        eprintln!(
            "experiments: unknown subcommand `{which}`\n\
             usage: experiments [all|{}] [--quick] [--full] [--jobs N]",
            COMMANDS.join("|")
        );
        std::process::exit(2);
    }

    let run = |name: &str| {
        debug_assert!(is_known(name), "`{name}` is missing from COMMANDS");
        which == "all" || which == name
    };

    if run("fig4") {
        let (series, peaks) = bench::fig04_spectrum(1);
        println!("== Fig. 4: collision spectrum of 5 transponders ==");
        println!("  paper: five spikes at the tags' CFOs");
        println!("  measured: {peaks} detected peaks; normalised spectrum (downsampled):");
        for chunk in series.chunks(32) {
            let (f, p) = chunk
                .iter()
                .cloned()
                .fold((0.0, 0.0_f64), |acc, (f, p)| (f, acc.1.max(p)));
            println!("    up to {f:7.1} kHz : {}", bar(p));
        }
        println!();
    }

    if run("table-counting-prob") {
        let trials = if quick { 20_000 } else { 200_000 };
        let rows = bench::counting_probability_table(trials, 2);
        println!(
            "{}",
            bench::format_rows(
                "§5 analysis: P(not missing any transponder) — paper: naive 0.98/0.93/0.73, Caraoke ≥0.999/0.999/0.997, empirical 0.999/0.995/0.953",
                &rows
            )
        );
    }

    if run("fig8") {
        let rows = bench::fig08_averaging(3);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 8: target bit-error rate vs number of averaged replies (paper: undecodable raw, clean after 16)",
                &rows
            )
        );
    }

    if run("fig11") {
        let trials = if quick { 2_000 } else { 1_000 * 10 };
        let rows = bench::fig11_counting(trials, 4);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 11: counting accuracy vs number of colliding transponders (paper: >99 % below 40 tags, ~2 % average error)",
                &rows
            )
        );
        let signal_rows = bench::fig11_signal_level(if quick { 10 } else { 100 }, 5);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 11 (signal-level pipeline, moderate densities)",
                &signal_rows
            )
        );
    }

    if run("fig12") {
        let rows = bench::fig12_traffic(if quick { 360 } else { 1800 }, 6);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 12: intersection monitoring (paper: queue builds in red/clears in green; street C ≈10× street A)",
                &rows
            )
        );
    }

    if run("fig13") {
        let rows = bench::fig13_localization(if quick { 3 } else { 30 }, 7);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 13: parking-spot localization error (paper: ≈4° average)",
                &rows
            )
        );
    }

    if run("fig14") {
        let summary = bench::fig14_multipath(if quick { 20 } else { 100 }, 8);
        println!("== Fig. 14: multipath profile (paper: strongest peak ≈27× the second) ==");
        println!(
            "  dominant/second peak power ratio: mean={:.1}x median={:.1}x p90={:.1}x over {} runs\n",
            summary.mean, summary.median, summary.p90, summary.count
        );
    }

    if run("fig15") {
        let rows = bench::fig15_speed(if quick { 3 } else { 10 }, 9);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 15: speed detection (paper: within 8 %, i.e. 1–4 mph, over 10–50 mph)",
                &rows
            )
        );
    }

    if run("fig16") {
        let tag_counts: &[usize] = if quick {
            &[1, 2, 5]
        } else {
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        };
        let rows = bench::fig16_decoding(if quick { 2 } else { 10 }, 10, tag_counts);
        println!(
            "{}",
            bench::format_rows(
                "Fig. 16: identification time vs colliding transponders (paper: 4.2 ms for 2, 16.2 ms for 5, ~50 ms for 10)",
                &rows
            )
        );
    }

    if run("table-speed-bound") {
        println!("== §7 analysis: maximum speed-error bound (paper: 5.5 % at 20 mph, 6.8 % at 50 mph) ==");
        for mph in [20.0, 35.0, 50.0] {
            println!(
                "  {mph:>4} mph : bound = {:.1} %",
                paper_speed_error_bound(mph) * 100.0
            );
        }
        println!();
    }

    if run("table-power") {
        let rows = bench::table_power();
        println!(
            "{}",
            bench::format_rows(
                "§12.5 power (paper: 900 mW active, 69 µW sleep, 9 mW average ⇒ 56× under the 500 mW solar budget)",
                &rows
            )
        );
    }

    if run("table-mac") {
        let rows = bench::table_mac(11);
        println!(
            "{}",
            bench::format_rows(
                "§9 reader MAC (paper: 120 µs carrier sense avoids query-over-response collisions)",
                &rows
            )
        );
    }

    if run("sfft") {
        let rows = bench::sfft_comparison(12);
        println!(
            "{}",
            bench::format_rows(
                "§10 sparse FFT vs dense FFT peak recovery (timing in `cargo bench --bench sfft_vs_fft`)",
                &rows
            )
        );
    }

    if run("localize2") {
        let positions = if quick { 25 } else { 80 };
        let rows = bench::localization_error(positions, 61);
        println!(
            "{}",
            bench::format_rows(
                "§6 two-reader localization error (paper §12.2: ~1 m median from phase-based AoA at two readers)",
                &rows
            )
        );
    }

    if run("chaos") {
        use caraoke_chaos::{matrix_json, run_matrix, MatrixConfig};
        let mut config = MatrixConfig::new(42, quick);
        config.jobs = jobs;
        let report = run_matrix(&config);
        let cells = report.cells.len();
        let failed: Vec<&caraoke_chaos::CellResult> =
            report.cells.iter().filter(|c| !c.ok).collect();
        println!(
            "== chaos scenario matrix ({} topologies x {} scripts = {cells} cells, seed {}, {} job{}) ==",
            4,
            cells / 4,
            report.seed,
            config.jobs,
            if config.jobs == 1 { "" } else { "s" }
        );
        for cell in &report.cells {
            println!(
                "  {:<10} {:<18} {}  accuracy={:.3} shed={} skipped={} cloned={} dead={} retries={} fatal={} cuts={}",
                cell.topology,
                cell.script,
                if cell.ok { "ok  " } else { "FAIL" },
                cell.accuracy,
                cell.shed_observations,
                cell.skipped_reports,
                cell.cloned_obs,
                cell.dead_poles,
                cell.log_retries,
                cell.log_errors_fatal,
                cell.cuts,
            );
        }
        // Only the full matrix is the committed artifact (CI diffs it
        // against a fresh run); the quick subset goes under target/.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let path = if quick {
            std::fs::create_dir_all(root.join("target")).expect("create target/");
            root.join("target/CHAOS_matrix.quick.json")
        } else {
            root.join("CHAOS_matrix.json")
        };
        std::fs::write(&path, matrix_json(&report)).expect("write the chaos matrix");
        println!(
            "  wrote {} ({} cells, {})",
            path.display(),
            cells,
            if report.ok() { "all green" } else { "FAILURES" }
        );
        println!();
        if !failed.is_empty() {
            for cell in &failed {
                eprintln!(
                    "chaos cell {}/{} failed: {:?}",
                    cell.topology, cell.script, cell.failures
                );
            }
            std::process::exit(1);
        }
    }

    if run("scale") {
        use bench::scale::{run_scale, scale_rows, ScaleConfig};
        // Tier selection: `--quick` is the CI smoke; the plain run adds the
        // ~10M-observation default tier; `--full` adds the opt-in
        // 100M-observation / 50k-pole long haul (minutes of wall clock).
        let mut tiers = vec![("smoke", ScaleConfig::smoke())];
        if !quick {
            tiers.push(("default", ScaleConfig::default_tier()));
        }
        if full {
            tiers.push(("full", ScaleConfig::full_tier()));
        }
        for (tier, cfg) in &tiers {
            let result = run_scale(cfg);
            print!(
                "{}",
                bench::format_rows(
                    &format!(
                        "long-haul scale ingestion, {tier} tier ({} workers; online engine vs generation-only ceiling)",
                        cfg.workers
                    ),
                    &scale_rows(cfg, &result)
                )
            );
            println!("  chain {:#018x}\n", result.chain_fingerprint);
        }
    }
}

/// Tiny ASCII bar for the Fig. 4 spectrum dump.
fn bar(p: f64) -> String {
    let n = (p * 40.0).round() as usize;
    "#".repeat(n.max(1))
}

/// Parses `--jobs N` / `--jobs=N` (chaos matrix worker threads); 1 when
/// absent or malformed.
fn parse_jobs(args: &[String]) -> usize {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--jobs" {
            return iter.next().and_then(|v| v.parse().ok()).unwrap_or(1);
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().unwrap_or(1);
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_listed_subcommands_are_known() {
        for name in COMMANDS {
            assert!(is_known(name));
        }
        assert!(is_known("all"));
        for stale in ["city", "live", "serve", "nosuch", ""] {
            assert!(!is_known(stale), "`{stale}` must be rejected");
        }
    }
}
