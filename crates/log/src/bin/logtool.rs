//! Operator tooling for caraoke pane logs.
//!
//! ```text
//! logtool inspect <log-dir>      # segments, sizes, record counts, pane range,
//!                                # where the pane records' bytes go
//! logtool verify  <log-dir>      # full verified replay; exit 1 on corruption
//! logtool tail    <log-dir> [n]  # the last n pane records (default 10)
//! ```

use caraoke_log::codec::{LogRecord, PaneBytes};
use caraoke_log::{LogCity, LogReader};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: logtool <inspect|verify|tail> <log-dir> [n]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, dir) = match (args.first(), args.get(1)) {
        (Some(c), Some(d)) => (c.as_str(), Path::new(d)),
        _ => return usage(),
    };
    match cmd {
        "inspect" => inspect(dir),
        "verify" => verify(dir),
        "tail" => {
            let n = args
                .get(2)
                .map(|s| s.parse::<usize>().unwrap_or(10))
                .unwrap_or(10);
            tail(dir, n)
        }
        _ => usage(),
    }
}

fn inspect(dir: &Path) -> ExitCode {
    let reader = match LogReader::open(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("logtool: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("log {}", dir.display());
    for name in reader.segments() {
        let len = std::fs::metadata(dir.join(name))
            .map(|m| m.len())
            .unwrap_or(0);
        println!("  segment {name}  {len} bytes");
    }
    let mut cursor = reader.records();
    let mut panes = 0u64;
    let mut first_pane: Option<u64> = None;
    let mut last_pane = 0u64;
    let mut snapshots = 0u64;
    let mut dead = 0u64;
    let mut forced = 0u64;
    let mut bytes = PaneBytes::default();
    let mut observations = 0u64;
    for record in cursor.by_ref() {
        match record {
            Ok(LogRecord::Pane(p)) => {
                panes += 1;
                first_pane.get_or_insert(p.pane);
                last_pane = p.pane;
                forced += u64::from(p.forced);
                bytes.add(&PaneBytes::of(&p.aggregates, &p.deltas));
                observations += p.aggregates.observations;
            }
            Ok(LogRecord::Snapshot(s)) => {
                snapshots += 1;
                println!(
                    "  snapshot: next_pane {}  chain {:#018x}  {} dead poles",
                    s.next_pane,
                    s.chain,
                    s.dead_poles.len()
                );
            }
            Ok(LogRecord::DeadPole(p)) => {
                dead += 1;
                println!("  dead pole {p}");
            }
            Err(e) => {
                eprintln!("logtool: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match first_pane {
        Some(first) => {
            println!("  panes {first}..={last_pane} ({panes} records, {forced} forced)");
            print_pane_bytes(&bytes, observations);
        }
        None => println!("  no pane records"),
    }
    println!(
        "  {snapshots} snapshot(s), {dead} dead-pole record(s), chain {:#018x}, torn tail {} bytes",
        cursor.chain_state(),
        cursor.torn_tail_bytes()
    );
    ExitCode::SUCCESS
}

/// Where the pane records' payload bytes go, part by part, summed over
/// the log.
fn print_pane_bytes(bytes: &PaneBytes, observations: u64) {
    let total = bytes.total();
    println!(
        "  pane payload bytes {total} ({:.1} B/obs over {observations} observations):",
        total as f64 / observations.max(1) as f64
    );
    let share = |part: usize| 100.0 * part as f64 / total.max(1) as f64;
    let mean_points = bytes.track_points as f64 / bytes.upsert_count.max(1) as f64;
    let parts = [
        (
            "header + aggregates",
            bytes.header_and_aggregates,
            String::new(),
        ),
        ("OD rows", bytes.od_rows, String::new()),
        (
            "tracker upserts",
            bytes.upserts,
            format!(
                "  {} upserts, mean {mean_points:.2} track points",
                bytes.upsert_count
            ),
        ),
        (
            "removals + aliases",
            bytes.removals_and_aliases,
            String::new(),
        ),
    ];
    for (name, part, note) in parts {
        println!("    {name:<20} {part:>12} B {:5.1} %{note}", share(part));
    }
}

fn verify(dir: &Path) -> ExitCode {
    match LogCity::open(dir).replay() {
        Ok(replay) => {
            println!(
                "ok: {} panes verified, chain {:#018x}, {} observations, torn tail {} bytes",
                replay.panes, replay.chain, replay.totals.observations, replay.torn_tail_bytes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corrupt: {e}");
            ExitCode::FAILURE
        }
    }
}

fn tail(dir: &Path, n: usize) -> ExitCode {
    let reader = match LogReader::open(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("logtool: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut last: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    for record in reader.records() {
        match record {
            Ok(LogRecord::Pane(p)) => {
                if last.len() == n.max(1) {
                    last.pop_front();
                }
                last.push_back(format!(
                    "pane {}  obs {}  fp {:#018x}  chain {:#018x}{}",
                    p.pane,
                    p.aggregates.observations,
                    p.fingerprint,
                    p.chain,
                    if p.forced {
                        format!("  FORCED ({} pole misses)", p.pole_misses)
                    } else {
                        String::new()
                    }
                ));
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("logtool: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for line in last {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
