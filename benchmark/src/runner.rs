//! The suite runner: every workload in a child process of its own (so
//! `peak_rss_mb` is per workload and a crash takes down one row, not the
//! suite), then the summary — derived from the files the children wrote.

use crate::cli::{run_dir, Cli};
use crate::json::Json;
use crate::spec;
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What one child run reported.
struct ChildRun {
    /// The child's result line.
    line: Json,
    /// The child's `record.json`.
    record: Json,
    exit_ok: bool,
}

struct SuiteArgs {
    seed: u64,
    seconds: f64,
    scale: String,
    results: PathBuf,
}

fn run_child(workload: &str, seed: u64, trace: bool, args: &SuiteArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let output = Command::new(exe)
        .arg("bench")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale])
        .arg("--results")
        .arg(&args.results)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let line = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let record_path = run_dir(&args.results, workload, seed, trace).join("record.json");
    let record = std::fs::read_to_string(&record_path)
        .map_err(|e| format!("read {}: {e}", record_path.display()))
        .and_then(|text| {
            Json::parse(&text).map_err(|e| format!("{}: {e}", record_path.display()))
        })?;
    Ok(ChildRun {
        line,
        record,
        exit_ok: output.status.success(),
    })
}

/// The value of `metric` in a child's result line.
fn metric_value(child: &ChildRun, workload: &str, metric: &str) -> Result<f64, String> {
    child
        .line
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{workload}: result line lacks {metric}"))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn selected(cli: &Cli) -> Result<Vec<&'static str>, String> {
    let only = cli
        .get("only")
        .or(cli.positional.first().map(String::as_str));
    match only {
        None => Ok(spec::WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => spec::workload(name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn suite_args(cli: &Cli, results: PathBuf, default_seed: u64) -> Result<SuiteArgs, String> {
    Ok(SuiteArgs {
        seed: cli.parsed("seed", default_seed)?,
        seconds: cli.parsed("seconds", spec::RUN_SECONDS as f64)?,
        scale: cli.scale()?.as_str().to_string(),
        results,
    })
}

/// `run` (untraced, end-to-end metrics) and `trace` (traced, per-layer
/// metrics): every selected workload once, printed metric by metric and
/// written to `--out`. Returns whether every workload was correct.
pub fn suite(cli: &Cli, trace: bool) -> Result<bool, String> {
    let out = PathBuf::from(cli.get("out").ok_or("--out FILE is required")?);
    // Raw records, spans and scratch logs go next to the summary.
    let results = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let args = suite_args(cli, results, 77)?;
    let table = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut rows = Vec::new();
    let mut all_ok = true;
    for workload in selected(cli)? {
        let child = run_child(workload, args.seed, trace, &args)?;
        let attempted = child
            .line
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let failed = child
            .line
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let void = child.record.get("void").and_then(Json::as_str);
        let verdict = match (child.exit_ok, void) {
            (false, _) => "INCORRECT".to_string(),
            (true, Some(why)) => format!("correct but VOID ({why})"),
            (true, None) => "correct".to_string(),
        };
        all_ok &= child.exit_ok && void.is_none();
        println!(
            "{workload}: {verdict}; attempted {attempted}, failed {failed}, failed_share {}",
            failed / attempted.max(1.0)
        );
        for metric in table {
            let value = metric_value(&child, workload, metric.name)?;
            // A void run's numbers are not numbers anyone may quote.
            match void {
                None => println!("  {:<34} {:>16.4} {}", metric.name, value, metric.unit),
                Some(_) => println!("  {:<34} {:>16} {}", metric.name, "void", metric.unit),
            }
        }
        rows.push((workload.to_string(), child.record));
    }
    let summary = Json::obj(vec![
        ("kind", Json::str(if trace { "trace" } else { "run" })),
        ("git_rev", Json::str(git_rev())),
        ("workloads", Json::Obj(rows)),
    ]);
    std::fs::write(&out, format!("{summary}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_ok)
}

/// `spread`: the acceptance rule of the benchmark contract, run locally.
/// Each workload runs `--runs` times untraced, each time on another seed;
/// for every end-to-end metric the distance between the first and third
/// quartile of the values, as a share of their median, is printed next to
/// the metric's bound. Returns whether every spread (other than
/// `setup_s`'s, which the rule exempts) is within its bound.
pub fn spread(cli: &Cli) -> Result<bool, String> {
    let results = PathBuf::from(cli.get("results").ok_or("--results DIR is required")?);
    let args = suite_args(cli, results, 1)?;
    let runs: u64 = cli.parsed("runs", 10)?;
    let mut within = true;
    let mut report = Vec::new();
    for workload in selected(cli)? {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for run in 0..runs {
            let child = run_child(workload, args.seed + run, false, &args)?;
            if !child.exit_ok {
                return Err(format!("{workload} seed {}: not correct", args.seed + run));
            }
            for (slot, metric) in values.iter_mut().zip(spec::END_TO_END) {
                slot.push(metric_value(&child, workload, metric.name)?);
            }
        }
        println!(
            "{workload} ({runs} runs, seeds {}..{})",
            args.seed,
            args.seed + runs
        );
        let mut metrics = Vec::new();
        for (slot, metric) in values.iter().zip(spec::END_TO_END) {
            let median = stats::median(slot);
            let (q1, q3) = stats::quartiles(slot);
            let spread = (q3 - q1) / median;
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let note = if metric.name == "setup_s" {
                "(exempt)"
            } else if spread > bound {
                within = false;
                "OVER BOUND"
            } else if spread > bound / 3.0 {
                "over a third of the bound"
            } else {
                ""
            };
            println!(
                "  {:<24} median {:>14.4} {:<6} spread {:>6.2}%  bound {:>4.0}%  {note}",
                metric.name,
                median,
                metric.unit,
                spread * 100.0,
                bound * 100.0
            );
            metrics.push((
                metric.name.to_string(),
                Json::obj(vec![
                    ("spread", Json::Num(spread)),
                    ("runs", stats::summary(slot)),
                ]),
            ));
        }
        report.push((workload.to_string(), Json::Obj(metrics)));
    }
    let path = args.results.join("spread.json");
    std::fs::write(&path, format!("{}\n", Json::Obj(report)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(within)
}
