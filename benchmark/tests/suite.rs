//! Runs every workload at `--scale tiny`, untraced and traced, through the
//! real binary, and holds the emitted metrics against `BENCHMARK.json`: the
//! (metric, workload, unit) set the harness reports is exactly the set the
//! contract file declares.

use caraoke_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_caraoke-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn names_of(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn spec_subcommand_prints_benchmark_json() {
    let out = Command::new(BIN).arg("spec").output().expect("run spec");
    assert!(out.status.success());
    let printed = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("spec prints JSON");
    assert_eq!(
        printed,
        benchmark_json(),
        "regenerate BENCHMARK.json with `caraoke-benchmark spec`"
    );
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let contract = benchmark_json();
    let results = scratch("suite");
    let workloads: Vec<String> = contract
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 6);
    for workload in &workloads {
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(BIN)
                .args([
                    "bench",
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--scale", "tiny", "--results"])
                .arg(&results)
                .output()
                .expect("run bench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = Json::parse(stdout.lines().last().expect("a result line"))
                .expect("result line is JSON");
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(
                line.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}: no operation fails"
            );

            let declared = names_of(contract.get(table).expect(table));
            let metrics = line.get("metrics").expect("metrics").as_obj();
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string();
                    (name.clone(), unit)
                })
                .collect();
            assert_eq!(emitted, declared, "{workload} trace {trace}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                let value = value.unwrap_or_else(|| panic!("{workload}: {name} is not a number"));
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
            let run_dir = results.join(format!(
                "{workload}-seed5-{}",
                if trace == "1" { "traced" } else { "plain" }
            ));
            assert!(run_dir.join("record.json").is_file());
            assert_eq!(run_dir.join("spans.jsonl").is_file(), trace == "1");
            let leftovers: Vec<_> = std::fs::read_dir(&run_dir)
                .unwrap()
                .flatten()
                .filter(|e| e.path().is_dir())
                .collect();
            assert!(
                leftovers.is_empty(),
                "{workload}: scratch logs left behind: {leftovers:?}"
            );
        }
    }
}

#[test]
fn run_then_compare_against_itself_is_clean() {
    let dir = scratch("compare");
    let out = dir.join("a.json");
    let run = Command::new(BIN)
        .args([
            "run",
            "--only",
            "ingest_hot",
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("run suite");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = String::from_utf8_lossy(&run.stdout).to_string();
    assert!(text.contains("ingest_obs_per_s"), "{text}");
    let summary = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("summary parses");
    let env = summary
        .get("workloads")
        .and_then(|w| w.get("ingest_hot"))
        .and_then(|w| w.get("environment"))
        .expect("environment recorded");
    for key in [
        "cores",
        "seed",
        "live_config",
        "log_options",
        "serve_config",
    ] {
        assert!(env.get(key).is_some(), "environment lacks {key}");
    }
    assert!(summary.get("git_rev").is_some());

    let compare = Command::new(BIN)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("compare");
    assert!(compare.status.success());
    let table = String::from_utf8_lossy(&compare.stdout).to_string();
    assert!(
        table.contains("resolved") && !table.contains("REGRESSED"),
        "{table}"
    );
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(BIN)
        .args(["bench", "--workload", "nope", "--results"])
        .arg(scratch("refused"))
        .output()
        .expect("run bench");
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "no result line for a run that did not happen"
    );
}
