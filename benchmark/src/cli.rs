//! The command line: `bench`, `run`, `trace`, `compare`, `spread`, `spec`.

use crate::harness::{self, Outcome, RunArgs, Scale};
use crate::json::Json;
use crate::{compare, runner, spec, trace, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--key value` options and positional arguments of one invocation.
pub struct Cli {
    options: Vec<(String, String)>,
    pub(crate) positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    cli.options.push((key.to_string(), value.clone()));
                }
                None => cli.positional.push(arg.clone()),
            }
        }
        Ok(cli)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot read {text:?}")),
        }
    }

    pub fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None | Some("full") => Ok(Scale::Full),
            Some("tiny") => Ok(Scale::Tiny),
            Some(other) => Err(format!("--scale: {other:?} is neither full nor tiny")),
        }
    }
}

const USAGE: &str = "usage: caraoke-benchmark <bench|run|trace|compare|spread|spec> [options]
  bench   --workload W --seed N --seconds S --trace 0|1 --results DIR [--scale tiny]
  run     --out FILE [--seed 77] [--seconds 10] [--only W] [--scale tiny]
  trace   [W] --out FILE [--seed 77] [--seconds 10] [--scale tiny]
  compare A.json B.json
  spread  --results DIR [--runs 10] [--seed 1] [--seconds 10] [--only W] [--scale tiny]
  spec";

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = Cli::parse(rest).and_then(|cli| match command.as_str() {
        "bench" => bench(&cli),
        "run" => runner::suite(&cli, false),
        "trace" => runner::suite(&cli, true),
        "compare" => compare::run(&cli.positional),
        "spread" => runner::spread(&cli),
        "spec" => {
            println!("{}", spec_document());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("caraoke-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Directory of one run's raw files under the results directory.
pub fn run_dir(results: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "plain" };
    results.join(format!("{workload}-seed{seed}-{kind}"))
}

/// One workload, in this process: the per-workload child of `run`, and the
/// command the driver calls. Prints the result line last on stdout; the exit
/// code is 0 only when every oracle passed. A void run (see
/// [`Outcome::void`]) is a statement about the measurement, not about the
/// program's outputs: it is written to the record and to stderr, and `run`
/// and `trace` print "void" in place of its numbers.
fn bench(cli: &Cli) -> Result<bool, String> {
    let workload = cli.get("workload").ok_or("bench needs --workload")?;
    if spec::workload(workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let results = PathBuf::from(cli.get("results").ok_or("bench needs --results")?);
    let seed = cli.parsed("seed", 77u64)?;
    let trace = match cli.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let args = RunArgs {
        seed,
        seconds: cli.parsed("seconds", 10.0)?,
        trace,
        scale: cli.scale()?,
        run_dir: run_dir(&results, workload, seed, trace),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Stale files of an earlier run with the same name would mix with this
    // run's (scratch logs refuse to be created over an existing log).
    let _ = std::fs::remove_dir_all(&args.run_dir);
    std::fs::create_dir_all(&args.run_dir)
        .map_err(|e| format!("create {}: {e}", args.run_dir.display()))?;

    let mut outcome = workloads::run(workload, &args).expect("workload name checked above");
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.layer("failed_share", failed_share);

    write_run_files(workload, &args, &outcome).map_err(|e| format!("write results: {e}"))?;

    for mismatch in &outcome.mismatches {
        eprintln!("{workload}: MISMATCH {mismatch}");
    }
    if let Some(why) = &outcome.void {
        eprintln!("{workload}: VOID {why}");
    }
    let ok = outcome.mismatches.is_empty();
    println!("{}", result_line(&outcome, trace, ok));
    Ok(ok)
}

fn metrics_json(
    values: &std::collections::BTreeMap<&'static str, f64>,
    table: &[spec::Metric],
) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = *values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric untraced, every per-layer metric
/// traced.
fn result_line(outcome: &Outcome, trace: bool, ok: bool) -> Json {
    let metrics = if trace {
        metrics_json(&outcome.layers, spec::PER_LAYER)
    } else {
        metrics_json(&outcome.end_to_end, spec::END_TO_END)
    };
    Json::obj(vec![
        ("correct", Json::Bool(ok)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ])
}

/// Collect: the raw record of the run (`record.json`) and, traced, the
/// spans (`spans.jsonl`) with their per-name totals. `run` and `trace`
/// summarise from these files.
fn write_run_files(workload: &str, args: &RunArgs, outcome: &Outcome) -> std::io::Result<()> {
    let mut record = vec![
        ("workload", Json::str(workload)),
        ("environment", harness::environment(args)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        (
            "mismatches",
            Json::Arr(outcome.mismatches.iter().map(Json::str).collect()),
        ),
        ("void", outcome.void.as_ref().map_or(Json::Null, Json::str)),
        (
            "end_to_end",
            metrics_json(&outcome.end_to_end, spec::END_TO_END),
        ),
        (
            "spreads",
            Json::Obj(
                outcome
                    .spreads
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        record.push(("per_layer", metrics_json(&outcome.layers, spec::PER_LAYER)));
        let tracers: Vec<(&str, &trace::Tracer)> =
            outcome.tracers.iter().map(|(name, t)| (*name, t)).collect();
        trace::write_spans(&args.run_dir.join("spans.jsonl"), &tracers)?;
        let only: Vec<&trace::Tracer> = tracers.iter().map(|(_, t)| *t).collect();
        record.push(("span_totals", trace::totals_json(&trace::aggregate(&only))));
    }
    record.push((
        "records",
        Json::Obj(
            outcome
                .records
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        ),
    ));
    std::fs::write(
        args.run_dir.join("record.json"),
        format!("{}\n", Json::obj(record)),
    )
}

/// `BENCHMARK.json`, generated from [`spec`].
fn spec_document() -> String {
    let metric = |m: &spec::Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        format!("    {}", Json::obj(fields))
    };
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {}",
                Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
            )
        })
        .collect();
    let command: Vec<Json> = spec::COMMAND.iter().map(|s| Json::str(*s)).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        Json::Arr(command),
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        spec::END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        spec::PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}
