//! `compare A.json B.json`: one row per (end-to-end metric, workload) of two
//! `run` summaries, judged against the metric's bound.
//!
//! * **regressed** — B is worse than A by more than the bound.
//! * **unresolved** — within the bound, but the spread recorded for the
//!   metric in either run (quartile distance of its trial values over their
//!   median) is wider than the bound, so "no change" is not established.
//! * **resolved** — within the bound, with a spread that can tell.

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Resolved,
    Unresolved,
    Regressed,
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    if worse_by(a, b, better) > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Resolved
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("kind").and_then(Json::as_str) {
        Some("run") => Ok(doc),
        other => Err(format!("{path}: kind {other:?}, expected a `run` summary")),
    }
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Why a workload's run was void, if it was.
fn void<'a>(doc: &'a Json, workload: &str) -> Option<&'a str> {
    doc.get("workloads")?.get(workload)?.get("void")?.as_str()
}

fn spread(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("spreads")?
        .get(metric)?
        .as_f64()
}

/// Returns whether no pair regressed and no run was void.
pub fn run(files: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = files else {
        return Err("compare needs exactly two run summaries".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut clean = true;
    for workload in spec::WORKLOADS {
        if let Some(why) = void(&a, workload.name).or(void(&b, workload.name)) {
            // A void run's numbers are not numbers anyone may compare.
            println!("{:<16} void: {why}", workload.name);
            clean = false;
            continue;
        }
        for metric in spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                value(&a, workload.name, metric.name),
                value(&b, workload.name, metric.name),
            ) else {
                continue; // a summary made with --only lacks the other rows
            };
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let widest = [&a, &b]
                .iter()
                .filter_map(|doc| spread(doc, workload.name, metric.name))
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |w| w.max(s)))
                });
            let verdict = judge(va, vb, metric.better, bound, widest);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                va,
                vb,
                worse_by(va, vb, metric.better) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Resolved => "resolved",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_applies_in_the_metric_s_direction() {
        // Throughput: 12 % lower is a regression at a 10 % bound, 12 %
        // higher is not.
        assert_eq!(
            judge(100.0, 88.0, Better::Higher, 0.10, None),
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 112.0, Better::Higher, 0.10, None),
            Verdict::Resolved
        );
        // Latency: the other way round.
        assert_eq!(
            judge(100.0, 112.0, Better::Lower, 0.10, None),
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 88.0, Better::Lower, 0.10, None),
            Verdict::Resolved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_pair_unresolved() {
        assert_eq!(
            judge(100.0, 97.0, Better::Higher, 0.10, Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 97.0, Better::Higher, 0.10, Some(0.02)),
            Verdict::Resolved
        );
    }
}
