//! The six workloads. Each is a function from run arguments to an
//! [`Outcome`]; `run` dispatches on the workload's name.

mod durable;
mod ingest;
mod reader;
mod serve;

use crate::harness::{Outcome, RunArgs};

pub fn run(workload: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match workload {
        "ingest_hot" => ingest::run(args, &ingest::HOT),
        "ingest_bigstate" => ingest::run(args, &ingest::BIGSTATE),
        "durable_cycle" => durable::run(args),
        "serve_fanout" => serve::run(args, serve::Loop::Open),
        "serve_saturated" => serve::run(args, serve::Loop::Closed),
        "reader_phy" => reader::run(args),
        _ => return None,
    })
}
