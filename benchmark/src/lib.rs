//! `caraoke-benchmark`: the one outside-in benchmark of the Caraoke stack.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1 --results DIR`
//!   runs one workload in this process and prints one JSON result line (the
//!   entry `BENCHMARK.json`'s `command` names).
//! * `run --out FILE` runs every workload, each in a child process, untraced:
//!   the end-to-end metrics. `trace --out FILE` does the same traced: the
//!   per-layer table.
//! * `compare A.json B.json` applies each end-to-end metric's bound.
//! * `spread --results DIR` runs each workload several times on different
//!   seeds and prints each metric's quartile spread against its bound.
//! * `spec` prints the `BENCHMARK.json` this binary implements.
//!
//! See `benchmark/README.md` for what is measured and why.

pub mod cli;
pub mod compare;
pub mod harness;
pub mod json;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
