//! The traced run's instruments: in-memory spans around the calls into
//! each layer, and per-thread scheduler clocks read from `/proc`.
//!
//! Everything here lives in the harness; the program under test is not
//! changed. Spans are recorded on the harness's own threads (one
//! [`Tracer`] each, merged when the run ends) and written out as JSON
//! lines after the last timed operation.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// At most this many spans of one run are written to `spans.jsonl`; the
/// per-name aggregates always cover every span recorded.
const MAX_SPANS_WRITTEN: usize = 200_000;

/// What a span worked on, shared by all spans of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    None,
    /// One pole report.
    Report {
        pole: u32,
        epoch: u32,
    },
    /// One sealed pane (or an epoch, which releases one).
    Pane(u64),
    /// One trial or probe round.
    Round(u32),
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same tracer.
    pub parent: u32,
    pub req: Req,
}

/// A span recorder for one thread. All tracers of a run share `base`, so
/// their timestamps are comparable.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant) -> Self {
        Self {
            base,
            spans: Vec::with_capacity(1 << 20),
        }
    }

    /// Nanoseconds since the run's base instant.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, req: Req) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now();
    }

    /// Records a childless span from timestamps the caller already took
    /// (adjacent calls share a timestamp, so tracing costs one clock read
    /// per call, not two).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32, req: Req) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Times `f` as a childless span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: Req,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.leaf(name, start_ns, end_ns, parent, req);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Count, total and self time of every span name. A span's self time is its
/// duration minus the part its children cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn aggregate(tracers: &[&Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for tracer in tracers {
        let spans = tracer.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let totals = out.entry(span.name).or_default();
            totals.count += 1;
            totals.total_ns += duration;
            totals.self_ns += duration.saturating_sub(covered);
        }
    }
    out
}

/// Mean duration of the spans called `name`, in units of `per_ns`
/// nanoseconds (1e3 for µs, 1e6 for ms); 0 when none were recorded.
pub fn mean(totals: &BTreeMap<&'static str, SpanTotals>, name: &str, per_ns: f64) -> f64 {
    match totals.get(name) {
        Some(t) if t.count > 0 => t.total_ns as f64 / t.count as f64 / per_ns,
        _ => 0.0,
    }
}

pub fn totals_json(totals: &BTreeMap<&'static str, SpanTotals>) -> Json {
    Json::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::from(t.count)),
                        ("total_ns", Json::from(t.total_ns)),
                        ("self_ns", Json::from(t.self_ns)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Writes the spans as JSON lines: `thread`, `id` (index within the
/// thread), `name`, `start_ns`, `end_ns`, `parent` (an `id` of the same
/// thread, or null) and the request the span belongs to.
pub fn write_spans(path: &Path, tracers: &[(&str, &Tracer)]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let mut budget = MAX_SPANS_WRITTEN;
    for (thread, tracer) in tracers {
        for (id, span) in tracer.spans().iter().enumerate() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let mut fields = vec![
                ("thread", Json::str(*thread)),
                ("id", Json::from(id as u64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                (
                    "parent",
                    if span.parent == NO_PARENT {
                        Json::Null
                    } else {
                        Json::from(span.parent as u64)
                    },
                ),
            ];
            match span.req {
                Req::None => {}
                Req::Report { pole, epoch } => {
                    fields.push(("pole", Json::from(pole as u64)));
                    fields.push(("epoch", Json::from(epoch as u64)));
                }
                Req::Pane(pane) => fields.push(("pane", Json::from(pane))),
                Req::Round(round) => fields.push(("round", Json::from(round as u64))),
            }
            writeln!(out, "{}", Json::obj(fields))?;
        }
    }
    out.flush()
}

/// CPU time and run-queue wait of a set of threads, from
/// `/proc/self/task/*/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedClock {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl SchedClock {
    pub fn since(self, earlier: SchedClock) -> SchedClock {
        SchedClock {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Scheduler clocks of this process's live threads, summed by thread name
/// (`comm`, which the kernel truncates to 15 bytes). A thread that has
/// exited is gone from `/proc`, so callers snapshot before joining the
/// threads they want to account for.
pub fn thread_clocks() -> BTreeMap<String, SchedClock> {
    let mut out: BTreeMap<String, SchedClock> = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue; // the thread exited between readdir and read
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let clock = out.entry(comm.trim().to_string()).or_default();
        clock.run_ns += fields.next().unwrap_or(0);
        clock.wait_ns += fields.next().unwrap_or(0);
    }
    out
}

/// The clock of the threads whose name starts with `prefix`.
pub fn clock_of(clocks: &BTreeMap<String, SchedClock>, prefix: &str) -> SchedClock {
    let mut sum = SchedClock::default();
    for (name, clock) in clocks {
        if name.starts_with(prefix) {
            sum.run_ns += clock.run_ns;
            sum.wait_ns += clock.wait_ns;
        }
    }
    sum
}

/// [`clock_of`] the live threads named `prefix` when `traced`, zero
/// otherwise: untraced streams do not read `/proc`.
pub fn clock_if(traced: bool, prefix: &str) -> SchedClock {
    if traced {
        clock_of(&thread_clocks(), prefix)
    } else {
        SchedClock::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.open("trial", NO_PARENT, Req::Round(0));
        tracer.leaf("a", 10, 40, root, Req::None);
        tracer.leaf("a", 40, 50, root, Req::None);
        tracer.close(root);
        tracer.spans[root as usize].start_ns = 0;
        tracer.spans[root as usize].end_ns = 100;
        let totals = aggregate(&[&tracer]);
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["a"].total_ns, 40);
        assert_eq!(totals["trial"].total_ns, 100);
        assert_eq!(totals["trial"].self_ns, 60);
        assert_eq!(mean(&totals, "a", 1.0), 20.0);
    }

    #[test]
    fn thread_clocks_see_this_thread() {
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 5 {
            std::hint::black_box(0u64);
        }
        let clocks = thread_clocks();
        if clocks.is_empty() {
            return; // no /proc (not Linux)
        }
        let total: u64 = clocks.values().map(|c| c.run_ns).sum();
        assert!(total > 0, "schedstat reports run time: {clocks:?}");
    }
}
