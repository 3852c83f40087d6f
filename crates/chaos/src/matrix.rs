//! The Chameleon-style scenario matrix: topologies x event scripts.
//!
//! Every cell runs the full pipeline twice over the same seeded synthetic
//! city — once clean (the ground truth) and once under the cell's
//! [`Script`] — and then *proves* something about the degradation:
//!
//! * *chain-comparable* scripts (skew, bursts, log faults, kill/recover)
//!   must seal the **byte-identical** fingerprint chain the clean run
//!   sealed — the faults are invisible in the output;
//! * data-changing scripts (outages, clones) must surface every injected
//!   fault in a counter (skipped reports, cloned observations, dead
//!   poles) and satisfy the conservation invariant — nothing degrades
//!   silently;
//! * durability scripts additionally re-derive the chain from the pane
//!   log (verified replay / recovery) and demand equality with the
//!   engine's own chain.
//!
//! [`run_matrix`] executes the whole grid from one seed and
//! [`matrix_json`] renders the single structured report the
//! `experiments chaos` subcommand writes to `CHAOS_matrix.json` (the full
//! matrix; a `--quick` run goes to `target/CHAOS_matrix.quick.json`).

use crate::driver::{ChaosDriver, DeliveryCounters};
use crate::faults::{FaultCounters, FaultSink};
use crate::net::CutProxy;
use crate::plan::{FaultPlan, Script};
use crate::topology::Topology;
use caraoke_city::synth::mix_seed;
use caraoke_city::{FrameSource, StoreConfig, SyntheticCity};
use caraoke_live::{LiveCity, LiveConfig, LiveQuery, LiveStats};
use caraoke_log::{LogCity, LogOptions, SegmentWriter};
use caraoke_serve::{
    Backoff, Frame, ReconnectingClient, ServeClient, ServeConfig, ServeHub, ServeServer,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Matrix run parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Master seed; every cell derives its own via [`mix_seed`].
    pub seed: u64,
    /// Quick mode: [`Script::quick_set`] (6 columns) instead of the full
    /// ten — still ≥ 24 cells over the four topologies.
    pub quick: bool,
    /// Query epochs per cell run (one pane per epoch).
    pub epochs: usize,
    /// Scratch root for per-cell pane logs (recreated per cell).
    pub scratch: PathBuf,
    /// Worker threads running matrix cells (`1` = serial). Cells are
    /// independent — each owns its scratch directory and any TCP proxy
    /// binds port 0 — and the report keeps grid order regardless of which
    /// worker finished which cell, so the output is identical for any
    /// value.
    pub jobs: usize,
}

impl MatrixConfig {
    /// Defaults: 24 epochs, scratch under the system temp directory,
    /// serial execution.
    pub fn new(seed: u64, quick: bool) -> Self {
        Self {
            seed,
            quick,
            epochs: 24,
            scratch: std::env::temp_dir().join(format!("caraoke-chaos-{}", std::process::id())),
            jobs: 1,
        }
    }
}

/// Everything one cell observed and concluded.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// Topology row name.
    pub topology: &'static str,
    /// Script column name.
    pub script: &'static str,
    /// Every check passed.
    pub ok: bool,
    /// Human-readable failed checks (empty when `ok`).
    pub failures: Vec<String>,
    /// Observations delivered (clones included).
    pub delivered_obs: u64,
    /// Observations the engine sealed.
    pub observations: u64,
    /// Observations shed (late + overflow).
    pub shed_observations: u64,
    /// Whole reports shed as late.
    pub shed_reports: u64,
    /// Reports suppressed by outages.
    pub skipped_reports: u64,
    /// Clone observations injected.
    pub cloned_obs: u64,
    /// Wall-clock forced seals.
    pub forced_panes: u64,
    /// Poles declared dead.
    pub dead_poles: u64,
    /// Pane-log retries the engine performed.
    pub log_retries: u64,
    /// Transient log errors the engine observed.
    pub log_errors_transient: u64,
    /// Fatal log errors the engine latched.
    pub log_errors_fatal: u64,
    /// Transient errors the injector produced.
    pub injected_transient: u64,
    /// Fatal errors the injector produced.
    pub injected_fatal: u64,
    /// TCP connections the proxy cut.
    pub cuts: u64,
    /// Client reconnects across the cuts.
    pub reconnects: u64,
    /// Sealed-output accuracy vs ground truth (1.0 = every clean
    /// observation sealed).
    pub accuracy: f64,
    /// Faulted chain equals the clean chain (only meaningful — and
    /// required — for chain-comparable scripts).
    pub chain_match: Option<bool>,
    /// Chain re-derived from the pane log (replay or recovery) equals the
    /// engine's chain.
    pub log_chain_match: Option<bool>,
}

/// The whole grid's outcome.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Master seed the grid ran from.
    pub seed: u64,
    /// Quick column set?
    pub quick: bool,
    /// Epochs per cell.
    pub epochs: usize,
    /// One entry per (topology, script) cell.
    pub cells: Vec<CellResult>,
}

impl MatrixReport {
    /// Did every cell pass every check?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }
}

/// Engine configuration shared by every cell: one pane per 1.5 s epoch,
/// four shards, default lateness.
fn cell_config(plan: &FaultPlan) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            shards: 4,
            ..Default::default()
        },
        pane_us: 1_500_000,
        max_pane_staleness: plan.staleness,
        ..Default::default()
    }
}

fn log_opts() -> LogOptions {
    LogOptions::default()
}

fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ground-truth facts from the clean reference run.
struct CleanRun {
    chain: u64,
    stats: LiveStats,
}

fn run_clean(city: &SyntheticCity, config: &LiveConfig, seed: u64) -> CleanRun {
    let live = LiveCity::new(city.directory().clone(), *config);
    let driver = ChaosDriver::new(city, FaultPlan::clean(seed));
    driver.deliver(&live, 0..city.epochs());
    live.finish();
    CleanRun {
        chain: live.fingerprint_chain(),
        stats: live.stats(),
    }
}

/// Runs the full topology x script grid, across
/// [`MatrixConfig::jobs`] worker threads when asked. Workers claim cells
/// from a shared cursor and write results into grid-order slots, so the
/// report is byte-for-byte the serial one for any job count.
pub fn run_matrix(config: &MatrixConfig) -> MatrixReport {
    let scripts = if config.quick {
        Script::quick_set()
    } else {
        Script::full_set()
    };
    let mut work = Vec::new();
    for topology in Topology::all() {
        for &script in &scripts {
            work.push((topology, script, work.len() as u32));
        }
    }
    let jobs = config.jobs.clamp(1, work.len().max(1));
    let cells: Vec<CellResult> = if jobs <= 1 {
        work.iter()
            .map(|&(t, s, i)| run_cell(t, s, config, i))
            .collect()
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<CellResult>>> =
            work.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let at = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(t, s, i)) = work.get(at) else {
                        break;
                    };
                    *slots[at].lock().expect("cell slot") = Some(run_cell(t, s, config, i));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("cell slot").expect("cell ran"))
            .collect()
    };
    MatrixReport {
        seed: config.seed,
        quick: config.quick,
        epochs: config.epochs,
        cells,
    }
}

fn run_cell(topology: Topology, script: Script, config: &MatrixConfig, idx: u32) -> CellResult {
    let sites = topology.sites();
    let n_poles = sites.len() as u32;
    let seed = mix_seed(config.seed, idx, 1);
    let city = SyntheticCity::with_sites(sites, config.epochs, seed);
    let plan = script.plan(seed, n_poles, config.epochs);
    let live_config = cell_config(&plan);
    let clean = run_clean(&city, &live_config, seed);

    let mut cell = CellResult {
        topology: topology.name(),
        script: script.name(),
        ok: true,
        ..Default::default()
    };
    let scratch = &config.scratch;
    let cell_name = format!("{}-{}", topology.name(), script.name());
    match script {
        Script::Baseline
        | Script::OutageRevival
        | Script::OutageDead
        | Script::ClockSkew
        | Script::CloneTags
        | Script::BurstyDelivery => {
            let live = LiveCity::new(city.directory().clone(), live_config);
            let driver = ChaosDriver::new(&city, plan);
            let delivery = driver.deliver(&live, 0..config.epochs);
            live.finish();
            let stats = live.stats();
            let chain = live.fingerprint_chain();
            observe(&mut cell, &delivery, &stats, chain, &clean, &plan);
            check_conservation(&mut cell, &delivery, &stats);
        }
        Script::LogTransient => {
            let dir = fresh_dir(scratch, &cell_name);
            let injected = FaultCounters::shared();
            let mut writer = SegmentWriter::create(&dir, log_opts()).expect("create log");
            writer.set_fault_injector(Some(FaultSink::boxed(
                plan.log_faults.expect("log script has a spec"),
                Arc::clone(&injected),
            )));
            let live = LiveCity::with_log_writer(city.directory().clone(), live_config, writer);
            let driver = ChaosDriver::new(&city, plan);
            let delivery = driver.deliver(&live, 0..config.epochs);
            live.finish();
            let stats = live.stats();
            let chain = live.fingerprint_chain();
            observe(&mut cell, &delivery, &stats, chain, &clean, &plan);
            check_conservation(&mut cell, &delivery, &stats);
            cell.injected_transient = injected.transient.load(Ordering::Relaxed);
            cell.injected_fatal = injected.fatal.load(Ordering::Relaxed);
            let injected_transient = cell.injected_transient;
            check(&mut cell, stats.log_retries > 0, "log retries happened");
            check(
                &mut cell,
                stats.log_errors_transient == injected_transient,
                "every injected transient surfaced in the engine counter",
            );
            check(
                &mut cell,
                stats.log_errors_fatal == 0,
                "retries absorbed every error",
            );
            drop(live);
            match LogCity::open(&dir).replay() {
                Ok(replay) => {
                    cell.log_chain_match = Some(replay.chain == chain);
                    check(
                        &mut cell,
                        replay.chain == chain && replay.torn_tail_bytes == 0,
                        "retried log replays verified and chain-equal",
                    );
                }
                Err(e) => check(&mut cell, false, &format!("log replay failed: {e:?}")),
            }
        }
        Script::DiskFullReattach => {
            let dir1 = fresh_dir(scratch, &format!("{cell_name}-a"));
            let dir2 = fresh_dir(scratch, &format!("{cell_name}-b"));
            let injected = FaultCounters::shared();
            let mut writer = SegmentWriter::create(&dir1, log_opts()).expect("create log");
            writer.set_fault_injector(Some(FaultSink::boxed(
                plan.log_faults.expect("log script has a spec"),
                Arc::clone(&injected),
            )));
            let live = LiveCity::with_log_writer(city.directory().clone(), live_config, writer);
            let driver = ChaosDriver::new(&city, plan);
            // Run deep enough past the disk-full pane for the latch, then
            // reattach durability to a fresh directory and finish the run.
            let split = (3 * config.epochs / 4).max(1);
            let first = driver.deliver(&live, 0..split);
            live.wait_idle();
            let mid_stats = live.stats();
            check(
                &mut cell,
                mid_stats.log_errors_fatal >= 1,
                "disk-full latched fatal",
            );
            let writer2 = SegmentWriter::create(&dir2, log_opts()).expect("create second log");
            let reattached = live.reattach_log(writer2).is_ok();
            check(&mut cell, reattached, "reattach_log installed a fresh sink");
            let second = driver.deliver(&live, split..config.epochs);
            live.finish();
            let delivery = merge(first, second);
            let stats = live.stats();
            let chain = live.fingerprint_chain();
            observe(&mut cell, &delivery, &stats, chain, &clean, &plan);
            check_conservation(&mut cell, &delivery, &stats);
            cell.injected_fatal = injected.fatal.load(Ordering::Relaxed);
            let injected_fatal = cell.injected_fatal;
            check(
                &mut cell,
                injected_fatal >= 1,
                "injector produced the disk-full",
            );
            drop(live);
            // The reattached log is snapshot-headed: recovery from it must
            // land exactly on the engine's final state.
            match LiveCity::recover(&dir2, city.directory().clone(), live_config, log_opts()) {
                Ok(recovered) => {
                    cell.log_chain_match = Some(recovered.fingerprint_chain() == chain);
                    check(
                        &mut cell,
                        recovered.fingerprint_chain() == chain,
                        "recovery from the reattached log is chain-exact",
                    );
                }
                Err(e) => check(&mut cell, false, &format!("recover failed: {e:?}")),
            }
        }
        Script::KillRecover => {
            let dir = fresh_dir(scratch, &cell_name);
            let kill_after = plan.kill.expect("kill script has a spec").kill_after_epoch;
            let live = LiveCity::with_log(city.directory().clone(), live_config, &dir, log_opts())
                .expect("create logged engine");
            let driver = ChaosDriver::new(&city, plan);
            let first = driver.deliver(&live, 0..kill_after);
            drop(live); // the crash: no finish, sealer shut down mid-run
            let recovered =
                LiveCity::recover(&dir, city.directory().clone(), live_config, log_opts())
                    .expect("recover from pane log");
            let floor_epoch = (recovered.stats().seal_floor_us / city.epoch_us()) as usize;
            check(
                &mut cell,
                floor_epoch <= kill_after,
                "floor cannot outrun delivery",
            );
            let second = driver.deliver(&recovered, floor_epoch..config.epochs);
            recovered.finish();
            let stats = recovered.stats();
            let chain = recovered.fingerprint_chain();
            // Deliveries above the floor pre-crash were redelivered; the
            // conservation invariant is deliberately not asserted here —
            // chain equality with the uninterrupted run is the stronger,
            // exactly-once statement.
            observe(
                &mut cell,
                &merge(first, second),
                &stats,
                chain,
                &clean,
                &plan,
            );
            drop(recovered);
            match LogCity::open(&dir).replay() {
                Ok(replay) => {
                    cell.log_chain_match = Some(replay.chain == chain);
                    check(
                        &mut cell,
                        replay.chain == chain,
                        "post-recovery log replays to the engine chain",
                    );
                }
                Err(e) => check(&mut cell, false, &format!("log replay failed: {e:?}")),
            }
        }
        Script::TcpCut => {
            let dir = fresh_dir(scratch, &cell_name);
            run_tcp_cut_cell(&mut cell, &city, &live_config, &dir, seed, &clean);
        }
    }
    cell.ok = cell.failures.is_empty();
    cell
}

/// The serving-tier cell: a finished run's log behind a TCP server, one
/// control client reading the stream uncut, one reconnecting client
/// reading it through budget-cut proxy connections. The two streams must
/// be identical, gap-free, pane for pane and byte for byte.
fn run_tcp_cut_cell(
    cell: &mut CellResult,
    city: &SyntheticCity,
    live_config: &LiveConfig,
    dir: &Path,
    seed: u64,
    clean: &CleanRun,
) {
    let live = LiveCity::with_log(city.directory().clone(), *live_config, dir, log_opts())
        .expect("create logged engine");
    let driver = ChaosDriver::new(city, FaultPlan::clean(seed));
    let delivery = driver.deliver(&live, 0..city.epochs());
    live.finish();
    let stats = live.stats();
    let chain = live.fingerprint_chain();
    let n_panes = stats.sealed_panes;
    observe(
        cell,
        &delivery,
        &stats,
        chain,
        clean,
        &FaultPlan::clean(seed),
    );
    check_conservation(cell, &delivery, &stats);
    drop(live);

    let hub = match ServeHub::over_log(
        dir,
        live_config.retain_panes,
        live_config.pane_us,
        live_config.store.light_cycle_us,
        ServeConfig::default(),
    ) {
        Ok(hub) => hub,
        Err(e) => return check(cell, false, &format!("hub over log failed: {e:?}")),
    };
    let mut server = match ServeServer::bind(Arc::clone(&hub), "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => return check(cell, false, &format!("bind failed: {e}")),
    };
    let addr = server.local_addr();
    let query = LiveQuery::Watermark;

    // Control stream: direct connection, no cuts.
    let reference = (|| -> std::io::Result<Vec<(u64, Vec<u8>)>> {
        let mut client = ServeClient::connect(addr)?;
        client.subscribe(1, &query, true)?;
        collect_stream(|t| client.next_frame(t), n_panes, Duration::from_secs(10))
    })();
    let reference = match reference {
        Ok(frames) => frames,
        Err(e) => return check(cell, false, &format!("control stream failed: {e}")),
    };

    // Chaos stream: two budgeted connections get cut mid-stream; the
    // reconnecting client resumes each time from its last delivered pane.
    let proxy = match CutProxy::start(addr, vec![600, 800]) {
        Ok(proxy) => proxy,
        Err(e) => return check(cell, false, &format!("proxy failed: {e}")),
    };
    let replayed = (|| -> std::io::Result<Vec<(u64, Vec<u8>)>> {
        let mut client = ReconnectingClient::connect(proxy.addr(), Backoff::default())?;
        client.subscribe(1, &query, true)?;
        collect_stream(|t| client.next_frame(t), n_panes, Duration::from_secs(20))
    })();
    let replayed = match replayed {
        Ok(frames) => frames,
        Err(e) => return check(cell, false, &format!("chaos stream failed: {e}")),
    };
    cell.cuts = proxy.cuts();
    check(
        cell,
        cell.cuts >= 1,
        "the proxy cut at least one connection",
    );
    check(
        cell,
        replayed == reference,
        "reconnected stream is gap-free and byte-identical",
    );
    check(
        cell,
        reference.len() as u64 == n_panes,
        "control stream covered every pane exactly once",
    );
    cell.reconnects = cell.cuts; // each cut forces exactly one reconnect
    server.shutdown();
    hub.shutdown();
}

/// Drains data frames until the stream reaches pane `n_panes - 1` (or the
/// deadline passes), returning `(pane, answer-bytes)` in arrival order.
/// `age_us` is wall clock and deliberately excluded from the comparison.
fn collect_stream(
    mut next: impl FnMut(Duration) -> std::io::Result<Option<Frame>>,
    n_panes: u64,
    deadline: Duration,
) -> std::io::Result<Vec<(u64, Vec<u8>)>> {
    let start = std::time::Instant::now();
    let mut frames = Vec::new();
    while start.elapsed() < deadline {
        match next(Duration::from_millis(250))? {
            Some(Frame::Snapshot { pane, answer, .. })
            | Some(Frame::Delta { pane, answer, .. }) => {
                let done = pane + 1 >= n_panes;
                frames.push((pane, answer));
                if done {
                    break;
                }
            }
            Some(_) | None => {}
        }
    }
    Ok(frames)
}

fn merge(a: DeliveryCounters, b: DeliveryCounters) -> DeliveryCounters {
    DeliveryCounters {
        delivered_reports: a.delivered_reports + b.delivered_reports,
        delivered_obs: a.delivered_obs + b.delivered_obs,
        skipped_reports: a.skipped_reports + b.skipped_reports,
        skipped_obs: a.skipped_obs + b.skipped_obs,
        cloned_obs: a.cloned_obs + b.cloned_obs,
        declared_dead: a.declared_dead || b.declared_dead,
    }
}

fn check(cell: &mut CellResult, passed: bool, what: &str) {
    if !passed {
        cell.failures.push(what.to_string());
    }
}

/// Copies counters into the cell and applies the script-independent
/// verdicts: chain comparability and fault visibility.
fn observe(
    cell: &mut CellResult,
    delivery: &DeliveryCounters,
    stats: &LiveStats,
    chain: u64,
    clean: &CleanRun,
    plan: &FaultPlan,
) {
    cell.delivered_obs = delivery.delivered_obs;
    cell.skipped_reports = delivery.skipped_reports;
    cell.cloned_obs = delivery.cloned_obs;
    cell.observations = stats.observations;
    cell.shed_observations = stats.shed_observations + stats.overflow_shed;
    cell.shed_reports = stats.shed_reports;
    cell.forced_panes = stats.forced_panes;
    cell.dead_poles = stats.dead_poles;
    cell.log_retries = stats.log_retries;
    cell.log_errors_transient = stats.log_errors_transient;
    cell.log_errors_fatal = stats.log_errors_fatal;
    cell.accuracy = if clean.stats.observations > 0 {
        stats.observations as f64 / clean.stats.observations as f64
    } else {
        0.0
    };
    cell.chain_match = Some(chain == clean.chain);
    if plan.chain_comparable() {
        check(
            cell,
            chain == clean.chain,
            "chain-comparable plan sealed a different window chain",
        );
    }
    // Fault visibility: whatever the plan injected must show in a counter.
    if let Some(outage) = plan.outage {
        check(
            cell,
            delivery.skipped_reports > 0,
            "outage skipped no reports",
        );
        if outage.revive_at.is_none() && outage.declare_after != usize::MAX {
            check(cell, delivery.declared_dead, "dead pole was declared");
            check(
                cell,
                stats.dead_poles >= 1,
                "dead pole counted by the engine",
            );
        }
    }
    if plan.clones.is_some() {
        check(
            cell,
            delivery.cloned_obs > 0,
            "clone plan injected no clones",
        );
    }
}

/// Nothing vanishes silently: everything delivered is either sealed into
/// a pane or counted shed, and nothing is left buffered after `finish`.
fn check_conservation(cell: &mut CellResult, delivery: &DeliveryCounters, stats: &LiveStats) {
    let accounted = stats.observations + stats.shed_observations + stats.overflow_shed;
    check(
        cell,
        delivery.delivered_obs == accounted,
        "conservation: delivered == sealed + shed",
    );
    check(
        cell,
        stats.buffered_observations == 0,
        "no stragglers buffered",
    );
}

/// Renders the report as the single structured JSON document the
/// `experiments chaos` subcommand writes (hand-rolled: the workspace has
/// no serde).
pub fn matrix_json(report: &MatrixReport) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"epochs\": {},\n", report.epochs));
    out.push_str(&format!("  \"cells\": {},\n", report.cells.len()));
    out.push_str(&format!("  \"ok\": {},\n", report.ok()));
    out.push_str("  \"results\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"topology\": \"{}\", ", cell.topology));
        out.push_str(&format!("\"script\": \"{}\", ", cell.script));
        out.push_str(&format!("\"ok\": {}, ", cell.ok));
        out.push_str(&format!("\"accuracy\": {:.6}, ", cell.accuracy));
        out.push_str(&format!("\"delivered_obs\": {}, ", cell.delivered_obs));
        out.push_str(&format!("\"observations\": {}, ", cell.observations));
        out.push_str(&format!(
            "\"shed_observations\": {}, ",
            cell.shed_observations
        ));
        out.push_str(&format!("\"shed_reports\": {}, ", cell.shed_reports));
        out.push_str(&format!("\"skipped_reports\": {}, ", cell.skipped_reports));
        out.push_str(&format!("\"cloned_obs\": {}, ", cell.cloned_obs));
        out.push_str(&format!("\"forced_panes\": {}, ", cell.forced_panes));
        out.push_str(&format!("\"dead_poles\": {}, ", cell.dead_poles));
        out.push_str(&format!("\"log_retries\": {}, ", cell.log_retries));
        out.push_str(&format!(
            "\"log_errors_transient\": {}, ",
            cell.log_errors_transient
        ));
        out.push_str(&format!(
            "\"log_errors_fatal\": {}, ",
            cell.log_errors_fatal
        ));
        out.push_str(&format!(
            "\"injected_transient\": {}, ",
            cell.injected_transient
        ));
        out.push_str(&format!("\"injected_fatal\": {}, ", cell.injected_fatal));
        out.push_str(&format!("\"cuts\": {}, ", cell.cuts));
        out.push_str(&format!("\"reconnects\": {}, ", cell.reconnects));
        out.push_str(&format!(
            "\"chain_match\": {}, ",
            json_opt_bool(cell.chain_match)
        ));
        out.push_str(&format!(
            "\"log_chain_match\": {}, ",
            json_opt_bool(cell.log_chain_match)
        ));
        out.push_str("\"failures\": [");
        for (j, failure) in cell.failures.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", failure.replace('"', "'")));
        }
        out.push_str("]}");
        if i + 1 < report.cells.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_opt_bool(v: Option<bool>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The threaded matrix must be indistinguishable from the serial one:
    /// same cells, same grid order, same counters, same verdicts.
    #[test]
    fn jobs_threading_is_invisible_in_the_report() {
        let mut config = MatrixConfig::new(9, true);
        config.epochs = 4;
        config.scratch =
            std::env::temp_dir().join(format!("caraoke-chaos-jobs-test-{}", std::process::id()));
        let serial = run_matrix(&config);
        config.jobs = 3;
        let threaded = run_matrix(&config);
        assert_eq!(serial.cells.len(), threaded.cells.len());
        for (a, b) in serial.cells.iter().zip(&threaded.cells) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(matrix_json(&serial), matrix_json(&threaded));
        let _ = std::fs::remove_dir_all(&config.scratch);
    }
}
