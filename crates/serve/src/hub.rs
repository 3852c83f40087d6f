//! The serving hub: per-subscriber cursors over the sealed-pane stream,
//! with a **once-per-seal snapshot cache** fanned out to every subscriber
//! of the same query.
//!
//! # Design
//!
//! Two invariants drive the shape of this module:
//!
//! 1. **A slow dashboard must never block the sealer.** Subscribers hold
//!    *cursors* — plain pane indices — into per-query frame rings the hub
//!    maintains. Delivery is pull: a subscriber that stops polling stops
//!    consuming, and the only thing that grows is the distance between its
//!    cursor and the head. Nothing a subscriber does (or fails to do) is on
//!    the ingest or seal path.
//! 2. **Each distinct query is computed once per seal, however many
//!    subscribers hold it.** Queries are registered under their canonical
//!    wire encoding ([`crate::wire::encode_query`]) as the cache key. One
//!    fan-out round ([`ServeHub::fan_out`]) per published seal pass, run by
//!    the fan-out thread over a threaded engine and by the caller over a
//!    stepped one, evaluates *all* registered queries under one acquisition
//!    of the engine's published pane ring ([`LiveCity::query_sealed`]) —
//!    never the sealer's own state, so a round never waits out a fold, a
//!    log retry or an fsync — and pushes one immutable [`PaneFrame`] —
//!    answer, wire bytes, seal wall-clock — into each query's ring. Ten
//!    thousand subscribers of the same occupancy window cost one evaluation
//!    and ten thousand `Arc` clones.
//!
//! Cursors near the head are **cache hits**: they clone ready-made frames.
//! A cursor that lags past the frame ring's retention falls back to the
//! **durable pane log** ([`crate::eval::LogFollower`]) and rebuilds the
//! missed answers pane by pane — slower, bounded per poll, but it never
//! touches the live engine at all. A cursor with no log to fall
//! back to reports the gap as `missed_frames` and jumps forward.
//!
//! Laggards are policed, not trusted: when a subscriber's worst cursor lag
//! crosses [`ServeConfig::lag_notice_panes`] it receives a
//! [`ServeEvent::LagNotice`]; past [`ServeConfig::max_cursor_lag_panes`] it
//! is dropped ([`ServeEvent::Dropped`]) and its resources released. Every
//! decision shows up in [`ServeStats`].
//!
//! Stopping a hub waits on no timer. The fan-out thread sleeps in
//! [`LiveCity::wait_sealed`] with no timeout; [`ServeHub::shutdown`] (and
//! drop) sets its stop flag and wakes it through
//! [`LiveCity::wake_sealed_waiters`], then wakes every blocked
//! [`Subscription::wait`], so an idle hub stops in well under a millisecond.
//!
//! A live hub evaluates a query only while someone subscribes to it: the
//! first fan-out round after its last subscriber leaves forgets the query
//! and its frame ring. Subscribing again registers it afresh with a newly
//! seeded head frame; without a pane log, the frames that ring held are
//! gone for good.
//!
//! [`LiveCity::query_sealed`]: caraoke_live::LiveCity::query_sealed
//! [`LiveCity::wait_sealed`]: caraoke_live::LiveCity::wait_sealed
//! [`LiveCity::wake_sealed_waiters`]: caraoke_live::LiveCity::wake_sealed_waiters

use crate::eval::LogFollower;
use crate::wire::{encode_answer, encode_query};
use caraoke_live::{Clock, LiveAnswer, LiveCity, LiveQuery};
use caraoke_log::LogError;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long (on the hub's clock) a subscriber has to take a channel's newest
/// frame before the panes it covers beyond the first count as its lag (see
/// `QueryChannel::lag`). A subscriber that keeps up takes a frame within a
/// millisecond or so of its fan-out round (a TCP connection too: it wakes on
/// the round), so a frame left untaken this long is owed, not in transit.
const FRESH_FRAME: Duration = Duration::from_millis(200);

/// Tuning knobs for the serving hub and its transports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Frames retained per query ring; cursors further behind than this
    /// fall back to the pane log (or miss).
    pub retain_frames: usize,
    /// Cursor lag (panes behind the head) at which a subscriber gets a
    /// [`ServeEvent::LagNotice`].
    pub lag_notice_panes: u64,
    /// Cursor lag at which a subscriber is dropped.
    pub max_cursor_lag_panes: u64,
    /// Catch-up frames rebuilt from the log per poll, at least one (bounds
    /// how long one poll can spend replaying).
    pub catchup_batch: usize,
    /// TCP flow control: frames the server may have in flight beyond the
    /// client's last ack before it pauses delivery (and the lag policy
    /// takes over).
    pub ack_window: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            retain_frames: 64,
            lag_notice_panes: 32,
            max_cursor_lag_panes: 256,
            catchup_batch: 64,
            ack_window: 256,
        }
    }
}

/// Serving-tier telemetry. All counters are cumulative over the hub's
/// lifetime except `subscribers`, a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Distinct queries registered (cache keys).
    pub registered_queries: u64,
    /// Live subscribers right now.
    pub subscribers: u64,
    /// Seal-driven fan-out rounds that produced frames.
    pub seal_batches: u64,
    /// Frames computed (once per distinct query per fan-out round, plus
    /// one initial frame per query registration).
    pub computed_frames: u64,
    /// Frames delivered straight from a query ring — the cache hits.
    pub cache_hit_frames: u64,
    /// Frames rebuilt from the pane log for lagging cursors.
    pub catchup_frames: u64,
    /// Panes a lagging cursor skipped because no log was available.
    pub missed_frames: u64,
    /// Lag notices issued.
    pub lag_notices: u64,
    /// Subscribers dropped for exceeding the cursor-lag bound.
    pub dropped_subscribers: u64,
    /// Total frames handed to subscribers (cache hits + catch-ups).
    pub frames_delivered: u64,
}

/// How a frame relates to the stream it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A full answer at a pane (initial frames, log catch-up frames).
    Snapshot,
    /// A head advance produced by a seal-driven fan-out round.
    Delta,
}

/// One immutable cached answer: computed once, shared by `Arc` with every
/// subscriber of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct PaneFrame {
    /// Newest sealed pane the answer covers.
    pub pane: u64,
    /// Snapshot or delta.
    pub kind: FrameKind,
    /// The decoded answer (in-process consumers use this directly).
    pub answer: LiveAnswer,
    /// The canonical wire encoding of `answer` — what TCP transports send,
    /// encoded once at fan-out time.
    pub wire: Vec<u8>,
    /// The hub's clock (the engine's, for a live hub) at the fan-out round
    /// that produced the frame; staleness at delivery is that clock's
    /// `now()` less this.
    pub sealed_at: Instant,
}

/// One registered query: the shared frame ring all its subscribers read.
#[derive(Debug)]
struct QueryChannel {
    query: LiveQuery,
    /// Canonical query encoding — the cache key.
    key: Vec<u8>,
    /// Pane horizon of the newest frame (`frame.pane + 1`); 0 until the
    /// first frame. Atomic so subscriber fast-path polls stay lock-free.
    head: AtomicU64,
    /// First pane the newest frame covers: the head before it was pushed.
    /// A fan-out round answers at the newest sealed pane, so one frame
    /// stands for every pane sealed since the round before.
    newest_start: AtomicU64,
    frames: Mutex<VecDeque<Arc<PaneFrame>>>,
}

impl QueryChannel {
    /// Appends a frame (idempotent per pane) and trims retention.
    fn push_frame(&self, frame: Arc<PaneFrame>, retain: usize) {
        let mut frames = self.frames.lock().expect("frame ring poisoned");
        let start = match frames.back() {
            Some(back) if back.pane >= frame.pane => return,
            Some(back) => back.pane + 1,
            None => 0,
        };
        frames.push_back(frame);
        while frames.len() > retain.max(1) {
            frames.pop_front();
        }
        // Both under the ring's lock, where `lag` reads them.
        self.newest_start.store(start, Ordering::Relaxed);
        let head = frames.back().expect("just pushed").pane + 1;
        self.head.store(head, Ordering::Release);
    }

    /// How many panes a cursor is behind. A fan-out round answers at the
    /// newest sealed pane, so one frame can stand for many; while the
    /// newest frame is fresh (younger than [`FRESH_FRAME`]) its panes count
    /// as one — a cursor that has taken every frame but that one is one
    /// behind, however many panes the hub coalesced into it. Once the
    /// subscriber has had that long to take it, every pane counts. With
    /// one pane per frame both are `head - cursor`.
    fn lag(&self, cursor: u64, clock: &Clock) -> u64 {
        if cursor >= self.head.load(Ordering::Acquire) {
            return 0;
        }
        let frames = self.frames.lock().expect("frame ring poisoned");
        let head = self.head.load(Ordering::Relaxed);
        match frames.back() {
            Some(newest) if clock.now() - newest.sealed_at < FRESH_FRAME => {
                let newest_start = self.newest_start.load(Ordering::Relaxed);
                newest_start.saturating_sub(cursor) + 1
            }
            _ => head.saturating_sub(cursor),
        }
    }
}

enum HubSource {
    /// A running engine; a fan-out thread follows its seals unless stepped.
    Live(Arc<LiveCity>),
    /// A finished run's pane log replayed to its durable head (no live
    /// engine): frames only come from registration and log catch-up. The
    /// follower is the head state; the lock is for the running windows an
    /// answer brings up to date.
    Replay(Box<Mutex<LogFollower>>),
}

/// The serving hub. Construct with [`over_live`](Self::over_live) or
/// [`over_log`](Self::over_log); subscribe with
/// [`subscribe`](Self::subscribe); serve remotely by handing the `Arc` to
/// [`crate::tcp::ServeServer`].
pub struct ServeHub {
    source: HubSource,
    /// Pane-log directory for lagging-cursor catch-up, when available.
    log_dir: Option<PathBuf>,
    config: ServeConfig,
    pane_us: u64,
    cycle_us: u64,
    retain_panes: usize,
    /// Policy time: frame stamps and the lag grace (see [`caraoke_live::clock`]).
    pub(crate) clock: Clock,
    channels: Mutex<Vec<Arc<QueryChannel>>>,
    /// Bumped (under the mutex) and broadcast at every fan-out round so
    /// [`Subscription::wait`] can block instead of spinning.
    activity: Mutex<u64>,
    activity_cv: Condvar,
    /// Set by [`shutdown`](Self::shutdown); shared with the fan-out thread,
    /// which holds no strong reference to the hub.
    shutdown: Arc<AtomicBool>,
    fanout: Mutex<Option<JoinHandle<()>>>,
    registered_queries: AtomicU64,
    subscribers: AtomicU64,
    seal_batches: AtomicU64,
    computed_frames: AtomicU64,
    cache_hit_frames: AtomicU64,
    catchup_frames: AtomicU64,
    missed_frames: AtomicU64,
    lag_notices: AtomicU64,
    dropped_subscribers: AtomicU64,
    frames_delivered: AtomicU64,
}

impl ServeHub {
    fn assemble(
        source: HubSource,
        log_dir: Option<PathBuf>,
        config: ServeConfig,
        pane_us: u64,
        cycle_us: u64,
        retain_panes: usize,
        clock: Clock,
    ) -> Arc<Self> {
        Arc::new(Self {
            source,
            log_dir,
            config,
            pane_us,
            cycle_us,
            retain_panes,
            clock,
            channels: Mutex::new(Vec::new()),
            activity: Mutex::new(0),
            activity_cv: Condvar::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            fanout: Mutex::new(None),
            registered_queries: AtomicU64::new(0),
            subscribers: AtomicU64::new(0),
            seal_batches: AtomicU64::new(0),
            computed_frames: AtomicU64::new(0),
            cache_hit_frames: AtomicU64::new(0),
            catchup_frames: AtomicU64::new(0),
            missed_frames: AtomicU64::new(0),
            lag_notices: AtomicU64::new(0),
            dropped_subscribers: AtomicU64::new(0),
            frames_delivered: AtomicU64::new(0),
        })
    }

    /// A hub over a running engine, on the engine's clock. `log_dir`
    /// (normally the engine's own pane-log directory) enables log catch-up
    /// for lagging cursors; pass `None` to serve purely from memory. Spawns
    /// the fan-out thread, unless the engine is stepped.
    pub fn over_live(
        live: Arc<LiveCity>,
        log_dir: Option<PathBuf>,
        config: ServeConfig,
    ) -> Arc<Self> {
        let pane_us = live.config().pane_us;
        let cycle_us = live.config().store.light_cycle_us;
        let retain_panes = live.config().retain_panes;
        let hub = Self::assemble(
            HubSource::Live(Arc::clone(&live)),
            log_dir,
            config,
            pane_us,
            cycle_us,
            retain_panes,
            live.clock().clone(),
        );
        if !live.is_stepped() {
            let weak = Arc::downgrade(&hub);
            let stop = Arc::clone(&hub.shutdown);
            let handle = std::thread::Builder::new()
                .name("serve-fanout".into())
                .spawn(move || fanout_loop(weak, live, &stop))
                .expect("spawn fan-out thread");
            *hub.fanout.lock().expect("fanout handle poisoned") = Some(handle);
        }
        hub
    }

    /// A hub over a **finished** run's pane log: replays the verified log
    /// to its durable head and serves from the reconstructed state. The
    /// log also backs `from_start` catch-up. `pane_us`/`cycle_us` must
    /// match the writing configuration.
    pub fn over_log(
        dir: impl AsRef<Path>,
        retain_panes: usize,
        pane_us: u64,
        cycle_us: u64,
        config: ServeConfig,
    ) -> Result<Arc<Self>, LogError> {
        let mut follower = LogFollower::open(&dir, retain_panes, pane_us, cycle_us)?;
        follower.advance_to_end()?;
        Ok(Self::assemble(
            HubSource::Replay(Box::new(Mutex::new(follower))),
            Some(dir.as_ref().to_path_buf()),
            config,
            pane_us,
            cycle_us,
            retain_panes,
            Clock::Real,
        ))
    }

    /// Current serving-tier telemetry.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            registered_queries: self.registered_queries.load(Ordering::Relaxed),
            subscribers: self.subscribers.load(Ordering::Relaxed),
            seal_batches: self.seal_batches.load(Ordering::Relaxed),
            computed_frames: self.computed_frames.load(Ordering::Relaxed),
            cache_hit_frames: self.cache_hit_frames.load(Ordering::Relaxed),
            catchup_frames: self.catchup_frames.load(Ordering::Relaxed),
            missed_frames: self.missed_frames.load(Ordering::Relaxed),
            lag_notices: self.lag_notices.load(Ordering::Relaxed),
            dropped_subscribers: self.dropped_subscribers.load(Ordering::Relaxed),
            frames_delivered: self.frames_delivered.load(Ordering::Relaxed),
        }
    }

    /// The hub's tuning knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Stops the fan-out thread and wakes every blocked subscriber. Called
    /// automatically on drop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let HubSource::Live(live) = &self.source {
            live.wake_sealed_waiters();
        }
        self.bump_activity();
        let handle = self.fanout.lock().expect("fanout handle poisoned").take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    /// Whether [`shutdown`](Self::shutdown) has been called: every
    /// [`Subscription::wait`] returns at once from then on.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registers one query (deduplicating on the canonical encoding) and
    /// returns its shared channel, seeding a head frame so head-mode
    /// subscribers have a cached answer immediately.
    fn register_query(&self, query: &LiveQuery) -> Arc<QueryChannel> {
        let key = encode_query(query);
        let mut channels = self.channels.lock().expect("channels poisoned");
        if let Some(chan) = channels.iter().find(|c| c.key == key) {
            return Arc::clone(chan);
        }
        let chan = Arc::new(QueryChannel {
            query: *query,
            key,
            head: AtomicU64::new(0),
            newest_start: AtomicU64::new(0),
            frames: Mutex::new(VecDeque::new()),
        });
        let (horizon, answer) = match &self.source {
            HubSource::Live(live) => {
                let (h, mut answers) = live.query_sealed(std::slice::from_ref(query));
                (h, answers.pop().expect("one query, one answer"))
            }
            HubSource::Replay(head) => {
                let mut head = head.lock().expect("replay head poisoned");
                (head.next_pane(), head.answer(query))
            }
        };
        if horizon > 0 {
            let wire = encode_answer(&answer);
            chan.push_frame(
                Arc::new(PaneFrame {
                    pane: horizon - 1,
                    kind: FrameKind::Snapshot,
                    answer,
                    wire,
                    sealed_at: self.clock.now(),
                }),
                self.config.retain_frames,
            );
            self.computed_frames.fetch_add(1, Ordering::Relaxed);
        }
        self.registered_queries.fetch_add(1, Ordering::Relaxed);
        channels.push(Arc::clone(&chan));
        chan
    }

    /// One fan-out round: evaluate every subscribed query under a single
    /// acquisition of the published pane ring and push the shared frames. A
    /// channel only the hub still holds has lost its last subscriber; it is
    /// forgotten here instead of evaluated. A no-op on a hub over a log.
    pub fn fan_out(&self) {
        let HubSource::Live(live) = &self.source else {
            return;
        };
        let channels: Vec<Arc<QueryChannel>> = {
            let mut channels = self.channels.lock().expect("channels poisoned");
            channels.retain(|c| Arc::strong_count(c) > 1);
            channels.clone()
        };
        if channels.is_empty() {
            self.bump_activity();
            return;
        }
        let queries: Vec<LiveQuery> = channels.iter().map(|c| c.query).collect();
        let (horizon, answers) = live.query_sealed(&queries);
        let sealed_at = self.clock.now();
        if horizon == 0 {
            return;
        }
        let mut produced = false;
        for (chan, answer) in channels.iter().zip(answers) {
            if chan.head.load(Ordering::Acquire) >= horizon {
                continue;
            }
            let wire = encode_answer(&answer);
            chan.push_frame(
                Arc::new(PaneFrame {
                    pane: horizon - 1,
                    kind: FrameKind::Delta,
                    answer,
                    wire,
                    sealed_at,
                }),
                self.config.retain_frames,
            );
            self.computed_frames.fetch_add(1, Ordering::Relaxed);
            produced = true;
        }
        if produced {
            self.seal_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.bump_activity();
    }

    /// Wakes every [`Subscription::wait`]: a fan-out round landed, or the
    /// hub or a transport is stopping.
    pub(crate) fn bump_activity(&self) {
        let mut gen = self.activity.lock().expect("activity poisoned");
        *gen += 1;
        drop(gen);
        self.activity_cv.notify_all();
    }

    /// Subscribes to a set of queries. `from_start` starts every cursor at
    /// pane 0 (catching up through the pane log when the hub has one);
    /// otherwise cursors start at the newest cached frame, so the first
    /// poll is an immediate cache hit.
    pub fn subscribe(self: &Arc<Self>, queries: &[LiveQuery], from_start: bool) -> Subscription {
        let mut sub = Subscription {
            hub: Arc::clone(self),
            entries: Vec::with_capacity(queries.len()),
            lag_noticed: false,
            dropped: false,
            counted: true,
            seen_activity: *self.activity.lock().expect("activity poisoned"),
        };
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        for query in queries {
            sub.add_query(query, from_start);
        }
        sub
    }
}

impl Drop for ServeHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The seal-driven fan-out thread: sleeps, with no timeout, on the
/// engine's pane-seal condvar and runs one fan-out round per published seal
/// pass, until the hub sets `stop` and wakes it
/// ([`ServeHub::shutdown`], also run on drop). Holds only a `Weak` hub
/// reference, so the thread never keeps its hub alive.
fn fanout_loop(hub: Weak<ServeHub>, live: Arc<LiveCity>, stop: &AtomicBool) {
    let mut horizon = 0u64;
    loop {
        let sealed = live.wait_sealed(horizon, Duration::MAX, stop);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(hub) = hub.upgrade() else { return };
        horizon = sealed;
        hub.fan_out();
    }
}

/// One subscriber-side cursor into a query channel.
#[derive(Debug)]
struct SubEntry {
    chan: Arc<QueryChannel>,
    /// Next pane index this cursor wants.
    cursor: u64,
    /// Head-mode subscriber registered before the channel had any frame:
    /// its stream starts at whatever frame lands first, and the pane gap
    /// up to that frame is not lag (fan-out rounds coalesce seals, so
    /// those panes never existed as frames).
    attach_next: bool,
    /// Lazily-opened log follower for catch-up below ring retention.
    follower: Option<LogFollower>,
}

/// What a subscriber receives from one poll.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A cached (or log-rebuilt) answer for the subscription's `query`-th
    /// registered query.
    Frame {
        /// Index into the subscription's query list.
        query: usize,
        /// The shared frame.
        frame: Arc<PaneFrame>,
    },
    /// This subscriber has fallen `behind_panes` behind the head.
    LagNotice {
        /// Worst cursor lag, panes.
        behind_panes: u64,
    },
    /// This subscriber crossed the cursor-lag bound and is now dropped;
    /// no further events will be produced.
    Dropped {
        /// Lag at drop time, panes.
        behind_panes: u64,
    },
}

/// A subscriber: a set of per-query cursors plus the lag-policy state.
/// Dropping the subscription releases its slot in the gauge.
pub struct Subscription {
    hub: Arc<ServeHub>,
    entries: Vec<SubEntry>,
    lag_noticed: bool,
    dropped: bool,
    counted: bool,
    seen_activity: u64,
}

impl Subscription {
    /// Adds one more query to this subscription (the TCP transport
    /// subscribes incrementally). Returns the query's index in the event
    /// stream.
    pub fn add_query(&mut self, query: &LiveQuery, from_start: bool) -> usize {
        let chan = self.hub.register_query(query);
        let head = chan.head.load(Ordering::Acquire);
        let (cursor, attach_next) = if from_start {
            (0, false)
        } else {
            (head.saturating_sub(1), head == 0)
        };
        self.entries.push(SubEntry {
            chan,
            cursor,
            attach_next,
            follower: None,
        });
        self.entries.len() - 1
    }

    /// Like [`add_query`](Self::add_query), but starting the cursor at an
    /// explicit pane — the resume path for a reconnecting subscriber that
    /// already consumed everything below `from_pane`. Panes between
    /// `from_pane` and the head are rebuilt from the pane log exactly like
    /// any lagging cursor, so the resumed stream is gap-free.
    pub fn add_query_from(&mut self, query: &LiveQuery, from_pane: u64) -> usize {
        let chan = self.hub.register_query(query);
        self.entries.push(SubEntry {
            chan,
            cursor: from_pane,
            attach_next: false,
            follower: None,
        });
        self.entries.len() - 1
    }

    /// Worst cursor lag across this subscription's queries, panes — lag
    /// the subscriber owes, not the hub's own coalescing of several sealed
    /// panes into one frame (see `QueryChannel::lag`).
    pub fn behind_panes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.chan.lag(e.cursor, &self.hub.clock))
            .max()
            .unwrap_or(0)
    }

    /// Whether every cursor has consumed up to its channel head.
    pub fn caught_up(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.cursor >= e.chan.head.load(Ordering::Acquire))
    }

    /// Whether the lag policy has dropped this subscriber.
    pub fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// Applies **only** the lag policy (no delivery): the event a stalled
    /// transport must still surface while it is unwilling to deliver
    /// frames. Part of every [`poll`](Self::poll).
    pub fn lag_events(&mut self) -> Option<ServeEvent> {
        if self.dropped {
            return None;
        }
        let behind = self.behind_panes();
        if behind >= self.hub.config.max_cursor_lag_panes {
            self.dropped = true;
            self.hub.dropped_subscribers.fetch_add(1, Ordering::Relaxed);
            if self.counted {
                self.counted = false;
                self.hub.subscribers.fetch_sub(1, Ordering::Relaxed);
            }
            return Some(ServeEvent::Dropped {
                behind_panes: behind,
            });
        }
        if behind >= self.hub.config.lag_notice_panes {
            if !self.lag_noticed {
                self.lag_noticed = true;
                self.hub.lag_notices.fetch_add(1, Ordering::Relaxed);
                return Some(ServeEvent::LagNotice {
                    behind_panes: behind,
                });
            }
        } else {
            self.lag_noticed = false;
        }
        None
    }

    /// Non-blocking poll: lag policy first, then every frame each cursor
    /// can reach — ring frames as shared cache hits, below-retention gaps
    /// rebuilt from the pane log (bounded by
    /// [`ServeConfig::catchup_batch`]) or counted as missed.
    pub fn poll(&mut self) -> Vec<ServeEvent> {
        let mut events = Vec::new();
        if let Some(event) = self.lag_events() {
            let terminal = matches!(event, ServeEvent::Dropped { .. });
            events.push(event);
            if terminal {
                return events;
            }
        }
        if self.dropped {
            return events;
        }
        let hub = Arc::clone(&self.hub);
        for (index, entry) in self.entries.iter_mut().enumerate() {
            if entry.chan.head.load(Ordering::Acquire) <= entry.cursor {
                continue; // lock-free fast path: caught up
            }
            let ring: Vec<Arc<PaneFrame>> = {
                let frames = entry.chan.frames.lock().expect("frame ring poisoned");
                frames
                    .iter()
                    .filter(|f| f.pane >= entry.cursor)
                    .cloned()
                    .collect()
            };
            // A gap below the oldest retained frame: the cache can't serve
            // it. Rebuild from the log when we have one, else skip forward.
            if let Some(oldest) = ring.first().map(|f| f.pane) {
                if entry.cursor < oldest {
                    if entry.attach_next {
                        // First frames since subscribing at an empty head:
                        // the stream starts here, there is no gap.
                        entry.cursor = oldest;
                    } else {
                        Self::catch_up(&hub, entry, index, oldest, &mut events);
                        if entry.cursor < oldest {
                            // Catch-up batch exhausted below the ring:
                            // deliver nothing newer yet — in-order resumes
                            // next poll.
                            continue;
                        }
                    }
                }
                entry.attach_next = false;
            }
            for frame in ring {
                if frame.pane < entry.cursor {
                    continue; // already rebuilt from the log this poll
                }
                entry.cursor = frame.pane + 1;
                hub.cache_hit_frames.fetch_add(1, Ordering::Relaxed);
                hub.frames_delivered.fetch_add(1, Ordering::Relaxed);
                events.push(ServeEvent::Frame {
                    query: index,
                    frame,
                });
            }
        }
        events
    }

    /// Rebuilds frames for panes `entry.cursor .. bound` from the pane
    /// log, bounded by `catchup_batch` per call.
    fn catch_up(
        hub: &ServeHub,
        entry: &mut SubEntry,
        index: usize,
        bound: u64,
        events: &mut Vec<ServeEvent>,
    ) {
        let Some(dir) = hub.log_dir.as_ref() else {
            hub.missed_frames
                .fetch_add(bound - entry.cursor, Ordering::Relaxed);
            entry.cursor = bound;
            return;
        };
        if entry.follower.is_none() {
            match LogFollower::open(dir, hub.retain_panes, hub.pane_us, hub.cycle_us) {
                Ok(f) => entry.follower = Some(f),
                Err(_) => {
                    hub.missed_frames
                        .fetch_add(bound - entry.cursor, Ordering::Relaxed);
                    entry.cursor = bound;
                    return;
                }
            }
        }
        let stop = bound.min(entry.cursor + hub.config.catchup_batch.max(1) as u64);
        let mut fell_off_log = false;
        while entry.cursor < stop {
            let follower = entry.follower.as_mut().expect("just opened");
            match follower.advance_past(entry.cursor) {
                Ok(true) => {
                    let answer = follower.answer(&entry.chan.query);
                    let wire = encode_answer(&answer);
                    events.push(ServeEvent::Frame {
                        query: index,
                        frame: Arc::new(PaneFrame {
                            pane: follower.next_pane() - 1,
                            kind: FrameKind::Snapshot,
                            answer,
                            wire,
                            sealed_at: hub.clock.now(),
                        }),
                    });
                    hub.catchup_frames.fetch_add(1, Ordering::Relaxed);
                    hub.frames_delivered.fetch_add(1, Ordering::Relaxed);
                    entry.cursor = follower.next_pane();
                }
                Ok(false) | Err(_) => {
                    fell_off_log = true;
                    break;
                }
            }
        }
        if fell_off_log {
            // Log ends (or errors) below the bound: the remainder is only
            // in memory — count it missed and move on.
            hub.missed_frames
                .fetch_add(bound - entry.cursor, Ordering::Relaxed);
            entry.cursor = bound;
            entry.follower = None;
            return;
        }
        if entry.cursor >= bound {
            entry.follower = None; // caught up into the ring; drop the replay state
        }
    }

    /// Polls at once while frames are owed; caught up (or dropped), blocks
    /// until a fan-out round lands or `timeout` of real time passes (a
    /// timeout too large to add to the clock waits without one), then
    /// polls. The subscriber-side replacement for busy-polling.
    pub fn wait(&mut self, timeout: Duration) -> Vec<ServeEvent> {
        if self.dropped || self.caught_up() {
            let (hub, seen) = (&self.hub, self.seen_activity);
            let idle = |gen: &mut u64| *gen == seen && !hub.shutdown.load(Ordering::SeqCst);
            let gen = hub.activity.lock().expect("activity poisoned");
            let (gen, _) = Clock::wait_timeout_while(&hub.activity_cv, gen, timeout, idle);
            self.seen_activity = *gen;
        }
        self.poll()
    }

    /// The hub this subscription reads from.
    pub fn hub(&self) -> &Arc<ServeHub> {
        &self.hub
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        if self.counted {
            self.hub.subscribers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleDirectory, PoleId, PoleReport, PoleSite, SegmentId};
    use caraoke_geom::Vec3;
    use caraoke_live::{LiveConfig, ManualClock};
    use caraoke_log::{LogOptions, SegmentWriter};

    /// A frame at `pane`, stamped now on `clock`.
    fn frame(pane: u64, clock: &Clock) -> Arc<PaneFrame> {
        Arc::new(PaneFrame {
            pane,
            kind: FrameKind::Delta,
            answer: LiveAnswer::Watermark {
                watermark_us: (pane + 1) * 1_000_000,
                sealed_panes: pane + 1,
            },
            wire: Vec::new(),
            sealed_at: clock.now(),
        })
    }

    #[test]
    fn one_frame_covering_many_panes_is_not_the_subscribers_lag() {
        // A hub over an empty log, its channel fed by hand: no fan-out
        // thread, so which panes each frame covers is fixed.
        let dir = std::env::temp_dir().join(format!("caraoke-serve-hub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(SegmentWriter::create(&dir, LogOptions::default()).expect("empty log"));
        let config = ServeConfig {
            lag_notice_panes: 4,
            max_cursor_lag_panes: 8,
            ..Default::default()
        };
        // What `over_log` builds, on a clock the test steps.
        let mut head = LogFollower::open(&dir, 8, 1_000_000, 60_000_000).expect("log");
        head.advance_to_end().expect("empty log");
        let manual = Arc::new(ManualClock::new());
        let hub = ServeHub::assemble(
            HubSource::Replay(Box::new(Mutex::new(head))),
            Some(dir.clone()),
            config,
            1_000_000,
            60_000_000,
            8,
            Clock::Manual(Arc::clone(&manual)),
        );
        let clock = &hub.clock;
        let mut sub = hub.subscribe(&[LiveQuery::Watermark], false);
        let chan = Arc::clone(&sub.entries[0].chan);
        let retain = config.retain_frames;

        chan.push_frame(frame(0, clock), retain);
        assert!(matches!(sub.poll().as_slice(), [ServeEvent::Frame { .. }]));
        assert!(sub.caught_up());
        // One fan-out round answers at pane 300: it covers panes 1..=300.
        // Counted from the head that is 300 panes, past both bounds.
        chan.push_frame(frame(300, clock), retain);
        assert_eq!(sub.behind_panes(), 1);
        match sub.poll().as_slice() {
            [ServeEvent::Frame { frame, .. }] => assert_eq!(frame.pane, 300),
            other => panic!("expected the frame alone, got {other:?}"),
        }
        assert!(sub.caught_up() && !sub.is_dropped());
        let stats = hub.stats();
        assert_eq!((stats.lag_notices, stats.dropped_subscribers), (0, 0));

        // Frames the subscriber has not taken still count pane by pane:
        // unread frames at 301..=305, then a fresh one covering 306..=309.
        for pane in [301, 302, 303, 304, 305, 309] {
            chan.push_frame(frame(pane, clock), retain);
        }
        assert_eq!(sub.behind_panes(), 306 - 301 + 1);
        let events = sub.poll();
        assert!(matches!(
            events[0],
            ServeEvent::LagNotice { behind_panes: 6 }
        ));
        assert_eq!(events.len(), 1 + 6, "the notice, then every frame");
        // So does the newest frame, once it has waited out the grace.
        chan.push_frame(frame(400, clock), retain);
        assert_eq!(sub.behind_panes(), 1);
        manual.advance(FRESH_FRAME);
        assert_eq!(sub.behind_panes(), 401 - 310);
        assert!(matches!(
            sub.poll().as_slice(),
            [ServeEvent::Dropped { behind_panes: 91 }]
        ));
        drop(sub);
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wait_with_no_representable_deadline_returns_a_ready_frame() {
        let dir = std::env::temp_dir().join(format!("caraoke-serve-wait-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(SegmentWriter::create(&dir, LogOptions::default()).expect("empty log"));
        let hub = ServeHub::over_log(&dir, 8, 1_000_000, 60_000_000, ServeConfig::default())
            .expect("hub");
        let mut sub = hub.subscribe(&[LiveQuery::Watermark], false);
        // What a fan-out round does: push the frame, then bump activity.
        sub.entries[0].chan.push_frame(frame(0, &hub.clock), 8);
        hub.bump_activity();
        match sub.wait(Duration::MAX).as_slice() {
            [ServeEvent::Frame { frame, .. }] => assert_eq!(frame.pane, 0),
            other => panic!("expected the ready frame, got {other:?}"),
        }
        drop(sub);
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-pole engine, threaded or stepped on a real clock.
    fn one_pole(stepped: bool) -> LiveCity {
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let config = LiveConfig {
            pane_us: 1_000_000,
            lateness_panes: 0,
            ..Default::default()
        };
        if stepped {
            LiveCity::with_clock(directory, config, Clock::Real)
        } else {
            LiveCity::new(directory, config)
        }
    }

    /// Pole 0's empty report at `t_us`: it releases every pane below.
    fn report_at(t_us: u64) -> PoleReport {
        PoleReport {
            pole: PoleId(0),
            segment: SegmentId(0),
            timestamp_us: t_us,
            count: 0,
            peaks: 0,
            observations: vec![],
        }
    }

    /// A threaded one-pole engine with pane 0 sealed.
    fn one_sealed_pane() -> Arc<LiveCity> {
        let live = one_pole(false);
        live.ingest(&report_at(1_000_000));
        live.wait_idle();
        assert_eq!(live.sealed_panes(), 1);
        Arc::new(live)
    }

    #[test]
    fn a_hub_over_a_stepped_engine_computes_frames_only_in_its_rounds() {
        let live = Arc::new(one_pole(true));
        let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
        assert!(
            hub.fanout.lock().expect("fanout handle").is_none(),
            "no fan-out thread"
        );
        let mut sub = hub.subscribe(&[LiveQuery::Watermark], false);
        live.ingest(&report_at(3_000_000));
        assert_eq!(live.seal_step().panes, 3);
        assert_eq!(hub.stats().computed_frames, 0, "sealed, not fanned out");
        assert!(sub.poll().is_empty());
        hub.fan_out();
        hub.fan_out();
        let stats = hub.stats();
        assert_eq!((stats.computed_frames, stats.seal_batches), (1, 1));
        match sub.poll().as_slice() {
            [ServeEvent::Frame { frame, .. }] => assert_eq!(frame.pane, 2),
            other => panic!("expected the round's frame, got {other:?}"),
        }
    }

    #[test]
    fn stopping_an_idle_live_hub_waits_out_no_timer() {
        let live = one_sealed_pane();
        let median_stop = |stop: fn(Arc<ServeHub>)| {
            let mut laps: Vec<Duration> = (0..5)
                .map(|_| {
                    let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
                    // The fan-out thread takes pane 0, then parks.
                    std::thread::sleep(Duration::from_millis(20));
                    let start = Instant::now();
                    stop(hub);
                    start.elapsed()
                })
                .collect();
            laps.sort_unstable();
            laps[laps.len() / 2]
        };
        let shutdown = median_stop(|hub| hub.shutdown());
        let dropped = median_stop(drop);
        let bound = Duration::from_millis(20);
        assert!(
            shutdown <= bound && dropped <= bound,
            "median shutdown {shutdown:?}, median drop {dropped:?}"
        );
    }

    #[test]
    fn a_shutdown_right_after_the_fan_out_thread_starts_is_not_lost() {
        let live = one_sealed_pane();
        for cycle in 0..200 {
            let start = Instant::now();
            let hub = ServeHub::over_live(Arc::clone(&live), None, ServeConfig::default());
            hub.shutdown();
            let took = start.elapsed();
            assert!(
                took <= Duration::from_millis(100),
                "cycle {cycle}: start and shutdown took {took:?}"
            );
        }
    }
}
