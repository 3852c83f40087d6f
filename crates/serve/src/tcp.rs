//! The TCP transport: [`ServeServer`] pushes cached frames to remote
//! subscribers over the [`crate::wire`] protocol; [`ServeClient`] is the
//! matching consumer.
//!
//! One thread per connection (the per-subscriber state is a cursor and a
//! socket — cheap; massive fan-out tests use the in-process transport,
//! this one exists for real remote dashboards and the cross-process
//! byte-identity guarantee). Delivery is flow-controlled at the
//! **application** layer: the client acks consumed frames, and once
//! [`ServeConfig::ack_window`](crate::hub::ServeConfig::ack_window) frames
//! are in flight unacknowledged the server stops delivering and lets the
//! hub's cursor-lag policy take over — so a stalled subscriber is lag
//! noticed and then dropped deterministically, regardless of how much the
//! kernel's socket buffers would have absorbed.
//!
//! A connection's thread blocks on whichever side it is waiting for. Before
//! the first subscribe, and while the ack window is shut, that is the
//! client: it blocks on a socket read. Otherwise it takes the client frames
//! already there without blocking, and once its subscription is caught up
//! it blocks on the hub's fan-out signal ([`Subscription::wait`]), so a
//! frame goes out as soon as the round that made it lands. A hub that has
//! shut down closes every connection.
//!
//! Stopping waits on no timer. The accept thread keeps a second handle on
//! each connection's socket; [`ServeServer::shutdown`] (also run on drop)
//! shuts every one of them down and wakes the hub's fan-out signal, so a
//! connection blocked in its hello read, a socket read or write, or
//! [`Subscription::wait`] returns at once. A connection thread shuts its
//! own socket down as it exits, so that second handle never holds a
//! finished connection open.
//!
//! Only a frame's `age_us` is policy time, on the hub's [`Clock`]. Socket
//! cadences (the read tick, the hello and write timeouts) are kernel time:
//! the kernel times out a blocked read or write, where no clock reaches.

use crate::hub::{ServeEvent, ServeHub, Subscription};
use crate::wire::{decode_frame, write_frame, Frame, MAX_FRAME_BYTES, WIRE_VERSION};
use caraoke_live::Clock;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection waits for the client's hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// The longest the connection loop blocks on one side before it looks at
/// the other: on a socket read before the first subscribe and while the ack
/// window is shut, on the hub's fan-out signal while the subscription is
/// caught up. So it bounds how long a client frame sent to a caught-up
/// connection goes unread — not how often frames are delivered (those go
/// out on the fan-out round), nor how late a shutdown is noticed (it shuts
/// the socket down and wakes the fan-out signal).
const LOOP_TICK: Duration = Duration::from_millis(10);
/// Client frames one round of the connection loop takes without blocking
/// before it turns to the hub, so a client flooding acks cannot hold off
/// delivery.
const CLIENT_FRAMES_PER_ROUND: usize = 256;
/// TCP write timeout; a peer stalled longer than this errors the
/// connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// The accept loop's sleep after a listener error, doubling over
/// consecutive errors up to 50 ms; it never gives up. A full file table
/// (`EMFILE`) fails every accept until a descriptor frees, and the pending
/// connection waits in the backlog meanwhile.
const ACCEPT_BACKOFF: Backoff = Backoff {
    max_attempts: u32::MAX,
    base: Duration::from_millis(1),
    max: Duration::from_millis(50),
};

/// Outcome of one non-destructive read attempt on a [`FrameReader`].
enum TickRead {
    /// A complete frame arrived.
    Frame(Frame),
    /// No complete frame yet (the read timed out, possibly mid-frame — the
    /// partial bytes are kept for the next attempt).
    Pending,
    /// The peer closed cleanly at a frame boundary.
    Closed,
}

/// An incremental frame reader that survives read timeouts **mid-frame**.
///
/// `read_exact` under a socket read timeout is not restartable: a timeout
/// can fire after some bytes of the length prefix or body were consumed,
/// and those bytes are gone — the stream is desynced forever after. The
/// per-connection server loop reads under a [`LOOP_TICK`] timeout or
/// without blocking, and the client's deadline-bounded `next_frame` under
/// a timeout, so both accumulate partial frames here instead and only
/// yield whole ones.
struct FrameReader {
    stream: TcpStream,
    /// Bytes of the in-flight frame: `[len u32 LE]` then body.
    buf: Vec<u8>,
    /// Total bytes `buf` must reach: 4 while reading the prefix, then
    /// `4 + body_len`.
    need: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(4096),
            need: 4,
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Switches reads between blocking (under the read timeout) and
    /// returning [`TickRead::Pending`] at once. A `try_clone` of the stream
    /// shares the setting: writes through it must not run while it is on.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Makes progress on the in-flight frame with whatever bytes are
    /// available before the socket's read timeout (at once when
    /// non-blocking).
    fn poll_frame(&mut self) -> io::Result<TickRead> {
        loop {
            if self.buf.len() == 4 && self.need == 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} out of range"),
                    ));
                }
                self.need = 4 + len;
                continue;
            }
            if self.need > 4 && self.buf.len() == self.need {
                let frame = decode_frame(&self.buf[4..])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.buf.clear();
                self.need = 4;
                return Ok(TickRead::Frame(frame));
            }
            let want = (self.need - self.buf.len()).min(65536);
            let mut chunk = vec![0u8; want];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(TickRead::Closed)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(TickRead::Pending);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks until a whole frame (or clean close) arrives, up to
    /// `timeout`. `Ok(None)` means the deadline passed with no complete
    /// frame; `Err(UnexpectedEof)` a close mid-frame.
    fn read_deadline(&mut self, timeout: Duration) -> io::Result<Option<TickRead>> {
        let start = Clock::Real.now();
        loop {
            // `Duration::MAX` less what has passed is still no deadline.
            let left = timeout.saturating_sub(Clock::Real.now() - start);
            self.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
            match self.poll_frame()? {
                TickRead::Pending => {}
                done => return Ok(Some(done)),
            }
            if Clock::Real.now() - start >= timeout {
                return Ok(None);
            }
        }
    }
}

/// A TCP server fanning one [`ServeHub`] out to remote subscribers.
#[derive(Debug)]
pub struct ServeServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// subscribers against `hub`.
    pub fn bind(hub: Arc<ServeHub>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener.incoming(), hub, accept_shutdown))?;
        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, shuts every connection's socket down and joins the
    /// accept thread (which joins every connection thread). Called
    /// automatically on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections from `incoming` (the listener's, or a test's) until
/// shutdown. An accept error ends nothing: it is counted in
/// [`ServeStats::accept_errors`](crate::ServeStats::accept_errors), backed
/// off per [`ACCEPT_BACKOFF`], and the loop keeps accepting.
fn accept_loop(
    incoming: impl Iterator<Item = io::Result<TcpStream>>,
    hub: Arc<ServeHub>,
    shutdown: Arc<AtomicBool>,
) {
    // Each connection's thread, and a second handle on its socket for
    // shutting it down under whatever the thread is blocked in.
    let mut connections: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    let mut failures = 0u32;
    for stream in incoming {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => {
                failures = 0;
                stream
            }
            Err(_) => {
                hub.count_accept_error();
                std::thread::sleep(ACCEPT_BACKOFF.delay(failures));
                failures = failures.saturating_add(1);
                continue;
            }
        };
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        let conn_hub = Arc::clone(&hub);
        let conn_shutdown = Arc::clone(&shutdown);
        if let Ok(handle) = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let _ = connection_loop(&stream, conn_hub, conn_shutdown);
                // The accept thread's handle keeps the socket open.
                let _ = stream.shutdown(Shutdown::Both);
            })
        {
            connections.push((handle, socket));
        }
        // Reap finished connections so a long-lived server does not
        // accumulate threads and sockets.
        connections.retain(|(handle, _)| !handle.is_finished());
    }
    for (_, socket) in &connections {
        let _ = socket.shutdown(Shutdown::Both);
    }
    hub.bump_activity();
    for (handle, _) in connections {
        let _ = handle.join();
    }
}

/// Serves one connection: hello exchange, then rounds of taking client
/// frames (subscribes, acks) and delivering hub events, each round blocked
/// on the side the connection waits for (see the module docs).
fn connection_loop(
    stream: &TcpStream,
    hub: Arc<ServeHub>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut writer = stream;

    // Hello exchange (client speaks first).
    match reader.read_deadline(HELLO_TIMEOUT)? {
        Some(TickRead::Frame(Frame::Hello { version })) if version == WIRE_VERSION => {}
        Some(TickRead::Frame(Frame::Hello { version })) => {
            return Err(io::Error::other(format!(
                "client wire version {version}, server {WIRE_VERSION}"
            )));
        }
        _ => return Err(io::Error::other("expected hello")),
    }
    write_frame(
        &mut writer,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )?;
    writer.flush()?;
    reader.set_read_timeout(Some(LOOP_TICK))?;

    let mut subscription: Option<Subscription> = None;
    // Client-chosen ids, parallel to the subscription's query indices.
    let mut sub_ids: Vec<u32> = Vec::new();
    let mut unacked: u64 = 0;
    let ack_window = hub.config().ack_window as u64;

    while !shutdown.load(Ordering::SeqCst) && !hub.is_shut_down() {
        // While the client is what the loop waits for, block for one frame
        // (at most LOOP_TICK; partial frames survive in the reader).
        // Otherwise take the frames already there, a bounded number.
        let waits_on_client = subscription.is_none() || unacked > ack_window;
        let limit = if waits_on_client {
            1
        } else {
            reader.set_nonblocking(true)?;
            CLIENT_FRAMES_PER_ROUND
        };
        let mut taken = 0;
        while taken < limit {
            match reader.poll_frame()? {
                TickRead::Frame(Frame::Subscribe {
                    sub_id,
                    from_start,
                    from_pane,
                    query,
                }) => {
                    let sub = subscription.get_or_insert_with(|| hub.subscribe(&[], false));
                    match from_pane {
                        // Resume: a reconnecting client continues from the
                        // pane after the last one it consumed; the gap (if
                        // any) is rebuilt from the pane log like any
                        // lagging cursor.
                        Some(pane) => sub.add_query_from(&query, pane),
                        None => sub.add_query(&query, from_start),
                    };
                    sub_ids.push(sub_id);
                }
                TickRead::Frame(Frame::Ack { count }) => {
                    unacked = unacked.saturating_sub(count as u64);
                }
                TickRead::Frame(_) => {} // clients have nothing else to say; ignore
                TickRead::Closed => return Ok(()), // clean disconnect
                TickRead::Pending => break,
            }
            taken += 1;
        }
        if !waits_on_client {
            // Reader and writer share one file description: block again
            // before anything is written.
            reader.set_nonblocking(false)?;
        }
        let Some(sub) = subscription.as_mut() else {
            continue;
        };
        // Flow control: past the ack window we stop delivering, but the
        // lag policy keeps running — that is what turns a stalled client
        // into a notice and then a drop.
        let events = if unacked > ack_window {
            sub.lag_events().into_iter().collect()
        } else if sub.caught_up() && taken == 0 {
            // Nothing owed and the client quiet: block on the hub. (A
            // client that just spoke may have more to say, so that round
            // only polls.)
            sub.wait(LOOP_TICK)
        } else {
            sub.poll()
        };
        for event in events {
            match event {
                ServeEvent::Frame { query, frame } => {
                    let sub_id = sub_ids.get(query).copied().unwrap_or(query as u32);
                    let pane = frame.pane;
                    let age_us = (hub.clock.now() - frame.sealed_at).as_micros() as u64;
                    let answer = frame.wire.clone();
                    let out = match frame.kind {
                        crate::hub::FrameKind::Snapshot => Frame::Snapshot {
                            sub_id,
                            pane,
                            age_us,
                            answer,
                        },
                        crate::hub::FrameKind::Delta => Frame::Delta {
                            sub_id,
                            pane,
                            age_us,
                            answer,
                        },
                    };
                    write_frame(&mut writer, &out)?;
                    unacked += 1;
                }
                ServeEvent::LagNotice { behind_panes } => {
                    write_frame(&mut writer, &Frame::LagNotice { behind_panes })?;
                }
                ServeEvent::Dropped { behind_panes } => {
                    // Best effort: tell the client why, then hang up.
                    let _ = write_frame(&mut writer, &Frame::Dropped { behind_panes });
                    let _ = writer.flush();
                    return Ok(());
                }
            }
        }
        writer.flush()?;
    }
    // Shut down (the server or the hub). Closing with client bytes unread
    // would reset the connection, so send the FIN first, then discard what
    // the client has sent: it reads a clean close.
    writer.shutdown(Shutdown::Write)?;
    reader.set_nonblocking(true)?;
    for _ in 0..CLIENT_FRAMES_PER_ROUND {
        if !matches!(reader.poll_frame()?, TickRead::Frame(_)) {
            break;
        }
    }
    Ok(())
}

/// Bounded exponential backoff for (re)connect attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total connection attempts (first try + retries); `0` acts as `1`.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper bound on any single sleep.
    pub max: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
        }
    }
}

impl Backoff {
    /// The sleep before retry number `retry` (0-based), capped at
    /// [`max`](Self::max).
    pub fn delay(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.max)
    }
}

/// What one [`ServeClient::poll_frame`] attempt produced — unlike
/// [`ServeClient::next_frame`]'s `Option`, this distinguishes a timeout
/// (connection healthy, nothing arrived) from a server close, which is
/// what a reconnecting consumer needs to know.
#[derive(Debug)]
pub enum ClientRead {
    /// A whole frame arrived (snapshot/delta frames already acked).
    Frame(Frame),
    /// The deadline passed with no complete frame; partial bytes are
    /// buffered and the next call resumes mid-frame.
    Timeout,
    /// The server closed cleanly at a frame boundary.
    Closed,
}

/// A TCP subscriber: connects, subscribes, and consumes frames with
/// automatic acknowledgement.
pub struct ServeClient {
    reader: FrameReader,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects and completes the hello exchange.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = FrameReader::new(writer.try_clone()?);
        let mut client = Self { reader, writer };
        write_frame(
            &mut client.writer,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )?;
        client.writer.flush()?;
        match client.reader.read_deadline(HELLO_TIMEOUT)? {
            Some(TickRead::Frame(Frame::Hello { version })) if version == WIRE_VERSION => {}
            Some(TickRead::Frame(Frame::Hello { version })) => {
                return Err(io::Error::other(format!(
                    "server wire version {version}, client {WIRE_VERSION}"
                )));
            }
            _ => return Err(io::Error::other("expected hello")),
        }
        Ok(client)
    }

    /// [`connect`](Self::connect), retried with bounded exponential
    /// backoff: any connect or hello failure sleeps per `backoff` and
    /// tries again, up to `backoff.max_attempts` total attempts; the last
    /// error is returned when they run out.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        backoff: Backoff,
    ) -> io::Result<Self> {
        let attempts = backoff.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(err) if retry + 1 >= attempts => return Err(err),
                Err(_) => {
                    std::thread::sleep(backoff.delay(retry));
                    retry += 1;
                }
            }
        }
    }

    /// Subscribes `sub_id` (echoed on every frame for this query) to one
    /// query.
    pub fn subscribe(
        &mut self,
        sub_id: u32,
        query: &caraoke_live::LiveQuery,
        from_start: bool,
    ) -> io::Result<()> {
        write_frame(
            &mut self.writer,
            &Frame::Subscribe {
                sub_id,
                from_start,
                from_pane: None,
                query: *query,
            },
        )?;
        self.writer.flush()
    }

    /// Subscribes `sub_id` resuming at `from_pane`: the server delivers
    /// every pane from it on, rebuilding any gap from the pane log.
    pub fn subscribe_from(
        &mut self,
        sub_id: u32,
        query: &caraoke_live::LiveQuery,
        from_pane: u64,
    ) -> io::Result<()> {
        write_frame(
            &mut self.writer,
            &Frame::Subscribe {
                sub_id,
                from_start: false,
                from_pane: Some(from_pane),
                query: *query,
            },
        )?;
        self.writer.flush()
    }

    /// Sends an explicit ack for `count` consumed frames. (Usually
    /// unnecessary: [`next_frame`](Self::next_frame) acks automatically.)
    pub fn ack(&mut self, count: u32) -> io::Result<()> {
        write_frame(&mut self.writer, &Frame::Ack { count })?;
        self.writer.flush()
    }

    /// Waits up to `timeout` for the next server frame. `Ok(None)` means
    /// timeout or clean server close. Snapshot/delta frames are
    /// acknowledged automatically before returning. A timeout mid-frame is
    /// harmless: the partial bytes are buffered and the next call resumes
    /// where this one stopped.
    pub fn next_frame(&mut self, timeout: Duration) -> io::Result<Option<Frame>> {
        match self.poll_frame(timeout)? {
            ClientRead::Frame(frame) => Ok(Some(frame)),
            ClientRead::Timeout | ClientRead::Closed => Ok(None),
        }
    }

    /// Like [`next_frame`](Self::next_frame), but reporting *why* no frame
    /// arrived: [`ClientRead::Timeout`] vs [`ClientRead::Closed`]. A
    /// failed auto-ack is swallowed here — the frame was already received,
    /// and the dead connection surfaces on the next read — which is the
    /// behaviour a reconnecting consumer needs to never lose a delivered
    /// frame.
    pub fn poll_frame(&mut self, timeout: Duration) -> io::Result<ClientRead> {
        match self.reader.read_deadline(timeout)? {
            Some(TickRead::Frame(frame)) => {
                if matches!(frame, Frame::Snapshot { .. } | Frame::Delta { .. }) {
                    let _ = self.ack(1);
                }
                Ok(ClientRead::Frame(frame))
            }
            Some(TickRead::Closed) => Ok(ClientRead::Closed),
            Some(TickRead::Pending) | None => Ok(ClientRead::Timeout),
        }
    }
}

/// A [`ServeClient`] that survives connection loss: on a server close,
/// a cut mid-frame, or any read error it reconnects with bounded
/// exponential backoff, resubscribes every query, and resumes each stream
/// at the pane after the last frame it delivered ([`Frame::Subscribe`]'s
/// `from_pane`) — so the consumer sees a gap-free pane sequence across
/// cuts, byte-identical to an uninterrupted subscription (the reconnect
/// e2e pins this).
pub struct ReconnectingClient {
    addr: SocketAddr,
    backoff: Backoff,
    /// Every subscription made, replayed on each reconnect:
    /// `(sub_id, query, from_start)`.
    subs: Vec<(u32, caraoke_live::LiveQuery, bool)>,
    /// Per-`sub_id` resume cursor: the pane after the last delivered frame.
    resume: Vec<(u32, u64)>,
    client: Option<ServeClient>,
    reconnects: u64,
}

impl ReconnectingClient {
    /// Connects (with retry) and completes the hello exchange. The address
    /// is resolved once; reconnects target the same endpoint.
    pub fn connect(addr: impl ToSocketAddrs, backoff: Backoff) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("no address resolved"))?;
        let client = ServeClient::connect_with_retry(addr, backoff)?;
        Ok(Self {
            addr,
            backoff,
            subs: Vec::new(),
            resume: Vec::new(),
            client: Some(client),
            reconnects: 0,
        })
    }

    /// How many times the connection has been re-established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Subscribes `sub_id` to one query. Remembered and replayed (with a
    /// resume cursor) after every reconnect.
    pub fn subscribe(
        &mut self,
        sub_id: u32,
        query: &caraoke_live::LiveQuery,
        from_start: bool,
    ) -> io::Result<()> {
        self.subs.push((sub_id, *query, from_start));
        if let Some(client) = self.client.as_mut() {
            if client.subscribe(sub_id, query, from_start).is_err() {
                // Dead connection: drop it; the next read reconnects and
                // replays the full subscription set.
                self.client = None;
            }
        }
        Ok(())
    }

    fn resume_pane(&self, sub_id: u32) -> Option<u64> {
        self.resume
            .iter()
            .find(|&&(id, _)| id == sub_id)
            .map(|&(_, pane)| pane)
    }

    fn note_delivered(&mut self, sub_id: u32, pane: u64) {
        match self.resume.iter_mut().find(|(id, _)| *id == sub_id) {
            Some(entry) => entry.1 = entry.1.max(pane + 1),
            None => self.resume.push((sub_id, pane + 1)),
        }
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut client = ServeClient::connect_with_retry(self.addr, self.backoff)?;
        for (sub_id, query, from_start) in self.subs.clone() {
            match self.resume_pane(sub_id) {
                Some(pane) => client.subscribe_from(sub_id, &query, pane)?,
                None => client.subscribe(sub_id, &query, from_start)?,
            }
        }
        self.client = Some(client);
        self.reconnects += 1;
        Ok(())
    }

    /// Waits up to `timeout` for the next frame, reconnecting (and
    /// resuming gap-free) as needed within the deadline. `Ok(None)` means
    /// the deadline passed; `Err` that a reconnect's own retry budget ran
    /// out.
    pub fn next_frame(&mut self, timeout: Duration) -> io::Result<Option<Frame>> {
        let start = Clock::Real.now();
        loop {
            self.ensure_connected()?;
            // `Duration::MAX` less what has passed is still no deadline.
            let left = timeout.saturating_sub(Clock::Real.now() - start);
            let client = self.client.as_mut().expect("connected");
            match client.poll_frame(left.max(Duration::from_millis(1))) {
                Ok(ClientRead::Frame(frame)) => {
                    match &frame {
                        Frame::Snapshot { sub_id, pane, .. }
                        | Frame::Delta { sub_id, pane, .. } => {
                            let (sub_id, pane) = (*sub_id, *pane);
                            self.note_delivered(sub_id, pane);
                        }
                        _ => {}
                    }
                    return Ok(Some(frame));
                }
                Ok(ClientRead::Timeout) => {}
                Ok(ClientRead::Closed) | Err(_) => {
                    // Clean close, cut mid-frame, or any transport error:
                    // drop the connection and (within the deadline) let
                    // `ensure_connected` rebuild it.
                    self.client = None;
                }
            }
            if Clock::Real.now() - start >= timeout {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraoke_city::{PoleDirectory, PoleSite, SegmentId};
    use caraoke_geom::Vec3;
    use caraoke_live::{LiveCity, LiveConfig};

    #[test]
    fn an_accept_error_is_counted_and_the_next_connection_is_served() {
        // A stepped engine: no sealer thread, and no fan-out thread in the
        // hub over it.
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let live = LiveCity::with_clock(directory, LiveConfig::default(), Clock::Real);
        let hub = ServeHub::over_live(Arc::new(live), None, Default::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let (hub, shutdown) = (Arc::clone(&hub), Arc::clone(&shutdown));
            // The error `incoming()` returns on a full file table, ahead of
            // the listener's real connections.
            let injected = std::iter::once(Err(io::Error::other("too many open files")));
            std::thread::spawn(move || {
                accept_loop(injected.chain(listener.incoming()), hub, shutdown)
            })
        };
        let client = ServeClient::connect(addr).expect("served after the accept error");
        assert_eq!(hub.stats().accept_errors, 1);
        drop(client);
        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        accept.join().expect("accept loop exits on shutdown");
    }
}
