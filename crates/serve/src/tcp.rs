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
//! Every one of those decisions is the connection's [`Session`], which does
//! no I/O. A connection's thread is a thin driver around it: it reads the
//! socket into one reused buffer and feeds the session, runs its hub round,
//! and writes the round's output in one write. While the session waits on
//! the client (before the first subscribe, and while the ack window is
//! shut) the read blocks up to a read tick; otherwise it takes what is
//! there without blocking, and a caught-up session's round blocks on the
//! hub's fan-out signal ([`Subscription::wait`]), so a frame goes out as
//! soon as the round that made it lands. When the session closes, the
//! driver sends its FIN and then drains what the client sent.
//!
//! Stopping waits on no timer. The accept thread keeps a second handle on
//! each connection's socket; [`ServeServer::shutdown`] (also run on drop)
//! shuts every one of them down and wakes the hub's fan-out signal, so a
//! connection blocked in a socket read or write, or in
//! [`Subscription::wait`], returns at once. A connection thread shuts its
//! own socket down as it exits, so that second handle never holds a
//! finished connection open.
//!
//! The hello deadline and a frame's `age_us` are policy time, on the hub's
//! [`Clock`]: the session reads them at each round. The read tick and the
//! write timeout are kernel time: the kernel times out a blocked read or
//! write, where no clock reaches.
//!
//! [`Subscription::wait`]: crate::Subscription::wait

use crate::hub::ServeHub;
use crate::session::{Session, Wants, HELLO_TIMEOUT};
use crate::wire::{check_hello, write_frame, Frame, FrameDecoder, HELLO};
use caraoke_live::{Clock, LiveQuery};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest the driver blocks on one side before it looks at the other:
/// on a socket read while the session waits on the client, on the hub's
/// fan-out signal while it is caught up. So it bounds how long a client
/// frame sent to a caught-up connection goes unread, and how late a
/// session's hello deadline is read — not how often frames are delivered
/// (those go out on the fan-out round), nor how late a shutdown is noticed
/// (it shuts the socket down and wakes the fan-out signal).
const LOOP_TICK: Duration = Duration::from_millis(10);
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

/// Drives one connection's [`Session`] (see the module docs).
fn connection_loop(
    stream: &TcpStream,
    hub: Arc<ServeHub>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_read_timeout(Some(LOOP_TICK))?;
    let mut session = Session::new(hub);
    // One read buffer for the connection: bytes `start..end` are read and
    // not yet taken by the session.
    let mut inbox = vec![0u8; 64 * 1024];
    let (mut start, mut end) = (0, 0);
    let (mut reader, mut writer) = (stream, stream);
    loop {
        let wants = session.wants();
        if wants == Wants::Close || shutdown.load(Ordering::SeqCst) {
            break;
        }
        if start == end {
            // Waiting on the client, block up to a read tick; otherwise take
            // what is there. Reader and writer share one file description:
            // block again before anything is written.
            stream.set_nonblocking(wants == Wants::Hub)?;
            let read = reader.read(&mut inbox);
            stream.set_nonblocking(false)?;
            (start, end) = match read {
                Ok(0) => return session.on_eof(),
                Ok(n) => (0, n),
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => (0, 0),
                Err(e) => return Err(e),
            };
        }
        start += session.on_bytes(&inbox[start..end])?;
        session.on_round(|sub| sub.wait(LOOP_TICK));
        writer.write_all(&session.output())?;
    }
    // Closing with client bytes unread would reset the connection, so send
    // the FIN first, then discard what the client has sent (up to 1 MiB):
    // it reads a clean close.
    writer.shutdown(Shutdown::Write)?;
    stream.set_nonblocking(true)?;
    (0..16)
        .map_while(|_| reader.read(&mut inbox).ok().filter(|&n| n > 0))
        .for_each(drop);
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
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl ServeClient {
    /// Connects and completes the hello exchange.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let decoder = FrameDecoder::default();
        let mut client = Self { stream, decoder };
        client.send(&HELLO)?;
        match client.poll_frame(HELLO_TIMEOUT)? {
            ClientRead::Frame(frame) => check_hello(&frame, "server").map(|()| client),
            _ => Err(io::Error::other("no hello from the server")),
        }
    }

    fn send(&self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut &self.stream, frame)
    }

    /// [`connect`](Self::connect), retried with bounded exponential
    /// backoff: any connect or hello failure sleeps per `backoff` and
    /// tries again, up to `backoff.max_attempts` total attempts; the last
    /// error is returned when they run out.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        backoff: Backoff,
    ) -> io::Result<Self> {
        let mut retry = 0u32;
        loop {
            match Self::connect(addr.clone()) {
                Err(_) if retry + 1 < backoff.max_attempts => {
                    std::thread::sleep(backoff.delay(retry));
                    retry += 1;
                }
                done => return done,
            }
        }
    }

    /// Subscribes `sub_id` (echoed on every frame for this query) to one
    /// query.
    pub fn subscribe(
        &mut self,
        sub_id: u32,
        query: &LiveQuery,
        from_start: bool,
    ) -> io::Result<()> {
        self.send(&Frame::Subscribe {
            sub_id,
            from_start,
            from_pane: None,
            query: *query,
        })
    }

    /// Subscribes `sub_id` resuming at `from_pane`: the server delivers
    /// every pane from it on, rebuilding any gap from the pane log.
    pub fn subscribe_from(
        &mut self,
        sub_id: u32,
        query: &LiveQuery,
        from_pane: u64,
    ) -> io::Result<()> {
        self.send(&Frame::Subscribe {
            sub_id,
            from_start: false,
            from_pane: Some(from_pane),
            query: *query,
        })
    }

    /// Sends an explicit ack for `count` consumed frames. (Usually
    /// unnecessary: [`next_frame`](Self::next_frame) acks automatically.)
    pub fn ack(&mut self, count: u32) -> io::Result<()> {
        self.send(&Frame::Ack { count })
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
        let start = Clock::Real.now();
        loop {
            // `Duration::MAX` less what has passed is still no deadline.
            let left = timeout.saturating_sub(Clock::Real.now() - start);
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
            let frame = match self.decoder.read_from(&mut &self.stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(ClientRead::Closed),
                Err(e) if !matches!(e.kind(), WouldBlock | TimedOut) => return Err(e),
                Err(_) if Clock::Real.now() - start >= timeout => return Ok(ClientRead::Timeout),
                Err(_) => continue,
            };
            if let Frame::Snapshot { .. } | Frame::Delta { .. } = frame {
                let _ = self.ack(1);
            }
            return Ok(ClientRead::Frame(frame));
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
    /// `(sub_id, query, from_start, resume)`, where `resume` is the pane
    /// after the last frame delivered for `sub_id`, once there is one.
    subs: Vec<(u32, LiveQuery, bool, Option<u64>)>,
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
        query: &LiveQuery,
        from_start: bool,
    ) -> io::Result<()> {
        self.subs.push((sub_id, *query, from_start, None));
        let failed =
            |client: &mut ServeClient| client.subscribe(sub_id, query, from_start).is_err();
        if self.client.as_mut().is_some_and(failed) {
            // Dead connection: drop it; the next read reconnects and
            // replays the full subscription set.
            self.client = None;
        }
        Ok(())
    }

    /// The connection, re-established (every subscription replayed, each
    /// at its resume cursor) if it was lost.
    fn connected(&mut self) -> io::Result<&mut ServeClient> {
        if self.client.is_none() {
            let mut client = ServeClient::connect_with_retry(self.addr, self.backoff)?;
            for &(sub_id, query, from_start, resume) in &self.subs {
                match resume {
                    Some(pane) => client.subscribe_from(sub_id, &query, pane)?,
                    None => client.subscribe(sub_id, &query, from_start)?,
                }
            }
            self.client = Some(client);
            self.reconnects += 1;
        }
        Ok(self.client.as_mut().expect("connected"))
    }

    /// Waits up to `timeout` for the next frame, reconnecting (and
    /// resuming gap-free) as needed within the deadline. `Ok(None)` means
    /// the deadline passed; `Err` that a reconnect's own retry budget ran
    /// out.
    pub fn next_frame(&mut self, timeout: Duration) -> io::Result<Option<Frame>> {
        let start = Clock::Real.now();
        loop {
            // `Duration::MAX` less what has passed is still no deadline.
            let left = timeout.saturating_sub(Clock::Real.now() - start);
            match self.connected()?.poll_frame(left) {
                Ok(ClientRead::Frame(frame)) => {
                    if let Frame::Snapshot { sub_id, pane, .. }
                    | Frame::Delta { sub_id, pane, .. } = &frame
                    {
                        for sub in self.subs.iter_mut().filter(|sub| sub.0 == *sub_id) {
                            sub.3 = sub.3.max(Some(pane + 1));
                        }
                    }
                    return Ok(Some(frame));
                }
                Ok(ClientRead::Timeout) => {}
                Ok(ClientRead::Closed) | Err(_) => {
                    // Clean close, cut mid-frame, or any transport error:
                    // drop the connection and (within the deadline) let
                    // `connected` rebuild it.
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
