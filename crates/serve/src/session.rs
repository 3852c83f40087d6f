//! One serve connection as a state machine over bytes and time: every
//! decision the server makes for a remote subscriber, and no I/O.
//!
//! A [`Session`] takes the client's bytes ([`Session::on_bytes`]), runs hub
//! rounds ([`Session::on_round`]) and leaves the bytes to send in
//! [`Session::output`]; [`Session::wants`] says which side it waits on. It
//! owns the hello exchange and version refusal, the subscription (made on
//! the first [`Frame::Subscribe`]) with its client-chosen `sub_id`s and
//! resume cursors, the ack window, the per-round bound on client frames,
//! and the close on a drop verdict or a hub shutdown. Its deadline (the
//! hello) and the `age_us` it stamps read the hub's [`Clock`], so a test
//! drives a session over a stepped hub and a manual clock with no socket
//! and no wait. [`crate::tcp`] is one driver of it.
//!
//! [`Clock`]: caraoke_live::Clock

use crate::hub::{FrameKind, ServeEvent, ServeHub, Subscription};
use crate::wire::{check_hello, put_frame, Frame, FrameDecoder, HELLO};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a session waits for the client's hello, on the hub's clock (and
/// how long [`crate::ServeClient::connect`] waits for the server's, in real
/// time).
pub(crate) const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Client frames a session takes between two hub rounds, so a client
/// flooding acks cannot hold off delivery.
const CLIENT_FRAMES_PER_ROUND: usize = 256;

/// The side a [`Session`] waits on next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wants {
    /// The client: no subscription yet, or the ack window is shut.
    Client,
    /// The hub: client frames are taken as they come, and a caught-up
    /// session's next round waits for a fan-out round.
    Hub,
    /// Nothing: the session is over (a bad hello or frame, the hello
    /// deadline, the client's close, a drop verdict, or a hub shutdown).
    /// Whatever [`Session::output`] still holds goes out first.
    Close,
}

/// The server side of one connection (see the module docs).
pub struct Session {
    hub: Arc<ServeHub>,
    decoder: FrameDecoder,
    /// When the client's hello is due, on the hub's clock; `None` once it
    /// arrived.
    hello_by: Option<Instant>,
    subscription: Option<Subscription>,
    /// Client-chosen ids, parallel to the subscription's query indices.
    sub_ids: Vec<u32>,
    /// Frames delivered and not yet acked.
    unacked: u64,
    /// Client frames taken since the last hub round.
    taken: usize,
    out: Vec<u8>,
    closed: bool,
}

impl Session {
    /// A session awaiting the client's hello, due `HELLO_TIMEOUT` (5 s)
    /// from now on the hub's clock.
    pub fn new(hub: Arc<ServeHub>) -> Self {
        Self {
            hello_by: Some(hub.clock.now() + HELLO_TIMEOUT),
            hub,
            decoder: FrameDecoder::default(),
            subscription: None,
            sub_ids: Vec::new(),
            unacked: 0,
            taken: 0,
            out: Vec::new(),
            closed: false,
        }
    }

    /// Which side the session waits on.
    pub fn wants(&self) -> Wants {
        if self.closed {
            Wants::Close
        } else if self.subscription.is_none() || self.window_shut() {
            Wants::Client
        } else {
            Wants::Hub
        }
    }

    /// Past the ack window, delivery stops, but the lag policy keeps
    /// running: that is what turns a stalled client into a notice and then
    /// a drop.
    fn window_shut(&self) -> bool {
        self.unacked > self.hub.config().ack_window as u64
    }

    /// Takes client bytes and returns how many it took: all of them, unless
    /// this round's client frames ran out first (the rest is the next
    /// round's) or the session closed. A partial frame is kept. An
    /// undecodable frame or a bad hello closes the session with its error.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut rest = bytes;
        while !self.closed && self.taken < CLIENT_FRAMES_PER_ROUND {
            let taken = match self.decoder.decode(&mut rest) {
                Ok(Some(frame)) => self.take(frame),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            self.taken += 1;
            self.closed |= taken.is_err();
            taken?;
        }
        Ok(bytes.len() - rest.len())
    }

    fn take(&mut self, frame: Frame) -> io::Result<()> {
        if self.hello_by.take().is_some() {
            return check_hello(&frame, "client").map(|()| put_frame(&mut self.out, &HELLO));
        }
        match frame {
            Frame::Subscribe {
                sub_id,
                from_start,
                from_pane,
                query,
            } => {
                let sub = self
                    .subscription
                    .get_or_insert_with(|| self.hub.subscribe(&[], false));
                match from_pane {
                    // Resume: a reconnecting client continues from the pane
                    // after the last one it consumed; the gap (if any) is
                    // rebuilt from the pane log like any lagging cursor.
                    Some(pane) => sub.add_query_from(&query, pane),
                    None => sub.add_query(&query, from_start),
                };
                self.sub_ids.push(sub_id);
            }
            Frame::Ack { count } => self.unacked = self.unacked.saturating_sub(count as u64),
            _ => {} // clients have nothing else to say; ignore
        }
        Ok(())
    }

    /// The client closed its side: a clean disconnect at a frame boundary,
    /// an `UnexpectedEof` error inside a frame. The session is over.
    pub fn on_eof(&mut self) -> io::Result<()> {
        self.closed = true;
        self.decoder.finish()
    }

    /// One hub round. Past the hello deadline the session closes. With the
    /// ack window shut it takes only the lag policy's verdict; caught up,
    /// with no client frame since the last round (a client that just spoke
    /// may have more to say), it takes what `wait` returns — a driver
    /// blocks there on the hub's fan-out signal ([`Subscription::wait`]),
    /// a stepped test passes [`Subscription::poll`]; otherwise it polls.
    /// Each event becomes a frame in [`output`](Self::output).
    pub fn on_round(&mut self, wait: impl FnOnce(&mut Subscription) -> Vec<ServeEvent>) {
        let heard = std::mem::take(&mut self.taken) > 0;
        if self.hello_by.is_some_and(|by| self.hub.clock.now() >= by) {
            self.closed = true;
        }
        let (closed, window_shut) = (self.closed, self.window_shut());
        let events = match self.subscription.as_mut().filter(|_| !closed) {
            None => Vec::new(),
            Some(sub) if window_shut => sub.lag_events().into_iter().collect(),
            Some(sub) if sub.caught_up() && !heard => wait(sub),
            Some(sub) => sub.poll(),
        };
        for event in events {
            let frame = match event {
                ServeEvent::Frame { query, frame } => {
                    self.unacked += 1;
                    let sub_id = self.sub_ids[query];
                    let age_us = (self.hub.clock.now() - frame.sealed_at).as_micros() as u64;
                    match frame.kind {
                        FrameKind::Snapshot => Frame::Snapshot {
                            sub_id,
                            pane: frame.pane,
                            age_us,
                            answer: frame.wire.clone(),
                        },
                        FrameKind::Delta => Frame::Delta {
                            sub_id,
                            pane: frame.pane,
                            age_us,
                            answer: frame.wire.clone(),
                        },
                    }
                }
                ServeEvent::LagNotice { behind_panes } => Frame::LagNotice { behind_panes },
                ServeEvent::Dropped { behind_panes } => {
                    // Tell the client why, then hang up.
                    self.closed = true;
                    Frame::Dropped { behind_panes }
                }
            };
            put_frame(&mut self.out, &frame);
        }
        self.closed |= self.hub.is_shut_down();
    }

    /// The bytes to send since the last call, whole frames only.
    pub fn output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WIRE_VERSION;
    use caraoke_city::{PoleDirectory, PoleSite, SegmentId};
    use caraoke_geom::Vec3;
    use caraoke_live::{Clock, LiveCity, LiveConfig, ManualClock};

    /// A hub over a stepped engine on a manual clock: no thread anywhere.
    fn stepped_hub() -> Arc<ServeHub> {
        let directory = PoleDirectory::new(vec![PoleSite {
            segment: SegmentId(0),
            position: Vec3::new(0.0, -5.0, 3.8),
        }]);
        let clock = Clock::Manual(Arc::new(ManualClock::new()));
        let live = LiveCity::with_clock(directory, LiveConfig::default(), clock);
        ServeHub::over_live(Arc::new(live), None, Default::default())
    }

    fn framed(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            put_frame(&mut out, frame);
        }
        out
    }

    #[test]
    fn a_round_takes_at_most_its_share_of_client_frames() {
        let mut session = Session::new(stepped_hub());
        let mut input = framed(&[HELLO]);
        input.extend(framed(&vec![Frame::Ack { count: 1 }; 600]));
        let (hello, ack) = (7, 9);
        let first = session.on_bytes(&input).unwrap();
        assert_eq!(first, hello + (CLIENT_FRAMES_PER_ROUND - 1) * ack);
        assert_eq!(session.on_bytes(&input[first..]).unwrap(), 0, "same round");
        session.on_round(Subscription::poll);
        assert_eq!(session.output(), framed(&[HELLO]));
        let second = session.on_bytes(&input[first..]).unwrap();
        assert_eq!(second, CLIENT_FRAMES_PER_ROUND * ack);
        session.on_round(Subscription::poll);
        let rest = &input[first + second..];
        assert_eq!(session.on_bytes(rest).unwrap(), rest.len());
        assert_eq!(session.wants(), Wants::Client, "not subscribed");
    }

    #[test]
    fn a_wrong_version_or_a_frame_before_the_hello_is_refused_with_no_reply() {
        for first in [
            Frame::Hello {
                version: WIRE_VERSION + 1,
            },
            Frame::Ack { count: 1 },
        ] {
            let mut session = Session::new(stepped_hub());
            assert!(session
                .on_bytes(&framed(std::slice::from_ref(&first)))
                .is_err());
            assert_eq!(session.wants(), Wants::Close, "{first:?}");
            assert!(session.output().is_empty(), "{first:?}");
        }
    }
}
