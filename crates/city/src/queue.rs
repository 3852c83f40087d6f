//! Bounded ring-buffer ingestion queues with backpressure.
//!
//! Pole reports stream into the aggregation tier through an [`IngestQueue`]:
//! a fixed-capacity MPMC ring buffer built on `Mutex` + `Condvar` (std only,
//! by design — the workspace takes no external runtime dependencies).
//! Producers block until space frees up ([`IngestQueue::push`], the
//! backpressure path). Consumers block on [`IngestQueue::pop`] until an item
//! arrives or every producer is done and the queue is closed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was closed; no further items will be accepted.
    Closed,
}

/// Counters describing what a queue experienced, for capacity planning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted over the queue's lifetime.
    pub accepted: u64,
    /// `push` calls that had to wait for space (backpressure events).
    pub blocked_pushes: u64,
    /// Pushes refused with [`PushError::Closed`].
    pub closed_rejects: u64,
    /// Highest queue depth ever observed.
    pub high_watermark: usize,
}

struct Inner<T> {
    ring: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded MPMC ring buffer carrying the ingest stream.
pub struct IngestQueue<T> {
    inner: Mutex<Inner<T>>,
    space: Condvar,
    items: Condvar,
    capacity: usize,
}

impl<T> IngestQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                closed: false,
                stats: QueueStats::default(),
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            capacity,
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocking push: waits until the ring has space (backpressure), then
    /// enqueues. Returns `Err(Closed)` if the queue closed while waiting.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.ring.len() == self.capacity && !inner.closed {
            inner.stats.blocked_pushes += 1;
            while inner.ring.len() == self.capacity && !inner.closed {
                inner = self.space.wait(inner).expect("queue lock");
            }
        }
        if inner.closed {
            inner.stats.closed_rejects += 1;
            return Err(PushError::Closed);
        }
        inner.ring.push_back(item);
        inner.stats.accepted += 1;
        inner.stats.high_watermark = inner.stats.high_watermark.max(inner.ring.len());
        drop(inner);
        self.items.notify_one();
        Ok(())
    }

    /// Blocking pop: waits for an item; returns `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.ring.pop_front() {
                drop(inner);
                self.space.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.items.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: producers are refused from now on, consumers drain
    /// what remains and then see `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        drop(inner);
        self.items.notify_all();
        self.space.notify_all();
    }

    /// Snapshot of the queue's lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue lock").stats
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").ring.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_a_single_producer() {
        let q = IngestQueue::with_capacity(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn blocking_push_applies_backpressure_until_a_consumer_drains() {
        let q = Arc::new(IngestQueue::with_capacity(1));
        q.push(0u64).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1u64))
        };
        // Give the producer time to hit the full ring and block.
        thread::sleep(Duration::from_millis(30));
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(1));
        assert!(q.stats().blocked_pushes >= 1, "push must have waited");
    }

    #[test]
    fn close_wakes_blocked_parties() {
        let q = Arc::new(IngestQueue::<u32>::with_capacity(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push(9), Err(PushError::Closed));
        assert_eq!(q.stats().closed_rejects, 1);
    }

    #[test]
    fn mpmc_transfers_every_item_exactly_once() {
        let q = Arc::new(IngestQueue::with_capacity(16));
        let n_producers = 4;
        let per_producer = 500u64;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..per_producer {
                    q.push(p * per_producer + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..n_producers * per_producer).collect();
        assert_eq!(all, expected);
        assert_eq!(q.stats().accepted, n_producers * per_producer);
    }
}
