//! Micro-batching request queue with bounded-capacity backpressure.
//!
//! Producers push items into a bounded FIFO ([`MicroBatcher::try_submit`]
//! rejects with [`QueueFull`]; [`MicroBatcher::submit_blocking`] waits
//! for room). A consumer drains it in *micro-batches*, and the batcher
//! is work-conserving: [`MicroBatcher::next_batch`] blocks only until a
//! batch's first item arrives, adds whatever else is already queued (up
//! to `batch_size`) and returns. It never waits on a timer for more
//! items. A lone request runs at once, and batches form from the items
//! that queued while the consumer was busy with the previous batch,
//! which is exactly when coalescing pays. A timed wait for partners
//! would only add its full length to every request at light load: at
//! the repository benchmark's 500 req/s a 500 µs wait found no partner
//! and was about 70 % of the median request latency (DESIGN.md §9).
//!
//! A single consumer observes items in exact submission order, which is
//! what makes batched execution equivalent to one-at-a-time execution
//! downstream (see `tests/batch_equivalence.rs`).

use std::iter;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;

use crate::metrics::RuntimeMetrics;

/// Configuration for [`MicroBatcher`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum items per batch.
    pub batch_size: usize,
    /// Bounded queue capacity: the backpressure limit.
    pub capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            batch_size: 8,
            capacity: 64,
        }
    }
}

/// Error returned by [`MicroBatcher::try_submit`] when the queue is at
/// capacity; carries the rejected item back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

impl<T> std::fmt::Display for QueueFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "micro-batch queue is at capacity")
    }
}

impl<T: std::fmt::Debug> std::error::Error for QueueFull<T> {}

/// A bounded micro-batching queue.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones of the `Arc`
/// to producer threads; one consumer loops on
/// [`next_batch`](Self::next_batch).
///
/// # Example
///
/// ```
/// use afpr_runtime::{BatchConfig, MicroBatcher};
///
/// let batcher: MicroBatcher<u32> = MicroBatcher::new(BatchConfig {
///     batch_size: 4,
///     ..BatchConfig::default()
/// });
/// for i in 0..6 {
///     batcher.try_submit(i).unwrap();
/// }
/// batcher.close();
/// assert_eq!(batcher.next_batch(), Some(vec![0, 1, 2, 3]));
/// assert_eq!(batcher.next_batch(), Some(vec![4, 5]));
/// assert_eq!(batcher.next_batch(), None);
/// ```
pub struct MicroBatcher<T> {
    /// The queue's only sender; `None` once closed. Dropping it is what
    /// wakes a consumer blocked on an empty queue.
    tx: RwLock<Option<Sender<T>>>,
    rx: Receiver<T>,
    cfg: BatchConfig,
    metrics: Arc<RuntimeMetrics>,
}

impl<T> std::fmt::Debug for MicroBatcher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroBatcher")
            .field("cfg", &self.cfg)
            .field("len", &self.rx.len())
            .field("closed", &self.tx.read().is_none())
            .finish()
    }
}

impl<T: Send> MicroBatcher<T> {
    /// Creates a batcher with its own metrics registry.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `capacity` is zero.
    #[must_use]
    pub fn new(cfg: BatchConfig) -> Self {
        Self::with_metrics(cfg, Arc::new(RuntimeMetrics::new()))
    }

    /// Creates a batcher reporting into a shared metrics registry
    /// (e.g. the one owned by an [`crate::Engine`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `capacity` is zero.
    #[must_use]
    pub fn with_metrics(cfg: BatchConfig, metrics: Arc<RuntimeMetrics>) -> Self {
        assert!(cfg.batch_size > 0, "batch_size must be positive");
        assert!(cfg.capacity > 0, "capacity must be positive");
        let (tx, rx) = bounded(cfg.capacity);
        Self {
            tx: RwLock::new(Some(tx)),
            rx,
            cfg,
            metrics,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// The metrics registry this batcher reports into.
    #[must_use]
    pub fn metrics(&self) -> &Arc<RuntimeMetrics> {
        &self.metrics
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Non-blocking submit; on backpressure the item is handed back in
    /// [`QueueFull`].
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the queue holds `capacity` items or
    /// the batcher is closed.
    pub fn try_submit(&self, item: T) -> Result<(), QueueFull<T>> {
        // The read guard lives to the end of the `match`, so a submit
        // either lands before a concurrent `close` or is refused.
        let sent = match self.tx.read().as_ref() {
            Some(tx) => tx.try_send(item),
            None => Err(TrySendError::Disconnected(item)),
        };
        match sent {
            Ok(()) => {
                self.metrics.record_item_enqueued();
                self.metrics.observe_queue_depth(self.rx.len() as u64);
                Ok(())
            }
            Err(TrySendError::Full(item) | TrySendError::Disconnected(item)) => {
                self.metrics.record_queue_rejection();
                Err(QueueFull(item))
            }
        }
    }

    /// Blocking submit: waits until the queue has room (backpressure by
    /// stalling the producer instead of rejecting).
    ///
    /// Sends on a clone of the sender, so a producer stalled on a full
    /// queue never holds up [`close`](Self::close).
    ///
    /// # Panics
    ///
    /// Panics if the batcher was closed.
    pub fn submit_blocking(&self, item: T) {
        let tx = self
            .tx
            .read()
            .as_ref()
            .cloned()
            .expect("submit on closed batcher");
        // `expect` would need `T: Debug`; `is_ok` keeps `T` unconstrained.
        assert!(
            tx.send(item).is_ok(),
            "queue receiver alive while batcher alive"
        );
        self.metrics.record_item_enqueued();
        self.metrics.observe_queue_depth(self.rx.len() as u64);
    }

    /// Closes the queue: producers are rejected, and the consumer
    /// drains what is left, then gets `None`. Closing drops the queue's
    /// sender, which also wakes a consumer blocked on an empty queue.
    ///
    /// # Drain-then-stop contract
    ///
    /// `close` never discards work. Every item that was accepted by
    /// [`try_submit`](Self::try_submit) / [`submit_blocking`](Self::submit_blocking)
    /// before the close is still delivered — in submission order — by
    /// subsequent [`next_batch`](Self::next_batch) calls, which do not
    /// block once the batcher is closed; only after the queue is empty
    /// does `next_batch` return `None`. This is what lets a serving loop
    /// shut down gracefully: stop admitting, flush in-flight requests,
    /// then stop. Pinned by `close_wakes_a_blocked_consumer_and_keeps_accepted_items`.
    pub fn close(&self) {
        *self.tx.write() = None;
    }

    /// Whether [`close`](Self::close) was called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.tx.read().is_none()
    }

    /// Blocks for the next micro-batch.
    ///
    /// Waits only for the batch's first item, then adds what is already
    /// queued, up to `batch_size`, and returns without waiting for more.
    /// Returns `None` once the batcher is closed *and* drained.
    #[must_use]
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let first = self.rx.recv().ok()?;
        let mut batch = Vec::with_capacity(self.cfg.batch_size);
        batch.push(first);
        batch.extend(iter::from_fn(|| self.rx.try_recv().ok()).take(self.cfg.batch_size - 1));
        self.metrics.record_batch_flushed(batch.len() as u64);
        Some(batch)
    }

    /// Drains the queue to completion: calls `handle` on every batch
    /// until the batcher is closed and empty. Convenience for consumer
    /// threads.
    pub fn run<F: FnMut(Vec<T>)>(&self, mut handle: F) {
        while let Some(batch) = self.next_batch() {
            handle(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crossbeam::channel::unbounded;

    use super::*;

    #[test]
    fn backpressure_rejects_when_full() {
        let b: MicroBatcher<u32> = MicroBatcher::new(BatchConfig {
            capacity: 2,
            ..BatchConfig::default()
        });
        b.try_submit(1).unwrap();
        b.try_submit(2).unwrap();
        assert_eq!(b.try_submit(3), Err(QueueFull(3)));
        assert_eq!(b.len(), 2);
        let snap = b.metrics().snapshot();
        assert_eq!(snap.items_enqueued, 2);
        assert_eq!(snap.queue_rejections, 1);
        assert_eq!(snap.queue_depth_hwm, 2);
    }

    /// Bound on every handshake wait, so a batcher that lingers for a
    /// partner or never wakes fails the test instead of hanging it.
    const HANDSHAKE: Duration = Duration::from_secs(10);

    /// A consumer thread that calls `next_batch` once per step and
    /// reports the result. Between a result and its next step it is
    /// busy, so the test decides what is queued when it takes a batch.
    struct Consumer {
        step: Sender<()>,
        out: Receiver<Option<Vec<u32>>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Consumer {
        fn spawn(b: &Arc<MicroBatcher<u32>>) -> Self {
            let (step, steps) = unbounded();
            let (report, out) = unbounded();
            let b = Arc::clone(b);
            let thread = std::thread::spawn(move || {
                for () in &steps {
                    if report.send(b.next_batch()).is_err() {
                        break;
                    }
                }
            });
            Self { step, out, thread }
        }

        fn step(&self) {
            self.step.send(()).expect("consumer alive");
        }

        fn result(&self) -> Option<Vec<u32>> {
            self.out
                .recv_timeout(HANDSHAKE)
                .expect("next_batch returns within the handshake bound")
        }

        fn next(&self) -> Option<Vec<u32>> {
            self.step();
            self.result()
        }

        fn join(self) {
            drop(self.step);
            self.thread.join().expect("consumer thread");
        }
    }

    fn shared(batch_size: usize) -> Arc<MicroBatcher<u32>> {
        Arc::new(MicroBatcher::new(BatchConfig {
            batch_size,
            capacity: 64,
        }))
    }

    #[test]
    fn lone_item_is_returned_without_waiting_for_a_partner() {
        let b = shared(64);
        let c = Consumer::spawn(&b);
        c.step(); // the consumer blocks on the empty queue
        b.try_submit(1).unwrap();
        // The producer holds its second item until the first batch is
        // back: a batcher that waits for a partner times out here.
        assert_eq!(c.result(), Some(vec![1]));
        b.try_submit(2).unwrap();
        assert_eq!(c.next(), Some(vec![2]));
        c.join();
        assert_eq!(b.metrics().snapshot().batches_flushed, 2);
    }

    #[test]
    fn items_queued_while_busy_come_back_as_one_ordered_capped_batch() {
        let b = shared(4);
        let c = Consumer::spawn(&b);
        b.try_submit(0).unwrap();
        assert_eq!(c.next(), Some(vec![0]));
        // The consumer is busy with batch [0] until its next step.
        for i in 1..=6 {
            b.try_submit(i).unwrap();
        }
        assert_eq!(c.next(), Some(vec![1, 2, 3, 4]));
        assert_eq!(c.next(), Some(vec![5, 6]));
        c.join();
        let snap = b.metrics().snapshot();
        assert_eq!((snap.items_enqueued, snap.batches_flushed), (7, 3));
    }

    #[test]
    fn close_wakes_a_blocked_consumer_and_keeps_accepted_items() {
        let b = shared(4);
        let c = Consumer::spawn(&b);
        c.step(); // the consumer blocks on the empty queue
        b.close();
        assert_eq!(c.result(), None);
        c.join();

        // Items accepted before the close all come back, in order,
        // before `None`; later submits are refused.
        let b = shared(4);
        for i in 0..6 {
            b.try_submit(i).unwrap();
        }
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.try_submit(9), Err(QueueFull(9)));
        let c = Consumer::spawn(&b);
        assert_eq!(c.next(), Some(vec![0, 1, 2, 3]));
        assert_eq!(c.next(), Some(vec![4, 5]));
        assert_eq!(c.next(), None);
        c.join();
    }

    #[test]
    fn blocking_submit_waits_for_room() {
        let b = Arc::new(MicroBatcher::new(BatchConfig {
            batch_size: 1,
            capacity: 1,
        }));
        b.submit_blocking(0u32);
        let producer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                b.submit_blocking(1); // blocks until consumer drains
                b.close();
            })
        };
        let mut seen = Vec::new();
        b.run(|batch| seen.extend(batch));
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = MicroBatcher::<u32>::new(BatchConfig {
            batch_size: 0,
            ..BatchConfig::default()
        });
    }
}
