//! The work-conserving micro-batching scheduler.
//!
//! Small classify requests are cheap to compute and expensive to dispatch:
//! every batch pays one worker-pool round trip regardless of size. The
//! scheduler amortizes that fixed cost without ever waiting for it: a
//! request that finds the engine idle is dispatched at once, the way the
//! paper's FPGA comparator starts on a pattern as soon as it arrives, and
//! requests that arrive while a batch runs coalesce into the **next**
//! `classify_batch` call.
//!
//! The loop (documented in DESIGN.md §"The serving front-end"):
//!
//! 1. Block on the pending queue for the first request.
//! 2. Sweep whatever else is already queued, stopping at
//!    [`SchedulerConfig::max_batch_signatures`] or at a drain sentinel.
//!    The sweep never waits for more arrivals.
//! 3. Dispatch the batch through one [`Recognizer::try_classify_batch`];
//!    per-request spans of the result vector are sent back in request
//!    order, bit-identical to what each request would have received alone
//!    (the winner search is deterministic and the whole batch sees one
//!    snapshot). Repeat.
//!
//! Admission control is two-staged, and both stages surface as a typed
//! `Overloaded` wire response: the scheduler's own bounded pending queue
//! sheds at [`MicroBatcher::submit`], and the engine's bounded job queue
//! sheds whole batches through [`EngineError::Overloaded`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

use bsom_engine::{EngineError, Recognizer};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

/// Tuning knobs of the micro-batching scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Largest batch, in signatures, one dispatch sweeps together.
    pub max_batch_signatures: usize,
    /// Bounded pending-queue capacity (in requests); submits beyond it shed.
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_signatures: 256,
            queue_capacity: 1024,
        }
    }
}

impl SchedulerConfig {
    /// A scheduler that never coalesces: every request dispatches alone.
    /// The control leg the `BENCH_serve.json` micro-batching speedup is
    /// measured against.
    pub fn batch_of_one() -> Self {
        SchedulerConfig {
            max_batch_signatures: 1,
            ..SchedulerConfig::default()
        }
    }
}

/// What a classify request gets back from the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// One prediction per submitted signature, in order.
    Predictions(Vec<Prediction>),
    /// The engine's job queue shed the coalesced batch this request rode in.
    Overloaded {
        /// Queue depth when the batch was shed.
        queue_depth: u64,
        /// Queue capacity of the shedding stage.
        queue_capacity: u64,
    },
    /// The dispatch failed outright (e.g. the worker pool shut down).
    Failed(String),
}

/// One queued classify request.
#[derive(Debug)]
pub struct ClassifyJob {
    /// The signatures to classify.
    pub signatures: Vec<BinaryVector>,
    /// Where the reply goes. Send failures are ignored: a caller that hung
    /// up just stops caring about its verdicts.
    pub reply: mpsc::Sender<BatchReply>,
}

/// The classify sink a scheduler dispatches into. `Recognizer` is the
/// production implementation; tests substitute deterministic mocks.
pub trait BatchClassify: Send + 'static {
    /// Classifies one coalesced batch, shedding with
    /// [`EngineError::Overloaded`] when saturated.
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError>;
}

impl BatchClassify for Recognizer {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        self.try_classify_batch(signatures)
    }
}

/// Monotonic counters and gauges of one scheduler, all lock-free.
#[derive(Debug, Default)]
struct StatsInner {
    pending: AtomicUsize,
    submitted: AtomicU64,
    requests_dispatched: AtomicU64,
    batches_dispatched: AtomicU64,
    requests_coalesced: AtomicU64,
    signatures_dispatched: AtomicU64,
    requests_shed: AtomicU64,
}

/// A point-in-time copy of the scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Requests waiting in the pending queue right now.
    pub pending: usize,
    /// Capacity of the pending queue.
    pub queue_capacity: usize,
    /// Requests ever accepted by [`MicroBatcher::submit`].
    pub submitted: u64,
    /// Requests dispatched (replied to) so far.
    pub requests_dispatched: u64,
    /// Coalesced batches dispatched so far.
    pub batches_dispatched: u64,
    /// Requests that shared their batch with at least one other request.
    pub requests_coalesced: u64,
    /// Signatures that went through a successful dispatch.
    pub signatures_dispatched: u64,
    /// Requests shed — at admission or by the engine queue.
    pub requests_shed: u64,
    /// Always 0: the scheduler never delays a dispatch. The field stays so
    /// code that reads it keeps compiling.
    pub delay_micros: u64,
}

enum Control {
    Job(ClassifyJob),
    Drain(mpsc::Sender<()>),
}

/// Handle to a running micro-batching scheduler thread.
///
/// Dropping the handle shuts the scheduler down after it flushes whatever is
/// already queued.
#[derive(Debug)]
pub struct MicroBatcher {
    tx: SyncSender<Control>,
    stats: Arc<StatsInner>,
    queue_capacity: usize,
    thread: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the scheduler thread around `classifier`.
    pub fn new<C: BatchClassify>(classifier: C, config: SchedulerConfig) -> Self {
        let max_batch_signatures = config.max_batch_signatures.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(queue_capacity);
        let stats = Arc::new(StatsInner::default());
        let loop_stats = Arc::clone(&stats);
        let thread = Builder::new()
            .name("bsom-serve-scheduler".to_string())
            .spawn(move || run_scheduler(classifier, rx, loop_stats, max_batch_signatures))
            .expect("spawning the scheduler thread");
        MicroBatcher {
            tx,
            stats,
            queue_capacity,
            thread: Some(thread),
        }
    }

    /// Submits a request for batching. `Err` hands the job back when the
    /// bounded pending queue is full — the admission-control shed the caller
    /// turns into a typed `Overloaded` wire response.
    pub fn submit(&self, job: ClassifyJob) -> Result<(), ClassifyJob> {
        // Count the job before it becomes visible: a scheduler parked in
        // `recv` may take it, and decrement, before `try_send` returns.
        self.stats.pending.fetch_add(1, Ordering::SeqCst);
        match self.tx.try_send(Control::Job(job)) {
            Ok(()) => {
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(Control::Job(job)))
            | Err(TrySendError::Disconnected(Control::Job(job))) => {
                self.stats.pending.fetch_sub(1, Ordering::SeqCst);
                self.stats.requests_shed.fetch_add(1, Ordering::Relaxed);
                Err(job)
            }
            // Only `Control::Job` values are ever handed to this method.
            Err(_) => unreachable!("submit only sends jobs"),
        }
    }

    /// Flushes every request accepted before this call and returns how many
    /// were dispatched by the flush. Blocks until the scheduler has replied
    /// to all of them.
    pub fn drain(&self) -> u64 {
        let before = self.stats.requests_dispatched.load(Ordering::SeqCst);
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Control::Drain(ack_tx)).is_err() {
            return 0;
        }
        // A lost ack means the scheduler exited mid-drain; the counter diff
        // still reports what was flushed.
        let _ = ack_rx.recv();
        self.stats
            .requests_dispatched
            .load(Ordering::SeqCst)
            .saturating_sub(before)
    }

    /// The current counters.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            // Submitters count a job just before offering it to the full
            // queue that rejects it, so the raw gauge can briefly overshoot.
            pending: self
                .stats
                .pending
                .load(Ordering::SeqCst)
                .min(self.queue_capacity),
            queue_capacity: self.queue_capacity,
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            requests_dispatched: self.stats.requests_dispatched.load(Ordering::SeqCst),
            batches_dispatched: self.stats.batches_dispatched.load(Ordering::Relaxed),
            requests_coalesced: self.stats.requests_coalesced.load(Ordering::Relaxed),
            signatures_dispatched: self.stats.signatures_dispatched.load(Ordering::Relaxed),
            requests_shed: self.stats.requests_shed.load(Ordering::Relaxed),
            delay_micros: 0,
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        // Close the queue; the scheduler flushes what it already holds and
        // exits.
        let (closed_tx, _) = mpsc::sync_channel(1);
        let _ = std::mem::replace(&mut self.tx, closed_tx);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn dispatch<C: BatchClassify>(classifier: &mut C, jobs: Vec<ClassifyJob>, stats: &StatsInner) {
    let total: usize = jobs.iter().map(|j| j.signatures.len()).sum();
    let mut combined = Vec::with_capacity(total);
    let mut spans = Vec::with_capacity(jobs.len());
    for job in &jobs {
        spans.push((combined.len(), job.signatures.len()));
        combined.extend_from_slice(&job.signatures);
    }
    let outcome = classifier.try_classify(combined);
    stats.batches_dispatched.fetch_add(1, Ordering::Relaxed);
    if jobs.len() > 1 {
        stats
            .requests_coalesced
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    }
    match outcome {
        Ok(predictions) => {
            stats
                .signatures_dispatched
                .fetch_add(total as u64, Ordering::Relaxed);
            for (job, (start, len)) in jobs.iter().zip(&spans) {
                let slice = predictions[*start..*start + *len].to_vec();
                let _ = job.reply.send(BatchReply::Predictions(slice));
            }
        }
        Err(EngineError::Overloaded {
            queue_capacity,
            queue_depth,
        }) => {
            // The whole coalesced batch is shed: partial admission would
            // reorder requests relative to their wire responses.
            stats
                .requests_shed
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            for job in &jobs {
                let _ = job.reply.send(BatchReply::Overloaded {
                    queue_depth: queue_depth as u64,
                    queue_capacity: queue_capacity as u64,
                });
            }
        }
        Err(error) => {
            let message = error.to_string();
            for job in &jobs {
                let _ = job.reply.send(BatchReply::Failed(message.clone()));
            }
        }
    }
    stats
        .requests_dispatched
        .fetch_add(jobs.len() as u64, Ordering::SeqCst);
}

fn run_scheduler<C: BatchClassify>(
    mut classifier: C,
    rx: Receiver<Control>,
    stats: Arc<StatsInner>,
    max_batch_signatures: usize,
) {
    while let Ok(control) = rx.recv() {
        let first = match control {
            Control::Job(job) => job,
            // Nothing pending ahead of the sentinel: ack and idle on.
            Control::Drain(ack) => {
                let _ = ack.send(());
                continue;
            }
        };
        stats.pending.fetch_sub(1, Ordering::SeqCst);
        let mut total = first.signatures.len();
        let mut jobs = vec![first];
        let mut drain_ack = None;
        // Sweep what is already queued; never wait for more. A closed and
        // empty queue ends the sweep too, and the next `recv` ends the loop.
        while total < max_batch_signatures {
            match rx.try_recv() {
                Ok(Control::Job(job)) => {
                    stats.pending.fetch_sub(1, Ordering::SeqCst);
                    total += job.signatures.len();
                    jobs.push(job);
                }
                Ok(Control::Drain(ack)) => {
                    drain_ack = Some(ack);
                    break;
                }
                Err(_) => break,
            }
        }
        dispatch(&mut classifier, jobs, &stats);
        if let Some(ack) = drain_ack {
            let _ = ack.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Answers every signature `Unknown` at once.
    struct Unknowns;

    impl BatchClassify for Unknowns {
        fn try_classify(
            &mut self,
            signatures: Vec<BinaryVector>,
        ) -> Result<Vec<Prediction>, EngineError> {
            Ok(vec![Prediction::Unknown; signatures.len()])
        }
    }

    #[test]
    fn pending_gauge_never_exceeds_the_queue_capacity() {
        let batcher = Arc::new(MicroBatcher::new(
            Unknowns,
            SchedulerConfig {
                queue_capacity: 4,
                ..SchedulerConfig::default()
            },
        ));
        let done = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (batcher, done) = (Arc::clone(&batcher), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut worst = 0;
                while !done.load(Ordering::Relaxed) {
                    worst = worst.max(batcher.snapshot().pending);
                }
                worst
            })
        };
        // Lone jobs: each waits for its reply, so the scheduler is parked in
        // `recv` whenever the next one is offered.
        for _ in 0..20_000 {
            let (reply, answer) = mpsc::channel();
            let job = ClassifyJob {
                signatures: vec![BinaryVector::zeros(8)],
                reply,
            };
            assert!(batcher.submit(job).is_ok());
            assert!(matches!(answer.recv(), Ok(BatchReply::Predictions(_))));
        }
        done.store(true, Ordering::Relaxed);
        let worst = sampler.join().expect("sampler thread");
        assert!(worst <= 4, "pending gauge read {worst} against capacity 4");
        assert_eq!(batcher.snapshot().pending, 0);
    }
}
