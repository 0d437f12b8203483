//! Inputs and server-side helpers shared by the served workloads: the
//! labelled corpus, probe signatures, classify frames, and the fixed-rate
//! trainer thread that mirrors `bsom-serve`'s own training loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bsom_engine::{SomService, Trainer};
use bsom_serve::bench::synthetic_corpus;
use bsom_serve::wire;
use bsom_signature::BinaryVector;
use bsom_som::{ObjectLabel, Prediction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{Kind, Request};
use crate::trace::{SpanBuf, Tracer};
use crate::util::{tag, Seeds};

/// Bits per signature (the paper's 768-bit colour-histogram signature).
pub const VECTOR_LEN: usize = 768;
/// Labels in the synthetic corpus.
pub const LABELS: usize = 8;
/// Bits flipped between a prototype and each example or probe.
pub const FLIP_BITS: usize = 24;

pub type Labelled = Vec<(BinaryVector, ObjectLabel)>;

/// A labelled corpus drawn from the run's corpus stream.
pub fn corpus(seeds: &Seeds, per_label: usize) -> Labelled {
    synthetic_corpus(
        VECTOR_LEN,
        LABELS,
        per_label,
        FLIP_BITS,
        seeds.derive(tag::CORPUS, 0),
    )
}

/// `count` probe signatures: corpus examples with further bit flips, drawn
/// from the run's probe stream `stream`.
pub fn probes(seeds: &Seeds, corpus: &Labelled, count: usize, stream: u64) -> Vec<BinaryVector> {
    let mut rng = StdRng::seed_from_u64(seeds.derive(tag::PROBES, stream));
    (0..count)
        .map(|_| {
            let mut probe = corpus[rng.gen_range(0..corpus.len())].0.clone();
            for _ in 0..FLIP_BITS {
                let bit = rng.gen_range(0..VECTOR_LEN);
                probe.set(bit, !probe.bit(bit));
            }
            probe
        })
        .collect()
}

/// Single-map classify frames of `batch` signatures each, cycling `probes`.
pub fn classify_frames(probes: &[BinaryVector], batch: usize, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let signatures: Vec<BinaryVector> = (0..batch)
                .map(|j| probes[(i * batch + j) % probes.len()].clone())
                .collect();
            Request {
                frame: wire::encode_classify_request(&signatures),
                kind: Kind::Classify { signatures: batch },
            }
        })
        .collect()
}

/// Classifies `probes` over the wire in requests of mixed sizes and
/// compares every prediction with `expected` (what the in-process path
/// answered on the same snapshot). Returns the problems found.
pub fn check_wire_predictions(
    addr: std::net::SocketAddr,
    tenant: Option<&str>,
    probes: &[BinaryVector],
    expected: &[Prediction],
) -> Vec<String> {
    let sizes = [1usize, 7, 64, 150];
    let mut frames = Vec::new();
    let mut at = 0;
    let mut k = 0;
    while at < probes.len() {
        let n = sizes[k % sizes.len()].min(probes.len() - at);
        frames.push(wire::encode_classify_request_for(
            tenant,
            &probes[at..at + n],
        ));
        at += n;
        k += 1;
    }
    let responses = match crate::gen::request_each(addr, &frames) {
        Ok(responses) => responses,
        Err(error) => return vec![format!("output check: wire classify failed: {error}")],
    };
    let mut got = Vec::with_capacity(probes.len());
    for response in responses {
        match response {
            wire::WireMessage::ClassifyResponse { predictions } => got.extend(predictions),
            other => return vec![format!("output check: unexpected response {other:?}")],
        }
    }
    if got.len() != expected.len() {
        return vec![format!(
            "output check: {} predictions over the wire, {} in process",
            got.len(),
            expected.len()
        )];
    }
    let mismatches = got.iter().zip(expected).filter(|(a, b)| a != b).count();
    if mismatches > 0 {
        vec![format!(
            "output check: {mismatches} of {} wire predictions differ from the in-process answer{}",
            expected.len(),
            tenant.map(|t| format!(" for {t}")).unwrap_or_default()
        )]
    } else {
        Vec::new()
    }
}

/// What the trainer thread hands back when stopped.
#[derive(Debug)]
pub struct TrainerRun {
    pub trainer: Trainer,
    pub feeds: u64,
    pub feed_errors: u64,
    /// Largest engine queue depth seen while tracing.
    pub queue_depth_max: usize,
    pub spans: SpanBuf,
}

/// A trainer thread feeding the corpus at a fixed rate, publishing on the
/// service's step cadence.
#[derive(Debug)]
pub struct FixedRateTrainer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<TrainerRun>,
}

impl FixedRateTrainer {
    /// Starts feeding `corpus` (cycled) at `rate` steps per second. Spans
    /// and queue-depth samples are recorded while `tracing` is set.
    pub fn spawn(
        mut trainer: Trainer,
        service: Arc<SomService>,
        corpus: Arc<Labelled>,
        rate: f64,
        tracer: &Tracer,
        tracing: Arc<AtomicBool>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut spans = tracer.buf();
        let handle = thread::spawn(move || {
            let interval = Duration::from_secs_f64(1.0 / rate);
            let mut next = Instant::now();
            let mut feeds = 0u64;
            let mut feed_errors = 0u64;
            let mut queue_depth_max = 0usize;
            let mut i = 0usize;
            while !flag.load(Ordering::Relaxed) {
                let now = Instant::now();
                if next > now {
                    thread::sleep(next - now);
                } else if now - next > Duration::from_millis(50) {
                    // Fell far behind (descheduled): keep the rate, drop
                    // the backlog instead of bursting.
                    next = now;
                }
                next += interval;
                let (signature, label) = &corpus[i % corpus.len()];
                i += 1;
                let traced = tracing.load(Ordering::Relaxed);
                let version = trainer_version(&service, traced);
                let begin = Instant::now();
                if trainer.try_feed(signature, *label).is_err() {
                    feed_errors += 1;
                }
                let end = Instant::now();
                feeds += 1;
                if traced {
                    let published = service.version() != version;
                    let name = if published {
                        "trainer.feed_publish"
                    } else {
                        "trainer.feed"
                    };
                    spans.record(name, 0, 0, begin, end);
                    if feeds.is_multiple_of(8) {
                        queue_depth_max = queue_depth_max.max(service.queue_pressure().0);
                    }
                }
            }
            TrainerRun {
                trainer,
                feeds,
                feed_errors,
                queue_depth_max,
                spans,
            }
        });
        FixedRateTrainer { stop, handle }
    }

    /// Stops the loop and returns the trainer with its counters.
    pub fn stop(self) -> TrainerRun {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("trainer thread panicked")
    }
}

fn trainer_version(service: &SomService, traced: bool) -> u64 {
    if traced {
        service.version()
    } else {
        0
    }
}
