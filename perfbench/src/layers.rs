//! Per-layer timings taken by calling a layer's public entry points
//! directly on the workload's own inputs, after the traced window.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bsom_engine::{EngineError, Recognizer};
use bsom_serve::scheduler::{BatchClassify, ClassifyJob, MicroBatcher, SchedulerConfig};
use bsom_serve::wire;
use bsom_signature::BinaryVector;
use bsom_som::{BSom, ObjectLabel, PackedLayer, Prediction, SelfOrganizingMap, TrainSchedule};

use crate::util::{median, Outcome};

/// Median wall time of `f` in µs, timing `inner` calls per sample so that
/// sub-microsecond operations are resolved.
pub fn median_us(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        times.push(start.elapsed().as_secs_f64() * 1e6 / inner as f64);
    }
    median(&times)
}

/// Wire codec cost per request frame: `(encode_us, decode_us, mean bytes)`.
fn wire_costs(frames: &[Vec<u8>]) -> (f64, f64, f64) {
    let frames: Vec<&Vec<u8>> = frames.iter().take(256).collect();
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let messages: Vec<wire::WireMessage> = frames
        .iter()
        .map(|f| wire::decode_message(f).expect("benchmark frames decode").0)
        .collect();
    let bytes = frames.iter().map(|f| f.len() as f64).sum::<f64>() / frames.len() as f64;
    let mut i = 0;
    let encode = median_us(frames.len().max(64), 4, || {
        let out = wire::encode_message(&messages[i % messages.len()]);
        std::hint::black_box(out);
        i += 1;
    });
    let mut j = 0;
    let decode = median_us(frames.len().max(64), 4, || {
        let out = wire::decode_message(frames[j % frames.len()]);
        std::hint::black_box(out.is_ok());
        j += 1;
    });
    (encode, decode, bytes)
}

/// A `BatchClassify` wrapper that records when each batch reached the
/// engine, its size, and how long the engine took.
struct TimingClassify {
    inner: Recognizer,
    log: Arc<Mutex<Vec<(Instant, usize, Duration)>>>,
}

impl BatchClassify for TimingClassify {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        let start = Instant::now();
        let n = signatures.len();
        let out = self.inner.try_classify_batch(signatures);
        let spent = start.elapsed();
        self.log
            .lock()
            .expect("timing log lock poisoned")
            .push((start, n, spent));
        out
    }
}

/// Scheduler figures from replaying the workload's requests through a
/// private [`MicroBatcher`] with the server's default configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulerReplay {
    /// Median time from submit until the job's batch reached the engine.
    pub wait_p50_us: f64,
    /// Median engine time per dispatched batch.
    pub classify_batch_us: f64,
    pub batch_sigs_mean: f64,
}

/// Replays `jobs` at their offsets (open loop) or `in_flight` at a time
/// (closed loop, when `closed` is set).
pub fn scheduler_replay(
    recognizer: Recognizer,
    jobs: &[(Duration, Vec<BinaryVector>)],
    closed: Option<usize>,
) -> SchedulerReplay {
    let log = Arc::new(Mutex::new(Vec::new()));
    let batcher = MicroBatcher::new(
        TimingClassify {
            inner: recognizer,
            log: Arc::clone(&log),
        },
        SchedulerConfig::default(),
    );
    let mut submitted: Vec<(Instant, usize)> = Vec::with_capacity(jobs.len());
    let mut replies = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    match closed {
        None => {
            for (offset, signatures) in jobs {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (tx, rx) = mpsc::channel();
                submitted.push((Instant::now(), signatures.len()));
                if batcher
                    .submit(ClassifyJob {
                        signatures: signatures.clone(),
                        reply: tx,
                    })
                    .is_ok()
                {
                    replies.push(rx);
                }
            }
            for rx in replies {
                let _ = rx.recv();
            }
        }
        Some(in_flight) => {
            for chunk in jobs.chunks(in_flight.max(1)) {
                let mut waiting = Vec::new();
                for (_, signatures) in chunk {
                    let (tx, rx) = mpsc::channel();
                    submitted.push((Instant::now(), signatures.len()));
                    if batcher
                        .submit(ClassifyJob {
                            signatures: signatures.clone(),
                            reply: tx,
                        })
                        .is_ok()
                    {
                        waiting.push(rx);
                    }
                }
                for rx in waiting {
                    let _ = rx.recv();
                }
            }
        }
    }
    drop(batcher);
    let log = log.lock().expect("timing log lock poisoned").clone();
    // Jobs reach the engine in FIFO order: walk the batches, consuming jobs
    // by signature count.
    let mut waits = Vec::with_capacity(submitted.len());
    let mut job = 0;
    for (dispatched, n, _) in &log {
        let mut left = *n;
        while left > 0 && job < submitted.len() {
            let (at, size) = submitted[job];
            waits.push(dispatched.saturating_duration_since(at).as_secs_f64() * 1e6);
            left = left.saturating_sub(size);
            job += 1;
        }
    }
    let times: Vec<f64> = log.iter().map(|(_, _, d)| d.as_secs_f64() * 1e6).collect();
    let sizes: Vec<f64> = log.iter().map(|(_, n, _)| *n as f64).collect();
    SchedulerReplay {
        wait_p50_us: median(&waits),
        classify_batch_us: median(&times),
        batch_sigs_mean: if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<f64>() / sizes.len() as f64
        },
    }
}

/// `(winner_us, winners_per_sig_us)` on `layer` for `probes`, the batch
/// call at `batch` signatures.
fn som_search(layer: &PackedLayer, probes: &[BinaryVector], batch: usize) -> (f64, f64) {
    let mut i = 0;
    let winner = median_us(201, 8, || {
        let w = layer.winner(&probes[i % probes.len()]);
        std::hint::black_box(w.is_ok());
        i += 1;
    });
    let batch = batch.clamp(1, probes.len());
    let chunk: Vec<BinaryVector> = probes[..batch].to_vec();
    let reps = (4096 / batch).clamp(1, 64);
    let winners = median_us(41, reps, || {
        let w = layer.winners(&chunk);
        std::hint::black_box(w.is_ok());
    }) / batch as f64;
    (winner, winners)
}

/// Median µs of one `train_step` on a copy of `som`, cycling `data`.
fn train_step_us(som: &BSom, data: &[(BinaryVector, ObjectLabel)]) -> f64 {
    let mut som = som.clone();
    let schedule = TrainSchedule::new(usize::MAX);
    let mut i = 0;
    median_us(401, 4, || {
        let w = som.train_step(&data[i % data.len()].0, 1, &schedule);
        std::hint::black_box(w.is_ok());
        i += 1;
    })
}

/// Nanoseconds per call of the word kernel that accumulates one input
/// word's masked Hamming contribution across a whole neuron row.
fn hamming_row_ns(layer: &PackedLayer, probe: &BinaryVector) -> f64 {
    let rows = layer.word_row_count();
    let mut distances = vec![0u32; layer.neuron_count()];
    let words = probe.as_words().to_vec();
    let mut w = 0;
    median_us(201, 64, || {
        let row = w % rows;
        bsom_signature::accumulate_masked_hamming_row(
            layer.value_row(row),
            layer.care_row(row),
            words[row],
            &mut distances,
        );
        w += 1;
    }) * 1e3
}

/// Records the wire codec figures for `frames`.
pub fn record_wire(out: &mut Outcome, frames: &[Vec<u8>]) {
    let (encode, decode, bytes) = wire_costs(frames);
    out.layer("wire.encode_us", "us", encode);
    out.layer("wire.decode_us", "us", decode);
    out.layer("wire.request_bytes", "B", bytes);
}

/// Records the `som` and `signature` figures: winner search on `layer` for
/// `probes` (batch call at `batch`), one training step of `som` on `data`,
/// and the word kernel on `layer`'s rows.
pub fn record_som(
    out: &mut Outcome,
    layer: &PackedLayer,
    probes: &[BinaryVector],
    batch: usize,
    som: &BSom,
    data: &[(BinaryVector, ObjectLabel)],
) {
    let (winner, winners) = som_search(layer, probes, batch);
    out.layer("som.winner_us", "us", winner);
    out.layer("som.winners_per_sig_us", "us", winners);
    out.layer("som.train_step_us", "us", train_step_us(som, data));
    out.layer(
        "signature.hamming_row_ns",
        "ns",
        hamming_row_ns(layer, &probes[0]),
    );
}
