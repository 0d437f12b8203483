//! The measured serve figures behind `BENCH_serve.json`.
//!
//! Two workloads, both served over loopback TCP **while a [`Trainer`] on
//! another thread keeps feeding and publishing snapshots** (the train-while-
//! serve contract the engine's tests pin in-process):
//!
//! * **Large batches** on a scale-out map (512 neurons x 768 bits, where
//!   the winner search dominates the wire cost): closed-loop throughput over
//!   the socket versus the *same* workload driven in-process through a
//!   `Recognizer` in the same run, on the same machine, with the same
//!   concurrent trainer. The tracked ratio `serve_over_inprocess` is the
//!   whole front-end's overhead budget — frames, checksums, scheduler,
//!   thread hops.
//! * **Small requests** on the paper-default map: single-signature requests
//!   pipelined against (a) a scheduler pinned to batch-of-one dispatch and
//!   (b) the default micro-batching scheduler. The tracked ratio
//!   `speedup_microbatch_over_batch1` is what coalescing buys, and the p99
//!   recorded next to it shows the latency price.
//!
//! Latency percentiles ride along in the report for the open-loop `loadgen`
//! binary and CI to read, but only throughput figures are regression-gated:
//! percentile figures on a shared 1-CPU CI runner are too noisy to gate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bsom_engine::{EngineConfig, SomService, Trainer};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::loadgen::{self, ArrivalMode, LatencySummary, LoadgenConfig};
use crate::scheduler::SchedulerConfig;
use crate::server::{ServeConfig, Server};

/// Knobs for one serve-bench run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Measured window per leg. Clamped up to 300 ms: shorter windows are
    /// dominated by connection set-up and warm-up noise, and the figures
    /// are compared against full-run baselines.
    pub min_duration: Duration,
    /// Seed for corpora, arrivals and map initialisation.
    pub seed: u64,
}

/// One measured serving leg.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeLeg {
    /// Successful classify responses per second.
    pub requests_per_second: f64,
    /// Signatures per second (`requests_per_second * batch_size`).
    pub signatures_per_second: f64,
    /// Requests shed with a typed `Overloaded` response.
    pub overloaded: u64,
    /// Transport or server errors.
    pub errors: u64,
    /// Latency percentiles of the leg.
    pub latency: LatencySummary,
}

impl ServeLeg {
    fn from_report(report: &loadgen::LoadReport) -> ServeLeg {
        ServeLeg {
            requests_per_second: report.requests_per_second,
            signatures_per_second: report.signatures_per_second,
            overloaded: report.overloaded,
            errors: report.errors,
            latency: report.latency,
        }
    }
}

/// The large-batch comparison against in-process serving.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LargeBatchFigures {
    /// Neurons in the served map.
    pub neurons: usize,
    /// Bits per signature.
    pub vector_len: usize,
    /// Signatures per request.
    pub batch_size: usize,
    /// The same workload driven in-process (signatures/second), same run,
    /// same concurrent trainer.
    pub inprocess_signatures_per_second: f64,
    /// The workload over loopback TCP.
    pub serve: ServeLeg,
    /// `serve.signatures_per_second / inprocess_signatures_per_second` —
    /// the front-end's overhead budget (1.0 = free).
    pub serve_over_inprocess: f64,
}

/// The micro-batching comparison on single-signature requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmallMixFigures {
    /// Neurons in the served map.
    pub neurons: usize,
    /// Bits per signature.
    pub vector_len: usize,
    /// Pipelined single-signature requests per connection.
    pub in_flight_per_connection: usize,
    /// The batch-of-one control leg.
    pub batch1: ServeLeg,
    /// The default micro-batching leg.
    pub microbatch: ServeLeg,
    /// Mean signatures per dispatched batch on the micro-batching leg.
    pub mean_batch_signatures: f64,
    /// `microbatch.requests_per_second / batch1.requests_per_second`.
    pub speedup_microbatch_over_batch1: f64,
}

/// Everything `BENCH_serve.json` tracks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// The large-batch comparison.
    pub large: LargeBatchFigures,
    /// The small-request comparison.
    pub small: SmallMixFigures,
    /// Snapshot versions the concurrent trainer published across the legs —
    /// proof the service was actually training while being measured.
    pub trainer_published_versions: u64,
}

/// A synthetic labelled corpus: one random prototype per label, examples a
/// few bit-flips away — the same shape the engine's throughput comparisons
/// train on, without pulling the dataset crate into the serving stack.
pub fn synthetic_corpus(
    vector_len: usize,
    labels: usize,
    per_label: usize,
    flip_bits: usize,
    seed: u64,
) -> Vec<(BinaryVector, ObjectLabel)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let prototypes: Vec<BinaryVector> = (0..labels)
        .map(|_| BinaryVector::random(vector_len, &mut rng))
        .collect();
    let mut corpus = Vec::with_capacity(labels * per_label);
    for (index, prototype) in prototypes.iter().enumerate() {
        for _ in 0..per_label {
            let mut example = prototype.clone();
            for _ in 0..flip_bits {
                let bit = rng.gen_range(0..vector_len);
                example.set(bit, !example.bit(bit));
            }
            corpus.push((example, ObjectLabel::new(index)));
        }
    }
    corpus
}

/// A train-while-serve service over a fresh map, with its trainer.
pub fn bench_service(
    neurons: usize,
    vector_len: usize,
    seed: u64,
    corpus: &[(BinaryVector, ObjectLabel)],
) -> (Arc<SomService>, Trainer) {
    let som = BSom::new(
        BSomConfig::new(neurons, vector_len),
        &mut StdRng::seed_from_u64(seed),
    );
    let (service, trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(usize::MAX),
        corpus,
        EngineConfig::default().with_publish_every_steps(64),
    );
    (Arc::new(service), trainer)
}

/// Runs `trainer` on its own thread until the returned stop flag is set.
/// The loop throttles itself (a short sleep every 32 steps) so that on a
/// single-CPU host training contends with serving without starving it —
/// the published-version counter in the report proves it kept running.
fn spawn_trainer(
    mut trainer: Trainer,
    corpus: Vec<(BinaryVector, ObjectLabel)>,
) -> (Arc<AtomicBool>, thread::JoinHandle<Trainer>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::spawn(move || {
        let mut step = 0usize;
        'outer: loop {
            for (signature, label) in &corpus {
                if flag.load(Ordering::Relaxed) {
                    break 'outer;
                }
                // A wrong-length or poisoned feed would flatline the
                // published-version figure; ignore the per-step result.
                let _ = trainer.feed(signature, *label);
                step += 1;
                if step.is_multiple_of(32) {
                    thread::sleep(Duration::from_micros(100));
                }
            }
        }
        trainer
    });
    (stop, handle)
}

fn closed_loadgen(
    addr: SocketAddr,
    connections: usize,
    in_flight: usize,
    batch_size: usize,
    vector_len: usize,
    seed: u64,
    duration: Duration,
) -> loadgen::LoadReport {
    let config = LoadgenConfig {
        addr,
        connections,
        batch_size,
        vector_len,
        seed,
        mode: ArrivalMode::Closed { in_flight },
        duration,
        warmup: Duration::from_millis(100),
    };
    loadgen::run(&config)
        .unwrap_or_else(|error| panic!("loadgen against the bench server failed: {error}"))
}

/// Measures the full serve benchmark. Spawns real servers on loopback
/// (`127.0.0.1:0`) and real load generators; takes a few seconds.
pub fn measure_serve(config: &ServeBenchConfig) -> ServeBenchReport {
    let window = config.min_duration.max(Duration::from_millis(300));
    let seed = config.seed;

    // --- Large batches on the scale-out map -----------------------------
    let (neurons, vector_len, batch_size) = (512, 768, 150);
    let corpus = synthetic_corpus(vector_len, 8, 32, 24, seed);
    let (service, trainer) = bench_service(neurons, vector_len, seed, &corpus);
    let version_before = service.version();
    let (stop, trainer_thread) = spawn_trainer(trainer, corpus.clone());

    // In-process leg: the same batch shape through a Recognizer.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C);
    let probes: Vec<BinaryVector> = (0..batch_size)
        .map(|_| BinaryVector::random(vector_len, &mut rng))
        .collect();
    let mut recognizer = service.recognizer();
    let warmup_end = std::time::Instant::now() + Duration::from_millis(100);
    while std::time::Instant::now() < warmup_end {
        let _ = recognizer.classify_batch(&probes[..]);
    }
    let start = std::time::Instant::now();
    let mut inprocess_signatures = 0u64;
    while start.elapsed() < window {
        let predictions = recognizer.classify_batch(&probes[..]);
        inprocess_signatures += predictions.len() as u64;
    }
    let inprocess_signatures_per_second =
        inprocess_signatures as f64 / start.elapsed().as_secs_f64();

    // Serve leg: same shape over loopback.
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("binding the bench server on loopback");
    let report = closed_loadgen(
        server.local_addr(),
        2,
        4,
        batch_size,
        vector_len,
        seed,
        window,
    );
    let serve = ServeLeg::from_report(&report);
    server.drain();
    server.join();
    stop.store(true, Ordering::Relaxed);
    let _ = trainer_thread.join();
    let large_published = service.version() - version_before;
    let large = LargeBatchFigures {
        neurons,
        vector_len,
        batch_size,
        inprocess_signatures_per_second,
        serve_over_inprocess: serve.signatures_per_second
            / inprocess_signatures_per_second.max(1e-9),
        serve,
    };

    // --- Single-signature requests on the paper-default map --------------
    let (neurons, vector_len) = (40, 768);
    let in_flight = 16;
    let connections = 4;
    let corpus = synthetic_corpus(vector_len, 4, 32, 24, seed ^ 0x5E);
    let (service, trainer) = bench_service(neurons, vector_len, seed ^ 0x5E, &corpus);
    let version_before = service.version();
    let (stop, trainer_thread) = spawn_trainer(trainer, corpus);

    // Control: dispatch every request alone.
    let batch1_server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig {
            scheduler: SchedulerConfig::batch_of_one(),
            ..ServeConfig::default()
        },
        None,
    )
    .expect("binding the batch-of-one server");
    let report = closed_loadgen(
        batch1_server.local_addr(),
        connections,
        in_flight,
        1,
        vector_len,
        seed ^ 0xB1,
        window,
    );
    let batch1 = ServeLeg::from_report(&report);
    batch1_server.drain();
    batch1_server.join();

    // Work-conserving micro-batching, same offered pressure.
    let micro_server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("binding the micro-batching server");
    let report = closed_loadgen(
        micro_server.local_addr(),
        connections,
        in_flight,
        1,
        vector_len,
        seed ^ 0xB2,
        window,
    );
    let microbatch = ServeLeg::from_report(&report);
    let scheduler = micro_server.scheduler_snapshot();
    micro_server.drain();
    micro_server.join();
    stop.store(true, Ordering::Relaxed);
    let _ = trainer_thread.join();
    let small_published = service.version() - version_before;

    let mean_batch_signatures =
        scheduler.signatures_dispatched as f64 / (scheduler.batches_dispatched.max(1)) as f64;
    let small = SmallMixFigures {
        neurons,
        vector_len,
        in_flight_per_connection: in_flight,
        speedup_microbatch_over_batch1: microbatch.requests_per_second
            / batch1.requests_per_second.max(1e-9),
        batch1,
        microbatch,
        mean_batch_signatures,
    };

    ServeBenchReport {
        large,
        small,
        trainer_published_versions: large_published + small_published,
    }
}
