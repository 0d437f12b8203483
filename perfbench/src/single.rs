//! The two single-map workloads, both served by `Server::bind` while a
//! fixed-rate trainer publishes new snapshots:
//!
//! * `stream` — single-signature requests to the paper's 40 x 768 map in
//!   three phases: sparse and busy open-loop Poisson, then closed-loop
//!   capacity;
//! * `bulk` — closed-loop 150-signature requests to a 1024 x 768 map that
//!   set-up restores from a checkpoint.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bsom_engine::{EngineConfig, SomService, Trainer};
use bsom_serve::scheduler::SchedulerSnapshot;
use bsom_serve::{ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{self, bulk as B, stream as S};
use crate::gen::{self, OpenPlan, Request};
use crate::host;
use crate::layers;
use crate::serving::{self, FixedRateTrainer, Labelled, TrainerRun};
use crate::trace::{Trace, Tracer};
use crate::util::{median, tag, LatencyStats, Outcome, Seeds};

/// A running single-map server with its trainer.
struct System {
    service: Arc<SomService>,
    server: Server,
    trainer: FixedRateTrainer,
    tracing: Arc<AtomicBool>,
}

impl System {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops training and serving; returns the trainer.
    fn shut(self) -> (Arc<SomService>, Server, TrainerRun) {
        let run = self.trainer.stop();
        (self.service, self.server, run)
    }
}

/// Binds the server, starts the trainer and waits for the first answer to
/// `first`.
fn start(
    service: SomService,
    trainer: Trainer,
    corpus: &Arc<Labelled>,
    rate: f64,
    first: &[u8],
    tracer: &Tracer,
) -> Result<System, String> {
    let service = Arc::new(service);
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let tracing = Arc::new(AtomicBool::new(false));
    let trainer = FixedRateTrainer::spawn(
        trainer,
        Arc::clone(&service),
        Arc::clone(corpus),
        rate,
        tracer,
        Arc::clone(&tracing),
    );
    let system = System {
        service,
        server,
        trainer,
        tracing,
    };
    match gen::request_each(system.addr(), &[first.to_vec()]) {
        Ok(responses)
            if matches!(
                responses[0],
                bsom_serve::WireMessage::ClassifyResponse { .. }
            ) =>
        {
            Ok(system)
        }
        Ok(responses) => Err(format!("first request answered {:?}", responses[0])),
        Err(e) => Err(format!("first request failed: {e}")),
    }
}

/// Sets up `SETUP_REPEATS` times, keeps the last system, and returns the
/// median set-up time.
fn setup_repeated(
    mut build: impl FnMut(&mut Trace) -> Result<System, String>,
    trace: &mut Trace,
) -> Result<(System, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..config::SETUP_REPEATS {
        let begin = Instant::now();
        let system = build(trace)?;
        times.push(begin.elapsed().as_secs_f64());
        if rep + 1 == config::SETUP_REPEATS {
            kept = Some(system);
        } else {
            let (_service, server, _run) = system.shut();
            drop(server);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Open-loop plan over a frame pool.
fn open_plan(pool: &Arc<Vec<Request>>, rate: f64, span: Duration, seed: u64) -> OpenPlan {
    let offsets = gen::poisson_offsets(rate, span, seed);
    let start = (seed % pool.len() as u64) as usize;
    let order = (0..offsets.len())
        .map(|i| ((start + i) % pool.len()) as u32)
        .collect();
    OpenPlan {
        pool: Arc::clone(pool),
        order,
        offsets,
    }
}

/// Scheduler counters and published versions around one window attempt.
struct Counted {
    before: SchedulerSnapshot,
    after: SchedulerSnapshot,
    versions: u64,
}

/// Runs `window`, reading the counters before and after it.
fn counted<T>(system: &System, window: impl FnOnce() -> T) -> (T, Counted) {
    let before = system.server.scheduler_snapshot();
    let v0 = system.service.version();
    let value = window();
    let counted = Counted {
        before,
        after: system.server.scheduler_snapshot(),
        versions: system.service.version() - v0,
    };
    (value, counted)
}

fn scheduler_delta(before: &SchedulerSnapshot, after: &SchedulerSnapshot, out: &mut Outcome) {
    let batches = after.batches_dispatched - before.batches_dispatched;
    let dispatched = after.requests_dispatched - before.requests_dispatched;
    let signatures = after.signatures_dispatched - before.signatures_dispatched;
    let coalesced = after.requests_coalesced - before.requests_coalesced;
    out.layer(
        "scheduler.batch_sigs_mean",
        "count",
        signatures as f64 / batches.max(1) as f64,
    );
    out.layer(
        "scheduler.coalesced_share",
        "share",
        coalesced as f64 / dispatched.max(1) as f64,
    );
    out.layer("scheduler.delay_us", "us", after.delay_micros as f64);
    out.layer(
        "scheduler.shed",
        "count",
        (after.requests_shed - before.requests_shed) as f64,
    );
}

/// Trainer figures from the traced window's spans.
fn trainer_layers(trace: &Trace, versions: u64, run: &TrainerRun, out: &mut Outcome) {
    let to_us = |v: Vec<Duration>| -> f64 {
        median(&v.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>())
    };
    let feed = to_us(trace.durations("trainer.feed"));
    let with_publish = to_us(trace.durations("trainer.feed_publish"));
    out.layer("trainer.feed_us", "us", feed);
    out.layer("trainer.publish_us", "us", (with_publish - feed).max(0.0));
    out.layer("trainer.versions", "count", versions as f64);
    out.layer(
        "service.queue_depth_max",
        "count",
        run.queue_depth_max as f64,
    );
}

/// Checks, after training stopped, that the wire answers equal the
/// in-process answers on the same snapshot.
fn output_check(
    service: &SomService,
    addr: SocketAddr,
    probes: &[BinaryVector],
    out: &mut Outcome,
) {
    let version = service.version();
    let expected = service.recognizer().classify_batch(probes.to_vec());
    for problem in serving::check_wire_predictions(addr, None, probes, &expected) {
        out.problem(problem);
    }
    if service.version() != version {
        out.problem("output check: snapshot moved after training stopped");
    }
    out.note(format!(
        "output check: {} probes over the wire vs in-process Recognizer on snapshot v{version}",
        probes.len()
    ));
}

// ---------------------------------------------------------------- stream

struct StreamWindow {
    sparse: LatencyStats,
    busy: LatencyStats,
    capacity_rps: f64,
    capacity_n: u64,
    /// The open-loop sender's lag behind its schedule.
    late: Vec<Duration>,
}

/// The three measured phases, one attempt of a window; `arrivals` seeds
/// the sparse and busy schedules.
#[allow(clippy::too_many_arguments)]
fn stream_window(
    system: &System,
    pool: &Arc<Vec<Request>>,
    arrivals: [u64; 2],
    seconds: f64,
    tracer: Option<&Tracer>,
    attempt: usize,
    out: &mut Outcome,
    trace: &mut Trace,
) -> StreamWindow {
    let span = |share: f64| Duration::from_secs_f64(seconds * share);
    let addr = system.addr();
    let sparse_plan = open_plan(pool, S::SPARSE_RATE, span(S::PHASE_SHARES[0]), arrivals[0]);
    let busy_plan = open_plan(pool, S::BUSY_RATE, span(S::PHASE_SHARES[1]), arrivals[1]);
    let sparse = gen::run_open(addr, &sparse_plan, tracer);
    let busy = gen::run_open(addr, &busy_plan, tracer);
    let capacity = gen::run_closed(
        addr,
        pool,
        S::CAPACITY_CONNECTIONS,
        S::CAPACITY_IN_FLIGHT,
        false,
        span(S::PHASE_SHARES[2]),
        tracer,
    );
    let label = if tracer.is_some() { "traced " } else { "" };
    out.note(sparse.ledger.line(&format!("{label}sparse #{attempt}")));
    out.note(busy.ledger.line(&format!("{label}busy #{attempt}")));
    out.note(capacity.ledger.line(&format!("{label}capacity #{attempt}")));
    for ledger in [&sparse.ledger, &busy.ledger, &capacity.ledger] {
        out.ledger.add(ledger);
    }
    let mut late = sparse.late.clone();
    late.extend_from_slice(&busy.late);
    let capacity_rps = capacity.signatures_per_s();
    for buf in sparse
        .spans
        .into_iter()
        .chain(busy.spans)
        .chain(capacity.spans)
    {
        trace.absorb(buf);
    }
    StreamWindow {
        sparse: LatencyStats::of(&sparse.classify),
        busy: LatencyStats::of(&busy.classify),
        capacity_rps,
        capacity_n: capacity.ledger.ok,
        late,
    }
}

pub fn run_stream(seeds: &Seeds, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut trace = Trace::default();
    let corpus = Arc::new(serving::corpus(seeds, S::CORPUS_PER_LABEL));
    let traffic = serving::probes(seeds, &corpus, S::FRAME_POOL, 0);
    let check_probes = serving::probes(seeds, &corpus, 256, 1);
    let pool = Arc::new(serving::classify_frames(&traffic, 1, S::FRAME_POOL));
    let map_seed = seeds.derive(tag::MAP, 0);

    let build = |_: &mut Trace| {
        let som = BSom::new(
            BSomConfig::new(S::NEURONS, serving::VECTOR_LEN),
            &mut StdRng::seed_from_u64(map_seed),
        );
        let (service, trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(usize::MAX),
            &corpus,
            EngineConfig::default().with_publish_every_steps(S::PUBLISH_EVERY),
        );
        start(
            service,
            trainer,
            &corpus,
            S::TRAIN_RATE,
            &pool[0].frame,
            &tracer,
        )
    };
    let (system, setup_s) = match setup_repeated(build, &mut trace) {
        Ok(pair) => pair,
        Err(e) => {
            out.problem(format!("stream set-up failed: {e}"));
            return out;
        }
    };

    let warm = open_plan(
        &pool,
        S::BUSY_RATE,
        Duration::from_millis(config::WARMUP_MS),
        seeds.derive(tag::ARRIVALS, 0),
    );
    let warm = gen::run_open(system.addr(), &warm, None);
    out.note(warm.ledger.line("warmup"));
    out.ledger.add(&warm.ledger);

    let arrivals = |window: u64| {
        [
            seeds.derive(tag::ARRIVALS, 10 * window + 1),
            seeds.derive(tag::ARRIVALS, 10 * window + 2),
        ]
    };
    let gated = host::gated(|attempt| {
        stream_window(
            &system,
            &pool,
            arrivals(1),
            seconds,
            None,
            attempt,
            &mut out,
            &mut trace,
        )
    });
    out.note(gated.describe("timed"));
    out.e2e("peak_rss_mb", "MB", gated.first_peak_rss_mb);
    let timed = gated.value;
    let late_p99_ms = gen::check_lateness(&timed.late, &mut out);
    out.note(format!(
        "sparse_p50_ms = {:.4} ms, sparse_p90_ms = {:.4} ms, sparse_p99_ms = {:.4} ms ({}; {:.0} req/s open loop)",
        timed.sparse.p50_ms,
        timed.sparse.p90_ms,
        timed.sparse.p99_ms,
        timed.sparse.describe(),
        S::SPARSE_RATE
    ));
    out.note(format!(
        "busy_p50_ms = {:.4} ms, busy_p90_ms = {:.4} ms, busy_p99_ms = {:.4} ms ({}; {:.0} req/s open loop)",
        timed.busy.p50_ms,
        timed.busy.p90_ms,
        timed.busy.p99_ms,
        timed.busy.describe(),
        S::BUSY_RATE
    ));
    out.note(format!(
        "capacity_rps = {:.1} 1/s (n={} answered, {} connections x {} pipelined singletons)",
        timed.capacity_rps,
        timed.capacity_n,
        S::CAPACITY_CONNECTIONS,
        S::CAPACITY_IN_FLIGHT
    ));
    out.note(format!("gen.late_p99_ms = {late_p99_ms:.4} ms"));
    out.e2e("setup_s", "s", setup_s);
    out.e2e("p50_ms", "ms", timed.busy.p50_ms);
    out.e2e("p90_ms", "ms", timed.busy.p90_ms);
    out.e2e("signatures_per_s", "1/s", timed.capacity_rps);

    let mut traced_figures = None;
    if traced {
        system.tracing.store(true, Ordering::SeqCst);
        let w = host::gated(|attempt| {
            counted(&system, || {
                stream_window(
                    &system,
                    &pool,
                    arrivals(2),
                    seconds,
                    Some(&tracer),
                    attempt,
                    &mut out,
                    &mut trace,
                )
            })
        });
        system.tracing.store(false, Ordering::SeqCst);
        out.note(w.describe("traced"));
        let (w, counts) = w.value;
        scheduler_delta(&counts.before, &counts.after, &mut out);
        traced_figures = Some((w, counts.versions));
    }

    let addr = system.addr();
    let (service, server, run) = system.shut();
    trace.absorb_ref(&run.spans);
    output_check(&service, addr, &check_probes, &mut out);
    if run.feed_errors > 0 {
        out.problem(format!("trainer: {} feeds failed", run.feed_errors));
    }
    out.note(format!(
        "trainer: {} feeds at a fixed {} steps/s",
        run.feeds,
        S::TRAIN_RATE
    ));

    if let Some((w, versions)) = traced_figures {
        out.layer("gen.late_p99_ms", "ms", late_p99_ms);
        out.layer("e2e.sparse_p50_ms", "ms", timed.sparse.p50_ms);
        out.layer("e2e.sparse_p99_ms", "ms", timed.sparse.p99_ms);
        out.layer("e2e.p99_ms", "ms", timed.busy.p99_ms);
        out.layer(
            "trace.overhead_share",
            "share",
            (w.busy.p50_ms - timed.busy.p50_ms) / timed.busy.p50_ms,
        );
        out.note(format!(
            "tracing overhead: busy p50 {:.4} ms traced vs {:.4} ms untraced",
            w.busy.p50_ms, timed.busy.p50_ms
        ));
        trainer_layers(&trace, versions, &run, &mut out);
        let frames: Vec<Vec<u8>> = pool.iter().map(|r| r.frame.clone()).collect();
        layers::record_wire(&mut out, &frames);
        let replay_offsets = gen::poisson_offsets(
            S::BUSY_RATE,
            Duration::from_secs(1),
            seeds.derive(tag::ARRIVALS, 99),
        );
        let jobs: Vec<(Duration, Vec<BinaryVector>)> = replay_offsets
            .iter()
            .enumerate()
            .map(|(i, at)| (*at, vec![traffic[i % traffic.len()].clone()]))
            .collect();
        let replay = layers::scheduler_replay(service.recognizer(), &jobs, None);
        out.layer("scheduler.wait_p50_us", "us", replay.wait_p50_us);
        out.layer("service.classify_batch_us", "us", replay.classify_batch_us);
        let batch = replay.batch_sigs_mean.round().max(1.0) as usize;
        layers::record_som(
            &mut out,
            service.snapshot().layer(),
            &traffic,
            batch,
            run.trainer.som(),
            &corpus,
        );
        crate::write_trace(&tracer, &trace, "stream", &mut out);
    }
    drop(server);
    out
}

// ------------------------------------------------------------------ bulk

struct BulkWindow {
    latency: LatencyStats,
    signatures_per_s: f64,
}

fn bulk_window(
    system: &System,
    pool: &[Request],
    seconds: f64,
    tracer: Option<&Tracer>,
    attempt: usize,
    out: &mut Outcome,
    trace: &mut Trace,
) -> BulkWindow {
    let result = gen::run_closed(
        system.addr(),
        pool,
        B::CONNECTIONS,
        B::IN_FLIGHT,
        true,
        Duration::from_secs_f64(seconds),
        tracer,
    );
    let label = if tracer.is_some() {
        "traced bulk"
    } else {
        "bulk"
    };
    out.note(result.ledger.line(&format!("{label} #{attempt}")));
    out.ledger.add(&result.ledger);
    let signatures_per_s = result.signatures_per_s();
    for buf in result.spans {
        trace.absorb(buf);
    }
    BulkWindow {
        latency: LatencyStats::of(&result.latencies),
        signatures_per_s,
    }
}

/// Writes the bulk workload's checkpoint: a 1024 x 768 map after a few
/// hundred training steps, as a server that ran for a while leaves it.
fn write_bulk_checkpoint(seeds: &Seeds, corpus: &Labelled, path: &Path) -> Result<u64, String> {
    let som = BSom::new(
        BSomConfig::new(B::NEURONS, serving::VECTOR_LEN),
        &mut StdRng::seed_from_u64(seeds.derive(tag::MAP, 0)),
    );
    let (_service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(usize::MAX),
        corpus,
        EngineConfig::default().with_publish_every_steps(B::PUBLISH_EVERY),
    );
    for (signature, label) in corpus.iter().cycle().take(B::PRETRAIN_STEPS) {
        trainer
            .feed(signature, *label)
            .map_err(|e| format!("pre-training failed: {e}"))?;
    }
    trainer
        .write_checkpoint(path)
        .map(|info| info.bytes)
        .map_err(|e| format!("checkpoint write failed: {e}"))
}

pub fn run_bulk(seeds: &Seeds, seconds: f64, traced: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut trace = Trace::default();
    let corpus = Arc::new(serving::corpus(seeds, B::CORPUS_PER_LABEL));
    let traffic = serving::probes(seeds, &corpus, B::BATCH * 8, 0);
    let check_probes = serving::probes(seeds, &corpus, 256, 1);
    let pool = Arc::new(serving::classify_frames(&traffic, B::BATCH, B::FRAME_POOL));
    let checkpoint = scratch.join("bulk.bsomckpt");
    let frame_bytes = match write_bulk_checkpoint(seeds, &corpus, &checkpoint) {
        Ok(bytes) => bytes,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };

    let mut restore_ms = Vec::new();
    let build = |trace: &mut Trace| {
        let mut spans = tracer.buf();
        let begin = Instant::now();
        let restored = SomService::resume_from_checkpoint(&checkpoint)
            .map_err(|e| format!("resume failed: {e}"))?;
        let end = Instant::now();
        spans.record("checkpoint.restore", 0, 0, begin, end);
        trace.absorb(spans);
        restore_ms.push((end - begin).as_secs_f64() * 1e3);
        let (service, trainer) = restored;
        start(
            service,
            trainer,
            &corpus,
            B::TRAIN_RATE,
            &pool[0].frame,
            &tracer,
        )
    };
    let (system, setup_s) = match setup_repeated(build, &mut trace) {
        Ok(pair) => pair,
        Err(e) => {
            out.problem(format!("bulk set-up failed: {e}"));
            return out;
        }
    };

    let warm = gen::run_closed(
        system.addr(),
        &pool,
        B::CONNECTIONS,
        B::IN_FLIGHT,
        true,
        Duration::from_millis(config::WARMUP_MS),
        None,
    );
    out.note(warm.ledger.line("warmup"));
    out.ledger.add(&warm.ledger);

    let gated = host::gated(|attempt| {
        bulk_window(&system, &pool, seconds, None, attempt, &mut out, &mut trace)
    });
    out.note(gated.describe("timed"));
    out.e2e("peak_rss_mb", "MB", gated.first_peak_rss_mb);
    let timed = gated.value;
    out.note(format!(
        "classify_p50_ms = {:.4} ms, classify_p90_ms = {:.4} ms, classify_p99_ms = {:.4} ms ({}; {} connections x {} in flight, {} signatures each)",
        timed.latency.p50_ms, timed.latency.p90_ms, timed.latency.p99_ms, timed.latency.describe(), B::CONNECTIONS, B::IN_FLIGHT, B::BATCH
    ));
    out.note(format!(
        "signatures_per_s = {:.1} 1/s",
        timed.signatures_per_s
    ));
    out.e2e("setup_s", "s", setup_s);
    out.e2e("p50_ms", "ms", timed.latency.p50_ms);
    out.e2e("p90_ms", "ms", timed.latency.p90_ms);
    out.e2e("signatures_per_s", "1/s", timed.signatures_per_s);

    let mut traced_figures = None;
    if traced {
        system.tracing.store(true, Ordering::SeqCst);
        let w = host::gated(|attempt| {
            counted(&system, || {
                bulk_window(
                    &system,
                    &pool,
                    seconds,
                    Some(&tracer),
                    attempt,
                    &mut out,
                    &mut trace,
                )
            })
        });
        system.tracing.store(false, Ordering::SeqCst);
        out.note(w.describe("traced"));
        let (w, counts) = w.value;
        scheduler_delta(&counts.before, &counts.after, &mut out);
        traced_figures = Some((w, counts.versions));
    }

    let addr = system.addr();
    let (service, server, run) = system.shut();
    trace.absorb_ref(&run.spans);
    output_check(&service, addr, &check_probes, &mut out);
    if run.feed_errors > 0 {
        out.problem(format!("trainer: {} feeds failed", run.feed_errors));
    }
    out.note(format!(
        "trainer: {} feeds at a fixed {} steps/s",
        run.feeds,
        B::TRAIN_RATE
    ));

    if let Some((w, versions)) = traced_figures {
        out.layer("e2e.p99_ms", "ms", timed.latency.p99_ms);
        out.layer(
            "trace.overhead_share",
            "share",
            (w.latency.p50_ms - timed.latency.p50_ms) / timed.latency.p50_ms,
        );
        out.note(format!(
            "tracing overhead: classify p50 {:.4} ms traced vs {:.4} ms untraced",
            w.latency.p50_ms, timed.latency.p50_ms
        ));
        trainer_layers(&trace, versions, &run, &mut out);
        let frames: Vec<Vec<u8>> = pool.iter().map(|r| r.frame.clone()).collect();
        layers::record_wire(&mut out, &frames);
        let jobs: Vec<(Duration, Vec<BinaryVector>)> = (0..400)
            .map(|i| {
                let at = (i * B::BATCH) % traffic.len();
                (Duration::ZERO, traffic[at..at + B::BATCH].to_vec())
            })
            .collect();
        let replay = layers::scheduler_replay(
            service.recognizer(),
            &jobs,
            Some(B::CONNECTIONS * B::IN_FLIGHT),
        );
        out.layer("scheduler.wait_p50_us", "us", replay.wait_p50_us);
        out.layer("service.classify_batch_us", "us", replay.classify_batch_us);
        layers::record_som(
            &mut out,
            service.snapshot().layer(),
            &traffic,
            B::BATCH,
            run.trainer.som(),
            &corpus,
        );
        out.layer("checkpoint.restore_ms", "ms", median(&restore_ms));
        out.layer("checkpoint.frame_bytes", "B", frame_bytes as f64);
        crate::write_trace(&tracer, &trace, "bulk", &mut out);
    }
    drop(server);
    let _ = std::fs::remove_file(&checkpoint);
    out
}
