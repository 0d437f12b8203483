//! The `fleet` workload: a `MapRegistry` of a few hundred 40 x 768 tenants
//! with a residency cap well below the tenant count and a real spill
//! directory, behind `Server::bind_registry`, with a pump thread looping
//! `train_tick` as `bsom-serve --tenants` does. Each window sends a fixed
//! mix of tenant-addressed classify and train frames over a Zipf-skewed
//! tenant choice, first open loop on one connection, then closed loop on
//! two, so a hot head stays resident and the tail forces reloads and
//! evictions.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bsom_engine::{EngineConfig, MapRegistry, RegistryConfig};
use bsom_serve::wire::{self, WireMessage};
use bsom_serve::{ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{self, fleet as F};
use crate::gen::{self, Kind, OpenPlan, Request};
use crate::host;
use crate::layers;
use crate::serving::{self, Labelled};
use crate::trace::{SpanBuf, Trace, Tracer};
use crate::util::{median, schedstat, tag, this_task, LatencyStats, Outcome, Seeds};

fn tenant_name(rank: usize) -> String {
    format!("tenant-{rank}")
}

/// Cumulative Zipf weights over tenant ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// What the pump thread hands back when stopped.
#[derive(Debug)]
struct PumpRun {
    spans: SpanBuf,
    failures: u64,
    pending_max: u64,
    queue_depth_max: usize,
}

struct Pump {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<PumpRun>,
    /// The pump thread's entry under `/proc` (`self/task/<tid>`), once it
    /// has started; `None` where the platform has none.
    task: Arc<OnceLock<Option<String>>>,
}

impl Pump {
    fn spawn(registry: Arc<MapRegistry>, tracer: &Tracer, tracing: Arc<AtomicBool>) -> Pump {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut spans = tracer.buf();
        let task = Arc::new(OnceLock::new());
        let own_task = Arc::clone(&task);
        let handle = thread::spawn(move || {
            let _ = own_task.set(this_task());
            let mut run_failures = 0u64;
            let mut pending_max = 0u64;
            let mut queue_depth_max = 0usize;
            let mut ticks = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let traced = tracing.load(Ordering::Relaxed);
                let begin = Instant::now();
                let report = registry.train_tick(F::TICK_BUDGET);
                let end = Instant::now();
                run_failures += report.failures.len() as u64;
                ticks += 1;
                if traced {
                    spans.record("registry.tick", 0, report.steps, begin, end);
                    if ticks.is_multiple_of(8) {
                        pending_max = pending_max.max(registry.stats().pending_steps);
                        queue_depth_max = queue_depth_max.max(registry.health().queue_depth);
                    }
                }
                if report.steps == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            }
            PumpRun {
                spans,
                failures: run_failures,
                pending_max,
                queue_depth_max,
            }
        });
        Pump { stop, handle, task }
    }

    /// The pump thread's runnable time so far (on-CPU plus run-queue wait)
    /// from the kernel's schedstat clock.
    fn runnable(&self) -> Option<Duration> {
        let task = self.task.get()?.as_deref()?;
        schedstat(task).map(|(on_cpu, waiting)| on_cpu + waiting)
    }

    fn stop(self) -> PumpRun {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("pump thread panicked")
    }
}

struct System {
    registry: Arc<MapRegistry>,
    server: Server,
    pump: Pump,
    tracing: Arc<AtomicBool>,
    spill: PathBuf,
}

impl System {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

fn build(
    seeds: &Seeds,
    corpus: &Labelled,
    spill: &Path,
    first: &[u8],
    tracer: &Tracer,
) -> Result<System, String> {
    std::fs::create_dir_all(spill).map_err(|e| format!("spill dir: {e}"))?;
    let config =
        RegistryConfig::new(EngineConfig::default().with_publish_every_steps(F::PUBLISH_EVERY))
            .with_spill_dir(spill)
            .with_max_resident(F::MAX_RESIDENT);
    let registry = Arc::new(MapRegistry::new(config));
    // The least popular first: the residency cap spills the earliest
    // created, so the window starts with the hot head resident and the
    // tail spilled, as traffic leaves them.
    for rank in (0..F::TENANTS).rev() {
        let som = BSom::new(
            BSomConfig::new(F::NEURONS, serving::VECTOR_LEN),
            &mut StdRng::seed_from_u64(seeds.derive(tag::MAP, rank as u64)),
        );
        registry
            .create_tenant(
                tenant_name(rank),
                som,
                TrainSchedule::new(usize::MAX),
                corpus,
            )
            .map_err(|e| format!("create {}: {e}", tenant_name(rank)))?;
    }
    let server = Server::bind_registry(
        Arc::clone(&registry),
        tenant_name(0),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let tracing = Arc::new(AtomicBool::new(false));
    let pump = Pump::spawn(Arc::clone(&registry), tracer, Arc::clone(&tracing));
    let system = System {
        registry,
        server,
        pump,
        tracing,
        spill: spill.to_path_buf(),
    };
    match gen::request_each(system.addr(), &[first.to_vec()]) {
        Ok(r) if matches!(r[0], WireMessage::ClassifyResponse { .. }) => Ok(system),
        Ok(r) => Err(format!("first request answered {:?}", r[0])),
        Err(e) => Err(format!("first request failed: {e}")),
    }
}

/// Which tenants a run of frames addresses.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// Zipf-chosen among the `head` most popular tenants...
    head: usize,
    /// ...except frame `i` with `i % FRAME_CYCLE == TAIL_SLOT`, which goes
    /// to a tenant chosen uniformly from the spilled tail when set.
    tail: bool,
}

/// Frames repeat in cycles of five: slot 4 is a train frame, slot 2 (when
/// the mix has a tail) a classify frame for a tail tenant, the rest classify
/// frames for head tenants.
const FRAME_CYCLE: usize = 5;
const TRAIN_SLOT: usize = 4;
const TAIL_SLOT: usize = 2;

/// `count` frames of `mix`, from mix stream `stream`.
fn frames(
    seeds: &Seeds,
    corpus: &Labelled,
    probes: &[BinaryVector],
    mix: Mix,
    count: usize,
    stream: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seeds.derive(tag::MIX, stream));
    let cdf = zipf_cdf(mix.head, F::ZIPF_S);
    (0..count)
        .map(|i| {
            let rank = if mix.tail && i % FRAME_CYCLE == TAIL_SLOT {
                rng.gen_range(F::MAX_RESIDENT..F::TENANTS)
            } else {
                zipf_pick(&cdf, rng.gen())
            };
            let tenant = Some(tenant_name(rank));
            if i % FRAME_CYCLE == TRAIN_SLOT {
                let examples = (0..F::TRAIN_EXAMPLES)
                    .map(|_| {
                        let (signature, label) = &corpus[rng.gen_range(0..corpus.len())];
                        (signature.clone(), label.id() as u64)
                    })
                    .collect();
                Request {
                    frame: wire::encode_message(&WireMessage::TrainRequest { tenant, examples }),
                    kind: Kind::Train {
                        examples: F::TRAIN_EXAMPLES,
                    },
                }
            } else {
                let signatures = (0..F::CLASSIFY_SIGNATURES)
                    .map(|_| probes[rng.gen_range(0..probes.len())].clone())
                    .collect();
                Request {
                    frame: wire::encode_message(&WireMessage::ClassifyRequest {
                        tenant,
                        signatures,
                    }),
                    kind: Kind::Classify {
                        signatures: F::CLASSIFY_SIGNATURES,
                    },
                }
            }
        })
        .collect()
}

/// An open-loop schedule over `span`: Poisson arrivals at `F::RATE`, each
/// a fresh frame from [`frames`].
fn plan(
    seeds: &Seeds,
    corpus: &Labelled,
    probes: &[BinaryVector],
    span: Duration,
    stream: u64,
) -> OpenPlan {
    let offsets = gen::poisson_offsets(F::RATE, span, seeds.derive(tag::ARRIVALS, stream));
    let mix = Mix {
        head: F::MAX_RESIDENT,
        tail: true,
    };
    let pool = frames(seeds, corpus, probes, mix, offsets.len(), stream);
    OpenPlan {
        order: (0..pool.len() as u32).collect(),
        pool: Arc::new(pool),
        offsets,
    }
}

/// The inputs of one measured window: the open-loop schedule over every
/// tenant, then the closed-loop capacity phase's frames over the resident
/// head.
struct WindowPlan {
    open: OpenPlan,
    capacity: Vec<Request>,
    capacity_span: Duration,
}

fn window_plan(
    seeds: &Seeds,
    corpus: &Labelled,
    probes: &[BinaryVector],
    seconds: f64,
    stream: u64,
) -> WindowPlan {
    let open = Duration::from_secs_f64(seconds * F::OPEN_SHARE);
    WindowPlan {
        open: plan(seeds, corpus, probes, open, stream),
        capacity: frames(
            seeds,
            corpus,
            probes,
            Mix {
                head: F::CAPACITY_TENANTS,
                tail: false,
            },
            F::CAPACITY_FRAMES,
            stream + 100,
        ),
        capacity_span: Duration::from_secs_f64(seconds * (1.0 - F::OPEN_SHARE)),
    }
}

struct Window {
    classify: LatencyStats,
    train: LatencyStats,
    /// Closed-loop capacity phase.
    capacity_sps: f64,
    capacity_n: u64,
    late: Vec<Duration>,
    /// Wall time of the open-loop phase and the registry's reloads and
    /// evictions during it.
    open_wall: Duration,
    reloads: u64,
    evictions: u64,
    /// The whole attempt, and the pump's runnable time during it.
    span: (Instant, Instant),
    pump_runnable: Option<Duration>,
}

fn window(
    system: &System,
    plan: &WindowPlan,
    tracer: Option<&Tracer>,
    attempt: usize,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Window {
    let begin = Instant::now();
    let pump0 = system.pump.runnable();
    let before = system.registry.stats();
    let open = gen::run_open(system.addr(), &plan.open, tracer);
    let after = system.registry.stats();
    let capacity = gen::run_closed(
        system.addr(),
        &plan.capacity,
        F::CAPACITY_CONNECTIONS,
        F::CAPACITY_IN_FLIGHT,
        false,
        plan.capacity_span,
        tracer,
    );
    let pump_runnable = match (pump0, system.pump.runnable()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    let span = (begin, Instant::now());
    let label = if tracer.is_some() { "traced " } else { "" };
    out.note(open.ledger.line(&format!("{label}open #{attempt}")));
    out.note(capacity.ledger.line(&format!("{label}capacity #{attempt}")));
    out.ledger.add(&open.ledger);
    out.ledger.add(&capacity.ledger);
    let capacity_sps = capacity.signatures_per_s();
    for buf in open.spans.into_iter().chain(capacity.spans) {
        trace.absorb(buf);
    }
    Window {
        classify: LatencyStats::of(&open.classify),
        train: LatencyStats::of(&open.train),
        capacity_sps,
        capacity_n: capacity.ledger.ok,
        late: open.late,
        open_wall: open.elapsed,
        reloads: after.reloads_total - before.reloads_total,
        evictions: after.evictions_total - before.evictions_total,
        span,
        pump_runnable,
    }
}

pub fn run(seeds: &Seeds, seconds: f64, traced: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut trace = Trace::default();
    let corpus = serving::corpus(seeds, F::CORPUS_PER_LABEL);
    let probes = serving::probes(seeds, &corpus, 1024, 0);
    let check_probes = serving::probes(seeds, &corpus, 64, 1);
    let first = wire::encode_classify_request_for(Some(&tenant_name(0)), &probes[..1]);

    let mut times = Vec::new();
    let mut system = None;
    for rep in 0..config::SETUP_REPEATS {
        let spill = scratch.join(format!("fleet-spill-{rep}"));
        let begin = Instant::now();
        match build(seeds, &corpus, &spill, &first, &tracer) {
            Ok(s) => {
                times.push(begin.elapsed().as_secs_f64());
                if rep + 1 == config::SETUP_REPEATS {
                    system = Some(s);
                } else {
                    shut(s);
                }
            }
            Err(e) => {
                out.problem(format!("fleet set-up failed: {e}"));
                return out;
            }
        }
    }
    let system = system.expect("at least one set-up");
    let setup_s = median(&times);

    let warm = plan(
        seeds,
        &corpus,
        &probes,
        Duration::from_millis(config::WARMUP_MS),
        0,
    );
    let warm = gen::run_open(system.addr(), &warm, None);
    out.note(warm.ledger.line("warmup"));
    out.ledger.add(&warm.ledger);

    let timed_plan = window_plan(seeds, &corpus, &probes, seconds, 1);
    let gated =
        host::gated(|attempt| window(&system, &timed_plan, None, attempt, &mut out, &mut trace));
    out.note(gated.describe("timed"));
    out.e2e("peak_rss_mb", "MB", gated.first_peak_rss_mb);
    let timed = gated.value;
    let late_p99_ms = gen::check_lateness(&timed.late, &mut out);
    let open_s = timed.open_wall.as_secs_f64();
    let classify_frames = timed.classify.samples.max(1) as f64;
    out.note(format!(
        "registry: {:.1} reloads/s, {:.1} evictions/s in the open-loop phase ({:.1}% of classify frames found their tenant spilled)",
        timed.reloads as f64 / open_s,
        timed.evictions as f64 / open_s,
        100.0 * timed.reloads as f64 / classify_frames,
    ));
    out.note(format!(
        "classify_p50_ms = {:.4} ms, classify_p90_ms = {:.4} ms, classify_p99_ms = {:.4} ms ({}); train_ack_p99_ms = {:.4} ms ({}); {:.0} frames/s open loop, one in {FRAME_CYCLE} a train frame",
        timed.classify.p50_ms,
        timed.classify.p90_ms,
        timed.classify.p99_ms,
        timed.classify.describe(),
        timed.train.p99_ms,
        timed.train.describe(),
        F::RATE,
    ));
    out.note(format!(
        "capacity: {:.1} signatures/s (n={} frames answered, {} connections x {} pipelined frames)",
        timed.capacity_sps,
        timed.capacity_n,
        F::CAPACITY_CONNECTIONS,
        F::CAPACITY_IN_FLIGHT
    ));
    out.note(format!("gen.late_p99_ms = {late_p99_ms:.4} ms"));
    out.e2e("setup_s", "s", setup_s);
    out.e2e("p50_ms", "ms", timed.classify.p50_ms);
    out.e2e("p90_ms", "ms", timed.classify.p90_ms);
    out.e2e("signatures_per_s", "1/s", timed.capacity_sps);

    let mut traced_figures = None;
    if traced {
        let traced_plan = window_plan(seeds, &corpus, &probes, seconds, 2);
        system.tracing.store(true, Ordering::SeqCst);
        let w = host::gated(|attempt| {
            window(
                &system,
                &traced_plan,
                Some(&tracer),
                attempt,
                &mut out,
                &mut trace,
            )
        });
        system.tracing.store(false, Ordering::SeqCst);
        out.note(w.describe("traced"));
        let wire_frames: Vec<Vec<u8>> = traced_plan
            .open
            .pool
            .iter()
            .take(256)
            .map(|r| r.frame.clone())
            .collect();
        traced_figures = Some((w.value, wire_frames));
    }

    // Output check: stop training, then wire answers must equal the
    // registry's in-process answers for hot and cold tenants.
    let addr = system.addr();
    let run = system.pump.stop();
    trace.absorb_ref(&run.spans);
    if run.failures > 0 {
        out.problem(format!(
            "registry: {} tenant training failures",
            run.failures
        ));
    }
    let checked = [0, 1, F::TENANTS / 2, F::TENANTS - 1];
    for rank in checked {
        let id = tenant_name(rank);
        match system.registry.classify(id.as_str(), check_probes.clone()) {
            Ok(expected) => {
                for p in serving::check_wire_predictions(addr, Some(&id), &check_probes, &expected)
                {
                    out.problem(p);
                }
            }
            Err(e) => out.problem(format!("output check: registry classify {id}: {e}")),
        }
    }
    out.note(format!(
        "output check: {} probes x {} tenants over the wire vs MapRegistry::classify",
        check_probes.len(),
        checked.len()
    ));

    if let Some((w, wire_frames)) = traced_figures {
        // Ticks and the pump's clock over the kept traced attempt.
        let (begin, end) = w.span;
        let wall = (end - begin).as_secs_f64();
        let open_s = w.open_wall.as_secs_f64();
        out.layer("gen.late_p99_ms", "ms", late_p99_ms);
        out.layer("e2e.p99_ms", "ms", timed.classify.p99_ms);
        out.layer("e2e.train_ack_p99_ms", "ms", timed.train.p99_ms);
        out.layer(
            "trace.overhead_share",
            "share",
            (w.classify.p50_ms - timed.classify.p50_ms) / timed.classify.p50_ms,
        );
        out.note(format!(
            "tracing overhead: classify p50 {:.4} ms traced vs {:.4} ms untraced",
            w.classify.p50_ms, timed.classify.p50_ms
        ));
        layers::record_wire(&mut out, &wire_frames);
        out.layer(
            "service.queue_depth_max",
            "count",
            run.queue_depth_max as f64,
        );

        let kept_ticks: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "registry.tick" && s.start >= begin && s.start < end)
            .collect();
        let ticks: Vec<Duration> = kept_ticks.iter().map(|s| s.duration()).collect();
        let tick_stats = LatencyStats::of(&ticks);
        let busy: Duration = ticks.iter().sum();
        let busy_share = busy.as_secs_f64() / wall;
        let worked: Vec<f64> = kept_ticks
            .iter()
            .filter(|s| s.request > 0)
            .map(|s| s.request as f64)
            .collect();
        out.layer("registry.tick_p50_ms", "ms", tick_stats.p50_ms);
        out.layer("registry.tick_p99_ms", "ms", tick_stats.p99_ms);
        out.layer("registry.tick_busy_share", "share", busy_share);
        out.layer(
            "registry.steps_per_tick",
            "count",
            worked.iter().sum::<f64>() / worked.len().max(1) as f64,
        );
        out.layer("registry.reloads_per_s", "1/s", w.reloads as f64 / open_s);
        out.layer(
            "registry.evictions_per_s",
            "1/s",
            w.evictions as f64 / open_s,
        );
        out.layer("registry.pending_max", "count", run.pending_max as f64);
        // Reconciliation: tick_busy_share x wall (the tick spans) against
        // the pump thread's runnable time from the kernel's schedstat clock,
        // which the spans do not share. Ticks also block (fsync of evicted
        // tenants, waits for the registry lock), so the runnable time may
        // fall short of the busy time by up to the tolerance, and may never
        // exceed it by more.
        match w.pump_runnable {
            Some(runnable) => {
                let from_share = busy_share * wall;
                let runnable = runnable.as_secs_f64();
                let error = (from_share - runnable) / from_share.max(1e-9);
                out.note(format!(
                    "reconcile: tick_busy_share x wall = {from_share:.4} s vs pump runnable (schedstat on-CPU + run-queue) {runnable:.4} s: error {:.2}% (tolerance -{:.0}% .. +{:.0}%)",
                    error * 100.0,
                    TICK_OVER_TOLERANCE * 100.0,
                    TICK_BLOCKED_TOLERANCE * 100.0
                ));
                out.layer("reconcile.tick_busy_error_share", "share", error.abs());
                if !(-TICK_OVER_TOLERANCE..=TICK_BLOCKED_TOLERANCE).contains(&error) {
                    out.problem(format!(
                        "reconciliation failed: tick busy error {:.2}% outside -{:.0}% .. +{:.0}%",
                        error * 100.0,
                        TICK_OVER_TOLERANCE * 100.0,
                        TICK_BLOCKED_TOLERANCE * 100.0
                    ));
                }
            }
            None => {
                out.note("reconcile: no schedstat clock on this platform; tick busy not reconciled")
            }
        }

        let hot = tenant_name(0);
        let sample: Vec<BinaryVector> = probes[..F::CLASSIFY_SIGNATURES].to_vec();
        out.layer(
            "registry.classify_hot_us",
            "us",
            layers::median_us(301, 1, || {
                let r = system.registry.classify(hot.as_str(), sample.clone());
                std::hint::black_box(r.is_ok());
            }),
        );
        let (signature, label) = &corpus[0];
        out.layer(
            "registry.feed_us",
            "us",
            layers::median_us(301, 1, || {
                let r = system.registry.feed(hot.as_str(), signature, *label);
                std::hint::black_box(r.is_ok());
            }),
        );
        let cold = tenant_name(F::TENANTS / 3);
        let mut evict_ms = Vec::new();
        let mut reload_ms = Vec::new();
        for _ in 0..20 {
            let _ = system.registry.reload(cold.as_str());
            let t = Instant::now();
            let evicted = system.registry.evict(cold.as_str());
            evict_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let reloaded = system.registry.reload(cold.as_str());
            reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if evicted.is_err() || reloaded.is_err() {
                out.problem("registry: evict/reload round trip failed");
                break;
            }
        }
        out.layer("checkpoint.evict_ms", "ms", median(&evict_ms));
        out.layer("checkpoint.reload_ms", "ms", median(&reload_ms));
        out.layer(
            "checkpoint.frame_bytes",
            "B",
            spill_frame_bytes(&system.spill),
        );

        if let (Ok(snapshot), Ok(som)) = (
            system.registry.snapshot(hot.as_str()),
            system.registry.tenant_som(hot.as_str()),
        ) {
            layers::record_som(
                &mut out,
                snapshot.layer(),
                &probes,
                F::CLASSIFY_SIGNATURES,
                &som,
                &corpus,
            );
        }
        crate::write_trace(&tracer, &trace, "fleet", &mut out);
    }
    let System {
        registry,
        server,
        spill,
        ..
    } = system;
    drop(server);
    drop(registry);
    let _ = std::fs::remove_dir_all(spill);
    out
}

/// How far the pump's runnable time may fall short of the tick busy time
/// (time blocked inside ticks: the fsync of every eviction, waits for the
/// registry lock), and exceed it (time runnable outside ticks: the loop
/// itself and its idle naps).
const TICK_BLOCKED_TOLERANCE: f64 = 0.5;
const TICK_OVER_TOLERANCE: f64 = 0.05;

fn shut(system: System) {
    let _ = system.pump.stop();
    drop(system.server);
    drop(system.registry);
    let _ = std::fs::remove_dir_all(&system.spill);
}

fn spill_frame_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .ok()
        .and_then(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .find(|&len| len > 0)
        })
        .unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_is_hot_and_tail_reachable() {
        let cdf = zipf_cdf(300, 1.1);
        assert!((cdf[299] - 1.0).abs() < 1e-12);
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, 1.0), 299);
        let mut rng = StdRng::seed_from_u64(3);
        let picks: Vec<usize> = (0..20_000).map(|_| zipf_pick(&cdf, rng.gen())).collect();
        let head = picks.iter().filter(|&&k| k < 64).count() as f64 / picks.len() as f64;
        let tail = picks.iter().filter(|&&k| k >= 64).count();
        assert!(head > 0.6, "head share {head}");
        assert!(tail > 1000, "tail picks {tail}");
    }
}
