//! Fault injection against the serving front-end (requires `--features
//! fault-injection`).
//!
//! The contract under test is the drain promise from DESIGN.md: once a
//! request is **accepted**, a graceful drain delivers its complete,
//! bit-identical response — even when an engine worker panics in the middle
//! of the drain's in-flight flush, and even though the supervisor is
//! respawning the worker while the flush runs.
//!
//! The failpoint registry is process-global, so every test takes
//! [`harness`] — the same serialize-and-reset idiom as `bsom-engine`'s
//! `fault_injection` suite. CI runs this binary with `--test-threads=1`.

#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bsom_engine::faultpoint::{arm_panic, arm_sleep, hit_count, reset};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::wire::WireMessage;
use bsom_serve::{SchedulerConfig, ServeClient, ServeConfig, Server};
use bsom_som::Prediction;

const VECTOR_LEN: usize = 256;

/// Serializes the suite around the process-global failpoint registry and
/// guarantees a clean registry on both entry and exit (even when the test
/// body panics: the reset runs in `Drop`).
fn harness() -> HarnessGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    HarnessGuard { _guard: guard }
}

struct HarnessGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for HarnessGuard {
    fn drop(&mut self) {
        reset();
    }
}

#[test]
fn worker_panic_mid_drain_still_flushes_accepted_requests_bit_identically() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, _trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let snapshot = service.snapshot();
    let expected: Vec<Prediction> = corpus
        .iter()
        .map(|(v, _)| service.classify_pinned(&snapshot, std::slice::from_ref(v))[0])
        .collect();

    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");

    // Park the engine on the first request, so every later request waits
    // in the scheduler queue and the drain's flush — not normal dispatch —
    // is what answers them.
    let parked = hit_count("worker.job");
    arm_sleep("worker.job", parked, Duration::from_secs(2));
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    let mut signatures = corpus.iter().map(|(signature, _)| signature);
    send.send_classify(std::slice::from_ref(
        signatures.next().expect("a first signature"),
    ))
    .expect("send");
    while hit_count("worker.job") == parked {
        std::thread::sleep(Duration::from_millis(5));
    }
    for signature in signatures {
        send.send_classify(std::slice::from_ref(signature))
            .expect("pipelined send");
    }
    // Let the reader thread admit everything into the scheduler before the
    // drain flips the accepting flag (`submitted` counts admissions).
    while (server.scheduler_snapshot().submitted as usize) < corpus.len() {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Arm the engine worker to panic on its next job: with every later
    // request queued behind the parked one, that next job IS the drain's
    // in-flight flush — the panic lands mid-drain.
    arm_panic("worker.job", hit_count("worker.job"));
    let summary = server.drain();
    assert_eq!(
        hit_count("service.drain"),
        1,
        "the drain window failpoint marks exactly one drain"
    );
    assert_eq!(summary.requests_flushed as usize, corpus.len());

    // Every accepted request gets its full response, bit-identical to the
    // pinned in-process answers — the worker panic was contained.
    let mut answers = Vec::new();
    for _ in 0..corpus.len() {
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { predictions } => {
                assert_eq!(predictions.len(), 1);
                answers.push(predictions[0]);
            }
            other => panic!("expected classify response, got {other:?}"),
        }
    }
    assert_eq!(answers, expected);

    // The supervisor records the panic and respawns the worker on its own
    // thread; give it a bounded moment to notice.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let health = loop {
        let health = server.health();
        if (health.worker_panics == 1 && health.worker_respawns == 1)
            || std::time::Instant::now() >= deadline
        {
            break health;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(health.worker_panics, 1, "the injected panic is on record");
    assert_eq!(health.worker_respawns, 1);
    assert_eq!(health.workers_alive, health.workers_configured);
    assert!(health.draining);
    server.join();
}

#[test]
fn engine_saturation_surfaces_as_wire_overload_then_recovers() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, _trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    // Batch-of-one keeps the scheduler transparent: each request becomes
    // one engine job, so parking the engine worker via the worker.job
    // failpoint saturates the *engine's* bounded queue and the typed
    // Overloaded shed must travel all the way back out over the wire.
    let server = Server::bind(
        service,
        "127.0.0.1:0",
        ServeConfig {
            scheduler: SchedulerConfig {
                queue_capacity: 8,
                ..SchedulerConfig::batch_of_one()
            },
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");

    let base = hit_count("worker.job");
    arm_sleep("worker.job", base, Duration::from_millis(400));
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    let burst = 64usize;
    for (signature, _) in corpus.iter().cycle().take(burst) {
        send.send_classify(std::slice::from_ref(signature))
            .expect("burst send");
    }
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..burst {
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { .. } => ok += 1,
            WireMessage::OverloadedResponse { queue_capacity, .. } => {
                assert!(queue_capacity > 0);
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, burst);
    assert!(
        overloaded > 0,
        "a parked worker behind a 64-request burst must shed something"
    );

    // Load subsided and the sleep expired: the service answers again.
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    let recovered = client
        .classify(std::slice::from_ref(&corpus[0].0))
        .expect("post-overload classify succeeds");
    assert_eq!(recovered.len(), 1);
    assert_eq!(hit_count("service.drain"), 0);
    server.join();
}
