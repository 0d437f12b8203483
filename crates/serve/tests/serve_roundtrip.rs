//! End-to-end behaviour of the serving front-end: wire answers are
//! bit-identical to in-process answers, small requests queued behind a
//! running batch coalesce into the next engine batch, overload is a typed
//! response (and the service recovers), and drain/health behave as
//! documented.

use std::sync::mpsc;
use std::time::Duration;

use bsom_engine::{EngineError, Recognizer};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::scheduler::{BatchClassify, ClassifyJob, MicroBatcher};
use bsom_serve::wire::{self, ErrorCode, WireMessage};
use bsom_serve::{BatchReply, SchedulerConfig, ServeClient, ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

const VECTOR_LEN: usize = 256;

/// A served map whose snapshot stays frozen for the test (the trainer is
/// held alive but never fed), so wire answers can be compared bit-for-bit
/// against a direct `classify_batch`.
fn frozen_server(
    scheduler: SchedulerConfig,
) -> (Server, bsom_engine::Recognizer, bsom_engine::Trainer) {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let recognizer = service.recognizer();
    let server = Server::bind(
        service,
        "127.0.0.1:0",
        ServeConfig {
            scheduler,
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");
    (server, recognizer, trainer)
}

fn probes(count: usize, seed: u64) -> Vec<BinaryVector> {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, count.div_ceil(4), 30, seed);
    corpus.into_iter().map(|(v, _)| v).take(count).collect()
}

#[test]
fn wire_classification_matches_in_process_bit_for_bit() {
    let (server, mut recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let signatures = probes(40, 11);
    let direct = recognizer.classify_batch(signatures.clone());

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let over_wire = client
        .classify(&signatures)
        .expect("classify over the wire");
    assert_eq!(over_wire, direct);

    // Distances survive the f64-bit round trip exactly, not approximately.
    assert!(over_wire
        .iter()
        .any(|p| matches!(p, Prediction::Known { .. })));
    server.join();
}

/// A `Recognizer` the test can hold busy: every dispatch reports its batch
/// size on `batches`, then blocks until the gate lets it through, so the
/// scheduler queue can be filled deterministically behind it.
struct GatedRecognizer {
    recognizer: Recognizer,
    gate: mpsc::Receiver<()>,
    batches: mpsc::Sender<usize>,
}

impl BatchClassify for GatedRecognizer {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        let _ = self.batches.send(signatures.len());
        let _ = self.gate.recv();
        self.recognizer.try_classify_batch(signatures)
    }
}

/// A scheduler over a frozen map behind a [`GatedRecognizer`]. Returns the
/// batcher, the gate, the dispatched batch sizes, an ungated recognizer of
/// the same map, and the trainer that keeps the map alive.
fn gated_batcher(
    scheduler: SchedulerConfig,
) -> (
    MicroBatcher,
    mpsc::Sender<()>,
    mpsc::Receiver<usize>,
    Recognizer,
    bsom_engine::Trainer,
) {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let (gate_tx, gate) = mpsc::channel();
    let (batches, batches_rx) = mpsc::channel();
    let gated = GatedRecognizer {
        recognizer: service.recognizer(),
        gate,
        batches,
    };
    let batcher = MicroBatcher::new(gated, scheduler);
    (batcher, gate_tx, batches_rx, service.recognizer(), trainer)
}

fn submit_singleton(
    batcher: &MicroBatcher,
    signature: &BinaryVector,
) -> mpsc::Receiver<BatchReply> {
    let (reply, answer) = mpsc::channel();
    let job = ClassifyJob {
        signatures: vec![signature.clone()],
        reply,
    };
    assert!(batcher.submit(job).is_ok(), "the queue has room");
    answer
}

#[test]
fn pipelined_singletons_coalesce_into_one_engine_batch() {
    // The scheduler never waits for company: the first singleton finds the
    // engine idle and dispatches alone. The other 15 arrive while the gate
    // holds that batch, and share the next one.
    let (batcher, gate, batches, mut recognizer, _trainer) =
        gated_batcher(SchedulerConfig::default());
    let signatures = probes(16, 23);
    let direct = recognizer.classify_batch(signatures.clone());

    let mut replies = vec![submit_singleton(&batcher, &signatures[0])];
    assert_eq!(batches.recv().expect("first dispatch"), 1);
    for signature in &signatures[1..] {
        replies.push(submit_singleton(&batcher, signature));
    }
    gate.send(()).expect("release the first batch");
    assert_eq!(batches.recv().expect("second dispatch"), 15);
    gate.send(()).expect("release the second batch");
    let mut answers = Vec::new();
    for reply in replies {
        match reply.recv().expect("reply") {
            BatchReply::Predictions(predictions) => {
                assert_eq!(predictions.len(), 1);
                answers.push(predictions[0]);
            }
            other => panic!("expected predictions, got {other:?}"),
        }
    }
    // Replies come back in request order and match the direct batch.
    assert_eq!(answers, direct);

    let stats = batcher.snapshot();
    assert_eq!(stats.requests_dispatched, 16);
    assert_eq!(
        stats.batches_dispatched, 2,
        "15 singletons queued behind a busy engine must share one batch: {stats:?}"
    );
    assert_eq!(stats.requests_coalesced, 15, "all 15 shared the batch");
}

#[test]
fn size_flush_fires_before_the_deadline() {
    // 8 singletons held behind a busy engine, with a 4-signature batch cap:
    // the backlog leaves in batches of at most 4, never as one batch of 8.
    let (batcher, gate, batches, _recognizer, _trainer) = gated_batcher(SchedulerConfig {
        max_batch_signatures: 4,
        ..SchedulerConfig::default()
    });
    let signatures = probes(9, 31);
    let mut replies = vec![submit_singleton(&batcher, &signatures[0])];
    assert_eq!(batches.recv().expect("first dispatch"), 1);
    for signature in &signatures[1..] {
        replies.push(submit_singleton(&batcher, signature));
    }
    for _ in 0..3 {
        gate.send(()).expect("release a batch");
    }
    let sizes: Vec<usize> = (0..2).map(|_| batches.recv().expect("dispatch")).collect();
    assert_eq!(sizes, [4, 4], "the held backlog splits at the cap");
    for reply in replies {
        assert!(matches!(reply.recv(), Ok(BatchReply::Predictions(_))));
    }
    assert_eq!(batcher.snapshot().batches_dispatched, 3);
}

/// A classifier the test can wedge: blocks inside `try_classify` until the
/// gate opens, so the scheduler queue can be filled deterministically.
struct GatedClassifier {
    gate: mpsc::Receiver<()>,
}

impl BatchClassify for GatedClassifier {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        let _ = self.gate.recv();
        Ok(vec![Prediction::Unknown; signatures.len()])
    }
}

#[test]
fn admission_control_sheds_when_full_and_recovers() {
    let (gate_tx, gate_rx) = mpsc::channel();
    let batcher = MicroBatcher::new(
        GatedClassifier { gate: gate_rx },
        SchedulerConfig {
            queue_capacity: 2,
            ..SchedulerConfig::default()
        },
    );
    let submit_one = |batcher: &MicroBatcher| {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = ClassifyJob {
            signatures: vec![BinaryVector::zeros(8)],
            reply: reply_tx,
        };
        (batcher.submit(job), reply_rx)
    };
    // First job is picked up by the scheduler thread and wedges in the
    // classifier; give it a moment to leave the queue.
    let (first, first_reply) = submit_one(&batcher);
    assert!(first.is_ok());
    std::thread::sleep(Duration::from_millis(50));
    // The queue holds `queue_capacity` more; everything past that is shed
    // synchronously — the caller gets the job back, nothing blocks.
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for _ in 0..6 {
        match submit_one(&batcher) {
            (Ok(()), reply) => accepted.push(reply),
            (Err(_job), _) => shed += 1,
        }
    }
    assert!(shed >= 1, "a full queue must shed, not block");
    assert_eq!(accepted.len() + shed, 6);
    assert_eq!(batcher.snapshot().requests_shed as usize, shed);

    // Open the gate: the wedged batch and every accepted job complete —
    // the service recovers once load subsides.
    for _ in 0..16 {
        let _ = gate_tx.send(());
    }
    assert!(matches!(
        first_reply.recv().expect("wedged job completes"),
        BatchReply::Predictions(_)
    ));
    for reply in accepted {
        assert!(matches!(
            reply.recv().expect("accepted job completes"),
            BatchReply::Predictions(_)
        ));
    }
    let (after, after_reply) = submit_one(&batcher);
    assert!(after.is_ok(), "admission reopens after the backlog clears");
    assert!(matches!(
        after_reply.recv().expect("post-recovery job completes"),
        BatchReply::Predictions(_)
    ));
}

#[test]
fn health_drain_and_post_drain_rejection_over_the_wire() {
    let (server, _recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    let health = client.health().expect("health over the wire");
    assert!(!health.draining);
    assert_eq!(health.workers_alive, health.workers_configured);
    assert_eq!(health.worker_panics, 0);

    let summary = client.drain().expect("drain over the wire");
    assert!(!summary.checkpoint_written, "no hook was installed");
    assert_eq!(summary.final_version, health.snapshot_version);

    // Post-drain: health still answers (and says so); classify is refused
    // with the typed Draining error, not a hang or a dropped connection.
    let health = client.health().expect("health while draining");
    assert!(health.draining);
    match client.classify(&probes(1, 3)) {
        Err(bsom_serve::ClientError::Rejected { code, .. }) => {
            assert_eq!(code, ErrorCode::Draining);
        }
        other => panic!("expected a Draining rejection, got {other:?}"),
    }
    server.join();
}

#[test]
fn malformed_frames_get_an_error_response_not_a_dropped_socket() {
    let (server, _recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    // A checksum-valid frame with a response kind is a protocol violation
    // from a client; the server must answer with a typed error, then hang
    // up cleanly.
    send.send(&WireMessage::OverloadedResponse {
        queue_depth: 0,
        queue_capacity: 0,
    })
    .expect("send protocol violation");
    match recv.recv().expect("error response").expect("not EOF") {
        WireMessage::ErrorResponse { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(
        recv.recv().expect("clean EOF after hangup").is_none(),
        "server must close the connection after a protocol violation"
    );

    // A corrupted frame (bad checksum) likewise gets a typed error.
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    let mut frame = wire::encode_classify_request(&probes(1, 5));
    let last = frame.len() - 1;
    frame[last] ^= 0xff;
    send.send_frame(&frame).expect("send corrupted frame");
    match recv.recv().expect("error response").expect("not EOF") {
        WireMessage::ErrorResponse { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error response, got {other:?}"),
    }
    server.join();
}
