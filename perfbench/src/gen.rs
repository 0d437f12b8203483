//! The load generator: open-loop schedules on one connection, closed-loop
//! pipelined clients on up to two, each with its own failure ledger.
//!
//! Open loop: a sender thread writes each pre-encoded frame at its scheduled
//! offset and a receiver thread reads the in-order responses. Latency is
//! timed from the **scheduled** send, so a stall is charged to every request
//! queued behind it, and the sender's lag behind its schedule is reported.
//!
//! Closed loop: each connection keeps a fixed number of requests in flight
//! and sends the next one when a response arrives.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bsom_serve::wire::{self, WireMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config;
use crate::trace::{SpanBuf, Tracer};
use crate::util::{LatencyStats, Ledger, Outcome};

/// How long a client waits for a response before counting everything
/// still in flight as unanswered.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// What a request asks for, so its response can be checked for shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Classify { signatures: usize },
    Train { examples: usize },
}

/// A pre-encoded request.
#[derive(Debug, Clone)]
pub struct Request {
    pub frame: Vec<u8>,
    pub kind: Kind,
}

/// An open-loop phase: request `order[i]` of `pool` is due at `offsets[i]`
/// after the phase starts.
#[derive(Debug, Clone)]
pub struct OpenPlan {
    pub pool: Arc<Vec<Request>>,
    pub order: Vec<u32>,
    pub offsets: Vec<Duration>,
}

/// Poisson arrival offsets at `rate` per second over `span`, conditioned on
/// exactly `round(rate * span)` arrivals (exponential gaps rescaled to fill
/// the span), so every seed offers the same load.
pub fn poisson_offsets(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut t = 0.0f64;
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..=n {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln();
        arrivals.push(t);
    }
    // The (n+1)-th arrival closes the span.
    let scale = span.as_secs_f64() / t;
    arrivals.truncate(n);
    arrivals
        .into_iter()
        .map(|a| Duration::from_secs_f64(a * scale))
        .collect()
}

/// The outcome of one open-loop phase.
#[derive(Debug)]
pub struct OpenResult {
    pub ledger: Ledger,
    /// Latency of every successful classify, timed from the scheduled send.
    pub classify: Vec<Duration>,
    /// The same for every successful train acknowledgement.
    pub train: Vec<Duration>,
    /// How late each send started relative to its schedule.
    pub late: Vec<Duration>,
    /// Signatures answered (classified or accepted for training).
    pub signatures_ok: u64,
    pub elapsed: Duration,
    pub spans: Vec<SpanBuf>,
}

impl OpenResult {
    fn new(capacity: usize) -> Self {
        OpenResult {
            ledger: Ledger::default(),
            classify: Vec::with_capacity(capacity),
            train: Vec::with_capacity(capacity),
            late: Vec::new(),
            signatures_ok: 0,
            elapsed: Duration::ZERO,
            spans: Vec::new(),
        }
    }
}

/// Checks a response against its request; returns `(ledger slot, signatures)`.
fn judge(kind: Kind, response: &WireMessage) -> (Slot, u64) {
    match (kind, response) {
        (Kind::Classify { signatures }, WireMessage::ClassifyResponse { predictions })
            if predictions.len() == signatures =>
        {
            (Slot::Ok, signatures as u64)
        }
        (Kind::Train { examples }, WireMessage::TrainResponse { accepted })
            if *accepted == examples as u64 =>
        {
            (Slot::Ok, examples as u64)
        }
        (_, WireMessage::OverloadedResponse { .. }) => (Slot::Shed, 0),
        _ => (Slot::Error, 0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Ok,
    Shed,
    Error,
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Runs one open-loop phase on one connection (a sender on the calling
/// thread, one receiver thread).
pub fn run_open(addr: SocketAddr, plan: &OpenPlan, tracer: Option<&Tracer>) -> OpenResult {
    let total = plan.order.len();
    let (mut stream, mut reader) = match connect(addr) {
        Ok(pair) => pair,
        Err(_) => {
            let mut result = OpenResult::new(0);
            result.ledger.sent = total as u64;
            result.ledger.unanswered = total as u64;
            return result;
        }
    };
    let sent = Arc::new(AtomicU64::new(0));
    let send_failed = Arc::new(AtomicBool::new(false));
    let start = Instant::now() + Duration::from_millis(2);
    let offsets = Arc::new(plan.offsets.clone());
    let order = Arc::new(plan.order.clone());
    let pool = Arc::clone(&plan.pool);

    let receiver = {
        let sent = Arc::clone(&sent);
        let send_failed = Arc::clone(&send_failed);
        let offsets = Arc::clone(&offsets);
        let order = Arc::clone(&order);
        let pool = Arc::clone(&pool);
        let mut spans = tracer.map(Tracer::buf);
        // Allocated here rather than on the receiver thread, so that the
        // memory returns to this thread's allocator arena and a window run
        // again does not grow the process by another arena.
        let mut out = OpenResult::new(total);
        thread::spawn(move || {
            let mut received = 0usize;
            while received < total {
                if send_failed.load(Ordering::SeqCst)
                    && received as u64 >= sent.load(Ordering::SeqCst)
                {
                    break;
                }
                let message = match wire::read_message(&mut reader) {
                    Ok(Some(message)) => message,
                    _ => break,
                };
                let now = Instant::now();
                let due = start + offsets[received];
                let kind = pool[order[received] as usize].kind;
                let latency = now.saturating_duration_since(due);
                match judge(kind, &message) {
                    (Slot::Ok, signatures) => {
                        out.ledger.ok += 1;
                        out.signatures_ok += signatures;
                        match kind {
                            Kind::Classify { .. } => out.classify.push(latency),
                            Kind::Train { .. } => out.train.push(latency),
                        }
                    }
                    (Slot::Shed, _) => out.ledger.shed += 1,
                    (Slot::Error, _) => out.ledger.error += 1,
                }
                if let Some(spans) = spans.as_mut() {
                    let name = match kind {
                        Kind::Classify { .. } => "client.classify",
                        Kind::Train { .. } => "client.train",
                    };
                    spans.record(name, 0, received as u64 + 1, due, now);
                }
                received += 1;
            }
            if let Some(spans) = spans {
                out.spans.push(spans);
            }
            out
        })
    };

    let mut send_spans = tracer.map(Tracer::buf);
    let mut late = Vec::with_capacity(total);
    for (i, &index) in order.iter().enumerate() {
        let due = start + offsets[i];
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let begin = Instant::now();
        late.push(begin.saturating_duration_since(due));
        if stream.write_all(&pool[index as usize].frame).is_err() {
            send_failed.store(true, Ordering::SeqCst);
            break;
        }
        sent.fetch_add(1, Ordering::SeqCst);
        if let Some(spans) = send_spans.as_mut() {
            spans.record("gen.send", 0, i as u64 + 1, begin, Instant::now());
        }
    }
    let _ = stream.flush();
    let mut out = receiver.join().expect("open-loop receiver thread panicked");
    out.elapsed = start.elapsed();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    out.ledger.sent = sent.load(Ordering::SeqCst);
    let answered = out.ledger.ok + out.ledger.shed + out.ledger.error;
    out.ledger.unanswered = out.ledger.sent.saturating_sub(answered);
    // Requests never sent because the connection broke count as attempted
    // and unanswered.
    let unsent = total as u64 - out.ledger.sent;
    out.ledger.sent += unsent;
    out.ledger.unanswered += unsent;
    out.late = late;
    if let Some(spans) = send_spans {
        out.spans.push(spans);
    }
    out
}

/// Marks the run invalid when the sender fell behind its schedule (see
/// [`config::GEN_LATE_P50_LIMIT_MS`]); returns the lateness p99 in ms.
pub fn check_lateness(late: &[Duration], out: &mut Outcome) -> f64 {
    let stats = LatencyStats::of(late);
    if stats.p50_ms > config::GEN_LATE_P50_LIMIT_MS || stats.p99_ms > config::GEN_LATE_P99_LIMIT_MS
    {
        out.problem(format!(
            "generator fell behind its schedule: late p50 {:.3} ms (limit {}), p99 {:.3} ms (limit {})",
            stats.p50_ms,
            config::GEN_LATE_P50_LIMIT_MS,
            stats.p99_ms,
            config::GEN_LATE_P99_LIMIT_MS
        ));
    }
    stats.p99_ms
}

/// The outcome of a closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedResult {
    pub ledger: Ledger,
    /// Latency of every successful request.
    pub latencies: Vec<Duration>,
    /// Signatures answered.
    pub signatures_ok: u64,
    /// From the window's start to the last answer (the longest of the
    /// connections).
    pub elapsed: Duration,
    pub spans: Vec<SpanBuf>,
}

impl ClosedResult {
    /// Signatures answered per second over the whole window.
    pub fn signatures_per_s(&self) -> f64 {
        self.signatures_ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn merge(&mut self, other: ClosedResult) {
        self.ledger.add(&other.ledger);
        self.latencies.extend(other.latencies);
        self.signatures_ok += other.signatures_ok;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.spans.extend(other.spans);
    }
}

/// One closed-loop client: `in_flight` pipelined requests drawn in turn
/// from `pool` (starting at `offset`), for `window`; per-request latencies
/// are kept only when `keep_latencies` is set.
fn closed_connection(
    addr: SocketAddr,
    pool: &[Request],
    offset: usize,
    in_flight: usize,
    keep_latencies: bool,
    window: Duration,
    tracer: Option<&Tracer>,
) -> ClosedResult {
    let mut out = ClosedResult::default();
    let mut spans = tracer.map(Tracer::buf);
    let (mut stream, mut reader) = match connect(addr) {
        Ok(pair) => pair,
        Err(_) => {
            out.ledger.sent = 1;
            out.ledger.unanswered = 1;
            return out;
        }
    };
    let start = Instant::now();
    let end = start + window;
    let mut next = offset;
    let mut queue: std::collections::VecDeque<(Instant, Kind, u64)> =
        std::collections::VecDeque::with_capacity(in_flight);
    let mut send = |stream: &mut TcpStream,
                    queue: &mut std::collections::VecDeque<(Instant, Kind, u64)>,
                    ledger: &mut Ledger|
     -> bool {
        let request = &pool[next % pool.len()];
        next += 1;
        let begin = Instant::now();
        ledger.sent += 1;
        queue.push_back((begin, request.kind, ledger.sent));
        stream.write_all(&request.frame).is_ok()
    };
    let mut broken = false;
    for _ in 0..in_flight {
        if !send(&mut stream, &mut queue, &mut out.ledger) {
            broken = true;
            break;
        }
    }
    while !broken && !queue.is_empty() {
        let message = match wire::read_message(&mut reader) {
            Ok(Some(message)) => message,
            _ => break,
        };
        let now = Instant::now();
        let (begin, kind, id) = queue.pop_front().expect("a response implies a request");
        match judge(kind, &message) {
            (Slot::Ok, signatures) => {
                out.ledger.ok += 1;
                out.signatures_ok += signatures;
                if keep_latencies {
                    out.latencies.push(now - begin);
                }
            }
            (Slot::Shed, _) => out.ledger.shed += 1,
            (Slot::Error, _) => out.ledger.error += 1,
        }
        if let Some(spans) = spans.as_mut() {
            spans.record("client.classify", 0, id, begin, now);
        }
        if now < end && !send(&mut stream, &mut queue, &mut out.ledger) {
            broken = true;
        }
    }
    out.ledger.unanswered += queue.len() as u64;
    out.elapsed = start.elapsed();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if let Some(spans) = spans {
        out.spans.push(spans);
    }
    out
}

/// Runs `connections` (1 or 2) closed-loop clients for `window`; the first
/// runs on the calling thread.
pub fn run_closed(
    addr: SocketAddr,
    pool: &[Request],
    connections: usize,
    in_flight: usize,
    keep_latencies: bool,
    window: Duration,
    tracer: Option<&Tracer>,
) -> ClosedResult {
    assert!(
        (1..=2).contains(&connections),
        "at most two client connections"
    );
    thread::scope(|scope| {
        let second = (connections == 2).then(|| {
            scope.spawn(|| {
                closed_connection(
                    addr,
                    pool,
                    pool.len() / 2,
                    in_flight,
                    keep_latencies,
                    window,
                    tracer,
                )
            })
        });
        let mut first = closed_connection(addr, pool, 0, in_flight, keep_latencies, window, tracer);
        if let Some(handle) = second {
            first.merge(handle.join().expect("closed-loop client thread panicked"));
        }
        first
    })
}

/// Sends `requests` one at a time on a fresh connection and returns the
/// responses in order (for output checks and set-up probes).
pub fn request_each(addr: SocketAddr, requests: &[Vec<u8>]) -> std::io::Result<Vec<WireMessage>> {
    let (mut stream, mut reader) = connect(addr)?;
    let mut responses = Vec::with_capacity(requests.len());
    for frame in requests {
        stream.write_all(frame)?;
        match wire::read_message(&mut reader) {
            Ok(Some(message)) => responses.push(message),
            Ok(None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Err(error) => return Err(std::io::Error::other(error.to_string())),
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{tag, Seeds};

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let offsets = poisson_offsets(10_000.0, Duration::from_secs(1), 7);
        assert_eq!(offsets.len(), 10_000);
        let first_half = offsets.iter().filter(|d| d.as_secs_f64() < 0.5).count();
        assert!((4_800..5_200).contains(&first_half), "{first_half}");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(offsets.last().unwrap() < &Duration::from_secs(1));
    }

    #[test]
    fn adjacent_seeds_give_distinct_schedules() {
        for seed in 1..32u64 {
            let a = poisson_offsets(
                1_000.0,
                Duration::from_millis(200),
                Seeds::new(seed).derive(tag::ARRIVALS, 0),
            );
            let b = poisson_offsets(
                1_000.0,
                Duration::from_millis(200),
                Seeds::new(seed + 1).derive(tag::ARRIVALS, 0),
            );
            assert_ne!(a, b, "seeds {seed} and {} share a schedule", seed + 1);
            assert_ne!(a.len(), 0);
        }
        let same = |seed| {
            poisson_offsets(
                1_000.0,
                Duration::from_millis(200),
                Seeds::new(seed).derive(tag::ARRIVALS, 0),
            )
        };
        assert_eq!(same(5), same(5));
    }

    #[test]
    fn judge_checks_response_shape() {
        let ok = WireMessage::ClassifyResponse {
            predictions: vec![bsom_som::Prediction::Unknown; 2],
        };
        assert_eq!(judge(Kind::Classify { signatures: 2 }, &ok), (Slot::Ok, 2));
        assert_eq!(judge(Kind::Classify { signatures: 3 }, &ok).0, Slot::Error);
        let shed = WireMessage::OverloadedResponse {
            queue_depth: 1,
            queue_capacity: 1,
        };
        assert_eq!(judge(Kind::Train { examples: 4 }, &shed).0, Slot::Shed);
        let ack = WireMessage::TrainResponse { accepted: 4 };
        assert_eq!(judge(Kind::Train { examples: 4 }, &ack), (Slot::Ok, 4));
        assert_eq!(judge(Kind::Classify { signatures: 4 }, &ack).0, Slot::Error);
    }
}
