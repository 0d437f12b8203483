//! The load-generation harness behind the `loadgen` binary and the
//! `BENCH_serve.json` figures.
//!
//! Two arrival disciplines:
//!
//! * **Open loop** ([`ArrivalMode::Open`]) — requests arrive on a seeded
//!   Poisson process (exponential inter-arrivals, hand-rolled from a
//!   xorshift64* stream) regardless of how fast the server answers, and
//!   **latency is measured from the scheduled arrival time**, not from the
//!   moment the sender got around to writing the frame. A stalled server
//!   therefore accumulates the stall into every affected sample instead of
//!   silently pausing the clock — the coordinated-omission trap open-loop
//!   testing exists to avoid.
//! * **Closed loop** ([`ArrivalMode::Closed`]) — a fixed number of requests
//!   stay in flight; each response immediately triggers the next request.
//!   This measures *capacity* (the throughput ceiling), not latency under a
//!   given offered load, and the report labels it as such.
//!
//! Request frames are pre-encoded once per connection and replayed, so the
//! generator spends its cycles on the socket, not on serialization.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bsom_signature::BinaryVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::client::{ClientError, ServeClient};
use crate::wire::{self, WireMessage};

/// How requests are offered to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// Seeded Poisson arrivals at `rate_rps` requests/second across all
    /// connections, independent of response times.
    Open {
        /// Offered load, requests per second.
        rate_rps: f64,
    },
    /// `in_flight` requests pipelined per connection, each response
    /// triggering the next request.
    Closed {
        /// Outstanding requests per connection.
        in_flight: usize,
    },
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The serve endpoint.
    pub addr: SocketAddr,
    /// Parallel connections.
    pub connections: usize,
    /// Signatures per classify request.
    pub batch_size: usize,
    /// Bits per signature.
    pub vector_len: usize,
    /// Seed for both the signature corpus and the arrival process.
    pub seed: u64,
    /// The arrival discipline.
    pub mode: ArrivalMode,
    /// Measured window (after `warmup`).
    pub duration: Duration,
    /// Ramp time excluded from the latency samples and rate figures.
    pub warmup: Duration,
}

/// Latency percentiles over the measured window, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples the percentiles were computed over.
    pub samples: u64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_nanos(mut samples: Vec<u64>) -> LatencySummary {
        samples.sort_unstable();
        let pick = |q: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let index = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[index] as f64 / 1e6
        };
        LatencySummary {
            samples: samples.len() as u64,
            p50_ms: pick(0.50),
            p90_ms: pick(0.90),
            p99_ms: pick(0.99),
            p999_ms: pick(0.999),
            max_ms: samples.last().map(|&n| n as f64 / 1e6).unwrap_or(0.0),
        }
    }
}

/// The outcome of one load-generation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// `"open"` or `"closed"`.
    pub mode: String,
    /// Offered rate for open mode (requests/second); 0 for closed.
    pub offered_rps: f64,
    /// Connections used.
    pub connections: usize,
    /// Signatures per request.
    pub batch_size: usize,
    /// Requests sent (including warmup).
    pub sent: u64,
    /// Successful classify responses.
    pub ok: u64,
    /// Typed `Overloaded` responses (shed by admission control).
    pub overloaded: u64,
    /// Error responses, transport failures, or dead connections.
    pub errors: u64,
    /// Wall-clock seconds of the measured window.
    pub elapsed_seconds: f64,
    /// Successful responses per second over the measured window.
    pub requests_per_second: f64,
    /// `requests_per_second * batch_size`.
    pub signatures_per_second: f64,
    /// Latency percentiles (successful responses in the measured window;
    /// open mode measures from the *scheduled* arrival time).
    pub latency: LatencySummary,
}

#[derive(Default)]
struct ConnOutcome {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    measured_ok: u64,
    samples: Vec<u64>,
}

/// xorshift64* — the same tiny generator the engine's fault plans use; one
/// `u64` seed reproduces the whole arrival schedule.
struct ArrivalRng {
    state: u64,
}

impl ArrivalRng {
    fn seeded(seed: u64) -> Self {
        ArrivalRng { state: seed | 1 }
    }

    /// Connection `connection`'s stream for run seed `seed`. Both go
    /// through splitmix64 (a bijection), so no two connections of a run
    /// start from the same state; plain `seed + connection` would, because
    /// `| 1` folds each even state onto the odd one above it.
    fn for_connection(seed: u64, connection: u64) -> Self {
        ArrivalRng::seeded(splitmix64(splitmix64(seed) ^ connection))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// An `Exp(rate)` inter-arrival draw: `-ln(1 - U) / rate`.
    fn next_exponential(&mut self, rate_per_second: f64) -> Duration {
        let uniform = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let seconds = -(1.0 - uniform).ln() / rate_per_second;
        Duration::from_secs_f64(seconds.min(10.0))
    }
}

/// splitmix64's finalizer: one well-mixed output per input.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pre-encoded classify frames cycled by one connection.
fn build_frames(config: &LoadgenConfig, connection: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (connection as u64).wrapping_mul(0x9e37));
    (0..16)
        .map(|_| {
            let signatures: Vec<BinaryVector> = (0..config.batch_size)
                .map(|_| BinaryVector::random(config.vector_len, &mut rng))
                .collect();
            wire::encode_classify_request(&signatures)
        })
        .collect()
}

fn classify_outcome(message: Option<WireMessage>, outcome: &mut ConnOutcome) -> bool {
    match message {
        Some(WireMessage::ClassifyResponse { .. }) => {
            outcome.ok += 1;
            true
        }
        Some(WireMessage::OverloadedResponse { .. }) => {
            outcome.overloaded += 1;
            false
        }
        _ => {
            outcome.errors += 1;
            false
        }
    }
}

fn run_open_connection(
    config: &LoadgenConfig,
    connection: usize,
    rate_per_conn: f64,
    start: Instant,
) -> Result<ConnOutcome, ClientError> {
    let frames = build_frames(config, connection);
    let (mut send, mut recv) = ServeClient::connect(config.addr)?.split();
    let mut arrivals = ArrivalRng::for_connection(config.seed, connection as u64);
    let warmup_end = start + config.warmup;
    let end = warmup_end + config.duration;

    // The sender thread owns the schedule; the receiver matches responses
    // FIFO against the scheduled timestamps.
    let (sched_tx, sched_rx) = mpsc::sync_channel::<Instant>(1 << 16);
    let sender = thread::spawn(move || -> u64 {
        let mut sent = 0u64;
        let mut next = start;
        let mut frame_index = 0usize;
        loop {
            next += arrivals.next_exponential(rate_per_conn);
            if next >= end {
                break;
            }
            let now = Instant::now();
            if next > now {
                thread::sleep(next - now);
            }
            if send.send_frame(&frames[frame_index]).is_err() {
                break;
            }
            frame_index = (frame_index + 1) % frames.len();
            if sched_tx.send(next).is_err() {
                break;
            }
            sent += 1;
        }
        sent
    });

    let mut outcome = ConnOutcome::default();
    while let Ok(scheduled) = sched_rx.recv() {
        let message = match recv.recv() {
            Ok(message) => message,
            Err(_) => {
                outcome.errors += 1;
                break;
            }
        };
        let done = Instant::now();
        if classify_outcome(message, &mut outcome) && scheduled >= warmup_end {
            outcome.measured_ok += 1;
            outcome
                .samples
                .push(done.saturating_duration_since(scheduled).as_nanos() as u64);
        }
    }
    outcome.sent = sender.join().unwrap_or(0);
    Ok(outcome)
}

fn run_closed_connection(
    config: &LoadgenConfig,
    connection: usize,
    in_flight: usize,
    start: Instant,
) -> Result<ConnOutcome, ClientError> {
    let frames = build_frames(config, connection);
    let (mut send, mut recv) = ServeClient::connect(config.addr)?.split();
    let warmup_end = start + config.warmup;
    let end = warmup_end + config.duration;
    let mut outcome = ConnOutcome::default();
    let mut in_flight_times = std::collections::VecDeque::with_capacity(in_flight);
    let mut frame_index = 0usize;
    let send_next = |send: &mut crate::client::SendHalf,
                     times: &mut std::collections::VecDeque<Instant>,
                     frame_index: &mut usize,
                     sent: &mut u64|
     -> bool {
        if send.send_frame(&frames[*frame_index]).is_err() {
            return false;
        }
        *frame_index = (*frame_index + 1) % frames.len();
        times.push_back(Instant::now());
        *sent += 1;
        true
    };
    for _ in 0..in_flight.max(1) {
        if !send_next(
            &mut send,
            &mut in_flight_times,
            &mut frame_index,
            &mut outcome.sent,
        ) {
            break;
        }
    }
    while let Some(sent_at) = in_flight_times.pop_front() {
        let message = match recv.recv() {
            Ok(message) => message,
            Err(_) => {
                outcome.errors += 1;
                break;
            }
        };
        let done = Instant::now();
        if classify_outcome(message, &mut outcome) && sent_at >= warmup_end {
            outcome.measured_ok += 1;
            outcome
                .samples
                .push(done.saturating_duration_since(sent_at).as_nanos() as u64);
        }
        if done < end
            && !send_next(
                &mut send,
                &mut in_flight_times,
                &mut frame_index,
                &mut outcome.sent,
            )
        {
            break;
        }
    }
    Ok(outcome)
}

/// Runs one load-generation pass and aggregates the per-connection results.
///
/// # Errors
///
/// Fails only if a connection cannot be established; failures *during* the
/// run are counted in [`LoadReport::errors`].
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, ClientError> {
    let connections = config.connections.max(1);
    let start = Instant::now();
    let mut workers = Vec::with_capacity(connections);
    for connection in 0..connections {
        let config = config.clone();
        workers.push(thread::spawn(move || match config.mode {
            ArrivalMode::Open { rate_rps } => run_open_connection(
                &config,
                connection,
                (rate_rps / connections as f64).max(1e-6),
                start,
            ),
            ArrivalMode::Closed { in_flight } => {
                run_closed_connection(&config, connection, in_flight, start)
            }
        }));
    }
    let mut merged = ConnOutcome::default();
    let mut connect_error = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(outcome)) => {
                merged.sent += outcome.sent;
                merged.ok += outcome.ok;
                merged.overloaded += outcome.overloaded;
                merged.errors += outcome.errors;
                merged.measured_ok += outcome.measured_ok;
                merged.samples.extend(outcome.samples);
            }
            Ok(Err(error)) => connect_error = Some(error),
            Err(_) => merged.errors += 1,
        }
    }
    if merged.sent == 0 {
        if let Some(error) = connect_error {
            return Err(error);
        }
    }
    let elapsed = config.duration.as_secs_f64().max(1e-9);
    let (mode, offered_rps) = match config.mode {
        ArrivalMode::Open { rate_rps } => ("open", rate_rps),
        ArrivalMode::Closed { .. } => ("closed", 0.0),
    };
    let requests_per_second = merged.measured_ok as f64 / elapsed;
    Ok(LoadReport {
        mode: mode.to_string(),
        offered_rps,
        connections,
        batch_size: config.batch_size,
        sent: merged.sent,
        ok: merged.ok,
        overloaded: merged.overloaded,
        errors: merged.errors,
        elapsed_seconds: elapsed,
        requests_per_second,
        signatures_per_second: requests_per_second * config.batch_size as f64,
        latency: LatencySummary::from_nanos(merged.samples),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_arrivals_are_seeded_and_positive() {
        let mut a = ArrivalRng::seeded(9);
        let mut b = ArrivalRng::seeded(9);
        let mut total = Duration::ZERO;
        for _ in 0..256 {
            let da = a.next_exponential(1000.0);
            assert_eq!(da, b.next_exponential(1000.0), "same seed, same schedule");
            total += da;
        }
        // Mean of Exp(1000/s) is 1ms; 256 draws should land within a loose
        // band around 256ms.
        assert!(
            total > Duration::from_millis(64),
            "draws collapsed: {total:?}"
        );
        assert!(
            total < Duration::from_millis(1024),
            "draws exploded: {total:?}"
        );
    }

    #[test]
    fn connections_draw_distinct_arrival_streams() {
        for seed in 0..64u64 {
            let firsts: Vec<[u64; 4]> = (0..4)
                .map(|conn| {
                    let mut rng = ArrivalRng::for_connection(seed, conn);
                    std::array::from_fn(|_| rng.next_u64())
                })
                .collect();
            for (a, first_a) in firsts.iter().enumerate() {
                for (b, first_b) in firsts.iter().enumerate().skip(a + 1) {
                    for (k, (x, y)) in first_a.iter().zip(first_b).enumerate() {
                        assert_ne!(x, y, "seed {seed}: connections {a} and {b} share draw {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        let summary = LatencySummary::from_nanos(samples);
        assert_eq!(summary.samples, 1000);
        assert!(summary.p50_ms <= summary.p90_ms);
        assert!(summary.p90_ms <= summary.p99_ms);
        assert!(summary.p99_ms <= summary.p999_ms);
        assert!(summary.p999_ms <= summary.max_ms);
        assert_eq!(summary.max_ms, 1000.0);
    }
}
