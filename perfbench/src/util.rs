//! Small pieces every workload shares: seed mixing, the percentile picker,
//! the per-phase failure ledger, peak RSS, and the result record.

use std::time::Duration;

/// splitmix64: one well-mixed output per input, so adjacent `--seed`
/// values give unrelated streams.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds of one run. Every generated input (corpus, probes, map,
/// arrivals, tenant picks) draws from its own stream, derived from the
/// mixed `--seed` and a fixed tag.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    base: u64,
}

/// Stream tags, one per kind of generated input.
pub mod tag {
    pub const CORPUS: u64 = 1;
    pub const PROBES: u64 = 2;
    pub const MAP: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const MIX: u64 = 5;
    pub const DATASET: u64 = 6;
    pub const CELLS: u64 = 7;
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Seeds {
            base: splitmix64(seed),
        }
    }

    /// The seed of stream `tag`, sub-stream `index` (e.g. one per phase).
    pub fn derive(&self, tag: u64, index: u64) -> u64 {
        splitmix64(self.base ^ splitmix64(tag.wrapping_mul(0x1_0000).wrapping_add(index)))
    }
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// condition under which a reported percentile means anything.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// Sorted copy of latencies in milliseconds.
pub fn sorted_ms(samples: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Median of unsorted values (upper median for even counts is avoided:
/// the mean of the two middle values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency figures of one population, with its sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    pub samples: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

impl LatencyStats {
    /// Nearest-rank p50, p90 and p99 over every sample.
    pub fn of(samples: &[Duration]) -> Self {
        let sorted = sorted_ms(samples);
        LatencyStats {
            samples: sorted.len(),
            p50_ms: percentile(&sorted, 0.50).unwrap_or(0.0),
            p90_ms: percentile(&sorted, 0.90).unwrap_or(0.0),
            p99_ms: percentile(&sorted, 0.99).unwrap_or(0.0),
        }
    }

    /// `n=…`, and whether there are enough samples for a p99, for the
    /// report lines.
    pub fn describe(&self) -> String {
        if percentile_supported(self.samples, 0.99) {
            format!("n={}", self.samples)
        } else {
            format!("n={}, too few samples for a p99", self.samples)
        }
    }
}

/// What happened to every request of one phase. Every request sent ends in
/// exactly one of `ok`, `shed`, `error` or `unanswered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub sent: u64,
    pub ok: u64,
    /// Answered with a typed `Overloaded` response.
    pub shed: u64,
    /// Answered with an error, an unexpected response, or a wrong answer
    /// shape.
    pub error: u64,
    /// Sent but never answered (transport failure or timeout).
    pub unanswered: u64,
}

impl Ledger {
    pub fn failed(&self) -> u64 {
        self.shed + self.error + self.unanswered
    }

    /// Failures over attempts; 0 for an empty phase.
    pub fn failed_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed() as f64 / self.sent as f64
        }
    }

    /// Every sent request is accounted for exactly once.
    pub fn balances(&self) -> bool {
        self.ok + self.shed + self.error + self.unanswered == self.sent
    }

    pub fn add(&mut self, other: &Ledger) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.error += other.error;
        self.unanswered += other.unanswered;
    }

    pub fn line(&self, phase: &str) -> String {
        format!(
            "ledger {phase}: sent={} ok={} shed={} error={} unanswered={} failed_share={:.6}",
            self.sent,
            self.ok,
            self.shed,
            self.error,
            self.unanswered,
            self.failed_share()
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(demand, steal)` CPU ticks since boot from `/proc/stat`: `demand` is
/// every tick the CPUs were not idle, stolen ticks included. `None` where
/// the platform does not expose them.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let demand = fields.iter().take(8).sum::<u64>() - fields.get(3)? - fields.get(4)?;
    Some((demand, *fields.get(7)?))
}

/// The calling thread's entry under `/proc` (`self/task/<tid>`), by which
/// other threads can read its clocks; `None` where the platform has none.
pub fn this_task() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?.to_str()?.to_string();
    Some(format!("self/task/{tid}"))
}

/// On-CPU time and run-queue wait of the thread `task` (as given by
/// [`this_task`]) since it started, from its `schedstat`; `None` where the
/// platform does not expose it. The kernel keeps this clock, independently
/// of the thread's own `Instant` readings.
pub fn schedstat(task: &str) -> Option<(Duration, Duration)> {
    let text = std::fs::read_to_string(format!("/proc/{task}/schedstat")).ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    let on_cpu = fields.next()??;
    let waiting = fields.next()??;
    Some((Duration::from_nanos(on_cpu), Duration::from_nanos(waiting)))
}

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and the run was valid.
    pub problems: Vec<String>,
    pub ledger: Ledger,
    /// Attempted operations when there is no request ledger (paper).
    pub extra_attempted: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric { name, unit, value });
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }
}

/// A JSON number with all its digits; non-finite values become 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&w, 0.5), Some(2.0));
        assert_eq!(percentile(&w, 0.51), Some(3.0));
    }

    #[test]
    fn percentile_support_needs_ten_beyond() {
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1000, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
    }

    #[test]
    fn latency_stats_of_durations() {
        let samples: Vec<Duration> = (1..=2000).map(Duration::from_micros).collect();
        let stats = LatencyStats::of(&samples);
        assert_eq!(stats.samples, 2000);
        assert!((stats.p50_ms - 1.0).abs() < 1e-12);
        assert!((stats.p99_ms - 1.98).abs() < 1e-12);
    }

    #[test]
    fn ledger_arithmetic() {
        let mut a = Ledger {
            sent: 10,
            ok: 6,
            shed: 1,
            error: 2,
            unanswered: 1,
        };
        assert!(a.balances());
        assert_eq!(a.failed(), 4);
        assert!((a.failed_share() - 0.4).abs() < 1e-12);
        let b = Ledger {
            sent: 5,
            ok: 5,
            ..Ledger::default()
        };
        a.add(&b);
        assert_eq!(a.sent, 15);
        assert_eq!(a.ok, 11);
        assert!(a.balances());
        assert!((a.failed_share() - 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(Ledger::default().failed_share(), 0.0);
        let broken = Ledger {
            sent: 3,
            ok: 1,
            ..Ledger::default()
        };
        assert!(!broken.balances());
    }

    #[test]
    fn adjacent_seeds_mix_apart() {
        for seed in 0..64u64 {
            let a = Seeds::new(seed);
            let b = Seeds::new(seed + 1);
            assert_ne!(a.derive(tag::ARRIVALS, 0), b.derive(tag::ARRIVALS, 0));
            assert_ne!(a.derive(tag::ARRIVALS, 0), a.derive(tag::ARRIVALS, 1));
            assert_ne!(a.derive(tag::CORPUS, 0), a.derive(tag::PROBES, 0));
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_ticks_read_proc_stat() {
        let (demand, steal) = cpu_ticks().expect("/proc/stat on Linux");
        assert!(demand >= steal);
    }

    #[test]
    fn schedstat_of_another_thread_advances_with_its_work() {
        use std::sync::mpsc::channel;
        let (task_tx, task_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let worker = std::thread::spawn(move || {
            task_tx.send(this_task()).unwrap();
            go_rx.recv().unwrap();
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            done_tx.send(()).unwrap();
            // Stay alive until read: an exited thread's entry is gone.
            go_rx.recv().unwrap();
            x
        });
        let task = task_rx.recv().unwrap().expect("/proc/thread-self on Linux");
        let (cpu0, _) = schedstat(&task).expect("schedstat on Linux");
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        let (cpu1, _) = schedstat(&task).expect("schedstat on Linux");
        go_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(cpu1 > cpu0);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(3.0), "3.0");
    }
}
