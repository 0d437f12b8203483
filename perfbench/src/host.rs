//! The hypervisor's steal clock, read around each measured window.
//!
//! The benchmark box is a virtual machine on a shared host. In contended
//! periods the host takes a large share of the VM's CPU time away ("steal"
//! in `/proc/stat`) for seconds at a time, which doubles served latencies
//! without any change in the program. Every measured window is therefore
//! judged as a whole by its steal share: the share of the CPU time the VM
//! asked for (every tick not idle) that the host took away, over the
//! window's full length. As a share of demand rather than of all ticks it
//! does not grow merely because the program keeps the CPUs busier. A window
//! above [`STEAL_LIMIT`] is invalid and is run again, up to
//! [`MAX_ATTEMPTS`] times. Figures are always taken over every sample of
//! the one window kept; nothing inside a window is dropped.

use crate::util::{cpu_ticks, peak_rss_mb};

/// A window during which the host stole more than this share of the CPU
/// time is invalid.
pub const STEAL_LIMIT: f64 = 0.03;
/// Attempts per window before the least-stolen one is kept anyway.
pub const MAX_ATTEMPTS: usize = 6;

/// A reading of the CPU tick counters since boot.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    demand: u64,
    steal: u64,
}

/// Reads the counters; `None` where the platform does not expose them.
pub fn read() -> Option<Reading> {
    cpu_ticks().map(|(demand, steal)| Reading { demand, steal })
}

/// Share of the CPU time demanded since `from` that the host stole; 0
/// without counters.
pub fn steal_since(from: Option<Reading>) -> f64 {
    match (from, read()) {
        (Some(a), Some(b)) if b.demand > a.demand => {
            (b.steal - a.steal) as f64 / (b.demand - a.demand) as f64
        }
        _ => 0.0,
    }
}

/// The window kept by [`gated`], with the steal share of every attempt.
#[derive(Debug)]
pub struct Gated<T> {
    pub value: T,
    /// Steal share of the kept attempt.
    pub steal: f64,
    /// Steal share of every attempt, in order.
    pub attempts: Vec<f64>,
    /// The process's peak RSS in MiB when the first attempt ended: set-up
    /// plus one window. Each further attempt leaves the allocator's arenas
    /// larger (by 2-3 MiB in `fleet`), so the figure is taken before them.
    pub first_peak_rss_mb: f64,
}

impl<T> Gated<T> {
    /// Whether the kept window was under [`STEAL_LIMIT`].
    pub fn clean(&self) -> bool {
        self.steal <= STEAL_LIMIT
    }

    /// One report line on the attempts.
    pub fn describe(&self, what: &str) -> String {
        let shares: Vec<String> = self
            .attempts
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect();
        format!(
            "host: {what} window steal per attempt [{}] (limit {:.0}%); kept {:.1}%{}",
            shares.join(", "),
            STEAL_LIMIT * 100.0,
            self.steal * 100.0,
            if self.clean() {
                ""
            } else {
                ", no attempt was clean: kept the least-stolen whole window"
            }
        )
    }
}

/// Runs `window(attempt)` until an attempt's steal share is at most
/// [`STEAL_LIMIT`], at most [`MAX_ATTEMPTS`] times, and keeps that attempt;
/// when none is clean, keeps the least-stolen one.
pub fn gated<T>(mut window: impl FnMut(usize) -> T) -> Gated<T> {
    let mut first_peak_rss_mb = 0.0;
    let mut gated = gate(|attempt| {
        let start = read();
        let value = window(attempt);
        let steal = steal_since(start);
        if attempt == 0 {
            first_peak_rss_mb = peak_rss_mb();
        }
        (value, steal)
    });
    gated.first_peak_rss_mb = first_peak_rss_mb;
    gated
}

/// [`gated`] over attempts that report their own steal share.
fn gate<T>(mut attempt: impl FnMut(usize) -> (T, f64)) -> Gated<T> {
    let mut best: Option<(T, f64)> = None;
    let mut attempts = Vec::new();
    for i in 0..MAX_ATTEMPTS {
        let (value, steal) = attempt(i);
        attempts.push(steal);
        if best.as_ref().is_none_or(|(_, s)| steal < *s) {
            best = Some((value, steal));
        }
        if steal <= STEAL_LIMIT {
            break;
        }
    }
    let (value, steal) = best.expect("at least one attempt");
    Gated {
        value,
        steal,
        attempts,
        first_peak_rss_mb: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(steal: &[f64]) -> Gated<usize> {
        gate(|i| (i, steal[i]))
    }

    #[test]
    fn keeps_the_first_clean_attempt() {
        let g = run(&[0.01]);
        assert_eq!((g.value, g.attempts.len()), (0, 1));
        assert!(g.clean());
        let g = run(&[0.3, 0.2, STEAL_LIMIT, 0.0]);
        assert_eq!((g.value, g.attempts.len()), (2, 3));
        assert!(g.clean());
    }

    #[test]
    fn keeps_the_least_stolen_when_none_is_clean() {
        let g = run(&[0.3, 0.2, 0.4, 0.15, 0.5, 0.6, 0.0]);
        assert_eq!(g.attempts.len(), MAX_ATTEMPTS);
        assert_eq!(g.value, 3);
        assert!(!g.clean());
        assert!(g.describe("timed").contains("least-stolen"));
    }
}
