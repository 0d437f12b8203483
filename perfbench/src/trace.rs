//! In-memory spans for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around the calls it
//! makes into the program. Each thread fills its own [`SpanBuf`]; the buffers
//! are merged into one [`Trace`] when the threads are joined, and the trace
//! is written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval. `parent` and `request` are 0 when absent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Shared id source and time origin of one traced run.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    next_id: Arc<AtomicU64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// A new per-thread buffer.
    pub fn buf(&self) -> SpanBuf {
        SpanBuf {
            next_id: Arc::clone(&self.next_id),
            spans: Vec::new(),
        }
    }
}

/// A thread's own span list.
#[derive(Debug)]
pub struct SpanBuf {
    next_id: Arc<AtomicU64>,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet (a parent).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`reserve`](Self::reserve).
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request: 0,
            name,
            start,
            end,
        });
    }
}

/// All spans of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
    }

    pub fn absorb_ref(&mut self, buf: &SpanBuf) {
        self.spans.extend_from_slice(&buf.spans);
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line, times in µs from the
    /// tracer's origin.
    pub fn write_jsonl(&self, tracer: &Tracer, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let start = s.start.saturating_duration_since(tracer.origin);
            let end = s.end.saturating_duration_since(tracer.origin);
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                start.as_secs_f64() * 1e6,
                end.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_durations_by_name() {
        let tracer = Tracer::new();
        let mut buf = tracer.buf();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let parent = buf.reserve();
        buf.record("child", parent, 0, t0 + ms(1), t0 + ms(4));
        buf.record("child", parent, 0, t0 + ms(3), t0 + ms(5));
        buf.record("other", 0, 0, t0, t0 + ms(10));
        buf.record_reserved(parent, "parent", 0, t0, t0 + ms(10));
        let mut trace = Trace::default();
        trace.absorb(buf);
        assert_eq!(trace.durations("child"), vec![ms(3), ms(2)]);
        assert_eq!(trace.total("child"), ms(5));
        let p = trace.spans.iter().find(|s| s.name == "parent").unwrap();
        assert_eq!(p.id, parent);
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|s| s.parent == parent));
    }
}
