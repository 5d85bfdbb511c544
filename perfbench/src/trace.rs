//! A span recorder for the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span wraps one call the
//! benchmark makes into a public function of a layer (`PoolClient::call_timeout`,
//! `ContainmentEngine::check_ids_deadline`, `NTriplesParser::feed`, …). Spans
//! are kept in memory while the workload runs and written out as JSON lines
//! at the end. A disabled recorder takes no timestamps and stores nothing,
//! which is the untraced configuration the end-to-end metrics come from.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: what was called, when, under which parent, for which
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u32,
    /// The layer call, as `layer.function`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// The benchmark request this span served; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id (to
    /// parent child spans on), or `None` when tracing is off.
    pub fn span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let result = f(Some(id));
        let end = self.origin.elapsed().as_nanos() as u64;
        self.push(Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        });
        result
    }

    /// Reserve a span id now for a span recorded later with
    /// [`Tracer::record`], so children can point at it first.
    pub fn reserve(&self) -> Option<u32> {
        self.enabled
            .then(|| self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a span whose bounds the caller measured itself (an open-loop
    /// request spans from its due time, before any call was made), under
    /// an id from [`Tracer::reserve`]. Does nothing when `id` is `None`.
    pub fn record(
        &self,
        id: Option<u32>,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        (start, end): (Instant, Instant),
    ) {
        let Some(id) = id else { return };
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            request,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span push never panics while holding the lock")
            .push(span);
    }

    /// A copy of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span push never panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let tracer = Tracer::new(false);
        let inner = tracer.span("a.b", 1, None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(inner, 7);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.reserve(), None);
    }

    #[test]
    fn children_point_at_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("outer.call", 9, None, |outer| {
            tracer.span("inner.call", 9, outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer.call").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner.call").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(tracer.durations("inner.call").len(), 1);
    }
}
