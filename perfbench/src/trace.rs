//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions: name, start, end, parent span and request id.
//! Nothing is written while the run measures; [`Tracer::write_jsonl`] dumps
//! the spans once the run has ended. A disabled tracer runs the same calls
//! without recording, so replaying a workload twice — once disabled, once
//! enabled — measures the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `protocol.request_decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (operation) the span belongs to.
    pub request: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the wrapped calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer self time and call count: a span's duration minus the part
    /// its direct children cover (children never overlap their siblings —
    /// the replay is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = layers.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        layers
    }

    /// Total duration of the top-level spans: everything the layers account
    /// for, self times of all descendants included.
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Wall time of the untraced and the traced halves of a paired replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paired {
    /// Seconds spent replaying with tracing off.
    pub plain_s: f64,
    /// Seconds spent replaying with tracing on.
    pub traced_s: f64,
    /// Chunks replayed (each once per half).
    pub chunks: usize,
}

impl Paired {
    /// Traced over untraced time, minus one.
    pub fn overhead_frac(&self) -> f64 {
        self.traced_s / self.plain_s - 1.0
    }
}

/// Replays chunk 0, 1, 2, … each twice — untraced, then into `tracer` —
/// until `seconds` have passed and at least `min_chunks` chunks ran.
/// Alternating chunk by chunk keeps slow drifts of the machine out of the
/// overhead estimate.
pub fn paired(
    tracer: &mut Tracer,
    seconds: f64,
    min_chunks: usize,
    mut chunk: impl FnMut(&mut Tracer, usize),
) -> Paired {
    let end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut plain = Tracer::new(false);
    let mut out = Paired::default();
    while out.chunks < min_chunks || Instant::now() < end {
        let start = Instant::now();
        chunk(&mut plain, out.chunks);
        out.plain_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        chunk(tracer, out.chunks);
        out.traced_s += start.elapsed().as_secs_f64();
        out.chunks += 1;
    }
    out
}

/// Accumulated self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Self time over all of them, nanoseconds.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn self_times_exclude_children_and_sum_to_the_top_level() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            spin(200);
            t.span("inner", |_| spin(300));
        });
        tracer.span("inner", |_| spin(100));
        let layers = tracer.self_times();
        assert_eq!(layers["outer"].calls, 1);
        assert_eq!(layers["inner"].calls, 2);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, tracer.attributed_ns());
        assert!(layers["outer"].self_ns < layers["inner"].self_ns + 200_000);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_runs_the_call() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("layer", |_| 41 + 1);
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.attributed_ns(), 0);
    }
}
