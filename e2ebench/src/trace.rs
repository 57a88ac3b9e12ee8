//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the runtime's public API (the stub call, the handler body, the machine
//! build and registration), so the runtime itself carries no benchmark
//! hooks. Each span carries the host clock and, on the simulator backend,
//! the node's virtual clock. Spans stay in memory until the run ends.

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oam_threads::Node;

/// What a span covers. The discriminant is folded into the span id, so
/// the id of a call's parent or child follows from the request id alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Config to first message: build, register, then start.
    Setup = 0,
    /// Machine construction (child of setup).
    Build = 1,
    /// Handler registration (child of setup).
    Register = 2,
    /// An open-loop request, from its due time to its resolution.
    Request = 3,
    /// A client stub call, from issue to resume.
    Call = 4,
    /// A handler body, from entry to exit (child of its call).
    Handler = 5,
}

impl Kind {
    /// Span name as written out.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Build => "build",
            Kind::Register => "register",
            Kind::Request => "request",
            Kind::Call => "call",
            Kind::Handler => "handler",
        }
    }

    /// The span id of this kind of span for request `req`.
    pub fn id(self, req: u64) -> u64 {
        req << 3 | self as u64
    }
}

/// A point on both clocks: host nanoseconds since the tracer's epoch and,
/// where the backend has one, the node's virtual time in nanoseconds
/// (settled time plus the charge still pending on the node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Host nanoseconds since the tracer was created.
    pub host: u64,
    /// Virtual nanoseconds, `None` on the native backend.
    pub virt: Option<u64>,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Request id shared by every span of one call.
    pub req: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Start on both clocks.
    pub start: Stamp,
    /// End on both clocks.
    pub end: Stamp,
}

impl Span {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.kind.id(self.req)
    }

    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.end.host.saturating_sub(self.start.host)
    }
}

/// The node's virtual time including its unsettled charge.
pub fn virtual_now(node: &Node) -> u64 {
    (node.now() + node.pending_charge()).as_nanos()
}

/// A span sink shared by every thread of a run. Cloning shares the sink.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty sink whose host clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Host nanoseconds of `t` on this tracer's clock.
    pub fn host_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The current point on both clocks, as seen from `node`.
    pub fn stamp(&self, node: &Node) -> Stamp {
        let virt = (!node.sim().is_native()).then(|| virtual_now(node));
        Stamp { host: self.host_ns(Instant::now()), virt }
    }

    /// Record one finished span.
    pub fn record(&self, kind: Kind, req: u64, parent: Option<u64>, start: Stamp, end: Stamp) {
        self.spans.lock().expect("a span writer panicked").push(Span {
            kind,
            req,
            parent,
            start,
            end,
        });
    }

    /// Take every span recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span writer panicked"))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of the interval `[start, end)`: its length minus the part of
/// it covered by the union of `children` (which may overlap each other
/// and may stick out of the parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Write up to `limit` spans as JSON lines to `path` (creating its
/// directory), one object per span, and return how many were written.
pub fn write_spans(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let n = spans.len().min(limit);
    for s in &spans[..n] {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"req\":{},\"parent\":{},\"host_start_ns\":{},\
             \"host_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{}}}",
            s.kind.name(),
            s.id(),
            s.req,
            opt(s.parent),
            s.start.host,
            s.end.host,
            opt(s.start.virt),
            opt(s.end.virt),
        )?;
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100). Children [10, 30) and [20, 50) overlap, so they
        // cover [10, 50) once: 40, not 50. [90, 120) sticks out: only
        // [90, 100) counts. [200, 300) lies outside.
        let kids = [(20, 50), (10, 30), (90, 120), (200, 300)];
        assert_eq!(self_time(0, 100, &kids), 100 - 40 - 10);
        assert_eq!(self_time(0, 100, &[]), 100);
        // Nested and identical children count once.
        assert_eq!(self_time(0, 100, &[(0, 100), (10, 20), (0, 100)]), 0);
        // Touching children merge without double counting.
        assert_eq!(self_time(0, 100, &[(0, 10), (10, 20)]), 80);
    }

    #[test]
    fn span_ids_link_a_call_to_its_handler_and_request() {
        let call = Kind::Call.id(7);
        assert_ne!(call, Kind::Handler.id(7));
        assert_ne!(call, Kind::Call.id(8));
        assert_eq!(call & 7, Kind::Call as u64);
        assert_eq!(call >> 3, 7);
    }

    #[test]
    fn spans_round_trip_through_the_sink_and_the_writer() {
        let t = Tracer::new();
        let s = |h: u64, v: u64| Stamp { host: h, virt: Some(v) };
        t.record(Kind::Call, 1, None, s(0, 0), s(50, 14_000));
        t.record(Kind::Handler, 1, Some(Kind::Call.id(1)), s(20, 6_000), s(30, 7_000));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert!(t.take().is_empty());
        assert_eq!(spans[1].parent, Some(spans[0].id()));
        assert_eq!(spans[0].host_ns(), 50);
        let dir = std::env::temp_dir().join(format!("oam-e2ebench-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        assert_eq!(write_spans(&path, &spans, 1).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"name\":\"call\",\"id\":12,\"req\":1,\"parent\":null"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
