//! In-memory spans for the traced run.
//!
//! Every thread that records owns a [`SpanBuf`]; span ids come from one
//! shared counter so buffers merge without collisions. Nothing is
//! written until the run ends ([`write_report`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Serialize, Value};

/// One timed interval.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Shared by every span of one request (or one probe section).
    pub trace: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// What was timed, `layer.call` (the layer is the part before the
    /// first dot).
    pub name: String,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug, Clone)]
pub struct SpanBuf {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A recorder on a fresh epoch and id counter.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    /// An empty recorder sharing this one's epoch and id counter (for
    /// another thread).
    pub fn sibling(&self) -> Self {
        Self {
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Allocates a trace id (shares the span id space).
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval; returns its span id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push(trace, id, parent, name, start, end);
        id
    }

    /// Runs `f` inside a span; `f` gets the span id to parent nested
    /// spans on.
    pub fn span<T>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(self, id);
        self.push(trace, id, parent, name, start, Instant::now());
        out
    }

    fn push(
        &mut self,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Moves another buffer's spans into this one.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Self time per layer in milliseconds: each span's duration minus its
/// children's, summed by the layer prefix of its name.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        *out.entry(layer).or_default() += own as f64 / 1e6;
    }
    out
}

/// Writes `report` (host fingerprint, metrics, layer map), the
/// per-layer self times and every span as one JSON document.
pub fn write_report(path: &Path, spans: &SpanBuf, report: Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_time = self_time_ms(&spans.spans)
        .into_iter()
        .map(|(layer, ms)| (layer, Value::F64(ms)))
        .collect();
    let doc = Value::Map(vec![
        ("report".into(), report),
        ("self_time_ms".into(), Value::Map(self_time)),
        ("spans".into(), to_value(&spans.spans)),
    ]);
    let text = serde_json::to_string(&Doc(doc)).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

/// A prebuilt value tree, printable with `serde_json`.
pub struct Doc(pub Value);

impl Serialize for Doc {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_value(self.0.clone())
    }
}

/// Any serializable value as a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    serde::ser::to_value(v).expect("benchmark types serialize")
}
