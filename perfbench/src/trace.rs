//! The benchmark's own spans: one record per call into a layer, kept in
//! memory during the traced phase and written out once when the run ends.

use std::path::Path;
use std::time::Instant;

use absort_telemetry::json::Value;

/// Spans beyond this many are counted but not kept, bounding memory.
const MAX_SPANS: usize = 50_000;

struct SpanRec {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span buffer. A disabled buffer records nothing, so untraced
/// runs pay one branch per call site.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    dropped: u64,
    recs: Vec<SpanRec>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            dropped: 0,
            recs: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes. Id 0 means "no parent".
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn close(&mut self, id: u64, parent: u64, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.recs.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.recs.push(SpanRec {
            id,
            parent,
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a leaf span.
    pub fn leaf(&mut self, parent: u64, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.open();
            self.close(id, parent, name, start, end);
        }
    }

    /// Writes the spans plus the program's own telemetry manifest.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .recs
            .iter()
            .map(|r| {
                Value::obj([
                    ("id", Value::Int(r.id as i64)),
                    ("parent", Value::Int(r.parent as i64)),
                    ("name", Value::Str(r.name.clone())),
                    ("start_ns", Value::Int(r.start_ns as i64)),
                    ("end_ns", Value::Int(r.end_ns as i64)),
                ])
            })
            .collect();
        let doc = Value::obj([
            ("workload", Value::Str(workload.to_owned())),
            ("seed", Value::Int(seed as i64)),
            ("spans_dropped", Value::Int(self.dropped as i64)),
            ("spans", Value::Arr(spans)),
            ("telemetry", absort_telemetry::manifest()),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_pretty())
    }
}
