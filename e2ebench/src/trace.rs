//! In-memory spans of a traced run, written out once at the end.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer: name, start, end, the span that caused it, and the job it serves
//! (the daemon job id on `svc_mixed`, 0 elsewhere).

use std::path::Path;

use fec_json::Json;

use crate::util::now_ns;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span.
    pub parent: u64,
    /// Daemon job id the span belongs to (0 when not a job).
    pub job: u64,
    /// Start, ns on the benchmark clock.
    pub start_ns: u64,
    /// End, ns on the benchmark clock.
    pub end_ns: u64,
}

/// Span store.  Capacity is reserved up front so recording does not
/// allocate inside measured sections.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        job: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            job,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span ending "now" at [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &'static str, parent: u64, job: u64) -> u64 {
        let now = now_ns();
        self.record(name, parent, job, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        self.spans[id as usize - 1].end_ns = now_ns();
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("job", Json::from(s.job)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_string())
    }
}
