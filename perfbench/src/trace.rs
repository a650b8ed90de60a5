//! In-memory span recorder for the traced run.
//!
//! Spans are placed by the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the library is
//! instrumented. They stay in memory while the run measures and are
//! written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The client-side query (or round) number the span belongs to.
    pub query: u64,
}

/// Records spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// An open span: close it with [`Tracer::close`].
pub struct Open {
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under `parent` for query `query`.
    pub fn open(&mut self, name: &'static str, parent: &Open, query: u64) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: parent.index,
            query,
        });
        Open {
            index: Some(self.spans.len() - 1),
        }
    }

    /// The parent of top-level spans.
    pub fn root() -> Open {
        Open { index: None }
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.index {
            self.spans[i].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: &Open,
        query: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, query);
        let r = f();
        self.close(s);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"query\": {}}}",
                s.name, s.start_us, s.end_us, s.query
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
