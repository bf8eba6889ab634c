//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, parent span and request id. Spans are
//! kept in memory and written out once the run ends. With tracing off every
//! method returns at its first branch, so the untraced run pays one
//! predictable branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Request id of a span that serves no single request.
pub const NO_REQ: u64 = u64::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// The span recorder. Spans opened with [`Tracer::begin`] nest on a stack;
/// [`Tracer::record`] adds a span with explicit times (a served request whose
/// lifetime overlaps others) under the innermost open span.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Pauses (`false`) or resumes recording. Spans opened before a pause
    /// are closed after it; calls made while paused record nothing.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer started, for [`Tracer::record`].
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req,
        });
        self.stack.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.at(Instant::now());
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end = end;
    }

    /// Adds a closed span with explicit times under the innermost open span.
    #[inline]
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds. A span's layer is its name up to
    /// the first `.`; its self time is its duration minus the part of that
    /// interval its child spans cover (children may overlap each other).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut out = BTreeMap::new();
        let mut iv: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            iv.clear();
            iv.extend(children[i].iter().map(|&c| {
                let c = &self.spans[c as usize];
                (c.start.max(s.start), c.end.min(s.end))
            }));
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in &iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == NO_REQ {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "bench.a",
                start: 0,
                end: 100,
                parent: NO_PARENT,
                req: NO_REQ,
            },
            Span {
                name: "api.x",
                start: 10,
                end: 40,
                parent: 0,
                req: 1,
            },
            Span {
                name: "api.y",
                start: 30,
                end: 60,
                parent: 0,
                req: 2,
            },
            Span {
                name: "core.z",
                start: 90,
                end: 120,
                parent: 0,
                req: NO_REQ,
            },
        ];
        let m = t.self_time_by_layer();
        // Children cover [10, 60) and [90, 100): 60 ns of the parent's 100.
        assert_eq!(m["bench"], 40);
        assert_eq!(m["api"], 30 + 30);
        assert_eq!(m["core"], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("api.x", 0);
        t.end(s);
        t.record("server.request", 0, 5, 1);
        assert!(t.spans().is_empty());
    }
}
