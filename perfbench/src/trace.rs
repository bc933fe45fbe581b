//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name (`<layer>.<call>`), a start and end on the run's
//! clock, its parent span and the id of the request it belongs to, plus the
//! counters read at its boundaries. Spans stay in memory while the run
//! measures and are written out when it ends. With tracing off, `begin`
//! and `end` do nothing.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    /// What the span worked on, where the benchmark names it (the query
    /// and graph of an evaluation, as `<query>@<graph>`).
    pub tag: Option<String>,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn counter(&self, key: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

/// One thread's span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            tag: None,
            counters: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (`id` from `begin`).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop().expect("no open span");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Attaches a counter read at a span's boundary.
    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[id].counters.push((key, value));
        }
    }

    /// Names what a span worked on; `tag` is called only when tracing.
    pub fn tag(&mut self, id: usize, tag: impl FnOnce() -> String) {
        if self.enabled {
            self.spans[id].tag = Some(tag());
        }
    }

    /// Records a closed child span whose duration was measured elsewhere
    /// (the server's own `elapsed-us`); it is placed at the parent's end.
    pub fn child_of(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let p = &self.spans[parent];
        let (req, end) = (p.req, p.end_ns);
        let start = end.saturating_sub(dur_ns).max(p.start_ns);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            req,
            tag: None,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},",
            s.name,
            s.req,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
        if let Some(tag) = &s.tag {
            let _ = write!(out, "\"tag\":\"{tag}\",");
        }
        out.push_str("\"counters\":{");
        for (j, (k, v)) in s.counters.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":{v}");
        }
        out.push_str("}}\n");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
