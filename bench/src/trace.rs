//! Bench-side spans for the traced run. The program's own `HADAD_TRACE`
//! stays off: spans are recorded here, around every public call, and the
//! phases *inside* a call become child spans built from the durations the
//! call's report already returns. Everything stays in memory until the
//! workload ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use crate::json::escape;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u32,
    /// Recording thread (the Chrome trace's `tid`).
    pub tid: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder of one thread.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `epoch` so their timelines line up.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer { epoch, tid, spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u32, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            tid: self.tid,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Adds child spans for phases a report timed inside `parent`, laid out
    /// back to back from the parent's start (the report gives durations, not
    /// start times). Returns the first child's id.
    pub fn phases(&mut self, parent: SpanId, phases: &[(&'static str, u128)]) -> SpanId {
        let first = self.spans.len() as SpanId;
        let (op, tid, mut at) = {
            let p = &self.spans[parent as usize];
            (p.op, p.tid, p.start_ns)
        };
        for &(name, us) in phases {
            let id = self.spans.len() as SpanId;
            let dur = us as u64 * 1000;
            self.spans.push(Span { id, parent, op, tid, name, start_ns: at, end_ns: at + dur });
            at += dur;
        }
        first
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// direct children cover (children built from reported durations can
    /// overrun a parent by rounding; the overrun is not counted twice).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) +=
                s.dur_ns().saturating_sub(covered[s.id as usize]);
        }
        out
    }

    /// Appends another thread's spans, re-basing ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto), with
    /// the self time per span name beside them.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_owned() } else { s.parent.to_string() };
            write!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                escape(s.name),
                s.tid,
                s.start_ns as f64 / 1000.0,
                s.dur_ns() as f64 / 1000.0,
                s.id,
                parent,
                s.op,
            )?;
        }
        let self_times: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, ns)| format!("\"{}\": {ns}", escape(name)))
            .collect();
        write!(w, "\n],\n\"selfTimeNs\": {{{}}}}}\n", self_times.join(", "))?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, tid: 0, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.spans = vec![
            span(0, NO_PARENT, "op", 0, 1000),
            span(1, 0, "rewrite", 0, 600),
            span(2, 1, "chase", 0, 450),
            span(3, 1, "extract", 450, 550),
            span(4, 0, "eval", 600, 900),
        ];
        let st = t.self_times();
        assert_eq!(st["op"], 100); // 1000 − (600 + 300)
        assert_eq!(st["rewrite"], 50); // 600 − (450 + 100)
        assert_eq!(st["chase"], 450);
        assert_eq!(st["eval"], 300);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(st.values().sum::<u64>(), 1000);
    }

    #[test]
    fn reported_phases_become_back_to_back_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let root = t.begin("rewrite", 7, NO_PARENT);
        t.spans[root as usize].end_ns = t.spans[root as usize].start_ns + 10_000;
        t.phases(root, &[("encode", 2), ("chase", 5)]);
        let (enc, chase) = (&t.spans[1], &t.spans[2]);
        assert_eq!((enc.parent, enc.op, enc.dur_ns()), (root, 7, 2000));
        assert_eq!(chase.start_ns, enc.end_ns);
        assert_eq!(t.self_times()["rewrite"], 3000);
        // Children overrunning the parent never make self time negative.
        t.phases(root, &[("rank", 9)]);
        assert_eq!(t.self_times()["rewrite"], 0);
    }
}
