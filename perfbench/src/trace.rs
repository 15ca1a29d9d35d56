//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! the simulator's public API; nothing inside the simulator is
//! instrumented. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Frame the span belongs to, shared by every span of one frame.
    pub frame: Option<u64>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &str, frame: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            frame,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (spans close innermost first).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Self time of every span, in ns: its duration minus the part of it
    /// its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times in ms of the spans named `name`, in recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Total self time in ms per span name, in first-seen order.
    pub fn self_totals(&self) -> Vec<(String, f64, usize)> {
        let mut totals: Vec<(String, f64, usize)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += ns as f64 / 1e6;
                    t.2 += 1;
                }
                None => totals.push((s.name.clone(), ns as f64 / 1e6, 1)),
            }
        }
        totals
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{\"host\": {header}, \"spans\": [\n");
        let selfs = self.self_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let frame = s.frame.map_or("null".to_string(), |f| f.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"frame\": {frame}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", Some(3));
        let inner = tr.begin("inner", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        let selfs = tr.self_ns();
        let (o, i) = (&tr.spans[0], &tr.spans[1]);
        assert_eq!(i.parent, Some(0));
        assert_eq!(selfs[0], (o.end_ns - o.start_ns) - (i.end_ns - i.start_ns));
        assert_eq!(selfs[1], i.end_ns - i.start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x", None);
        tr.end(s);
        assert!(tr.spans.is_empty());
    }
}
