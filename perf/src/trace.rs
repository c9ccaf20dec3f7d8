//! In-memory span recorder for the traced replay.
//!
//! A span is one timed call (or one loop of calls) into a layer: name,
//! start, end, the span that caused it, and a trace id — the snapshot tick
//! the work belongs to, so every span of one snapshot shares it. Spans stay
//! in memory while the replay runs and are written out once at the end.
//! A layer's *self time* is its spans' duration minus the part covered by
//! their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Sum of span durations minus time covered by child spans.
    pub self_ns: u64,
    /// Spans recorded for the layer.
    pub spans: u64,
}

/// Span recorder; a disabled recorder does no clock reads and keeps nothing,
/// so the untraced replay runs the very same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, trace: u32) {
        if !self.enabled {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time and span count per layer name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        layer.spans += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("snapshot", None, 0, 100),
            span("query", Some(0), 10, 30),
            span("sync", Some(0), 40, 50),
            // A grandchild counts against its parent, not the root.
            span("tree", Some(1), 12, 20),
            span("query", None, 200, 205),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["snapshot"],
            LayerTime {
                self_ns: 70,
                spans: 1
            }
        );
        assert_eq!(
            t["query"],
            LayerTime {
                self_ns: 12 + 5,
                spans: 2
            }
        );
        assert_eq!(
            t["sync"],
            LayerTime {
                self_ns: 10,
                spans: 1
            }
        );
        assert_eq!(
            t["tree"],
            LayerTime {
                self_ns: 8,
                spans: 1
            }
        );
        let total: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100 + 5, "self times partition the root spans");
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_keeps_nothing() {
        let mut tr = Tracer::new(true);
        tr.enter("outer", 1);
        tr.enter("inner", 1);
        tr.exit();
        tr.exit();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).expect("write to memory");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 2);

        let mut off = Tracer::new(false);
        off.enter("outer", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
