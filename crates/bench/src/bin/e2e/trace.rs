//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each layer, held in memory and written out once at exit.
//!
//! Spans *inside* `crates/dds` / `crates/ampc` are the `obs` issue's job;
//! when it lands, these outside-in numbers are its cross-check.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share its id.
    pub op: Option<u64>,
    /// Extra fields written verbatim into the trace file.
    pub fields: Vec<(String, Json)>,
}

/// In-memory span store.  Only the benchmark's driver thread records; the
/// wire tap keeps its own log on the same clock and is folded in afterwards.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant all span times count from (shared with the wire tap).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Record a finished span, returning its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
            fields: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach an extra field to span `id`.
    pub fn annotate(&mut self, id: usize, key: &str, value: Json) {
        self.spans[id].fields.push((key.to_string(), value));
    }

    /// Run `work` inside a parentless span named `name`, returning its
    /// result and the span's duration in milliseconds.
    pub fn time<T>(&mut self, name: &str, work: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let result = work();
        let end = self.now_ns();
        self.record(name, start, end, None, None);
        (result, (end - start) as f64 / 1e6)
    }

    /// A span's self time: its duration minus the part of that interval its
    /// child spans cover (overlapping children are counted once).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|child| child.parent == Some(id))
            .map(|child| {
                (
                    child.start_ns.clamp(span.start_ns, span.end_ns),
                    child.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = span.start_ns;
        for (start, end) in children {
            if end > frontier {
                covered += end - start.max(frontier);
                frontier = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut fields = vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("name".to_string(), Json::str(span.name.as_str())),
                    ("start_ns".to_string(), Json::Num(span.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(span.end_ns as f64)),
                    (
                        "parent".to_string(),
                        Json::num(span.parent.map(|p| p as f64)),
                    ),
                    ("op".to_string(), Json::num(span.op.map(|o| o as f64))),
                ];
                fields.extend(span.fields.iter().cloned());
                Json::Obj(fields)
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("ns since the tracer was created")),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new();
        let op = tracer.record("op", 100, 1_100, None, Some(0));
        tracer.record("round", 200, 400, Some(op), Some(0));
        // Overlaps the first child by 100 ns and sticks out past the parent.
        tracer.record("round", 300, 600, Some(op), Some(0));
        tracer.record("round", 1_000, 1_500, Some(op), Some(0));
        // A grandchild and an unrelated span change nothing.
        tracer.record("inner", 210, 390, Some(1), Some(0));
        tracer.record("other", 0, 5_000, None, None);
        // Covered: [200, 600) ∪ [1000, 1100) = 500 of 1000.
        assert_eq!(tracer.self_time_ns(op), 500);
        assert_eq!(tracer.self_time_ns(1), 20);
    }

    #[test]
    fn trace_documents_carry_name_times_parent_and_op() {
        let mut tracer = Tracer::new();
        let op = tracer.record("op", 5, 50, None, Some(3));
        let child = tracer.record("wire.commit", 10, 20, Some(op), Some(3));
        tracer.annotate(child, "bytes_up", Json::Num(1_234.0));
        let doc = Json::parse(&tracer.to_json("conn-remote").to_pretty()).unwrap();
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            panic!("spans missing: {doc:?}");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[1].get("op"), Some(&Json::Num(3.0)));
        assert_eq!(spans[1].get("name"), Some(&Json::str("wire.commit")));
        assert_eq!(spans[1].get("bytes_up"), Some(&Json::Num(1_234.0)));
    }
}
