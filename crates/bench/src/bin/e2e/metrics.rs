//! The metric vocabulary: every name the benchmark may print, with unit,
//! direction and — for end-to-end metrics — the regression bound.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a test below
//! holds the two in step.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the vocabulary.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which an end-to-end metric may worsen
    /// before `e2e compare` calls it WORSE.  0 for per-layer metrics, which
    /// are never gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees, measured with tracing off.  Every
/// workload reports every one of these.
///
/// The bounds are what a *driver* may allow between runs on different
/// seeds: `comm_pairs` moves by about 1 % from one random instance to the
/// next.  Between two runs of one seed it must not move at all, and
/// `e2e compare` holds it (and `rounds`) to that — see [`EXACT`].
pub const END_TO_END: [Spec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_ms_p50", "ms", Better::Lower, 0.25),
    e2e("mitems_per_s", "Mitems/s", Better::Higher, 0.25),
    e2e("comm_pairs", "count", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// Costs of the model that are a pure function of the input: identical on
/// every op of a run (the benchmark fails otherwise), and `e2e compare`
/// calls any increase between two result files WORSE.  `rounds` is not in
/// [`END_TO_END`] because it jumps between instances (12 or 14 on
/// `msf-channel`), which no share-of-median bound can express; it is a
/// field of every workload's report and `core.rounds` in [`PER_LAYER`].
pub const EXACT: [&str; 2] = ["rounds", "comm_pairs"];

use Better::{Higher, Lower};

/// Single-layer metrics, reported by the traced run.  A metric that does not
/// apply to a workload (no wire on `conn-local`, no runtime on
/// `serve-stream`) reads 0 there.
pub const PER_LAYER: [Spec; 51] = [
    layer("graph.generate_ms", "ms", Lower),
    layer("core.driver_ms", "ms", Lower),
    layer("core.read_rounds_ms", "ms", Lower),
    layer("core.write_rounds_ms", "ms", Lower),
    layer("core.rounds", "count", Lower),
    layer("core.queries", "count", Lower),
    layer("core.writes", "count", Lower),
    layer("core.budget_violations", "count", Lower),
    layer("ampc.rounds_ms", "ms", Lower),
    layer("ampc.round_ms_max", "ms", Lower),
    layer("ampc.run_ms_p75", "ms", Lower),
    layer("ampc.run_ms_max", "ms", Lower),
    layer("ampc.max_machine_comm", "count", Lower),
    layer("ampc.thread_speedup", "x", Higher),
    layer("ampc.empty_round_us", "us", Lower),
    layer("ampc.scatter_ms", "ms", Lower),
    layer("ampc.context.point_read_ns", "ns", Lower),
    layer("ampc.context.batched_read_ns", "ns", Lower),
    layer("ampc.context.windowed_read_ns", "ns", Lower),
    layer("dds.store.partition_ms", "ms", Lower),
    layer("dds.store.commit_ms", "ms", Lower),
    layer("dds.store.freeze_ms", "ms", Lower),
    layer("dds.store.mpairs_per_s", "Mpairs/s", Higher),
    layer("dds.snapshot.get_ns", "ns", Lower),
    layer("dds.snapshot.get_many_ns", "ns", Lower),
    layer("dds.proto.epoch_frame_bytes", "bytes", Lower),
    layer("dds.proto.epoch_encode_ms", "ms", Lower),
    layer("dds.proto.epoch_decode_ms", "ms", Lower),
    layer("dds.proto.commit_bytes", "bytes", Lower),
    layer("dds.proto.commit_encode_ms", "ms", Lower),
    layer("dds.proto.commit_decode_ms", "ms", Lower),
    layer("dds.proto.bytes_per_pair", "bytes", Lower),
    layer("dds.codec.frame_write_ms", "ms", Lower),
    layer("dds.codec.frame_read_ms", "ms", Lower),
    layer("dds.session.connect_ms", "ms", Lower),
    layer("dds.session.rtt_us_p50", "us", Lower),
    layer("dds.serve.w1_req_per_s", "1/s", Higher),
    layer("dds.serve.req_per_s", "1/s", Higher),
    layer("dds.serve.req_us_p50", "us", Lower),
    layer("dds.serve.req_us_p99", "us", Lower),
    layer("dds.serve.commit_service_ms", "ms", Lower),
    layer("dds.serve.advance_service_ms", "ms", Lower),
    layer("wire.requests", "count", Lower),
    layer("wire.bytes_up", "bytes", Lower),
    layer("wire.bytes_down", "bytes", Lower),
    layer("wire.epoch_frame_bytes_max", "bytes", Lower),
    layer("wire.client_gap_ms", "ms", Lower),
    layer("dds.cluster.freeze_phase_ms", "ms", Lower),
    layer("dds.cluster.publish_phase_ms", "ms", Lower),
    layer("dds.cluster.owner_skew", "x", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Measured values by metric name.  `Some(None)` is a metric that applies
/// but could not be measured meaningfully here (a thread speed-up on one
/// CPU); a name never set does not apply to the workload.
#[derive(Clone, Debug, Default)]
pub struct Values {
    values: Vec<(&'static str, Option<f64>)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, Some(value)));
    }

    pub fn set_unmeasurable(&mut self, name: &'static str) {
        self.values.push((name, None));
    }

    pub fn get(&self, name: &str) -> Option<Option<f64>> {
        self.values
            .iter()
            .rev()
            .find(|(known, _)| *known == name)
            .map(|(_, value)| *value)
    }

    /// Names that were set but are not in `specs`, or do not match
    /// `[A-Za-z0-9_.-]+` — either is a bug in the benchmark.
    pub fn unknown_names(&self, specs: &[Spec]) -> Vec<&'static str> {
        self.values
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !valid_name(name) || !specs.iter().any(|spec| spec.name == *name))
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}` over `specs`, in their order.
    /// Unmeasurable values become `null`; with `fill`, metrics that do not
    /// apply read 0 (the driver's result line needs a number for every name).
    pub fn to_json(&self, specs: &[Spec], fill: bool) -> Json {
        Json::Obj(
            specs
                .iter()
                .filter_map(|spec| {
                    let value = match (self.get(spec.name), fill) {
                        (Some(value), false) => value,
                        (Some(value), true) => Some(value.unwrap_or(0.0)),
                        (None, true) => Some(0.0),
                        (None, false) => return None,
                    };
                    Some((
                        spec.name.to_string(),
                        Json::obj([("value", Json::num(value)), ("unit", Json::str(spec.unit))]),
                    ))
                })
                .collect(),
        )
    }
}

/// Metric names are restricted to `[A-Za-z0-9_.-]+` so they survive every
/// shell, file name and JSON path they end up in.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(
                spec.name.len() <= 64 && spec.unit.len() <= 16,
                "{}",
                spec.name
            );
            assert!(seen.insert(spec.name), "{} is listed twice", spec.name);
        }
        assert!(!valid_name("run ms") && !valid_name("") && !valid_name("p50/ms"));
    }

    #[test]
    fn unknown_or_malformed_names_are_caught() {
        let mut values = Values::default();
        values.set("run_ms_p50", 1.0);
        values.set("run_ms_p5O", 1.0);
        values.set("bad name", 1.0);
        assert_eq!(
            values.unknown_names(&END_TO_END),
            ["run_ms_p5O", "bad name"]
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above and to the workload list.
    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            match std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                Ok(text) => break text,
                Err(_) => assert!(dir.pop(), "BENCHMARK.json not found above the manifest"),
            }
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected a list, got {other:?}"),
        };
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);

        let names: Vec<_> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let expected: Vec<_> = workloads::NAMES
            .iter()
            .map(|n| Some(n.to_string()))
            .collect();
        assert_eq!(names, expected);

        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (item, spec) in listed.iter().zip(specs) {
                assert_eq!(field(item, "name").as_deref(), Some(spec.name), "{key}");
                assert_eq!(
                    field(item, "unit").as_deref(),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    field(item, "better").as_deref(),
                    Some(spec.better.as_str()),
                    "{}",
                    spec.name
                );
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(spec.bound),
                    "{}",
                    spec.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
