//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is listed here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! keeps the two in step). An untraced run prints every end-to-end metric,
//! a traced run every per-layer metric, on one JSON line that ends the
//! standard output.

use serde::{JsonValue, Serialize};
use std::collections::BTreeMap;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["batch_banded", "map_long"];

/// End-to-end metrics and their units (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("recall", "frac"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics and their units (traced runs).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("systolic.busy_s", "s"),
    ("systolic.us_per_pair", "us"),
    ("systolic.mcells_per_s", "Mcells/s"),
    ("systolic.cells", "count"),
    ("systolic.wavefronts", "count"),
    ("systolic.tb_steps", "count"),
    ("systolic.pe_util", "frac"),
    ("model.load_cycles", "cycles"),
    ("model.init_cycles", "cycles"),
    ("model.fill_cycles", "cycles"),
    ("model.reduce_cycles", "cycles"),
    ("model.traceback_cycles", "cycles"),
    ("model.total_cycles", "cycles"),
    ("model.aps", "1/s"),
    ("gap.host_over_model", "ratio"),
    ("host.wall_s", "s"),
    ("host.parallel_eff", "frac"),
    ("host.steals", "count"),
    ("host.channel_imbalance", "ratio"),
    ("session.turnaround_p50_ms", "ms"),
    ("session.submit_block_s", "s"),
    ("session.reorder_high_water", "count"),
    ("session.resident_high_water", "count"),
    ("protocol.encode_ns.request", "ns"),
    ("protocol.encode_ns.response", "ns"),
    ("protocol.encode_ns.error", "ns"),
    ("protocol.decode_ns.request", "ns"),
    ("protocol.decode_ns.response", "ns"),
    ("protocol.decode_ns.error", "ns"),
    ("protocol.bytes_per_req", "bytes"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.requests", "count"),
    ("serve.error_frames", "count"),
    ("load.late_p99_ms", "ms"),
    ("mapper.seed_s", "s"),
    ("mapper.chain_s", "s"),
    ("mapper.extend_s", "s"),
    ("mapper.extend_share", "frac"),
    ("mapper.seed_hits", "count"),
    ("mapper.chain_anchors", "count"),
    ("xdrop.cells", "count"),
    ("xdrop.mcells_per_s", "Mcells/s"),
    ("xdrop.terminated_frac", "frac"),
    ("xdrop.cells_ratio", "ratio"),
    ("mapper.parallel_eff", "frac"),
    ("mapper.reorder_high_water", "count"),
    ("index.buckets", "count"),
    ("index.masked_buckets", "count"),
    ("fasta.parse_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Operations attempted and failed, and whether every output checked out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (pairs, requests or reads).
    pub attempted: u64,
    /// Quarantined or refused operations plus outputs that failed
    /// verification.
    pub failed: u64,
    /// Outputs that differed from their reference; any makes the run fail.
    pub mismatches: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }

    /// `1 − failed / attempted`.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `1 − mismatches / attempted`: the share of outputs equal to their
    /// reference.
    pub fn correct_frac(&self) -> f64 {
        1.0 - self.mismatches as f64 / self.attempted.max(1) as f64
    }
}

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets metric `name`, which must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `set` in registry order.
///
/// # Panics
///
/// Panics if a metric of `set` was not measured — a bug in the run.
pub fn result_line(set: &[(&'static str, &'static str)], values: &Values, tally: Tally) -> String {
    let metrics = set
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::Float(value)),
                    ("unit".into(), JsonValue::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(tally.mismatches == 0)),
        ("attempted".into(), JsonValue::UInt(tally.attempted)),
        ("failed".into(), JsonValue::UInt(tally.failed)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    serde_json::to_string(&Rendered(line)).expect("the JSON model always renders")
}

/// A ready-built JSON value, for the renderer.
struct Rendered(JsonValue);

impl Serialize for Rendered {
    fn to_json_value(&self) -> JsonValue {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        match v {
            JsonValue::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str_of(v: &JsonValue) -> &str {
        match v {
            JsonValue::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match field(v, key) {
            JsonValue::Array(items) => items,
            _ => panic!("{key} is not an array"),
        }
    }

    fn declared() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn pairs(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        list(v, key)
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).into(),
                    str_of(field(m, "unit")).into(),
                )
            })
            .collect()
    }

    fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let spec = declared();
        let workloads: Vec<&str> = list(&spec, "workloads")
            .iter()
            .map(|w| str_of(field(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(pairs(&spec, "end_to_end"), owned(END_TO_END));
        assert_eq!(pairs(&spec, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for set in [END_TO_END, PER_LAYER] {
            let mut values = Values::default();
            for (i, &(name, _)) in set.iter().enumerate() {
                values.set(name, 0.5 + i as f64);
            }
            let tally = Tally {
                attempted: 7,
                failed: 1,
                mismatches: 0,
            };
            let line = serde_json::from_str(&result_line(set, &values, tally)).expect("valid JSON");
            assert_eq!(field(&line, "correct"), &JsonValue::Bool(true));
            assert_eq!(field(&line, "attempted"), &JsonValue::Int(7));
            assert_eq!(field(&line, "failed"), &JsonValue::Int(1));
            let metrics = field(&line, "metrics");
            for (i, &(name, unit)) in set.iter().enumerate() {
                let m = field(metrics, name);
                assert_eq!(str_of(field(m, "unit")), unit);
                assert_eq!(field(m, "value"), &JsonValue::Float(0.5 + i as f64));
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        result_line(END_TO_END, &Values::default(), Tally::default());
    }

    #[test]
    fn mismatches_make_the_run_incorrect() {
        let mut values = Values::default();
        for &(name, _) in END_TO_END {
            values.set(name, 1.0);
        }
        let tally = Tally {
            attempted: 2,
            failed: 1,
            mismatches: 1,
        };
        let line = serde_json::from_str(&result_line(END_TO_END, &values, tally)).unwrap();
        assert_eq!(field(&line, "correct"), &JsonValue::Bool(false));
        assert_eq!(tally.ok_frac(), 0.5);
    }
}
