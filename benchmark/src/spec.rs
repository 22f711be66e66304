//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled in so the binary and the file cannot disagree about bounds.

use serde_json::Value;

/// The declaration as written.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Gated end-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

fn declared(list: Option<&Value>) -> Vec<Declared> {
    list.and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .map(|m| Declared {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Parses the compiled-in declaration.
pub fn spec() -> Spec {
    let v = serde_json::from_str(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: v.get("run_seconds").and_then(Value::as_u64).unwrap_or(10),
        workloads: v
            .get("workloads")
            .and_then(Value::as_array)
            .map(|w| {
                w.iter()
                    .filter_map(|x| x.get("name").and_then(Value::as_str).map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default(),
        end_to_end: declared(v.get("end_to_end")),
        per_layer: declared(v.get("per_layer")),
    }
}
