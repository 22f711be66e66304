//! Metric names, the result record and its three renderings: the human
//! lines, the result file and the one-line JSON result.

use serde_json::{json, Map, Value};

use crate::stats::{summarize, Summary};
use crate::trace::Span;

/// The stage-cache namespaces the per-layer counters cover: the eight
/// ingestion stages, then the derived-artifact namespaces.
pub const NAMESPACES: [&str; 11] = [
    "materialize",
    "parse",
    "schema",
    "diff",
    "history",
    "metrics",
    "labels",
    "classify",
    "asof-checkpoint",
    "safety",
    "stream-classify",
];

/// End-to-end metrics: `(name, unit)`, the same on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Duration of each set-up made in the run, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every operation, from its due time, in milliseconds.
    pub ops_ms: Vec<f64>,
    /// Completed operations (or projects, for ingestion) per second.
    pub throughput_per_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Workload-specific end-to-end detail, printed and written but not
    /// gated.
    pub details: Vec<Metric>,
    /// Per-layer metrics (traced runs only): the shared set of
    /// [`per_layer_names`] first, then the workload's own.
    pub layers: Vec<Metric>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// The first few correctness failures, described.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Counts one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }
}

/// The per-layer metrics every workload's traced run emits. Workloads emit
/// further layer metrics of their own beside these (see the README).
pub fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for ns in NAMESPACES {
        names.push(format!("stage_cache.{ns}.hits"));
        names.push(format!("stage_cache.{ns}.misses"));
    }
    for n in ["hit_ratio", "resident", "evictions"] {
        names.push(format!("stage_cache.{n}"));
    }
    for stage in &NAMESPACES[..8] {
        names.push(format!("corpus.pipeline.{stage}.busy_ms"));
    }
    names.push("corpus.parallel.workers".to_owned());
    names.push("corpus.parallel.busy_share".to_owned());
    names.push("trace.overhead_pct".to_owned());
    names
}

/// The end-to-end metrics of a run.
pub fn end_to_end(result: &RunResult, peak_rss_mb: f64) -> Vec<Metric> {
    let ops: Summary = if result.ops_ms.is_empty() {
        summarize(&[f64::NAN])
    } else {
        summarize(&result.ops_ms)
    };
    let setup = if result.setup_s.is_empty() {
        f64::NAN
    } else {
        crate::stats::median(&result.setup_s)
    };
    let values = [
        setup,
        peak_rss_mb,
        ops.p50,
        ops.tail,
        result.throughput_per_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

fn metric_map(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(
            m.name.clone(),
            json!({"value": (m.value), "unit": (m.unit)}),
        );
    }
    Value::Object(map)
}

/// The one-line JSON result: the gated metrics only, exactly the names the
/// benchmark declares for the mode.
pub fn result_line(result: &RunResult, gated: &[Metric]) -> String {
    let correct = result.failed == 0 && result.attempted > 0;
    json!({
        "correct": correct,
        "attempted": (result.attempted.max(1)),
        "failed": (result.failed),
        "metrics": (metric_map(gated)),
    })
    .to_string()
}

/// The result file: every metric, the sample sizes, the host and the
/// failures.
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    host: Value,
    result: &RunResult,
    all: &[Metric],
) -> Value {
    let ops = (!result.ops_ms.is_empty()).then(|| summarize(&result.ops_ms));
    json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "host": host,
        "attempted": (result.attempted),
        "failed": (result.failed),
        "fail_ratio": (fail_ratio(result)),
        "ops": (ops.map_or(Value::Null, |s| json!({"n": (s.n), "tail_percentile": (s.tail_label)}))),
        "setup_runs_s": (result.setup_s.clone()),
        "metrics": (metric_map(all)),
        "failures": (result.failures.clone()),
    })
}

/// Failed, refused or wrong operations over those attempted.
pub fn fail_ratio(result: &RunResult) -> f64 {
    result.failed as f64 / result.attempted.max(1) as f64
}

/// `workload metric value unit`, one line per metric.
pub fn human_lines(workload: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{workload} {} {} {}\n", m.name, m.value, m.unit))
        .collect()
}
