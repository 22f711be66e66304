//! `BENCHMARK.json` agrees with what the benchmark emits: every declared
//! metric is emitted, nothing undeclared is, and every name is well formed.

use schemachron_benchmark::layers::{shared_layers, CacheDelta, Shared};
use schemachron_benchmark::report::{end_to_end, per_layer_names, RunResult, NAMESPACES};
use schemachron_benchmark::spec::{spec, SPEC_JSON};
use schemachron_benchmark::WORKLOADS;
use serde_json::Value;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn the_declared_workloads_are_the_ones_that_run() {
    assert_eq!(spec().workloads, WORKLOADS);
}

#[test]
fn end_to_end_emission_matches_the_declaration() {
    let result = RunResult {
        setup_s: vec![0.5, 0.6, 0.7],
        ops_ms: vec![1.0, 2.0, 3.0],
        throughput_per_s: 10.0,
        attempted: 3,
        ..RunResult::default()
    };
    let emitted: Vec<(String, String)> = end_to_end(&result, 64.0)
        .into_iter()
        .map(|m| (m.name, m.unit.to_owned()))
        .collect();
    let declared: Vec<(String, String)> = spec()
        .end_to_end
        .into_iter()
        .map(|d| (d.name, d.unit))
        .collect();
    assert_eq!(emitted, declared);
}

#[test]
fn per_layer_emission_matches_the_declaration() {
    let zero = CacheDelta {
        hits: vec![0; NAMESPACES.len()],
        misses: vec![0; NAMESPACES.len()],
        quarantined: vec![0; NAMESPACES.len()],
        busy_ms: vec![0.0; NAMESPACES.len()],
        resident_before: 0,
        resident_after: 0,
    };
    let emitted: Vec<(String, String)> = shared_layers(&Shared {
        cache: &zero,
        hit_ratio: 1.0,
        build: &zero,
        build_wall_s: 1.0,
        jobs: 2,
        workers: 1,
        overhead_pct: 0.0,
    })
    .into_iter()
    .map(|m| (m.name, m.unit.to_owned()))
    .collect();
    let names: Vec<String> = emitted.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, per_layer_names());
    let declared: Vec<(String, String)> = spec()
        .per_layer
        .into_iter()
        .map(|d| (d.name, d.unit))
        .collect();
    assert_eq!(emitted, declared);
}

#[test]
fn names_are_well_formed_unique_and_bounded() {
    let s = spec();
    let mut names: Vec<&str> = s.workloads.iter().map(String::as_str).collect();
    names.extend(s.end_to_end.iter().map(|d| d.name.as_str()));
    names.extend(s.per_layer.iter().map(|d| d.name.as_str()));
    for n in &names {
        assert!(well_formed(n), "{n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");

    for d in &s.end_to_end {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
    }
    let setup = s
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is declared");
    assert!(setup.lower_is_better && setup.unit == "s");
    assert!(
        s.end_to_end.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!(
        s.per_layer.iter().all(|d| d.bound.is_none()),
        "per-layer metrics are not gated"
    );
}

#[test]
fn the_command_stays_inside_the_benchmark_directory() {
    let v: Value = serde_json::from_str(SPEC_JSON).expect("valid JSON");
    let keys: Vec<&String> = v.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = v.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths, &[Value::from("benchmark")]);
    let command = v.get("command").and_then(Value::as_array).expect("command");
    for arg in command.iter().filter_map(Value::as_str) {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(
                arg.starts_with("benchmark/"),
                "{arg} is outside the benchmark"
            );
        }
    }
}
