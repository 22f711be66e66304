//! `/health` reports the stage cache's resident bytes, byte budget and
//! per-namespace evictions. A test binary of its own: the stage cache is
//! process-wide, so no other test's builds land in the figures.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::mem::size_of;

use schemachron_corpus::cards::all_cards;
use schemachron_corpus::pipeline::{
    self, ApproxSize, LabelTuple, MetricVector, PatternClass, STAGE_ORDER,
};
use schemachron_serve::http::Request;
use schemachron_serve::AppState;

const SEED: u64 = 4343;

fn health(state: &AppState) -> serde_json::Value {
    let resp = state.handle(&Request::get("/health"));
    assert_eq!(resp.status, 200);
    serde_json::from_str(&String::from_utf8_lossy(&resp.body)).unwrap()
}

#[test]
fn health_reports_resident_bytes_budget_and_evictions_after_a_build() {
    let state = AppState::new(SEED);
    let resp = state.handle(&Request::get(&format!("/corpus/{SEED}/projects")));
    assert_eq!(resp.status, 200);
    let health = health(&state);

    // 151 projects, each publishing its 4 terminal artifacts.
    assert_eq!(health["stage_cache_entries"].as_u64(), Some(151 * 4));
    let cache = &health["stage_cache"];
    assert_eq!(cache["budget_bytes"].as_u64(), Some(1 << 30));
    // Each history reports its own estimate; the three small artifacts
    // report their inline size.
    let small = size_of::<MetricVector>() + size_of::<LabelTuple>() + size_of::<PatternClass>();
    let expected: usize = all_cards()
        .iter()
        .map(|card| pipeline::build_project(card, SEED).history.approx_bytes() + small)
        .sum();
    assert_eq!(cache["resident_bytes"].as_u64(), Some(expected as u64));

    // Every namespace sharing the cache is listed, and a build far under
    // the budget evicts nothing.
    let evictions = cache["evictions"].as_object().expect("evictions object");
    let mut names: Vec<&str> = evictions.keys().map(String::as_str).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = STAGE_ORDER.to_vec();
    want.extend(["asof-checkpoint", "safety", "stream-classify"]);
    want.sort_unstable();
    assert_eq!(names, want);
    assert!(
        evictions.values().all(|n| n.as_u64() == Some(0)),
        "{evictions:?}"
    );
}
