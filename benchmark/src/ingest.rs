//! `ingest-fit` and `ingest-spill`: the paper's batch path through
//! `summarize_cards`, cold and then warm, at two corpus sizes on either
//! side of the stage cache's capacity (32,768 artifacts; a project
//! publishes 8).

use std::collections::BTreeMap;
use std::time::Instant;

use schemachron_corpus::cards::{all_cards, scaled_cards};
use schemachron_corpus::{pipeline, summarize_cards, Card, ProjectSummary};

use crate::layers::{median_metrics, p50, shared_layers, CacheDelta, CacheSnapshot, Shared};
use crate::report::{Metric, RunResult};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::Ctx;

/// Ingestion workers.
const JOBS: usize = 2;
/// The corpus seed: the paper-calibrated corpus, the same for every
/// workload seed, so every run ingests the same work.
const CORPUS_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One ingestion workload's shape.
pub struct Shape {
    /// Complete 151-card cycles (corpus size = 151 × cycles).
    pub cycles: usize,
    /// Warm rebuilds after each cold build.
    pub warm_builds: usize,
}

/// 3,020 projects, 24,160 artifacts: fits the cache, so every warm rebuild
/// is all hits. The control for any cache-capacity change.
pub const FIT: Shape = Shape {
    cycles: 20,
    warm_builds: 20,
};

/// 4,530 projects, 36,240 artifacts (1.1× capacity): the cold build evicts
/// its own artifacts and the warm rebuild finds none of them.
pub const SPILL: Shape = Shape {
    cycles: 30,
    warm_builds: 1,
};

fn pattern_counts<'a>(names: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for n in names {
        *counts.entry(n).or_insert(0) += 1;
    }
    counts
}

/// Checks a build: one summary per card and the per-pattern counts of
/// the 151-card deck times the cycle count.
fn check(
    result: &mut RunResult,
    built: &[ProjectSummary],
    cards: &[Card],
    deck: &BTreeMap<&str, usize>,
    cycles: usize,
) {
    if built.len() != cards.len() {
        result.fail(format!(
            "{} summaries for {} cards",
            built.len(),
            cards.len()
        ));
        return;
    }
    let got = pattern_counts(built.iter().map(|s| s.assigned.name()));
    let want: BTreeMap<&str, usize> = deck.iter().map(|(k, v)| (*k, v * cycles)).collect();
    if got != want {
        result.fail(format!("per-pattern counts {got:?}, want {want:?}"));
    }
}

/// One timed build; a failed build counts and returns nothing.
fn build(result: &mut RunResult, cards: &[Card], seed: u64) -> Option<(Vec<ProjectSummary>, f64)> {
    result.attempted += 1;
    let t = Instant::now();
    match summarize_cards(cards.to_vec(), seed, JOBS) {
        Ok(s) => Some((s, t.elapsed().as_secs_f64())),
        Err(e) => {
            result.fail(format!("build failed: {e}"));
            None
        }
    }
}

/// The card deck started at a seeded position. Rotating keeps the deck's
/// order, so the seed moves where the build starts without changing the
/// work or its locality (a full shuffle measured about 5% slower).
fn rotated(mut cards: Vec<Card>, seed: u64) -> Vec<Card> {
    let start = Rng::new(seed).below(cards.len());
    cards.rotate_left(start);
    cards
}

/// Runs one ingestion workload.
pub fn run(ctx: &Ctx, shape: &Shape) -> RunResult {
    let mut result = RunResult::default();
    let deck_cards = all_cards();
    let deck = pattern_counts(deck_cards.iter().map(|c| c.pattern.name()));
    let mut cards = Vec::new();
    for _ in 0..SETUPS {
        // Set-up: the card deck, then one cold build of a single cycle so
        // code paths and the allocator are warm before timing.
        let t = Instant::now();
        cards = rotated(scaled_cards(shape.cycles * 151), ctx.seed);
        pipeline::clear_stage_cache();
        if let Some((warmup, _)) = build(&mut result, &deck_cards, CORPUS_SEED) {
            check(&mut result, &warmup, &deck_cards, &deck, 1);
        }
        result.setup_s.push(t.elapsed().as_secs_f64());
    }

    let size = cards.len();
    let tracer = Tracer::new();
    let (mut cold_pps, mut warm_pps) = (Vec::new(), Vec::new());
    let (mut traced_cold, mut untraced_cold) = (Vec::new(), Vec::new());
    let mut rep_layers = Vec::new();
    let (mut projects, mut build_s) = (0usize, 0.0);
    let started = Instant::now();
    let mut rep = 0;
    // A traced run alternates untraced and traced reps. The first rep also
    // pays the process's first touch of the cache's memory, so the overhead
    // comparison leaves it out and a traced run needs three.
    while rep == 0 || (ctx.trace && rep < 3) || started.elapsed().as_secs() < ctx.seconds {
        let traced = ctx.trace && rep % 2 == 1;
        pipeline::clear_stage_cache();
        pipeline::reset_stage_stats();
        let s0 = CacheSnapshot::take();
        let rep_start = Instant::now();
        let Some((cold, cold_s)) = build(&mut result, &cards, CORPUS_SEED) else {
            break;
        };
        let s1 = CacheSnapshot::take();
        if traced {
            tracer.record(
                rep,
                "corpus.summarize_cards.cold",
                rep_start,
                Instant::now(),
                None,
            );
        }
        check(&mut result, &cold, &cards, &deck, shape.cycles);
        cold_pps.push(size as f64 / cold_s);
        if traced {
            traced_cold.push(cold_s);
        } else if rep > 0 {
            untraced_cold.push(cold_s);
        }
        projects += size;
        build_s += cold_s;
        let mut rep_s = cold_s;
        for _ in 0..shape.warm_builds {
            let t = Instant::now();
            let Some((warm, warm_s)) = build(&mut result, &cards, CORPUS_SEED) else {
                continue;
            };
            if traced {
                tracer.record(rep, "corpus.summarize_cards.warm", t, Instant::now(), None);
            }
            if warm != cold {
                result.fail("a warm rebuild's summaries differ from the cold build's");
            }
            warm_pps.push(size as f64 / warm_s);
            projects += size;
            build_s += warm_s;
            rep_s += warm_s;
        }
        // The operation is one rep: a cold build and its warm rebuilds.
        result.ops_ms.push(rep_s * 1e3);
        let s2 = CacheSnapshot::take();
        if ctx.trace {
            let cold_delta = CacheDelta::between(&s0, &s1);
            let warm_delta = CacheDelta::between(&s1, &s2);
            let rep_delta = CacheDelta::between(&s0, &s2);
            rep_layers.push(shared_layers(&Shared {
                cache: &rep_delta,
                hit_ratio: warm_delta.hit_ratio(),
                build: &cold_delta,
                build_wall_s: cold_s,
                jobs: JOBS,
                workers: schemachron_corpus::effective_workers(size, JOBS),
                overhead_pct: 0.0,
            }));
        }
        rep += 1;
    }
    result.throughput_per_s = projects as f64 / build_s.max(1e-9);
    result.details = vec![
        Metric::new("cold_projects_per_s", p50(&cold_pps), "1/s"),
        Metric::new("warm_projects_per_s", p50(&warm_pps), "1/s"),
        Metric::new("reps", rep as f64, "count"),
    ];
    if ctx.trace {
        let overhead = (p50(&traced_cold) / p50(&untraced_cold) - 1.0) * 100.0;
        let mut layers = median_metrics(&rep_layers);
        if let Some(m) = layers.iter_mut().find(|m| m.name == "trace.overhead_pct") {
            m.value = overhead;
        }
        result.layers = layers;
        result.spans = tracer.spans();
    }
    result
}
