//! Stage-cache behavior: cold builds miss every stage in pipeline order
//! and publish only the terminal artifacts, warm builds hit only those, and
//! mutating one card invalidates exactly that project's chain. Also proves
//! the incremental rebuild is byte-identical to a from-scratch build at
//! several worker counts.
//!
//! The stage cache and its counters are process-global, so every test
//! serializes on [`LOCK`]; each uses its own seed to keep chains disjoint.

use std::sync::Mutex;

use schemachron_corpus::cards::all_cards;
use schemachron_corpus::pipeline::{
    self, build_project_traced, chain_keys, DiffSeq, LogicalSchema, ParsedDdl, RawScripts,
    StageKey, STAGE_ORDER,
};
use schemachron_corpus::{Card, Corpus, StageTrace};

static LOCK: Mutex<()> = Mutex::new(());

/// The four terminal artifacts a fully cached walk fetches, in walk order.
const WARM_STAGES: [&str; 4] = ["classify", "history", "metrics", "labels"];

fn assert_cold(trace: &StageTrace, name: &str) {
    assert_eq!(trace.hits(), 0, "{name}: cold build must not hit");
    assert_eq!(
        trace.missed_stages(),
        STAGE_ORDER.to_vec(),
        "{name}: cold build recomputes every stage in pipeline order"
    );
}

fn assert_warm(trace: &StageTrace, name: &str) {
    assert_eq!(trace.misses(), 0, "{name}: warm build must not recompute");
    let hit_stages: Vec<&str> = trace.entries().iter().map(|e| e.stage).collect();
    assert_eq!(
        hit_stages,
        WARM_STAGES.to_vec(),
        "{name}: warm build fetches only the terminal artifacts"
    );
}

#[test]
fn cold_build_misses_every_stage_in_order() {
    let _guard = LOCK.lock().unwrap();
    let card = all_cards().remove(0);
    pipeline::clear_stage_cache();
    let (_, trace) = build_project_traced(&card, 7701);
    assert_cold(&trace, &card.name);
}

#[test]
fn cold_build_publishes_only_the_terminal_artifacts() {
    let _guard = LOCK.lock().unwrap();
    let cards: Vec<Card> = all_cards().into_iter().take(3).collect();
    pipeline::clear_stage_cache();
    for card in &cards {
        let _ = build_project_traced(card, 7707);
    }
    // Exactly history, metrics, labels and classify per project: the last
    // 4 links of each chain.
    let mut terminal: Vec<(&str, StageKey)> = cards
        .iter()
        .flat_map(|card| STAGE_ORDER.into_iter().zip(chain_keys(card, 7707)).skip(4))
        .collect();
    terminal.sort_unstable();
    assert_eq!(pipeline::stage_cache_entries(), terminal);
    assert_eq!(pipeline::stage_cache_len(), 4 * cards.len());
    for card in &cards {
        let keys = chain_keys(card, 7707);
        assert!(pipeline::peek_stage_artifact::<RawScripts>(STAGE_ORDER[0], keys[0]).is_none());
        assert!(pipeline::peek_stage_artifact::<ParsedDdl>(STAGE_ORDER[1], keys[1]).is_none());
        assert!(pipeline::peek_stage_artifact::<LogicalSchema>(STAGE_ORDER[2], keys[2]).is_none());
        assert!(pipeline::peek_stage_artifact::<DiffSeq>(STAGE_ORDER[3], keys[3]).is_none());
    }
}

#[test]
fn warm_build_hits_terminal_stages_only() {
    let _guard = LOCK.lock().unwrap();
    let card = all_cards().remove(0);
    pipeline::clear_stage_cache();
    let (first, _) = build_project_traced(&card, 7702);
    let (second, trace) = build_project_traced(&card, 7702);
    assert_warm(&trace, &card.name);
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "cached rebuild must be byte-identical"
    );
}

#[test]
fn mutating_one_card_recomputes_only_that_chain() {
    let _guard = LOCK.lock().unwrap();
    let mut cards: Vec<Card> = all_cards().into_iter().take(4).collect();
    pipeline::clear_stage_cache();
    for card in &cards {
        let (_, trace) = build_project_traced(card, 7703);
        assert_cold(&trace, &card.name);
    }
    // Edit one project: its chain re-runs end to end, the rest stay cached.
    cards[1].name.push_str("-edited");
    for (i, card) in cards.iter().enumerate() {
        let (_, trace) = build_project_traced(card, 7703);
        if i == 1 {
            assert_cold(&trace, &card.name);
        } else {
            assert_warm(&trace, &card.name);
        }
    }
}

#[test]
fn different_seed_invalidates_every_chain() {
    let _guard = LOCK.lock().unwrap();
    let card = all_cards().remove(0);
    pipeline::clear_stage_cache();
    let (_, cold) = build_project_traced(&card, 7704);
    assert_cold(&cold, &card.name);
    let (_, other_seed) = build_project_traced(&card, 7705);
    assert_cold(&other_seed, &card.name);
}

#[test]
fn incremental_rebuild_is_byte_identical_across_jobs() {
    let _guard = LOCK.lock().unwrap();
    for jobs in [1, 8] {
        let mut mutated = all_cards();
        mutated[0].name.push_str("-incr");

        // From-scratch build of the mutated corpus.
        pipeline::clear_stage_cache();
        let scratch = Corpus::from_cards(mutated.clone(), 7706, jobs);

        // Incremental: warm the cache with the original corpus, then
        // rebuild with one card invalidated.
        pipeline::clear_stage_cache();
        let _ = Corpus::from_cards(all_cards(), 7706, jobs);
        let incremental = Corpus::from_cards(mutated, 7706, jobs);

        assert_eq!(
            format!("{:?}", scratch.projects()),
            format!("{:?}", incremental.projects()),
            "jobs={jobs}: incremental rebuild must equal a from-scratch build"
        );
    }
}
