//! The cache-coherence auditor: recomputes stage-cache fingerprints from
//! first principles and reports artifacts whose chained FNV-1a key
//! disagrees.
//!
//! The pipeline's content-hash discipline (see `corpus::pipeline`) is only
//! trustworthy if the keys actually *are* content hashes. This pass
//! re-derives every project's 8-stage key chain independently — straight
//! from the [`schemachron_hash`] primitives and the stages' published
//! `NAME`/`VERSION` constants, without calling the pipeline's own
//! `derive_key` — then audits the live cache against the expected key set.

use std::collections::{BTreeMap, BTreeSet};

use schemachron_corpus::pipeline::{
    self, card_fingerprint, chain_keys, StageKey, STAGE_ORDER,
};
use schemachron_corpus::Card;
use schemachron_hash::{fnv1a, FNV_OFFSET};

use crate::diag::{Diagnostic, Report};

/// The stage versions in [`STAGE_ORDER`] order, restated here so the audit
/// does not share code with the audited implementation.
const STAGE_VERSIONS: [u32; 8] = [1, 1, 1, 1, 1, 1, 1, 1];

/// The corpus ingestion dialect's canonical name, restated from
/// `schemachron_dialect::ingest_dialect()` (a registry test pins the two).
const INGEST_DIALECT: &str = "mysql";

/// The planner logic version, restated from
/// [`schemachron_dialect::PLAN_LOGIC_VERSION`].
const INGEST_PLAN_LOGIC_VERSION: u32 = 1;

/// Independent restatement of the parse stage's salt: the ingestion
/// dialect's name and the planner logic version folded into the upstream
/// key before the chain link is derived.
fn rederive_parse_salt(in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, INGEST_DIALECT.as_bytes());
    let h = fnv1a(h, &u64::from(INGEST_PLAN_LOGIC_VERSION).to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// The as-of checkpoint cache namespace, restated (the engine publishes it
/// as [`schemachron_asof::CHECKPOINT_STAGE`]; a registry test pins the two
/// together so drift is caught, not silently tolerated).
const ASOF_STAGE: &str = "asof-checkpoint";

/// The as-of checkpoint artifact version, restated from
/// [`schemachron_asof::CHECKPOINT_VERSION`].
const ASOF_VERSION: u32 = 1;

/// Independent restatement of the as-of checkpoint key derivation:
/// `derive(name, version, fnv1a(fnv1a(offset, K_le), history_key_le))`.
fn rederive_asof_key(history_key: StageKey, k_months: usize) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &(k_months as u64).to_le_bytes());
    let salted = fnv1a(salted, &history_key.to_le_bytes());
    rederive(ASOF_STAGE, ASOF_VERSION, salted)
}

/// The safety-analysis cache namespace, restated (the engine publishes it
/// as [`schemachron_safety::SAFETY_STAGE`]; a registry test pins the two
/// together so drift is caught, not silently tolerated).
const SAFETY_STAGE: &str = "safety";

/// The safety logic version, restated from
/// [`schemachron_safety::SAFETY_LOGIC_VERSION`].
const SAFETY_VERSION: u32 = 1;

/// Independent restatement of the safety artifact key derivation: a plain
/// chain link from the history key, `derive(name, version, history_key)` —
/// no extra salt, unlike the K-salted as-of chain.
fn rederive_safety_key(history_key: StageKey) -> StageKey {
    rederive(SAFETY_STAGE, SAFETY_VERSION, history_key)
}

/// The streaming classification cache namespace, restated (the engine
/// publishes it as [`schemachron_stream::STREAM_STAGE`]; a registry test
/// pins the two together so drift is caught, not silently tolerated).
const STREAM_STAGE: &str = "stream-classify";

/// The streamed classification logic version, restated from
/// [`schemachron_stream::STREAM_LOGIC_VERSION`].
const STREAM_VERSION: u32 = 1;

/// Independent restatement of the streamed classification key derivation:
/// `derive(name, version, fnv1a(fnv1a(offset, count_le), chain_crc_le))` —
/// the WAL chain checksum salted with the commit count, then the standard
/// chain link.
fn rederive_stream_key(chain_crc: StageKey, commit_count: u64) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &commit_count.to_le_bytes());
    let salted = fnv1a(salted, &chain_crc.to_le_bytes());
    rederive(STREAM_STAGE, STREAM_VERSION, salted)
}

/// Independent restatement of the cache's shard-count formula: the next
/// power of two at or above 4 × available parallelism. Deliberately does
/// not call `pipeline::shard_count_for` — drift between the two is exactly
/// what H004 exists to flag.
fn rederive_shard_count() -> usize {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (4 * parallelism.max(1)).next_power_of_two()
}

/// Independent re-derivation of one chain link:
/// `fnv1a(fnv1a(fnv1a(offset, name), version_le), in_key_le)`.
fn rederive(name: &str, version: u32, in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &version.to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// Independent re-derivation of a card's full key chain.
fn rederive_chain(card: &Card, seed: u64) -> [StageKey; 8] {
    let mut key = card_fingerprint(card, seed);
    let mut keys = [0; 8];
    for (i, (name, version)) in STAGE_ORDER.iter().zip(STAGE_VERSIONS).enumerate() {
        // The parse link (index 1) salts its upstream key with the
        // ingestion dialect + planner logic version before chaining.
        if i == 1 {
            key = rederive_parse_salt(key);
        }
        key = rederive(name, version, key);
        keys[i] = key;
    }
    keys
}

/// Audits the process-wide stage cache against the given card set.
///
/// * **H003** — the pipeline's own [`chain_keys`] disagrees with this
///   module's independent re-derivation for some card: the key-derivation
///   scheme itself has drifted.
/// * **H002** — a cached artifact lives under a stage namespace that is not
///   in [`STAGE_ORDER`].
/// * **H001** — a cached artifact's key is not derivable from any card in
///   the set under the given seed: either the entry was corrupted/re-keyed,
///   or it belongs to an input outside the audited card set.
/// * **H004** — the shard layout drifted: the live shard count disagrees
///   with this module's restated formula (`next_pow2(4 × parallelism)`),
///   the count is not a power of two, or an entry resides outside the
///   shard its key selects (`key & (count - 1)`). A misplaced entry is
///   invisible to lookups, so it silently degrades the cache to a miss.
/// * **H005** — an as-of checkpoint artifact (the time-travel engine's
///   namespace) carries a key that disagrees with this module's restated
///   derivation from the history key and checkpoint spacing the payload
///   itself records, or the payload is not an as-of index at all. Unlike
///   H001 this audit is seed-free: the artifact restates its own inputs,
///   so its key is checkable without knowing which corpus built it.
/// * **H006** — a safety-analysis artifact carries a key that disagrees
///   with this module's restated derivation (`derive("safety", version,
///   history_key)` from the history key the payload records), or the
///   payload is not a safety analysis at all. Seed-free like H005.
/// * **H008** — a streamed classification artifact (the live-ingestion
///   engine's namespace) carries a key that disagrees with this module's
///   restated derivation from the WAL chain checksum and commit count the
///   payload itself records, or the payload is not a streamed
///   classification at all. Seed-free like H005/H006: the WAL chain
///   checksum is already a content hash of the full commit prefix.
pub fn audit_stage_cache(cards: &[Card], seed: u64, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";

    // Expected key set per stage, plus the owning project for messages.
    let mut expected: BTreeMap<&'static str, BTreeMap<StageKey, &str>> = BTreeMap::new();
    for card in cards {
        let ours = rederive_chain(card, seed);
        let theirs = chain_keys(card, seed);
        if ours != theirs {
            report.push(Diagnostic::new(
                "H003",
                &card.name,
                format!(
                    "pipeline chain keys disagree with the independent FNV-1a re-derivation \
                     (pipeline {theirs:016x?}, re-derived {ours:016x?})"
                ),
            ));
        }
        // Audit the cache against the pipeline's own notion of the chain:
        // H001 must flag corrupted *entries*, not re-report a drifted
        // derivation scheme (that is H003's job).
        for (stage, key) in STAGE_ORDER.iter().zip(theirs) {
            expected.entry(stage).or_default().insert(key, &card.name);
        }
    }

    let known: BTreeSet<&str> = STAGE_ORDER.iter().copied().collect();
    for (stage, key) in pipeline::stage_cache_entries() {
        if stage == ASOF_STAGE {
            audit_asof_entry(key, report);
            continue;
        }
        if stage == SAFETY_STAGE {
            audit_safety_entry(key, report);
            continue;
        }
        if stage == STREAM_STAGE {
            audit_stream_entry(key, report);
            continue;
        }
        if !known.contains(stage) {
            report.push(Diagnostic::new(
                "H002",
                PROJECT,
                format!("cached artifact {key:016x} lives under unknown stage namespace `{stage}`"),
            ));
            continue;
        }
        let derivable = expected
            .get(stage)
            .is_some_and(|keys| keys.contains_key(&key));
        if !derivable {
            report.push(Diagnostic::new(
                "H001",
                PROJECT,
                format!(
                    "cached `{stage}` artifact {key:016x} is not derivable from any card \
                     in the audited set (seed {seed})"
                ),
            ));
        }
    }

    // H004: shard-layout audit. The shard count must match the restated
    // formula, and every resident entry must live in the shard its key
    // selects — the same FNV-1a key the H001 pass just validated, masked by
    // the restated count. Anything else means lookups can no longer find
    // the entry, which silently turns the cache into a miss machine.
    let live = pipeline::stage_cache_shard_count();
    let restated = rederive_shard_count();
    if live != restated || !live.is_power_of_two() {
        report.push(Diagnostic::new(
            "H004",
            PROJECT,
            format!(
                "stage-cache shard count {live} disagrees with the restated formula \
                 next_pow2(4 × parallelism) = {restated}"
            ),
        ));
    }
    let mask = live.max(1) - 1;
    for (stage, key, shard) in pipeline::stage_cache_shard_entries() {
        let selected = (key as usize) & mask;
        if shard != selected {
            report.push(Diagnostic::new(
                "H004",
                PROJECT,
                format!(
                    "cached `{stage}` artifact {key:016x} resides in shard {shard} but its \
                     key selects shard {selected} (count {live})"
                ),
            ));
        }
    }
}

/// H005: audits one artifact in the as-of checkpoint namespace against the
/// restated key derivation (see [`rederive_asof_key`]).
fn audit_asof_entry(key: StageKey, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";
    let Some(artifact) =
        pipeline::peek_stage_artifact::<schemachron_asof::AsOfArtifact>(ASOF_STAGE, key)
    else {
        report.push(Diagnostic::new(
            "H005",
            PROJECT,
            format!(
                "cached `{ASOF_STAGE}` artifact {key:016x} is not an as-of index payload"
            ),
        ));
        return;
    };
    let restated = rederive_asof_key(artifact.history_key, artifact.k_months);
    if restated != key {
        report.push(Diagnostic::new(
            "H005",
            PROJECT,
            format!(
                "cached `{ASOF_STAGE}` artifact {key:016x} disagrees with the restated \
                 derivation {restated:016x} for history key {:016x} at K={} \
                 (project `{}`)",
                artifact.history_key,
                artifact.k_months,
                artifact.index.project(),
            ),
        ));
    }
}

/// H006: audits one artifact in the safety namespace against the restated
/// key derivation (see [`rederive_safety_key`]).
fn audit_safety_entry(key: StageKey, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";
    let Some(artifact) =
        pipeline::peek_stage_artifact::<schemachron_safety::SafetyArtifact>(SAFETY_STAGE, key)
    else {
        report.push(Diagnostic::new(
            "H006",
            PROJECT,
            format!("cached `{SAFETY_STAGE}` artifact {key:016x} is not a safety analysis payload"),
        ));
        return;
    };
    let restated = rederive_safety_key(artifact.history_key);
    if restated != key {
        report.push(Diagnostic::new(
            "H006",
            PROJECT,
            format!(
                "cached `{SAFETY_STAGE}` artifact {key:016x} disagrees with the restated \
                 derivation {restated:016x} for history key {:016x} (project `{}`)",
                artifact.history_key, artifact.analysis.project,
            ),
        ));
    }
}

/// H008: audits one artifact in the streamed classification namespace
/// against the restated key derivation (see [`rederive_stream_key`]).
fn audit_stream_entry(key: StageKey, report: &mut Report) {
    const PROJECT: &str = "(stage-cache)";
    let Some(artifact) =
        pipeline::peek_stage_artifact::<schemachron_stream::StreamArtifact>(STREAM_STAGE, key)
    else {
        report.push(Diagnostic::new(
            "H008",
            PROJECT,
            format!(
                "cached `{STREAM_STAGE}` artifact {key:016x} is not a streamed \
                 classification payload"
            ),
        ));
        return;
    };
    let restated = rederive_stream_key(artifact.chain_crc, artifact.commit_count);
    if restated != key {
        report.push(Diagnostic::new(
            "H008",
            PROJECT,
            format!(
                "cached `{STREAM_STAGE}` artifact {key:016x} disagrees with the restated \
                 derivation {restated:016x} for chain checksum {:016x} over {} commit(s) \
                 (pattern `{}`)",
                artifact.chain_crc, artifact.commit_count, artifact.pattern,
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::pipeline::{build_project, corrupt_stage_cache_entry};

    /// The stage cache is process-wide and these tests assert *cache-global*
    /// facts, so each one takes this lock and starts from an empty cache.
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn rederivation_matches_pipeline() {
        for card in all_cards().iter().take(5) {
            assert_eq!(rederive_chain(card, 42), chain_keys(card, 42));
        }
    }

    #[test]
    fn pristine_cache_audits_clean_and_corruption_is_caught() {
        // One test, sequenced: the stage cache is process-wide, so a clean
        // audit must be asserted *before* this test corrupts it.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(3).collect();
        let seed = 4242; // private to this test: no cross-test interference
        for card in &cards {
            let _ = build_project(card, seed);
        }

        let mut clean = Report::new();
        audit_stage_cache(&cards, seed, &mut clean);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_human());

        // Corrupt one entry's key: H001. The victim is the history entry,
        // a published artifact (upstream stages never reach the cache).
        let victim = chain_keys(&cards[0], seed);
        let stage = STAGE_ORDER[4];
        assert!(corrupt_stage_cache_entry(
            (stage, victim[4]),
            (stage, victim[4] ^ 0xdead_beef)
        ));
        let mut tampered = Report::new();
        audit_stage_cache(&cards, seed, &mut tampered);
        assert_eq!(codes(&tampered), ["H001"]);
        assert!(tampered.render_human().contains("not derivable"));

        // Re-file the same entry under a bogus stage namespace: H002.
        assert!(corrupt_stage_cache_entry(
            (stage, victim[4] ^ 0xdead_beef),
            ("bogus-stage", victim[4])
        ));
        let mut bogus = Report::new();
        audit_stage_cache(&cards, seed, &mut bogus);
        assert_eq!(codes(&bogus), ["H002"]);

        // Restore so other tests sharing the process cache are unaffected.
        assert!(corrupt_stage_cache_entry(
            ("bogus-stage", victim[4]),
            (stage, victim[4])
        ));

        // Strand the entry in the wrong shard (key untouched, so H001 stays
        // quiet): H004.
        let count = pipeline::stage_cache_shard_count();
        let home = pipeline::shard_of_key(victim[4], count);
        let wrong = (home + 1) % count;
        assert!(pipeline::misplace_stage_cache_entry((stage, victim[4]), wrong));
        let mut misplaced = Report::new();
        audit_stage_cache(&cards, seed, &mut misplaced);
        assert_eq!(codes(&misplaced), ["H004"]);
        assert!(misplaced.render_human().contains(&format!("shard {wrong}")));

        // Restore residency and confirm the audit is clean again.
        assert!(pipeline::misplace_stage_cache_entry((stage, victim[4]), home));
        let mut restored = Report::new();
        audit_stage_cache(&cards, seed, &mut restored);
        assert!(restored.diagnostics().is_empty(), "{}", restored.render_human());
    }

    #[test]
    fn restated_shard_formula_matches_pipeline() {
        assert_eq!(rederive_shard_count(), pipeline::stage_cache_shard_count());
    }

    #[test]
    fn restated_ingest_dialect_constants_match_the_planner() {
        assert_eq!(INGEST_DIALECT, schemachron_dialect::ingest_dialect().name());
        assert_eq!(
            INGEST_PLAN_LOGIC_VERSION,
            schemachron_dialect::PLAN_LOGIC_VERSION
        );
        // And the full salt fold, on an arbitrary input key.
        assert_eq!(
            rederive_parse_salt(0x1234_5678_9abc_def0),
            schemachron_corpus::pipeline::parse_salt(0x1234_5678_9abc_def0)
        );
    }

    #[test]
    fn restated_asof_constants_match_the_engine() {
        assert_eq!(ASOF_STAGE, schemachron_asof::CHECKPOINT_STAGE);
        assert_eq!(ASOF_VERSION, schemachron_asof::CHECKPOINT_VERSION);
        // And the full key derivation, on an arbitrary input pair.
        assert_eq!(
            rederive_asof_key(0x1234_5678_9abc_def0, 12),
            schemachron_asof::checkpoint_key(0x1234_5678_9abc_def0, 12)
        );
    }

    #[test]
    fn restated_safety_constants_match_the_engine() {
        assert_eq!(SAFETY_STAGE, schemachron_safety::SAFETY_STAGE);
        assert_eq!(SAFETY_VERSION, schemachron_safety::SAFETY_LOGIC_VERSION);
        // And the full key derivation, on an arbitrary input key.
        assert_eq!(
            rederive_safety_key(0x1234_5678_9abc_def0),
            schemachron_safety::safety_key(0x1234_5678_9abc_def0)
        );
    }

    #[test]
    fn restated_stream_constants_match_the_engine() {
        assert_eq!(STREAM_STAGE, schemachron_stream::STREAM_STAGE);
        assert_eq!(STREAM_VERSION, schemachron_stream::STREAM_LOGIC_VERSION);
        // And the full key derivation, on an arbitrary input pair.
        assert_eq!(
            rederive_stream_key(0x1234_5678_9abc_def0, 17),
            schemachron_stream::stream_key(0x1234_5678_9abc_def0, 17)
        );
    }

    #[test]
    fn stream_entries_audit_clean_and_rekeying_is_caught() {
        // Sequenced like the safety/as-of tests: the cache is process-wide,
        // so the clean audit comes before the corruption.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(1).collect();
        let seed = 72_424; // private to this test: no cross-test interference
        let commits = vec![
            (
                "2021-03-10".parse().unwrap(),
                "CREATE TABLE t (a INT);".to_owned(),
            ),
            (
                "2021-04-10".parse().unwrap(),
                "ALTER TABLE t ADD COLUMN b INT;".to_owned(),
            ),
        ];
        let crc = 0x57_24_24_01; // private chain checksum: no cross-test races
        let built = schemachron_stream::classification_for("lint-stream-test", &commits, crc);
        let key = schemachron_stream::stream_key(built.chain_crc, built.commit_count);

        // A live store publishes through its running fold instead: in-order
        // appends, a backdated one that refolds, and a reopen that refolds
        // on its next append. Those entries must audit clean too.
        let root = std::env::temp_dir().join(format!(
            "schemachron-lint-stream-fold-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let chain = [
            ("2021-03-10", "CREATE TABLE t (a INT);"),
            ("2021-05-10", "ALTER TABLE t ADD COLUMN b INT;"),
            ("2021-04-10", "CREATE TABLE u (x INT);"),
            ("2022-01-10", "ALTER TABLE t DROP COLUMN a;"),
        ];
        let mut fold_keys = Vec::new();
        let mut store = schemachron_stream::StreamStore::open(&root).unwrap();
        for (i, (date, sql)) in chain.iter().enumerate() {
            if i == 3 {
                // Reopening serves the pattern from the cache; the next
                // append refolds the chain from the WAL.
                drop(store);
                store = schemachron_stream::StreamStore::open(&root).unwrap();
            }
            store.append("lint-fold", i as u64 + 1, date, sql).unwrap();
            let crc = store.chain_crc("lint-fold").unwrap();
            fold_keys.push(schemachron_stream::stream_key(crc, i as u64 + 1));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
        let cached: BTreeSet<StageKey> = pipeline::stage_cache_entries()
            .into_iter()
            .filter(|(stage, _)| *stage == STREAM_STAGE)
            .map(|(_, key)| key)
            .collect();
        assert!(
            fold_keys.iter().all(|k| cached.contains(k)),
            "fold entries missing"
        );

        let mut clean = Report::new();
        audit_stage_cache(&cards, seed, &mut clean);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_human());

        // Re-key the artifact: its payload restates the real chain checksum
        // and commit count, so the restated derivation no longer lands on
        // the cached key — H008.
        let stage = schemachron_stream::STREAM_STAGE;
        assert!(corrupt_stage_cache_entry(
            (stage, key),
            (stage, key ^ 0x0bad_5eed)
        ));
        let mut rekeyed = Report::new();
        audit_stage_cache(&cards, seed, &mut rekeyed);
        assert_eq!(codes(&rekeyed), ["H008"]);
        assert!(
            rekeyed.render_human().contains("restated"),
            "{}",
            rekeyed.render_human()
        );

        // Restore so other tests sharing the process cache are unaffected.
        assert!(corrupt_stage_cache_entry(
            (stage, key ^ 0x0bad_5eed),
            (stage, key)
        ));
        let mut restored = Report::new();
        audit_stage_cache(&cards, seed, &mut restored);
        assert!(
            restored.diagnostics().is_empty(),
            "{}",
            restored.render_human()
        );
    }

    #[test]
    fn safety_entries_audit_clean_and_rekeying_is_caught() {
        // Sequenced like the as-of test below: the cache is process-wide,
        // so the clean audit comes before the corruption.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(1).collect();
        let seed = 62_424; // private to this test: no cross-test interference
        let built = schemachron_safety::safety_for(&cards[0], seed);
        let key = schemachron_safety::safety_key(built.history_key);

        let mut clean = Report::new();
        audit_stage_cache(&cards, seed, &mut clean);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_human());

        // Re-key the artifact: its payload restates the real history key,
        // so the restated derivation no longer lands on the cached key —
        // H006.
        let stage = schemachron_safety::SAFETY_STAGE;
        assert!(corrupt_stage_cache_entry(
            (stage, key),
            (stage, key ^ 0x0bad_f00d)
        ));
        let mut rekeyed = Report::new();
        audit_stage_cache(&cards, seed, &mut rekeyed);
        assert_eq!(codes(&rekeyed), ["H006"]);
        assert!(
            rekeyed.render_human().contains("restated"),
            "{}",
            rekeyed.render_human()
        );

        // Restore so other tests sharing the process cache are unaffected.
        assert!(corrupt_stage_cache_entry(
            (stage, key ^ 0x0bad_f00d),
            (stage, key)
        ));
        let mut restored = Report::new();
        audit_stage_cache(&cards, seed, &mut restored);
        assert!(
            restored.diagnostics().is_empty(),
            "{}",
            restored.render_human()
        );
    }

    #[test]
    fn asof_entries_audit_clean_and_rekeying_is_caught() {
        // Sequenced like the stage-cache test above: the cache is
        // process-wide, so the clean audit comes before the corruption.
        let _lock = CACHE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pipeline::clear_stage_cache();
        let cards: Vec<Card> = all_cards().into_iter().take(1).collect();
        let seed = 52_424; // private to this test: no cross-test interference
        let corpus = schemachron_corpus::Corpus::from_cards(cards.clone(), seed, 1);
        let built = schemachron_asof::index_for(&corpus.projects()[0], seed, 12)
            .expect("corpus projects retain schema versions");
        let key = schemachron_asof::checkpoint_key(built.history_key, built.k_months);

        let mut clean = Report::new();
        audit_stage_cache(&cards, seed, &mut clean);
        assert!(clean.diagnostics().is_empty(), "{}", clean.render_human());

        // Re-key the artifact: its payload restates the real inputs, so the
        // restated derivation no longer lands on the cached key — H005.
        let stage = schemachron_asof::CHECKPOINT_STAGE;
        assert!(corrupt_stage_cache_entry(
            (stage, key),
            (stage, key ^ 0x0bad_cafe)
        ));
        let mut rekeyed = Report::new();
        audit_stage_cache(&cards, seed, &mut rekeyed);
        assert_eq!(codes(&rekeyed), ["H005"]);
        assert!(
            rekeyed.render_human().contains("restated"),
            "{}",
            rekeyed.render_human()
        );

        // Restore so other tests sharing the process cache are unaffected.
        assert!(corrupt_stage_cache_entry(
            (stage, key ^ 0x0bad_cafe),
            (stage, key)
        ));
        let mut restored = Report::new();
        audit_stage_cache(&cards, seed, &mut restored);
        assert!(
            restored.diagnostics().is_empty(),
            "{}",
            restored.render_human()
        );
    }
}
