//! Safety analyses in the pipeline's content-hash stage cache.
//!
//! A project's [`SafetyAnalysis`] is published as **one** artifact in the
//! process-wide lock-striped `PipelineCache`, under its own stage namespace
//! [`SAFETY_STAGE`]. The key chains from the project's *history-stage* key
//! (chain link 5 of the ingestion pipeline) through
//! [`SAFETY_LOGIC_VERSION`], so the PR-3 invalidation discipline extends
//! for free: editing a card re-fingerprints its history artifact, which
//! re-fingerprints the safety analysis built on it. The lint `H006` audit
//! restates this derivation independently and flags any resident analysis
//! whose key it cannot reproduce.
//!
//! Builds are quarantined exactly like pipeline stages: a build that
//! panics (e.g. via an injected `safety:` fault) never publishes a cache
//! entry — the panic propagates after bumping the namespace's quarantine
//! counter, and the next caller sees a plain retryable miss.

use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use schemachron_corpus::materialize::materialize;
use schemachron_corpus::pipeline::{
    derive_key, history_stage_key, insert_stage_artifact, record_stage_quarantine, stage_artifact,
    ApproxSize, StageKey,
};
use schemachron_corpus::Card;
use schemachron_fault as fault;

use crate::analyze::{analyze, OpSafety, SafetyAnalysis, Transition};

/// The safety subsystem's stage-cache namespace.
pub const SAFETY_STAGE: &str = "safety";

/// Logic version of the analysis, mixed into every safety key. Bump it when
/// the classifier, the inverse synthesizer or the lineage tracker changes
/// so stale cached analyses can never be served.
pub const SAFETY_LOGIC_VERSION: u32 = 1;

/// A cached safety analysis plus the provenance of its own cache key, so
/// the lint auditor can re-derive the key from first principles.
#[derive(Debug)]
pub struct SafetyArtifact {
    /// The history-stage key of the project the analysis was built from.
    pub history_key: StageKey,
    /// The analysis itself.
    pub analysis: SafetyAnalysis,
}

impl ApproxSize for SafetyArtifact {
    /// O(versions × ops): each classified op's strings by length.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let ops = |t: &Transition| -> usize {
            t.ops
                .iter()
                .map(|op| {
                    size_of::<OpSafety>()
                        + op.op.len()
                        + op.reason.len()
                        + op.inverse.as_ref().map_or(0, |inv| {
                            inv.iter().map(|s| size_of::<String>() + s.len()).sum()
                        })
                })
                .sum()
        };
        size_of::<Self>()
            + self.analysis.project.len()
            + self
                .analysis
                .transitions
                .iter()
                .map(|t| size_of::<Transition>() + t.script.len() + t.date.len() + ops(t))
                .sum::<usize>()
    }
}

impl Deref for SafetyArtifact {
    type Target = SafetyAnalysis;

    fn deref(&self) -> &SafetyAnalysis {
        &self.analysis
    }
}

/// Derives the cache key of a project's safety analysis: the
/// stage-chaining hash of this namespace's identity over the history key.
/// Deterministic and content-addressed — any change to the card, the seed,
/// an upstream stage version or the safety logic lands on a different key.
pub fn safety_key(history_key: StageKey) -> StageKey {
    derive_key(SAFETY_STAGE, SAFETY_LOGIC_VERSION, history_key)
}

/// The safety analysis for a corpus card, served from the stage cache when
/// already built. The analysis is a pure function of the card's
/// materialized DDL commits, so every caller at any `--jobs` level gets a
/// byte-identical rendering.
///
/// # Panics
/// Propagates a panicking build (including injected `safety:` faults)
/// after recording a quarantine — never after publishing an entry.
pub fn safety_for(card: &Card, seed: u64) -> Arc<SafetyArtifact> {
    let history_key = history_stage_key(card, seed);
    let key = safety_key(history_key);
    if let Some(hit) = stage_artifact::<SafetyArtifact>(SAFETY_STAGE, key) {
        return hit;
    }
    let started = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        fault::checkpoint_point(&format!("{SAFETY_STAGE}:{key:016x}"));
        let project = materialize(card, seed);
        analyze(&card.name, &project.ddl_commits)
    }));
    match built {
        Ok(analysis) => {
            let artifact = Arc::new(SafetyArtifact {
                history_key,
                analysis,
            });
            insert_stage_artifact(SAFETY_STAGE, key, artifact.clone(), started.elapsed());
            artifact
        }
        Err(payload) => {
            // Quarantine: the key was never published, so the next caller
            // gets a clean retryable miss instead of a poisoned artifact.
            record_stage_quarantine(SAFETY_STAGE);
            resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::Corpus;

    #[test]
    fn safety_keys_chain_from_the_history_key() {
        let k = safety_key(7);
        assert_ne!(k, safety_key(8), "history key must matter");
        assert_eq!(k, safety_key(7), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        // A private seed so this test never races others on the same keys.
        let seed = 71_309;
        let cards: Vec<Card> = all_cards().into_iter().take(2).collect();
        let corpus = Corpus::from_cards(cards, seed, 1);
        let project = &corpus.projects()[0];
        let cold = safety_for(&project.card, seed);
        let warm = safety_for(&project.card, seed);
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        assert_eq!(cold.project, project.card.name);
        assert_eq!(cold.history_key, history_stage_key(&project.card, seed));
        assert!(cold.versions > 0, "corpus projects have schema versions");
    }
}
