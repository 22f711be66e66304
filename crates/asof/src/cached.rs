//! Checkpoint artifacts in the pipeline's content-hash stage cache.
//!
//! A built [`AsOfIndex`] (snapshot checkpoints + delta log) is published as
//! **one** artifact per `(project, K)` in the process-wide lock-striped
//! `PipelineCache`, under its own stage namespace [`CHECKPOINT_STAGE`]. The
//! key chains from the project's *history-stage* key (chain link 5 of the
//! ingestion pipeline), so the PR-3 invalidation discipline extends for
//! free: editing a card re-fingerprints its history artifact, which
//! re-fingerprints every as-of index built on it. The lint `H005` audit
//! restates this derivation independently and flags any resident index
//! whose key it cannot reproduce.
//!
//! Builds are quarantined exactly like pipeline stages: a build that
//! panics (e.g. via the `asof::checkpoint` fault site) never publishes a
//! cache entry — the panic propagates after bumping the namespace's
//! quarantine counter, and the next caller sees a plain retryable miss.

use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use schemachron_corpus::pipeline::{
    derive_key, history_stage_key, insert_stage_artifact, record_stage_quarantine, stage_artifact,
    ApproxSize, StageKey,
};
use schemachron_corpus::CorpusProject;
use schemachron_fault as fault;
use schemachron_hash::{fnv1a, FNV_OFFSET};

use crate::index::AsOfIndex;

/// The as-of subsystem's stage-cache namespace.
pub const CHECKPOINT_STAGE: &str = "asof-checkpoint";

/// Logic version of the index layout, mixed into every checkpoint key. Bump
/// it when [`AsOfIndex`]'s construction changes so stale cached indexes can
/// never be served.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A cached as-of index plus the provenance of its own cache key, so the
/// lint auditor can re-derive the key from first principles. Shared via
/// [`Arc`] (the index's lookup memo makes it deliberately clone-averse).
#[derive(Debug)]
pub struct AsOfArtifact {
    /// The history-stage key of the project the index was built from.
    pub history_key: StageKey,
    /// The (clamped) checkpoint spacing the index was built with.
    pub k_months: usize,
    /// The index itself.
    pub index: AsOfIndex,
}

impl ApproxSize for AsOfArtifact {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.index.heap_bytes()
    }
}

impl Deref for AsOfArtifact {
    type Target = AsOfIndex;

    fn deref(&self) -> &AsOfIndex {
        &self.index
    }
}

/// Derives the cache key of a project's as-of index: the stage-chaining
/// hash of this namespace's identity over the K-salted history key.
/// Deterministic and content-addressed — any change to the card, the seed,
/// an upstream stage version or K lands on a different key.
pub fn checkpoint_key(history_key: StageKey, k_months: usize) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &(k_months as u64).to_le_bytes());
    let salted = fnv1a(salted, &history_key.to_le_bytes());
    derive_key(CHECKPOINT_STAGE, CHECKPOINT_VERSION, salted)
}

/// The as-of index for a corpus project at checkpoint spacing `k_months`
/// (clamped to at least 1), served from the stage cache when already built.
/// Returns `None` when the project's history retains no schema versions.
///
/// # Panics
/// Propagates a panicking build (including injected `asof::checkpoint`
/// faults) after recording a quarantine — never after publishing an entry.
pub fn index_for(
    project: &CorpusProject,
    seed: u64,
    k_months: usize,
) -> Option<Arc<AsOfArtifact>> {
    let k_months = k_months.max(1);
    let history_key = history_stage_key(&project.card, seed);
    let key = checkpoint_key(history_key, k_months);
    if let Some(hit) = stage_artifact::<AsOfArtifact>(CHECKPOINT_STAGE, key) {
        return Some(hit);
    }
    let started = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        fault::checkpoint_point(&format!("{CHECKPOINT_STAGE}:{key:016x}"));
        AsOfIndex::build(&project.history, k_months)
    }));
    match built {
        Ok(Some(index)) => {
            let artifact = Arc::new(AsOfArtifact {
                history_key,
                k_months,
                index,
            });
            insert_stage_artifact(CHECKPOINT_STAGE, key, artifact.clone(), started.elapsed());
            Some(artifact)
        }
        Ok(None) => None,
        Err(payload) => {
            // Quarantine: the key was never published, so the next caller
            // gets a clean retryable miss instead of a poisoned artifact.
            record_stage_quarantine(CHECKPOINT_STAGE);
            resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_corpus::cards::all_cards;
    use schemachron_corpus::{Card, Corpus};

    #[test]
    fn checkpoint_keys_chain_from_history_and_k() {
        let k = checkpoint_key(7, 12);
        assert_ne!(k, checkpoint_key(8, 12), "history key must matter");
        assert_ne!(k, checkpoint_key(7, 6), "K must matter");
        assert_eq!(k, checkpoint_key(7, 12), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        // A private seed so this test never races others on the same keys.
        let seed = 90_142;
        let cards: Vec<Card> = all_cards().into_iter().take(2).collect();
        let corpus = Corpus::from_cards(cards, seed, 1);
        let project = &corpus.projects()[0];
        let cold = index_for(project, seed, 12).unwrap();
        let warm = index_for(project, seed, 12).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        let other_k = index_for(project, seed, 6).unwrap();
        assert!(!Arc::ptr_eq(&cold, &other_k), "K is part of the identity");
        assert_eq!(cold.project(), project.history.name());
        assert_eq!(cold.k_months, 12);
        assert_eq!(cold.history_key, history_stage_key(&project.card, seed));
    }
}
