//! Live re-classification of a streamed commit chain through the
//! incremental stage cache.
//!
//! Every acknowledged append classifies the project's full commit prefix.
//! The result is published in the process-wide pipeline cache under the
//! [`STREAM_STAGE`] namespace, keyed by the WAL's **chain checksum** —
//! already a content hash of the entire commit history — so one appended
//! commit is exactly one cache miss and every other project (and every
//! earlier prefix) stays a cache hit. The lint `H008` audit restates this
//! derivation from the payload's own recorded inputs, exactly like the
//! as-of (`H005`) and safety (`H006`) namespaces.
//!
//! A miss is derived one of two ways, through one shared cache body:
//!
//! * [`classification_for`] rebuilds the prefix from scratch with
//!   [`classify_commits`], the batch derivation `schemachron analyze`
//!   applies. It is the reference the chaos drill and the tests compare
//!   the live path against.
//! * The store's path keeps a running [`HistoryFold`] per project. A miss
//!   pushes the commits the fold has not taken in yet — one per in-order
//!   append — and classifies its heartbeats in O(months), so an append
//!   costs the same after 100 commits as after 10,000. The fold runs the
//!   batch builder's apply-and-diff step and accumulation in the same
//!   order, so its metrics are bit-identical to a rebuild's. A *backdated*
//!   commit, dated before the fold's last one, would be moved by the
//!   batch's stable date sort; the store then drops the fold and refolds
//!   every WAL record in date order, at the cost of a full rebuild.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::patterns::{classify, classify_nearest};
use schemachron_core::quantize::Labels;
use schemachron_corpus::pipeline::{
    derive_key, insert_stage_artifact, record_stage_quarantine, stage_artifact, ApproxSize,
    StageKey,
};
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::{Date, HistoryFold, ProjectHistory, ProjectHistoryBuilder};

/// The streaming subsystem's stage-cache namespace.
pub const STREAM_STAGE: &str = "stream-classify";

/// Logic version of the streamed classification, mixed into every key.
/// Bump it when the commit→pattern derivation changes so stale cached
/// classifications can never be served.
pub const STREAM_LOGIC_VERSION: u32 = 1;

/// The pattern label of a project with no classifiable schema activity.
pub const UNCLASSIFIED: &str = "unclassified";

/// A cached streamed classification plus the provenance of its own cache
/// key, so the lint auditor can re-derive the key from first principles.
#[derive(Debug)]
pub struct StreamArtifact {
    /// The WAL chain checksum of the classified commit prefix.
    pub chain_crc: u64,
    /// How many commits that prefix holds.
    pub commit_count: u64,
    /// The derived pattern label (a strict pattern name, `~name` for a
    /// nearest-pattern fallback, or [`UNCLASSIFIED`]).
    pub pattern: String,
}

impl ApproxSize for StreamArtifact {
    /// O(1): the fixed fields and the pattern label.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.pattern.len()
    }
}

/// Derives the cache key of a streamed classification: the stage-chaining
/// hash of this namespace's identity over the commit-count-salted chain
/// checksum. Content-addressed — any change to any commit in the prefix
/// lands on a different key.
pub fn stream_key(chain_crc: u64, commit_count: u64) -> StageKey {
    let salted = fnv1a(FNV_OFFSET, &commit_count.to_le_bytes());
    let salted = fnv1a(salted, &chain_crc.to_le_bytes());
    derive_key(STREAM_STAGE, STREAM_LOGIC_VERSION, salted)
}

/// Classifies a commit prefix outright (no cache): builds the history and
/// derives the pattern label. This is the exact derivation `schemachron
/// analyze` applies to a finished project, so a streamed classification
/// can never disagree with a batch rebuild of the same commits.
pub fn classify_commits(project: &str, commits: &[(Date, String)]) -> String {
    let mut builder = ProjectHistoryBuilder::new(project);
    for (date, sql) in commits {
        builder.migration(*date, sql.clone());
    }
    pattern_of(&builder.build())
}

/// The pattern label of a history: metrics → labels → the strict pattern,
/// else `~` and the nearest one, else [`UNCLASSIFIED`].
fn pattern_of(history: &ProjectHistory) -> String {
    let Some(metrics) = TimeMetrics::from_project(history) else {
        return UNCLASSIFIED.to_owned();
    };
    let labels = Labels::from_metrics(&metrics);
    match classify(&labels) {
        Some(p) => p.name().to_owned(),
        None => {
            let (nearest, _violations) = classify_nearest(&labels);
            format!("~{}", nearest.name())
        }
    }
}

/// The classification for a commit prefix, served from the stage cache
/// when already derived. `chain_crc` must be the WAL chain checksum of
/// exactly `commits` — batch rebuilds recompute it with
/// [`crate::wal::record_crc`].
pub fn classification_for(
    project: &str,
    commits: &[(Date, String)],
    chain_crc: u64,
) -> Arc<StreamArtifact> {
    cached_classification(chain_crc, commits.len() as u64, || {
        classify_commits(project, commits)
    })
}

/// The classification of a store's WAL chain, served from the stage cache
/// when already derived, else from the project's running history: `fold`
/// takes in `pending`, the commits it has not folded yet in date order (the
/// whole chain when `fold` is `None`), and is classified in O(months).
/// A hit leaves `fold` as it was, so the next miss takes in what it
/// skipped.
pub(crate) fn fold_classification(
    project: &str,
    chain_crc: u64,
    commit_count: u64,
    fold: &mut Option<HistoryFold>,
    pending: Vec<(Date, &str)>,
) -> Arc<StreamArtifact> {
    cached_classification(chain_crc, commit_count, || {
        // Out of its slot while it grows: a panic leaves no half-grown
        // fold behind, and the next derivation refolds from the WAL.
        let grown = match fold.take() {
            Some(mut grown) => {
                for (date, sql) in pending {
                    grown.push(date, sql);
                }
                grown
            }
            None => HistoryFold::from_migrations(pending),
        };
        let pattern = pattern_of(&grown.project_history(project));
        *fold = Some(grown);
        pattern
    })
}

/// The one stage-cache body behind both classification paths: a hit
/// returns the cached artifact; a miss runs `build` and publishes its
/// pattern under the key of `(chain_crc, commit_count)`.
fn cached_classification(
    chain_crc: u64,
    commit_count: u64,
    build: impl FnOnce() -> String,
) -> Arc<StreamArtifact> {
    let key = stream_key(chain_crc, commit_count);
    if let Some(hit) = stage_artifact::<StreamArtifact>(STREAM_STAGE, key) {
        return hit;
    }
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(build)) {
        Ok(pattern) => {
            let artifact = Arc::new(StreamArtifact {
                chain_crc,
                commit_count,
                pattern,
            });
            insert_stage_artifact(STREAM_STAGE, key, artifact.clone(), started.elapsed());
            artifact
        }
        Err(payload) => {
            // Quarantine: the key was never published, so the next caller
            // gets a clean retryable miss instead of a poisoned artifact.
            record_stage_quarantine(STREAM_STAGE);
            resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn commits(n: usize) -> Vec<(Date, String)> {
        (0..n)
            .map(|i| {
                let date = Date::from_str(&format!("2020-{:02}-10", i + 1)).unwrap();
                (date, format!("ALTER TABLE t ADD COLUMN c{i} INT;"))
            })
            .collect()
    }

    #[test]
    fn keys_chain_from_content_and_count() {
        let k = stream_key(7, 3);
        assert_ne!(k, stream_key(8, 3), "chain checksum must matter");
        assert_ne!(k, stream_key(7, 4), "commit count must matter");
        assert_eq!(k, stream_key(7, 3), "keys are deterministic");
    }

    #[test]
    fn warm_lookup_returns_the_cached_allocation() {
        let mut history = vec![(
            Date::from_str("2020-01-10").unwrap(),
            "CREATE TABLE t (a INT);".to_owned(),
        )];
        history.extend(commits(2));
        // A private chain checksum so this test never races others.
        let crc = 0x5717_1e57_0000_0001;
        let cold = classification_for("stream-classify-test", &history, crc);
        let warm = classification_for("stream-classify-test", &history, crc);
        assert!(Arc::ptr_eq(&cold, &warm), "second lookup must be a cache hit");
        assert_eq!(cold.commit_count, 3);
        assert_eq!(cold.chain_crc, crc);
        assert!(!cold.pattern.is_empty());
    }

    #[test]
    fn empty_history_is_unclassified() {
        assert_eq!(classify_commits("none", &[]), UNCLASSIFIED);
    }
}
