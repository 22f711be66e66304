//! The staged ingestion pipeline: typed artifacts, content-hashed stage
//! cache, incremental per-project recompute.
//!
//! The study's computation is a fixed chain of substrates; this module
//! materializes each substrate as a first-class [`Stage`] with a typed
//! output artifact:
//!
//! ```text
//! CardSpec ──materialize──▶ RawScripts ──parse──▶ ParsedDdl
//!   ──schema──▶ LogicalSchema ──diff──▶ DiffSeq ──history──▶ ProjectHistory
//!   ──metrics──▶ MetricVector ──labels──▶ LabelTuple ──classify──▶ PatternClass
//! ```
//!
//! Every stage output is keyed by a content hash of its inputs: the root
//! key fingerprints the trait card's full content plus the corpus seed, and
//! each stage chains `hash(stage name, stage version, input key)` on top
//! (see [`derive_key`]). The four terminal artifacts (history, metrics,
//! labels, classification) are published to a process-wide cache — the
//! generalization of the old seed-keyed `Arc<Corpus>` cache — so editing
//! one project's card re-runs only that project's chain, and every other
//! project is a cache hit. The upstream artifacts (scripts, parsed DDL,
//! schemas, diffs) are read by nothing but the next stage of the same
//! walk, so they live only in that walk's memo fields: each stage declares
//! whether it publishes (`PUBLISH` on the stage types).
//!
//! Chains are walked lazily downstream-first by [`build_project`]: a fully
//! cached project fetches its terminal artifacts and never touches the
//! early stages. Corpus construction fans chains out over the existing
//! `par_map` worker pool, so per-stage caching and parallelism compose.
//!
//! The cache is bounded in bytes ([`DEFAULT_BUDGET_BYTES`]): each
//! published artifact reports an approximate size once ([`ApproxSize`]),
//! and each shard evicts oldest-first past its share of the budget.
//!
//! Observability: global per-stage hit/miss/eviction/wall-time counters
//! ([`stage_stats`], surfaced on the HTTP service's `/health` and in
//! `BENCH_stages.json`) plus an exact per-call [`StageTrace`] for tests.

mod artifact;
mod size;
mod stage;
mod stages;

pub use artifact::{
    card_fingerprint, CardSpec, DiffSeq, DiffStep, LabelTuple, LogicalSchema, MetricVector,
    ParsedCommit, ParsedDdl, PatternClass, RawScripts,
};
pub use size::{approx_diff_bytes, approx_schema_bytes, approx_table_bytes};
pub use stage::{
    derive_key, shard_count_for, shard_of_key, ApproxSize, Stage, StageKey, StageStats,
    StageTrace, TraceEntry, DEFAULT_BUDGET_BYTES,
};
pub use stages::{
    build_project, build_project_traced, chain_keys, classify_project, parse_salt, ClassifyStage,
    DiffStage, HistoryInput, HistoryStage, LabelsStage, MaterializeStage, MetricsStage, ParseStage,
    SchemaStage, STAGE_ORDER,
};

/// Snapshots the global per-stage counters, in pipeline order. Stages that
/// never ran report zeros.
pub fn stage_stats() -> Vec<StageStats> {
    stage::cache().stats_snapshot(&STAGE_ORDER)
}

/// Snapshots the global counters for an arbitrary stage-name list — for
/// consumers (like the as-of index) whose namespaces are not part of
/// [`STAGE_ORDER`].
pub fn stage_stats_for(order: &[&'static str]) -> Vec<StageStats> {
    stage::cache().stats_snapshot(order)
}

/// Fetches a typed artifact from the process-wide stage cache, recording a
/// global hit when found. External subsystems (e.g. `schemachron-asof`)
/// that keep their artifacts in this cache under their own stage namespace
/// go through this; the 8 ingestion stages use their internal chain walk.
pub fn stage_artifact<T: Send + Sync + 'static>(
    stage: &'static str,
    key: StageKey,
) -> Option<std::sync::Arc<T>> {
    stage::cache().get(stage, key)
}

/// Fetches a typed artifact **without** recording a hit — for observers
/// (lint audits, tests) that must not perturb the cache telemetry.
pub fn peek_stage_artifact<T: Send + Sync + 'static>(
    stage: &'static str,
    key: StageKey,
) -> Option<std::sync::Arc<T>> {
    stage::cache().peek(stage, key)
}

/// Publishes a freshly computed artifact into the process-wide stage cache
/// under `(stage, key)`, recording a global miss plus `busy` compute time.
/// The artifact's [`ApproxSize`] is charged against the byte budget; older
/// entries of its shard may be evicted to make room. The key must be a
/// content hash chained from the artifact's inputs — the lint cache auditor
/// (`H001`/`H002`/`H005`) walks every resident entry and flags any key it
/// cannot re-derive.
pub fn insert_stage_artifact<T: ApproxSize + Send + Sync + 'static>(
    stage: &'static str,
    key: StageKey,
    value: std::sync::Arc<T>,
    busy: std::time::Duration,
) {
    stage::cache().insert(stage, key, value, busy);
}

/// Records a quarantined recomputation for an external stage namespace: the
/// build panicked before producing an artifact, so nothing was published
/// under its key (see [`StageStats::quarantined`]).
pub fn record_stage_quarantine(stage: &'static str) {
    stage::cache().record_quarantine(stage);
}

/// The content-hash key of a card's **history** stage artifact (chain link
/// 5 of 8): the `ProjectHistory` fingerprint downstream consumers chain
/// their own keys from, so a card edit invalidates them transitively.
pub fn history_stage_key(card: &crate::Card, seed: u64) -> StageKey {
    chain_keys(card, seed)[4]
}

/// Zeroes the global per-stage counters (cached artifacts are kept).
pub fn reset_stage_stats() {
    stage::cache().reset_stats();
}

/// Drops every cached artifact, forcing the next build to recompute all
/// stages. Counters are kept; pair with [`reset_stage_stats`] for a clean
/// measurement window.
pub fn clear_stage_cache() {
    stage::cache().clear();
}

/// Number of artifacts currently cached across all stages.
pub fn stage_cache_len() -> usize {
    stage::cache().len()
}

/// Sum of the reported sizes of the artifacts currently cached, in bytes.
pub fn stage_cache_bytes() -> usize {
    stage::cache().resident_bytes()
}

/// Snapshots the `(stage name, content key)` identity of every cached
/// artifact, sorted by stage then key. A read-only view: the lint
/// cache-coherence auditor walks it to re-derive each key from the card
/// set and report any entry whose chained hash disagrees.
pub fn stage_cache_entries() -> Vec<(&'static str, StageKey)> {
    stage::cache().entry_keys()
}

/// Number of lock stripes in the process-wide stage cache: the next power
/// of two at or above 4 × available parallelism (see [`shard_count_for`]).
pub fn stage_cache_shard_count() -> usize {
    stage::cache().shard_count()
}

/// Snapshots every cached entry as `(stage name, content key, resident
/// shard)`, sorted by stage then key. The lint `H004` shard-placement audit
/// walks it to verify every entry lives in the shard its key selects
/// (`key & (shard_count - 1)`).
pub fn stage_cache_shard_entries() -> Vec<(&'static str, StageKey, usize)> {
    stage::cache().shard_entries()
}

/// Re-files one cached artifact under a different `(stage, key)` identity,
/// returning whether the source entry existed.
///
/// This deliberately violates the content-hash invariant — it exists only
/// so fault-injection tests can plant the exact corruption the lint
/// auditor's `H0xx` rules detect. Never call it in production code.
#[doc(hidden)]
pub fn corrupt_stage_cache_entry(
    from: (&'static str, StageKey),
    to: (&'static str, StageKey),
) -> bool {
    stage::cache().rekey(from, to)
}

/// Plants one cached artifact in an explicit (possibly foreign) shard,
/// returning whether the entry existed.
///
/// This deliberately violates the key → shard invariant — it exists only so
/// fault-injection tests can plant the exact misplacement the lint
/// auditor's `H004` rule detects. A misplaced entry is invisible to normal
/// lookups (which only consult the key's home shard). Never call it in
/// production code.
#[doc(hidden)]
pub fn misplace_stage_cache_entry(entry: (&'static str, StageKey), shard: usize) -> bool {
    stage::cache().misplace(entry, shard)
}
