//! The eight concrete stages and the cached chain that walks them.
//!
//! Each stage replicates exactly one slice of the historical monolithic
//! ingestion (`materialize` → `ProjectHistoryBuilder` → metrics → labels →
//! classification), so a full chain walk is byte-identical to the old
//! single-pass build — the tests in `tests/stage_cache.rs` and the
//! experiment goldens pin this down.
//!
//! Each stage declares whether it publishes its output to the process
//! cache (`PUBLISH`). A warm walk reads only the four terminal artifacts
//! (history, metrics, labels, classification), so those publish; the
//! materialize, parse, schema and diff outputs live only in one walk's memo
//! fields, and their keys are still derived so downstream keys do not move.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use schemachron_fault as fault;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::quantize::Labels;
use schemachron_core::{classify, classify_nearest};
use schemachron_ddl::SchemaBuilder;
use schemachron_dialect::{ingest_dialect, PLAN_LOGIC_VERSION};
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::{ProjectHistory, SchemaHistory, SchemaVersion};
use schemachron_model::{diff, Schema};

use crate::corpus::CorpusProject;
use crate::materialize::materialize;
use crate::spec::Card;

use super::artifact::{
    card_fingerprint, CardSpec, DiffSeq, DiffStep, LabelTuple, LogicalSchema, MetricVector,
    ParsedCommit, ParsedDdl, PatternClass, RawScripts,
};
use super::stage::{cache, derive_key, Stage, StageKey, StageTrace};

/// The stage names in pipeline order — the canonical ordering for counter
/// snapshots, `/health` and `BENCH_stages.json`.
pub const STAGE_ORDER: [&str; 8] = [
    MaterializeStage::NAME,
    ParseStage::NAME,
    SchemaStage::NAME,
    DiffStage::NAME,
    HistoryStage::NAME,
    MetricsStage::NAME,
    LabelsStage::NAME,
    ClassifyStage::NAME,
];

/// Stage 1: card + seed → dated DDL scripts and source events.
pub struct MaterializeStage;

impl MaterializeStage {
    /// Stage name.
    pub const NAME: &'static str = "materialize";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Memoized within one walk only: no warm walk re-reads it.
    pub const PUBLISH: bool = false;
}

impl Stage<CardSpec, RawScripts> for MaterializeStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &CardSpec) -> RawScripts {
        RawScripts {
            project: materialize(&input.card, input.seed),
        }
    }
}

/// Stage 2: scripts → parsed statements per commit, via the ingestion
/// dialect's parser (see [`ingest_dialect`]).
pub struct ParseStage;

impl ParseStage {
    /// Stage name.
    pub const NAME: &'static str = "parse";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Memoized within one walk only: no warm walk re-reads it.
    pub const PUBLISH: bool = false;
}

impl Stage<RawScripts, ParsedDdl> for ParseStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &RawScripts) -> ParsedDdl {
        // Stable sort by date, mirroring `ProjectHistoryBuilder::build`
        // (same-date commits keep insertion order).
        let mut dated: Vec<&(schemachron_history::Date, String)> =
            input.project.ddl_commits.iter().collect();
        dated.sort_by_key(|(d, _)| *d);
        let dialect = ingest_dialect();
        let commits = dated
            .into_iter()
            .map(|(date, sql)| {
                let (statements, diagnostics) = dialect.parse(sql);
                ParsedCommit {
                    date: *date,
                    statements,
                    diagnostics,
                }
            })
            .collect();
        ParsedDdl { commits }
    }
}

/// Stage 3: parsed statements → the logical schema after every commit.
pub struct SchemaStage;

impl SchemaStage {
    /// Stage name.
    pub const NAME: &'static str = "schema";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Memoized within one walk only: no warm walk re-reads it.
    pub const PUBLISH: bool = false;
}

impl Stage<ParsedDdl, LogicalSchema> for SchemaStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &ParsedDdl) -> LogicalSchema {
        let mut snapshots = Vec::with_capacity(input.commits.len());
        let mut diagnostics = Vec::new();
        let mut prev = Schema::default();
        for c in &input.commits {
            // Migration-mode ingestion: apply on top of the previous
            // version, exactly like `SchemaHistory::push`. The parse
            // diagnostics come first, then any builder diagnostics — the
            // order `apply_script` has always produced.
            let mut b = SchemaBuilder::with_schema(prev.clone());
            diagnostics.extend(c.diagnostics.iter().cloned());
            b.apply_statements(&c.statements);
            let (schema, mut b_diags) = b.finish();
            diagnostics.append(&mut b_diags);
            prev = schema.clone();
            snapshots.push((c.date, Arc::new(schema)));
        }
        LogicalSchema {
            snapshots,
            diagnostics,
        }
    }
}

/// Stage 4: schema snapshots → version-over-version diffs.
pub struct DiffStage;

impl DiffStage {
    /// Stage name.
    pub const NAME: &'static str = "diff";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Memoized within one walk only: no warm walk re-reads it.
    pub const PUBLISH: bool = false;
}

impl Stage<LogicalSchema, DiffSeq> for DiffStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &LogicalSchema) -> DiffSeq {
        let empty = Schema::default();
        let mut prev: &Schema = &empty;
        let mut steps = Vec::with_capacity(input.snapshots.len());
        for (date, schema) in &input.snapshots {
            steps.push(DiffStep {
                date: *date,
                schema: Arc::clone(schema),
                diff: diff(prev, schema),
            });
            prev = schema;
        }
        DiffSeq {
            steps,
            diagnostics: input.diagnostics.clone(),
        }
    }
}

/// Input of [`HistoryStage`]: the diff sequence plus the raw scripts (for
/// the project name and the source-activity events).
pub struct HistoryInput {
    /// The diff sequence.
    pub diffs: Arc<DiffSeq>,
    /// The materialized project (name + source commits).
    pub raw: Arc<RawScripts>,
}

/// Stage 5: diffs + source events → the PUP-aligned project history.
pub struct HistoryStage;

impl HistoryStage {
    /// Stage name.
    pub const NAME: &'static str = "history";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Published: a warm walk re-reads it.
    pub const PUBLISH: bool = true;
}

impl Stage<HistoryInput, ProjectHistory> for HistoryStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &HistoryInput) -> ProjectHistory {
        let versions = input
            .diffs
            .steps
            .iter()
            .map(|s| SchemaVersion {
                date: s.date,
                schema: (*s.schema).clone(),
                diff: s.diff.clone(),
            })
            .collect();
        let history = SchemaHistory::from_versions(versions, input.diffs.diagnostics.clone());
        ProjectHistory::from_schema_history(
            input.raw.project.name.clone(),
            history,
            &input.raw.project.source_commits,
        )
    }
}

/// Stage 6: project history → §3.2 time metrics.
pub struct MetricsStage;

impl MetricsStage {
    /// Stage name.
    pub const NAME: &'static str = "metrics";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Published: a warm walk re-reads it.
    pub const PUBLISH: bool = true;
}

impl Stage<ProjectHistory, MetricVector> for MetricsStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &ProjectHistory) -> MetricVector {
        let metrics = TimeMetrics::from_project(input).unwrap_or_else(|| {
            panic!(
                "{}: corpus projects always have schema activity",
                input.name()
            )
        });
        MetricVector { metrics }
    }
}

/// Stage 7: metrics → quantized §3.3 labels.
pub struct LabelsStage;

impl LabelsStage {
    /// Stage name.
    pub const NAME: &'static str = "labels";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Published: a warm walk re-reads it.
    pub const PUBLISH: bool = true;
}

impl Stage<MetricVector, LabelTuple> for LabelsStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &MetricVector) -> LabelTuple {
        LabelTuple {
            labels: Labels::from_metrics(&input.metrics),
        }
    }
}

/// Stage 8: labels → strict and nearest pattern classification.
pub struct ClassifyStage;

impl ClassifyStage {
    /// Stage name.
    pub const NAME: &'static str = "classify";
    /// Stage logic version.
    pub const VERSION: u32 = 1;
    /// Published: a warm walk re-reads it.
    pub const PUBLISH: bool = true;
}

impl Stage<LabelTuple, PatternClass> for ClassifyStage {
    fn name(&self) -> &'static str {
        Self::NAME
    }
    fn version(&self) -> u32 {
        Self::VERSION
    }
    fn run(&self, input: &LabelTuple) -> PatternClass {
        let (nearest, violations) = classify_nearest(&input.labels);
        PatternClass {
            strict: classify(&input.labels),
            nearest,
            violations,
        }
    }
}

/// The per-stage output keys of one project chain, in [`STAGE_ORDER`].
/// Derivable without running anything: pure hash chaining from the card
/// fingerprint.
pub fn chain_keys(card: &Card, seed: u64) -> [StageKey; 8] {
    let root = card_fingerprint(card, seed);
    let mut keys = [0; 8];
    keys[0] = derive_key(MaterializeStage::NAME, MaterializeStage::VERSION, root);
    keys[1] = derive_key(ParseStage::NAME, ParseStage::VERSION, parse_salt(keys[0]));
    keys[2] = derive_key(SchemaStage::NAME, SchemaStage::VERSION, keys[1]);
    keys[3] = derive_key(DiffStage::NAME, DiffStage::VERSION, keys[2]);
    keys[4] = derive_key(HistoryStage::NAME, HistoryStage::VERSION, keys[3]);
    keys[5] = derive_key(MetricsStage::NAME, MetricsStage::VERSION, keys[4]);
    keys[6] = derive_key(LabelsStage::NAME, LabelsStage::VERSION, keys[5]);
    keys[7] = derive_key(ClassifyStage::NAME, ClassifyStage::VERSION, keys[6]);
    keys
}

/// Folds the ingestion dialect's name and the planner logic version into
/// the parse stage's upstream key, so cached parse artifacts invalidate if
/// either ever changes. The lint cache auditor (`H002`/`H003`) restates
/// this fold independently from its own constants.
pub fn parse_salt(in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, ingest_dialect().name().as_bytes());
    let h = fnv1a(h, &u64::from(PLAN_LOGIC_VERSION).to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// A lazy, memoizing walk of one project's stage chain.
///
/// Artifacts are fetched downstream-first: asking for the history consults
/// the history cache entry and only walks upstream on a miss, so a fully
/// cached project never touches (or counts against) its early stages.
struct Chain<'a> {
    card: &'a Card,
    seed: u64,
    keys: [StageKey; 8],
    trace: StageTrace,
    raw: Option<Arc<RawScripts>>,
    parsed: Option<Arc<ParsedDdl>>,
    schema: Option<Arc<LogicalSchema>>,
    diffs: Option<Arc<DiffSeq>>,
    history: Option<Arc<ProjectHistory>>,
    metrics: Option<Arc<MetricVector>>,
    labels: Option<Arc<LabelTuple>>,
    class: Option<Arc<PatternClass>>,
}

/// Runs one stage computation under the `pipeline::stage` fault-injection
/// point with quarantine-on-panic: a run that panics (a stage bug, or an
/// injected fault) records a quarantine for the stage and re-raises
/// **without publishing anything** under the stage's key — the next
/// consumer of that key sees a plain retryable miss, never a poisoned or
/// half-built artifact.
fn run_quarantined<Out>(
    stage_name: &'static str,
    key: StageKey,
    run: impl FnOnce() -> Out,
) -> Out {
    match catch_unwind(AssertUnwindSafe(|| {
        fault::stage_point(&format!("{stage_name}:{key:016x}"));
        run()
    })) {
        Ok(out) => out,
        Err(payload) => {
            cache().record_quarantine(stage_name);
            resume_unwind(payload);
        }
    }
}

/// One memoized stage step: returns the memo if present, else — for a
/// stage that publishes — the cached artifact (recording a hit), else
/// computes `$input` and runs the stage (recording a miss and the compute
/// wall time), publishing the output when the stage does. The run is
/// quarantined: a panicking stage publishes nothing (see
/// [`run_quarantined`]). The one place a stage's `PUBLISH` flag is read.
macro_rules! step {
    ($self:ident, $field:ident, $stage:ident, $out:ty, $idx:expr, $input:expr) => {{
        if let Some(v) = &$self.$field {
            return Arc::clone(v);
        }
        let key = $self.keys[$idx];
        let publish = $stage::PUBLISH;
        if publish {
            if let Some(v) = cache().get::<$out>($stage::NAME, key) {
                $self.trace.record($stage::NAME, true);
                $self.$field = Some(Arc::clone(&v));
                return v;
            }
        }
        let input = $input;
        let started = Instant::now();
        let out = Arc::new(run_quarantined($stage::NAME, key, || $stage.run(&input)));
        let busy = started.elapsed();
        if publish {
            cache().insert($stage::NAME, key, Arc::clone(&out), busy);
        } else {
            cache().record_miss($stage::NAME, busy);
        }
        $self.trace.record($stage::NAME, false);
        $self.$field = Some(Arc::clone(&out));
        out
    }};
}

impl<'a> Chain<'a> {
    fn new(card: &'a Card, seed: u64) -> Self {
        Chain {
            card,
            seed,
            keys: chain_keys(card, seed),
            trace: StageTrace::default(),
            raw: None,
            parsed: None,
            schema: None,
            diffs: None,
            history: None,
            metrics: None,
            labels: None,
            class: None,
        }
    }

    fn raw(&mut self) -> Arc<RawScripts> {
        step!(self, raw, MaterializeStage, RawScripts, 0, {
            CardSpec {
                card: self.card.clone(),
                seed: self.seed,
            }
        })
    }

    fn parsed(&mut self) -> Arc<ParsedDdl> {
        step!(self, parsed, ParseStage, ParsedDdl, 1, self.raw())
    }

    fn schema(&mut self) -> Arc<LogicalSchema> {
        step!(self, schema, SchemaStage, LogicalSchema, 2, self.parsed())
    }

    fn diffs(&mut self) -> Arc<DiffSeq> {
        step!(self, diffs, DiffStage, DiffSeq, 3, self.schema())
    }

    fn history(&mut self) -> Arc<ProjectHistory> {
        step!(self, history, HistoryStage, ProjectHistory, 4, {
            HistoryInput {
                diffs: self.diffs(),
                raw: self.raw(),
            }
        })
    }

    fn metrics(&mut self) -> Arc<MetricVector> {
        step!(self, metrics, MetricsStage, MetricVector, 5, self.history())
    }

    fn labels(&mut self) -> Arc<LabelTuple> {
        step!(self, labels, LabelsStage, LabelTuple, 6, self.metrics())
    }

    fn classify(&mut self) -> Arc<PatternClass> {
        step!(self, class, ClassifyStage, PatternClass, 7, self.labels())
    }
}

/// Builds one corpus project through the staged pipeline, returning the
/// per-call [`StageTrace`] alongside it.
///
/// The walk fetches the terminal artifacts (classification, labels,
/// metrics, history) and recomputes upstream only on cache misses; for a
/// fully cached project the trace shows hits only.
pub fn build_project_traced(card: &Card, seed: u64) -> (CorpusProject, StageTrace) {
    let mut chain = Chain::new(card, seed);
    let _class = chain.classify();
    let history = chain.history();
    let metrics = chain.metrics();
    let labels = chain.labels();
    let project = CorpusProject {
        assigned: card.pattern,
        exception: card.exception,
        card: card.clone(),
        history,
        metrics: metrics.metrics.clone(),
        labels: labels.labels,
    };
    (project, chain.trace)
}

/// [`build_project_traced`] without the trace — the corpus builder's
/// per-project entry point.
pub fn build_project(card: &Card, seed: u64) -> CorpusProject {
    build_project_traced(card, seed).0
}

/// Classifies one project through the cached chain, returning the terminal
/// [`PatternClass`] artifact.
pub fn classify_project(card: &Card, seed: u64) -> PatternClass {
    let mut chain = Chain::new(card, seed);
    *chain.classify()
}
