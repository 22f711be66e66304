//! Corpus assembly: cards → DDL → pipeline → annotated projects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use schemachron_core::metrics::TimeMetrics;
use schemachron_core::quantize::Labels;
use schemachron_core::Pattern;
use schemachron_history::ProjectHistory;

use crate::cards::all_cards;
use crate::parallel::{effective_jobs, par_map_isolated, WorkerFailures};
use crate::pipeline;
use crate::spec::Card;

/// Number of corpora built by this process, across all generation entry
/// points. Observable via [`Corpus::build_count`]; the experiment runner
/// asserts on it to prove its corpus cache builds the corpus exactly once.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// One corpus project after full-pipeline ingestion.
#[derive(Clone, Debug)]
pub struct CorpusProject {
    /// The generating card (plan + ground-truth annotation).
    pub card: Card,
    /// The manually-assigned pattern (the corpus ground truth).
    pub assigned: Pattern,
    /// Whether the project is a Table 2 exception.
    pub exception: bool,
    /// The measured project history (built from the materialized DDL).
    /// Shared with the stage cache: cached rebuilds hand out the same
    /// allocation instead of deep-cloning every schema version.
    pub history: Arc<ProjectHistory>,
    /// The measured §3.2 time metrics.
    pub metrics: TimeMetrics,
    /// The measured §3.3 quantized labels.
    pub labels: Labels,
}

/// The full 151-project corpus.
#[derive(Clone, Debug)]
pub struct Corpus {
    seed: u64,
    projects: Vec<CorpusProject>,
}

/// The compact per-project result of a streaming build: everything the
/// distribution checks (Fig. 4/6/7 populations, Table 1 marginals, Table 2
/// exceptions) and the throughput benches need, without the project
/// history. A summary is ~100 bytes where a [`CorpusProject`] retains every
/// monthly schema snapshot — the difference between a 151k-project scale
/// run fitting comfortably in memory or not.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectSummary {
    /// Project name (unique within the corpus).
    pub name: String,
    /// The manually-assigned pattern (the corpus ground truth).
    pub assigned: Pattern,
    /// Whether the project is a Table 2 exception.
    pub exception: bool,
    /// The measured §3.3 quantized labels.
    pub labels: Labels,
    /// Absolute birth month (the Fig. 7 bucket input).
    pub birth_index: usize,
    /// The strict §4 classification of the measured labels.
    pub strict: Option<Pattern>,
}

impl ProjectSummary {
    fn of(p: &CorpusProject) -> ProjectSummary {
        ProjectSummary {
            name: p.card.name.clone(),
            assigned: p.assigned,
            exception: p.exception,
            labels: p.labels,
            birth_index: p.metrics.birth_index,
            strict: schemachron_core::classify(&p.labels),
        }
    }
}

/// Ingests every card through the staged pipeline — same fan-out, same
/// stage cache, same per-project compute as [`Corpus::from_cards`] — but
/// returns only compact [`ProjectSummary`] rows instead of retaining full
/// histories. The streaming entry point for 10^4–10^5-project scale runs:
/// peak memory is bounded by the stage cache's byte budget
/// ([`pipeline::DEFAULT_BUDGET_BYTES`] of reported artifact bytes) plus the
/// summaries, not by the corpus size.
///
/// # Errors
/// Returns [`WorkerFailures`] when any project's ingestion panicked past
/// retry, exactly like [`Corpus::try_from_cards`].
pub fn summarize_cards(
    cards: Vec<Card>,
    seed: u64,
    jobs: usize,
) -> Result<Vec<ProjectSummary>, WorkerFailures> {
    BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
    par_map_isolated(cards, jobs, |card| {
        ProjectSummary::of(&pipeline::build_project(&card, seed))
    })
    .into_result()
}

impl Corpus {
    /// Generates the corpus for a seed. The timing skeleton of every project
    /// is seed-independent (it comes from the cards); the seed only varies
    /// DDL mixture, identifiers and source-line volumes.
    ///
    /// The default seed used throughout the experiments is **42**.
    ///
    /// Ingestion fans out over worker threads (see [`crate::parallel`]);
    /// the output is identical to a serial run because each project is
    /// seeded independently and results are reassembled in card order.
    pub fn generate(seed: u64) -> Corpus {
        Self::generate_jobs(seed, effective_jobs())
    }

    /// [`Corpus::generate`] with an explicit worker count.
    pub fn generate_jobs(seed: u64, jobs: usize) -> Corpus {
        Self::from_cards(all_cards(), seed, jobs)
    }

    /// Generates a corpus of arbitrary size by cycling the 151 calibrated
    /// cards under fresh names: project `i` reuses card `i % 151` but gets
    /// its own DDL mixture (the materializer seeds per project name).
    /// Intended for scale/throughput benchmarking; the calibrated aggregates
    /// hold per 151-card cycle.
    pub fn generate_scaled(seed: u64, size: usize) -> Corpus {
        Self::generate_scaled_jobs(seed, size, effective_jobs())
    }

    /// [`Corpus::generate_scaled`] with an explicit worker count.
    pub fn generate_scaled_jobs(seed: u64, size: usize, jobs: usize) -> Corpus {
        Self::from_cards(crate::cards::scaled_cards(size), seed, jobs)
    }

    /// Generates the stratified corpus at `scale`: `scale` complete cycles
    /// of the 151 calibrated cards (`scale × 151` projects), preserving the
    /// paper's joint label distribution exactly (see
    /// [`crate::cards::stratified_cards`]). This is the `--scale` mode of
    /// the CLI build paths and the scale axis of the parallel-ingestion
    /// bench.
    pub fn generate_stratified(seed: u64, scale: usize) -> Corpus {
        Self::generate_stratified_jobs(seed, scale, effective_jobs())
    }

    /// [`Corpus::generate_stratified`] with an explicit worker count.
    pub fn generate_stratified_jobs(seed: u64, scale: usize, jobs: usize) -> Corpus {
        Self::from_cards(crate::cards::stratified_cards(scale), seed, jobs)
    }

    /// Generates a corpus from freshly synthesized random cards with the
    /// requested pattern mix (`counts[i]` projects of `Pattern::ALL[i]`) —
    /// the workload-generator entry point for what-if studies.
    pub fn generate_random(seed: u64, counts: [usize; 8]) -> Corpus {
        Self::generate_random_jobs(seed, counts, effective_jobs())
    }

    /// [`Corpus::generate_random`] with an explicit worker count.
    pub fn generate_random_jobs(seed: u64, counts: [usize; 8], jobs: usize) -> Corpus {
        Self::from_cards(crate::random::random_cards(seed, counts), seed, jobs)
    }

    /// Builds a corpus from an explicit card list — the entry point every
    /// `generate*` constructor funnels into, public for benches and tools
    /// that assemble their own card sets.
    ///
    /// Each card is ingested through the staged pipeline
    /// ([`crate::pipeline`]): projects whose full stage chain is already
    /// cached are assembled from cached artifacts; everything else fans out
    /// over `jobs` workers (see [`crate::parallel`]). The result is
    /// identical for any worker count and any cache state.
    /// # Panics
    /// Panics if any project's ingestion panics; [`Corpus::try_from_cards`]
    /// surfaces that as a typed error instead.
    pub fn from_cards(cards: Vec<Card>, seed: u64, jobs: usize) -> Corpus {
        match Self::try_from_cards(cards, seed, jobs) {
            Ok(c) => c,
            Err(failures) => panic!("corpus build: {failures}"),
        }
    }

    /// [`Corpus::from_cards`] with worker failures surfaced as a typed
    /// error: a panicking project (a bug, or an injected fault that
    /// exhausted its retries) costs only its own slot — every other
    /// project still ingests, and the aggregated [`WorkerFailures`] names
    /// exactly which cards were lost.
    ///
    /// # Errors
    /// Returns [`WorkerFailures`] when any project's ingestion panicked
    /// past retry.
    pub fn try_from_cards(
        cards: Vec<Card>,
        seed: u64,
        jobs: usize,
    ) -> Result<Corpus, WorkerFailures> {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        let projects = par_map_isolated(cards, jobs, |card| pipeline::build_project(&card, seed))
            .into_result()?;
        Ok(Corpus { seed, projects })
    }

    /// How many corpora this process has built so far (any entry point) —
    /// lets callers with a corpus cache assert the cache actually hit.
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::Relaxed)
    }

    /// Streaming census of this corpus (no extra computation; the compact
    /// per-project view [`summarize_cards`] would produce).
    pub fn summaries(&self) -> Vec<ProjectSummary> {
        self.projects.iter().map(ProjectSummary::of).collect()
    }

    /// The seed the corpus was generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All projects, in card order (patterns grouped).
    pub fn projects(&self) -> &[CorpusProject] {
        &self.projects
    }

    /// Projects annotated with a given pattern.
    pub fn of_pattern(&self, p: Pattern) -> impl Iterator<Item = &CorpusProject> {
        self.projects.iter().filter(move |x| x.assigned == p)
    }

    /// `(assigned pattern, measured labels)` pairs — the input shape of the
    /// §5 validation routines.
    pub fn annotated_labels(&self) -> Vec<(Pattern, Labels)> {
        self.projects
            .iter()
            .map(|p| (p.assigned, p.labels))
            .collect()
    }

    /// `(absolute birth month, assigned pattern)` pairs — the input of the
    /// §6.2 birth predictor.
    pub fn birth_data(&self) -> Vec<(usize, Pattern)> {
        self.projects
            .iter()
            .map(|p| (p.metrics.birth_index, p.assigned))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_151_measured_projects() {
        let c = Corpus::generate(42);
        assert_eq!(c.projects().len(), 151);
        for p in c.projects() {
            assert_eq!(
                p.history.month_count() as u32,
                p.card.duration,
                "{}",
                p.card.name
            );
            assert_eq!(
                p.metrics.total_activity as u32, p.card.total_units,
                "{}",
                p.card.name
            );
            assert_eq!(
                p.metrics.birth_index as u32, p.card.birth_month,
                "{}",
                p.card.name
            );
            assert_eq!(
                p.metrics.topband_index as u32, p.card.top_month,
                "{}: top month",
                p.card.name
            );
            assert_eq!(
                p.metrics.active_growth_months as u32, p.card.agm,
                "{}: active growth months",
                p.card.name
            );
        }
    }

    #[test]
    fn non_exception_projects_classify_as_assigned() {
        let c = Corpus::generate(42);
        for p in c.projects().iter().filter(|p| !p.exception) {
            assert_eq!(
                schemachron_core::classify(&p.labels),
                Some(p.assigned),
                "{}: labels {:?}",
                p.card.name,
                p.labels
            );
        }
    }

    #[test]
    fn exception_projects_violate_their_definition() {
        let c = Corpus::generate(42);
        for p in c.projects().iter().filter(|p| p.exception) {
            assert!(
                !p.assigned.matches(&p.labels),
                "{}: marked exception but matches {:?}",
                p.card.name,
                p.assigned
            );
        }
    }

    #[test]
    fn random_corpus_classifies_as_requested() {
        let c = Corpus::generate_random(5, [2, 2, 1, 1, 2, 1, 1, 1]);
        assert_eq!(c.projects().len(), 11);
        for p in c.projects() {
            assert_eq!(
                schemachron_core::classify(&p.labels),
                Some(p.assigned),
                "{}: {:?}",
                p.card.name,
                p.labels
            );
        }
    }

    #[test]
    fn scaled_corpus_cycles_cards() {
        let c = Corpus::generate_scaled(42, 160);
        assert_eq!(c.projects().len(), 160);
        // Project 151 reuses card 0 under a new name but identical timing.
        assert_eq!(
            c.projects()[151].card.duration,
            c.projects()[0].card.duration
        );
        assert_ne!(c.projects()[151].card.name, c.projects()[0].card.name);
        assert_eq!(
            c.projects()[151].metrics.birth_index,
            c.projects()[0].metrics.birth_index
        );
    }

    #[test]
    fn seed_changes_ddl_but_not_timing() {
        let a = Corpus::generate(1);
        let b = Corpus::generate(2);
        for (x, y) in a.projects().iter().zip(b.projects()) {
            assert_eq!(x.metrics.birth_index, y.metrics.birth_index);
            assert_eq!(x.metrics.topband_index, y.metrics.topband_index);
            assert_eq!(x.metrics.total_activity, y.metrics.total_activity);
        }
    }
}
