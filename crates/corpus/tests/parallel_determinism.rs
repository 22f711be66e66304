//! Regression tests: parallel ingestion must be byte-for-byte equivalent
//! to a serial run. Each project is independently seeded and results are
//! reassembled in card order, so worker count must never leak into output.
//!
//! Every comparison clears the stage cache between builds — otherwise the
//! second build would assemble from the first build's cached artifacts and
//! the equivalence check would be vacuous.

use schemachron_corpus::{pipeline, Corpus};

fn assert_same(a: &Corpus, b: &Corpus) {
    assert_eq!(a.projects().len(), b.projects().len());
    for (x, y) in a.projects().iter().zip(b.projects()) {
        assert_eq!(x.card, y.card);
        assert_eq!(x.assigned, y.assigned);
        assert_eq!(x.metrics, y.metrics, "{}", x.card.name);
        assert_eq!(x.labels, y.labels, "{}", x.card.name);
        assert_eq!(x.history, y.history, "{}", x.card.name);
    }
}

/// Builds with a cleared stage cache so the run actually recomputes.
fn fresh(build: impl FnOnce() -> Corpus) -> Corpus {
    pipeline::clear_stage_cache();
    build()
}

#[test]
fn generate_is_jobs_invariant() {
    let serial = fresh(|| Corpus::generate_jobs(42, 1));
    assert_eq!(serial.projects().len(), 151);
    for jobs in [2, 3, 8] {
        assert_same(&serial, &fresh(|| Corpus::generate_jobs(42, jobs)));
    }
}

#[test]
fn generate_scaled_is_jobs_invariant() {
    let serial = fresh(|| Corpus::generate_scaled_jobs(42, 604, 1));
    assert_eq!(serial.projects().len(), 604);
    assert_same(&serial, &fresh(|| Corpus::generate_scaled_jobs(42, 604, 4)));
}

#[test]
fn generate_stratified_scale10_is_jobs_invariant() {
    // The headline scale point: 10× the paper corpus (1510 projects),
    // serial vs. an 8-worker pool over the sharded stage cache. Histories
    // are compared member-by-member — worker count, shard placement and
    // chunked work claiming must never leak into any project's bytes.
    let serial = fresh(|| Corpus::generate_stratified_jobs(42, 10, 1));
    assert_eq!(serial.projects().len(), 1510);
    let threaded = fresh(|| Corpus::generate_stratified_jobs(42, 10, 8));
    assert_same(&serial, &threaded);
    // The streaming summary path (what the bench grid measures) agrees too.
    assert_eq!(serial.summaries(), threaded.summaries());
}

#[test]
fn generate_random_is_jobs_invariant() {
    let counts = [2, 2, 1, 1, 2, 1, 1, 1];
    let serial = fresh(|| Corpus::generate_random_jobs(9, counts, 1));
    assert_same(&serial, &fresh(|| Corpus::generate_random_jobs(9, counts, 4)));
}

#[test]
fn serial_fallback_threshold_is_output_invariant() {
    // Corpora sized just under and just over the serial-fallback cutoff
    // (jobs * MIN_ITEMS_PER_WORKER) must come out identical to a serial
    // build: the fallback may change the schedule, never the corpus.
    let cut = 2 * schemachron_corpus::MIN_ITEMS_PER_WORKER;
    for size in [cut - 1, cut + 1] {
        let serial = fresh(|| Corpus::generate_scaled_jobs(42, size, 1));
        let threaded = fresh(|| Corpus::generate_scaled_jobs(42, size, 2));
        assert_eq!(serial.projects().len(), size);
        assert_same(&serial, &threaded);
    }
}
