//! `Corpus::build_count` counts every corpus generation in the process.
//!
//! A test binary of its own: the counter is process-wide, so a test that
//! builds corpora on another thread of the same binary would bump it
//! between the two reads.

use schemachron_corpus::Corpus;

#[test]
fn build_count_increments_per_generation() {
    let before = Corpus::build_count();
    let _ = Corpus::generate_jobs(1, 2);
    let _ = Corpus::generate_jobs(1, 2);
    assert_eq!(Corpus::build_count(), before + 2);
}
