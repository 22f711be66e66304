//! The summary rules: tail percentile, quartiles, the arrival schedule,
//! the eviction derivation and the comparison verdicts.

use std::time::Duration;

use schemachron_benchmark::compare::{verdict, Verdict};
use schemachron_benchmark::stats::{
    derived_evictions, percentile, poisson_schedule, quartiles, summarize, tail_permille,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_permille(10_000), Some(999));
    assert_eq!(tail_permille(1_000), Some(990), "exactly ten beyond p99");
    assert_eq!(tail_permille(999), Some(950), "nine beyond p99 is too few");
    assert_eq!(tail_permille(200), Some(950));
    assert_eq!(tail_permille(100), Some(900));
    assert_eq!(tail_permille(20), Some(500));
    assert_eq!(tail_permille(19), None);

    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sample, 990), 990.0);
    let s = summarize(&sample);
    assert_eq!((s.n, s.tail, s.tail_label.as_str()), (1000, 990.0, "p99"));
    assert_eq!(s.p50, 500.5);

    // Too few samples for any tail: the median stands in.
    let few = summarize(&[3.0, 1.0, 2.0, 10.0]);
    assert_eq!(
        (few.tail, few.tail_label.as_str(), few.p50),
        (2.5, "p50", 2.5)
    );
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 3.0]), (1.0, 4.0));
}

#[test]
fn the_arrival_schedule_is_deterministic_per_seed() {
    let window = Duration::from_secs(20);
    let a = poisson_schedule(42, 1000, window);
    assert_eq!(a, poisson_schedule(42, 1000, window));
    assert_ne!(a, poisson_schedule(7, 1000, window));
    assert_eq!(a.len(), 1000);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are in order");
    assert!(a.iter().all(|d| *d < window));
    // Conditioned on its count, the gaps still average window / count.
    let mean_gap = a[999].as_secs_f64() / 999.0;
    assert!((mean_gap - 0.02).abs() < 0.002, "{mean_gap}");
}

#[test]
fn evictions_are_misses_not_left_resident() {
    // A build that fits: everything it inserted is still resident.
    assert_eq!(derived_evictions(24_160, 0, 0, 24_160), 0);
    // A build past capacity keeps only the capacity.
    assert_eq!(derived_evictions(36_240, 0, 0, 32_768), 3_472);
    // A quarantined build inserted nothing.
    assert_eq!(derived_evictions(10, 2, 100, 108), 0);
    // Residency carried in from before the window counts as a baseline.
    assert_eq!(derived_evictions(50, 0, 32_768, 32_768), 50);
    // Whatever leaves the cache inside the window counts.
    assert_eq!(derived_evictions(0, 0, 500, 0), 500);
    // More growth than inserts clamps at zero instead of going negative.
    assert_eq!(derived_evictions(5, 0, 0, 500), 0);
}

#[test]
fn compare_verdicts_follow_bound_and_spread() {
    let base = [10.0, 10.1, 9.9, 10.05, 9.95];
    let same = [10.02, 9.98, 10.1, 9.9, 10.0];
    let slower = [11.5, 11.6, 11.4, 11.55, 11.45];
    let noisy = [8.0, 12.0, 10.0, 9.0, 11.5];
    assert_eq!(verdict(&base, &same, true, 0.1), Verdict::WithinBound);
    assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Worse);
    assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
    // Higher-is-better metrics worsen downwards.
    assert_eq!(verdict(&slower, &base, false, 0.1), Verdict::Worse);
    // A wide spread does not hide a change whose every run is better.
    let faster_noisy = [5.0, 7.0, 6.0, 5.5, 6.5];
    assert_eq!(
        verdict(&base, &faster_noisy, true, 0.1),
        Verdict::WithinBound
    );
}
