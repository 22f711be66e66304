//! Seeded inputs and the summary rules every workload shares: the arrival
//! schedule, the tail-percentile rule, quartiles, and the derived eviction
//! count.

use std::time::Duration;

/// A small seeded generator (splitmix64). The benchmark owns its inputs, so
/// it does not lean on the repository's `rand` stand-in.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be4c_4d41_7254)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A uniform integer in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// An open-loop schedule of `count` arrivals in `window`: a Poisson process
/// conditioned on its count, i.e. sorted uniform offsets. Fixing the count
/// keeps every seed's run the same size, so runs differ only in timing.
pub fn poisson_schedule(seed: u64, count: usize, window: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let mut offsets: Vec<f64> = (0..count)
        .map(|_| rng.unit() * window.as_secs_f64())
        .collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// Candidate tail percentiles, in per-mille, highest first.
const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 500];

/// Nearest rank of per-mille percentile `q` among `n` samples (1-based).
fn rank(n: usize, q: u32) -> usize {
    ((q as usize * n).div_ceil(1000)).max(1)
}

/// The highest percentile (per-mille) that leaves at least ten samples
/// beyond it, or `None` when `n` is too small for even the median to.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&q| n >= rank(n, q) + 10)
}

/// The nearest-rank percentile `q` (per-mille) of `sorted`.
pub fn percentile(sorted: &[f64], q: u32) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// A latency sample summarised by the tail rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail value: the percentile [`tail_permille`] picks. Below 20
    /// samples no percentile leaves ten beyond it, and the median stands in.
    pub tail: f64,
    /// The tail's name, such as `p99`.
    pub tail_label: String,
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail, tail_label) = match tail_permille(sorted.len()) {
        Some(q) => (percentile(&sorted, q), permille_label(q)),
        None => (median(&sorted), "p50".to_owned()),
    };
    Summary {
        n: sorted.len(),
        p50: median(&sorted),
        tail,
        tail_label,
    }
}

fn permille_label(q: u32) -> String {
    if q.is_multiple_of(10) {
        format!("p{}", q / 10)
    } else {
        format!("p{}.{}", q / 10, q % 10)
    }
}

/// The median, averaging the two middle values of an even sample (as
/// Python's `statistics.median` does).
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the `exclusive` method). Needs at
/// least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Evictions over a measurement window, derived from the stage-cache
/// counters: every miss inserts one artifact, a quarantined build inserts
/// none, and whatever was inserted but is no longer resident was evicted.
pub fn derived_evictions(
    misses: u64,
    quarantined: u64,
    resident_before: usize,
    resident_after: usize,
) -> u64 {
    let inserted = i128::from(misses) - i128::from(quarantined);
    let grown = resident_after as i128 - resident_before as i128;
    u64::try_from((inserted - grown).max(0)).unwrap_or(u64::MAX)
}
