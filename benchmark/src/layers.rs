//! Stage-cache and corpus-pipeline counters, read from outside through
//! `pipeline::stage_stats_for` and `stage_cache_len`, and the per-layer
//! metrics every workload shares.

use schemachron_corpus::pipeline;

use crate::report::{Metric, NAMESPACES};
use crate::stats::{derived_evictions, median};

/// The stage-cache counters and residency at one instant.
#[derive(Clone, Debug)]
pub struct CacheSnapshot {
    stats: Vec<pipeline::StageStats>,
    resident: usize,
}

impl CacheSnapshot {
    /// Reads the counters now.
    pub fn take() -> CacheSnapshot {
        CacheSnapshot {
            stats: pipeline::stage_stats_for(&NAMESPACES),
            resident: pipeline::stage_cache_len(),
        }
    }
}

/// What happened in the cache between two snapshots, per namespace.
#[derive(Clone, Debug, Default)]
pub struct CacheDelta {
    /// Hits per namespace, in [`NAMESPACES`] order.
    pub hits: Vec<u64>,
    /// Misses (builds) per namespace.
    pub misses: Vec<u64>,
    /// Quarantined builds per namespace.
    pub quarantined: Vec<u64>,
    /// Build time per namespace, in milliseconds.
    pub busy_ms: Vec<f64>,
    /// Residency at the first snapshot.
    pub resident_before: usize,
    /// Residency at the second snapshot.
    pub resident_after: usize,
}

impl CacheDelta {
    /// The change from `a` to `b`. Counters reset in between read as zero.
    pub fn between(a: &CacheSnapshot, b: &CacheSnapshot) -> CacheDelta {
        let pairs = a.stats.iter().zip(&b.stats);
        CacheDelta {
            hits: pairs
                .clone()
                .map(|(x, y)| y.hits.saturating_sub(x.hits))
                .collect(),
            misses: pairs
                .clone()
                .map(|(x, y)| y.misses.saturating_sub(x.misses))
                .collect(),
            quarantined: pairs
                .clone()
                .map(|(x, y)| y.quarantined.saturating_sub(x.quarantined))
                .collect(),
            busy_ms: pairs
                .map(|(x, y)| y.busy_ns.saturating_sub(x.busy_ns) as f64 / 1e6)
                .collect(),
            resident_before: a.resident,
            resident_after: b.resident,
        }
    }

    /// Misses of one namespace.
    pub fn misses_of(&self, ns: &str) -> u64 {
        NAMESPACES
            .iter()
            .position(|n| *n == ns)
            .and_then(|i| self.misses.get(i).copied())
            .unwrap_or(0)
    }

    /// Hits over lookups, across namespaces (0 with no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let hits: u64 = self.hits.iter().sum();
        let lookups = hits + self.misses.iter().sum::<u64>();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Evictions derived as Σmisses − Σquarantined − Δresident.
    pub fn evictions(&self) -> u64 {
        derived_evictions(
            self.misses.iter().sum(),
            self.quarantined.iter().sum(),
            self.resident_before,
            self.resident_after,
        )
    }

    /// Build time of the eight ingestion stages, in milliseconds.
    pub fn pipeline_busy_ms(&self) -> f64 {
        self.busy_ms.iter().take(8).sum()
    }
}

/// The inputs of the shared per-layer metrics.
pub struct Shared<'a> {
    /// The cache over the measured phase.
    pub cache: &'a CacheDelta,
    /// The hit ratio to report (ingestion reports its warm rebuilds').
    pub hit_ratio: f64,
    /// The cache over one corpus build.
    pub build: &'a CacheDelta,
    /// That build's wall time, in seconds.
    pub build_wall_s: f64,
    /// The jobs it was given.
    pub jobs: usize,
    /// The workers it ran on (`effective_workers`).
    pub workers: usize,
    /// Traced against untraced end-to-end, in percent.
    pub overhead_pct: f64,
}

/// The per-layer metrics every workload emits, in [`crate::report::per_layer_names`]
/// order.
pub fn shared_layers(s: &Shared<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, ns) in NAMESPACES.iter().enumerate() {
        out.push(Metric::new(
            format!("stage_cache.{ns}.hits"),
            s.cache.hits[i] as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("stage_cache.{ns}.misses"),
            s.cache.misses[i] as f64,
            "count",
        ));
    }
    out.push(Metric::new("stage_cache.hit_ratio", s.hit_ratio, "ratio"));
    out.push(Metric::new(
        "stage_cache.resident",
        s.cache.resident_after as f64,
        "count",
    ));
    out.push(Metric::new(
        "stage_cache.evictions",
        s.cache.evictions() as f64,
        "count",
    ));
    for (i, stage) in NAMESPACES[..8].iter().enumerate() {
        out.push(Metric::new(
            format!("corpus.pipeline.{stage}.busy_ms"),
            s.build.busy_ms[i],
            "ms",
        ));
    }
    out.push(Metric::new(
        "corpus.parallel.workers",
        s.workers as f64,
        "count",
    ));
    let share = s.build.pipeline_busy_ms() / 1e3 / (s.jobs.max(1) as f64 * s.build_wall_s);
    out.push(Metric::new("corpus.parallel.busy_share", share, "ratio"));
    out.push(Metric::new("trace.overhead_pct", s.overhead_pct, "%"));
    out
}

/// Per-name medians of several runs of the same metric list.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// `p50` of a sample (0 when empty).
pub fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}
