//! Generic stage machinery: the [`Stage`] trait, content-hash keys, the
//! process-wide **sharded** stage cache and its wait-free hit/miss/wall-time
//! accounting.
//!
//! # Sharding
//!
//! The cache is lock-striped: artifacts are spread over `N` independent
//! shards (`N` = the next power of two ≥ 4 × available parallelism, so a
//! worker pool at full fan-out collides on a shard with probability ≈ 1/4
//! per access), each shard owning its own map and FIFO eviction ring with a
//! per-shard slice of the byte budget. The shard of an entry is selected
//! by masking its FNV-1a content-hash key (`key & (N - 1)`); FNV-1a output
//! is uniform over the low bits, so the stripes stay balanced without a
//! second hash. Concurrent workers ingesting different projects therefore
//! almost never contend on a lock — the regression this design replaces had
//! every worker serializing 8 times per project on one global `Mutex` pair.
//!
//! Stat recording is wait-free: per-stage fixed-slot [`AtomicU64`] counters
//! (hit / miss / quarantined / eviction / busy-ns) replace the old
//! `Mutex<HashMap>`, so the hot path never takes a lock just to count.
//!
//! # Byte budget
//!
//! The bound is in bytes, not entries: every artifact reports an
//! approximate heap size once, at insert ([`ApproxSize`]), and a shard
//! evicts its oldest entries until it is back under its share of
//! [`DEFAULT_BUDGET_BYTES`], always keeping at least one. A project's
//! history outweighs its label tuple by over three orders of magnitude, so
//! an entry count bounds nothing.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

pub(crate) use schemachron_hash::{fnv1a, FNV_OFFSET};

/// Locks a shard mutex, ignoring poisoning: the critical sections below
/// only move plain data, so a panic mid-section cannot leave the map in a
/// logically inconsistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A content-hash cache key. Keys are chained: each stage's output key is a
/// hash of its name, its version and its input key, so the key of any
/// artifact transitively fingerprints the whole upstream computation
/// (seed + trait card + every stage version on the path).
pub type StageKey = u64;

/// One typed pipeline step: a pure function from an input artifact to an
/// output artifact, with a stable identity for caching.
///
/// Implementors are stateless unit structs; identity lives in the inherent
/// `NAME`/`VERSION` consts each one carries (exposed here as methods so the
/// trait stays object-light and generic code can reach them).
pub trait Stage<In, Out> {
    /// Stable stage identifier — the cache namespace and counters key.
    fn name(&self) -> &'static str;

    /// Logic version, mixed into the output key. Bump it when the stage's
    /// computation changes so stale cached artifacts can never be served.
    fn version(&self) -> u32;

    /// The computation. Must be pure: same input artifact, same output.
    fn run(&self, input: &In) -> Out;
}

/// An artifact the process cache can hold: it reports the heap it keeps
/// alive, once, when it is published. The figure is an estimate from
/// element counts (O(versions × tables) for a schema history), not a byte
/// walk; it is charged against the cache's byte budget until the entry is
/// evicted.
pub trait ApproxSize {
    /// Approximate bytes this artifact occupies, inline and on the heap.
    fn approx_bytes(&self) -> usize;
}

/// Derives a stage's output key from its identity and its input key.
pub fn derive_key(name: &str, version: u32, in_key: StageKey) -> StageKey {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &version.to_le_bytes());
    fnv1a(h, &in_key.to_le_bytes())
}

/// The shard-count formula: the next power of two at or above
/// `4 × parallelism`. Published (and restated independently by the lint
/// `H004` audit) so shard selection can be re-derived outside this module.
pub fn shard_count_for(parallelism: usize) -> usize {
    (4 * parallelism.max(1)).next_power_of_two()
}

/// The shard an entry with the given key lives in, for `shard_count`
/// shards (a power of two): the key masked by `shard_count - 1`.
pub fn shard_of_key(key: StageKey, shard_count: usize) -> usize {
    (key as usize) & (shard_count - 1)
}

/// Per-call record of which stages hit the cache and which recomputed while
/// building one project. Unlike the global counters (which every concurrent
/// build in the process feeds), a trace belongs to exactly one chain walk,
/// so tests can make exact assertions on it.
#[derive(Clone, Debug, Default)]
pub struct StageTrace {
    entries: Vec<TraceEntry>,
}

/// One consulted stage in a [`StageTrace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// The stage name.
    pub stage: &'static str,
    /// Whether the artifact came from the cache (`true`) or was recomputed.
    pub hit: bool,
}

impl StageTrace {
    pub(crate) fn record(&mut self, stage: &'static str, hit: bool) {
        self.entries.push(TraceEntry { stage, hit });
    }

    /// Every consulted stage, in consultation order (downstream-first: the
    /// chain asks for the last artifact and walks up only on misses).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of cache hits in this walk.
    pub fn hits(&self) -> usize {
        self.entries.iter().filter(|e| e.hit).count()
    }

    /// Number of recomputed stages in this walk.
    pub fn misses(&self) -> usize {
        self.entries.iter().filter(|e| !e.hit).count()
    }

    /// Names of the recomputed stages, in consultation order.
    pub fn missed_stages(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|e| !e.hit)
            .map(|e| e.stage)
            .collect()
    }
}

/// A snapshot of one stage's global counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The stage name.
    pub stage: &'static str,
    /// Artifacts served from the cache.
    pub hits: u64,
    /// Artifacts recomputed (cache misses).
    pub misses: u64,
    /// Recomputations that panicked before producing an artifact: their
    /// key was never published, so the next consumer sees a plain
    /// (retryable) miss instead of a poisoned entry.
    pub quarantined: u64,
    /// Published artifacts the byte budget pushed out of the cache.
    pub evictions: u64,
    /// Total wall time spent recomputing, in nanoseconds.
    pub busy_ns: u128,
}

/// One stage's wait-free counter block. All orderings are `Relaxed`: the
/// counters are monotone telemetry, never used for synchronization, and a
/// snapshot only promises per-counter atomicity (the same guarantee the old
/// mutex gave between two separately-locked bumps).
#[derive(Default)]
struct StatCell {
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    evictions: AtomicU64,
    busy_ns: AtomicU64,
}

/// A fixed stat slot: a once-claimed stage name plus its counter block.
/// Cache-line aligned so two stages' counters never share a line — without
/// this, concurrent workers bumping *different* stages' counters would
/// still ping-pong one line between cores (false sharing).
#[derive(Default)]
#[repr(align(64))]
struct StatSlot {
    name: OnceLock<&'static str>,
    cell: StatCell,
}

/// Fixed number of distinct stage names the stats table can account.
/// The pipeline has 8; the headroom absorbs future stages and test-local
/// names without ever reallocating (a reallocation would need a lock).
const STAT_SLOTS: usize = 32;

/// An entry's identity: its stage namespace and content-hash key.
type EntryId = (&'static str, StageKey);

/// One resident artifact and the bytes it reported when published.
struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
}

/// One lock stripe: its own map and FIFO ring, bounded by its share of
/// the byte budget. Cache-line aligned so neighboring shards' lock words
/// never share a line.
#[repr(align(64))]
struct Shard {
    inner: Mutex<ShardInner>,
    budget: usize,
}

#[derive(Default)]
struct ShardInner {
    map: HashMap<EntryId, Entry>,
    order: VecDeque<EntryId>,
    /// Sum of the resident entries' reported bytes.
    bytes: usize,
}

impl ShardInner {
    /// Files an entry at the back of the FIFO ring. A replaced entry (two
    /// workers raced on one key) keeps its ring slot; only its bytes change.
    fn push(&mut self, id: EntryId, entry: Entry) {
        self.bytes += entry.bytes;
        match self.map.insert(id, entry) {
            Some(old) => self.bytes -= old.bytes,
            None => self.order.push_back(id),
        }
    }

    /// Removes an entry and its ring slot, returning it with its bytes.
    fn take(&mut self, id: EntryId) -> Option<Entry> {
        let entry = self.map.remove(&id)?;
        self.order.retain(|slot| *slot != id);
        self.bytes -= entry.bytes;
        Some(entry)
    }
}

/// The process-wide stage cache: type-erased artifacts keyed by
/// `(stage name, content-hash key)`, lock-striped over power-of-two shards
/// selected by the key, with per-shard FIFO eviction under a byte budget
/// and wait-free per-stage counters.
///
/// Lookups and insertions are short critical sections on one shard; stage
/// computation always happens outside any lock, so two threads racing on
/// the same key at worst duplicate one computation (both results are
/// identical by the purity contract of [`Stage::run`]).
pub(crate) struct PipelineCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard of key `k` is `k & mask`.
    mask: usize,
    stats: [StatSlot; STAT_SLOTS],
}

/// The process cache's bound on the reported bytes of its resident
/// artifacts, across all shards: 1 GiB. Only terminal artifacts are
/// published (see `stages`), so every corpus the tests and benches build
/// stays resident, while a 10^5-project scale run evicts instead of
/// growing (eviction churn during a cold build is harmless: a chain holds
/// its own artifacts in per-walk memo fields, never by re-fetching).
pub const DEFAULT_BUDGET_BYTES: usize = 1 << 30;

static CACHE: OnceLock<PipelineCache> = OnceLock::new();

/// The process-default shard count: [`shard_count_for`] of the detected
/// available parallelism.
fn default_shard_count() -> usize {
    shard_count_for(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

pub(crate) fn cache() -> &'static PipelineCache {
    CACHE.get_or_init(|| PipelineCache::with_shards(default_shard_count(), DEFAULT_BUDGET_BYTES))
}

impl PipelineCache {
    /// Builds a cache with `shard_count` shards (rounded up to a power of
    /// two) splitting `budget_bytes` evenly; a shard always keeps at least
    /// its newest entry, whatever its share.
    pub(crate) fn with_shards(shard_count: usize, budget_bytes: usize) -> Self {
        let shard_count = shard_count.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                inner: Mutex::new(ShardInner::default()),
                budget: budget_bytes / shard_count,
            })
            .collect();
        PipelineCache {
            mask: shard_count - 1,
            shards: shards.into_boxed_slice(),
            stats: std::array::from_fn(|_| StatSlot::default()),
        }
    }

    /// Number of lock stripes.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index entries with this key belong to.
    pub(crate) fn shard_of(&self, key: StageKey) -> usize {
        (key as usize) & self.mask
    }

    /// The counter block for a stage: a bounded lock-free scan of the fixed
    /// slot table, claiming the first free slot for a new name. Returns
    /// `None` (the record is dropped) only past [`STAT_SLOTS`] distinct
    /// names — impossible for the 8-stage pipeline plus test headroom.
    fn stat_cell(&self, stage: &'static str) -> Option<&StatCell> {
        for slot in &self.stats {
            match slot.name.get() {
                Some(n) if *n == stage => return Some(&slot.cell),
                Some(_) => continue,
                None => {
                    if slot.name.set(stage).is_ok() {
                        return Some(&slot.cell);
                    }
                    // Lost the claim race; the slot now has a name — use it
                    // if it is ours, else keep scanning.
                    if slot.name.get().is_some_and(|n| *n == stage) {
                        return Some(&slot.cell);
                    }
                }
            }
        }
        None
    }

    /// Fetches a typed artifact; records a global hit when found.
    pub(crate) fn get<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: StageKey,
    ) -> Option<Arc<T>> {
        let shard = &self.shards[self.shard_of(key)];
        let found = {
            let inner = lock(&shard.inner);
            inner
                .map
                .get(&(stage, key))
                .and_then(|e| Arc::clone(&e.value).downcast::<T>().ok())
        };
        if found.is_some() {
            if let Some(cell) = self.stat_cell(stage) {
                cell.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Fetches a typed artifact **without** touching the hit/miss counters.
    /// For observers (lint audits, tests) that must not perturb the
    /// telemetry the benches and `/health` report.
    pub(crate) fn peek<T: Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: StageKey,
    ) -> Option<Arc<T>> {
        let inner = lock(&self.shards[self.shard_of(key)].inner);
        inner
            .map
            .get(&(stage, key))
            .and_then(|e| Arc::clone(&e.value).downcast::<T>().ok())
    }

    /// Publishes a freshly computed artifact, charging its reported size
    /// against its shard's budget, and records a global miss plus the
    /// compute wall time. The shard then evicts oldest-first until it is
    /// back under its share (keeping at least the newest entry), counting
    /// each eviction against the evicted entry's namespace.
    pub(crate) fn insert<T: ApproxSize + Send + Sync + 'static>(
        &self,
        stage: &'static str,
        key: StageKey,
        value: Arc<T>,
        busy: Duration,
    ) {
        let bytes = value.approx_bytes();
        let shard = &self.shards[self.shard_of(key)];
        {
            let mut inner = lock(&shard.inner);
            inner.push((stage, key), Entry { value, bytes });
            while inner.bytes > shard.budget && inner.order.len() > 1 {
                let Some(id) = inner.order.pop_front() else {
                    break;
                };
                if let Some(evicted) = inner.map.remove(&id) {
                    inner.bytes -= evicted.bytes;
                    if let Some(cell) = self.stat_cell(id.0) {
                        cell.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.record_miss(stage, busy);
    }

    /// Records a recomputation — a global miss plus its compute wall time —
    /// whether or not the artifact is then published.
    pub(crate) fn record_miss(&self, stage: &'static str, busy: Duration) {
        if let Some(cell) = self.stat_cell(stage) {
            cell.misses.fetch_add(1, Ordering::Relaxed);
            // Saturating: u64 nanoseconds overflow after ~584 years of
            // busy time; clamp rather than wrap if it ever happens.
            let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
            cell.busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Drops every cached artifact in every shard (counters are kept; see
    /// [`PipelineCache::reset_stats`]). Not counted as evictions.
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            *lock(&shard.inner) = ShardInner::default();
        }
    }

    /// Number of cached artifacts across all shards and stages.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(&s.inner).map.len())
            .sum()
    }

    /// Sum of the resident artifacts' reported bytes across all shards.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.inner).bytes).sum()
    }

    /// Snapshots every cached entry's `(stage, key)` identity, sorted by
    /// stage then key — the read-only view the lint cache auditor walks.
    pub(crate) fn entry_keys(&self) -> Vec<(&'static str, StageKey)> {
        let mut keys: Vec<_> = self
            .shards
            .iter()
            .flat_map(|s| lock(&s.inner).map.keys().copied().collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Snapshots every cached entry together with the shard it actually
    /// resides in, sorted by stage then key — the view the lint `H004`
    /// shard-placement audit walks.
    pub(crate) fn shard_entries(&self) -> Vec<(&'static str, StageKey, usize)> {
        let mut entries: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(idx, s)| {
                lock(&s.inner)
                    .map
                    .keys()
                    .map(|&(stage, key)| (stage, key, idx))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Re-files an artifact under a different `(stage, key)` identity,
    /// returning whether the source entry existed. The entry, with its
    /// reported bytes, moves to the back of its new key's home shard, so
    /// the content-hash → shard invariant is kept; what breaks
    /// (deliberately) is the key → content invariant — the fault-injection
    /// hook behind [`crate::pipeline::corrupt_stage_cache_entry`].
    pub(crate) fn rekey(&self, from: EntryId, to: EntryId) -> bool {
        // One lock at a time: no deadlock, even within one shard.
        let Some(entry) = lock(&self.shards[self.shard_of(from.1)].inner).take(from) else {
            return false;
        };
        lock(&self.shards[self.shard_of(to.1)].inner).push(to, entry);
        true
    }

    /// Plants an existing entry in an explicit (possibly wrong) shard,
    /// returning whether the entry existed. Deliberately breaks the
    /// key → shard invariant the `H004` lint audit checks — the
    /// fault-injection hook behind
    /// [`crate::pipeline::misplace_stage_cache_entry`].
    pub(crate) fn misplace(&self, id: EntryId, shard: usize) -> bool {
        let target = shard & self.mask;
        // The entry may already be stranded in a foreign shard (a prior
        // misplacement, now being repaired), so search every shard —
        // starting from the key's home — rather than trusting the invariant
        // this hook exists to break. One lock at a time: no deadlock.
        let home = self.shard_of(id.1);
        let found = (0..self.shards.len())
            .find_map(|i| lock(&self.shards[(home + i) & self.mask].inner).take(id));
        let Some(entry) = found else {
            return false;
        };
        // Re-filed with its bytes; an entry already where requested just
        // goes back, to the back of its ring.
        lock(&self.shards[target].inner).push(id, entry);
        true
    }

    /// Records a quarantined recomputation: the stage panicked mid-run, so
    /// no artifact was published under its key. The cache itself needs no
    /// cleanup (insertion only happens after a successful run, in whichever
    /// shard the key selects); the counter exists so chaos runs and
    /// `/health` can see how often it happened.
    pub(crate) fn record_quarantine(&self, stage: &'static str) {
        if let Some(cell) = self.stat_cell(stage) {
            cell.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zeroes all per-stage counters (slot registrations are kept — a
    /// zeroed slot snapshots identically to a never-registered one).
    pub(crate) fn reset_stats(&self) {
        for slot in &self.stats {
            slot.cell.hits.store(0, Ordering::Relaxed);
            slot.cell.misses.store(0, Ordering::Relaxed);
            slot.cell.quarantined.store(0, Ordering::Relaxed);
            slot.cell.evictions.store(0, Ordering::Relaxed);
            slot.cell.busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the counters for the given stages, in the given order
    /// (stages that never ran report zeros).
    pub(crate) fn stats_snapshot(&self, order: &[&'static str]) -> Vec<StageStats> {
        order
            .iter()
            .map(|&stage| {
                let cell = self
                    .stats
                    .iter()
                    .find(|slot| slot.name.get().is_some_and(|n| *n == stage))
                    .map(|slot| &slot.cell);
                StageStats {
                    stage,
                    hits: cell.map_or(0, |c| c.hits.load(Ordering::Relaxed)),
                    misses: cell.map_or(0, |c| c.misses.load(Ordering::Relaxed)),
                    quarantined: cell.map_or(0, |c| c.quarantined.load(Ordering::Relaxed)),
                    evictions: cell.map_or(0, |c| c.evictions.load(Ordering::Relaxed)),
                    busy_ns: cell.map_or(0, |c| u128::from(c.busy_ns.load(Ordering::Relaxed))),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_separate_stages_versions_and_inputs() {
        let k = derive_key("parse", 1, 7);
        assert_ne!(k, derive_key("schema", 1, 7), "stage name must matter");
        assert_ne!(k, derive_key("parse", 2, 7), "stage version must matter");
        assert_ne!(k, derive_key("parse", 1, 8), "input key must matter");
        assert_eq!(k, derive_key("parse", 1, 7), "keys are deterministic");
    }

    #[test]
    fn trace_counts_hits_and_misses() {
        let mut t = StageTrace::default();
        t.record("a", true);
        t.record("b", false);
        t.record("c", false);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
        assert_eq!(t.missed_stages(), ["b", "c"]);
    }

    #[test]
    fn shard_count_formula_is_pow2_of_4x_parallelism() {
        assert_eq!(shard_count_for(1), 4);
        assert_eq!(shard_count_for(2), 8);
        assert_eq!(shard_count_for(3), 16, "rounds 12 up to 16");
        assert_eq!(shard_count_for(8), 32);
        assert_eq!(shard_count_for(0), 4, "parallelism is clamped to 1");
    }

    #[test]
    fn shard_selection_masks_the_key() {
        for count in [1usize, 4, 8, 64] {
            for key in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
                assert_eq!(shard_of_key(key, count), (key as usize) % count);
            }
        }
    }

    /// A test artifact that reports a fixed size.
    struct Blob {
        id: u64,
        bytes: usize,
    }

    impl ApproxSize for Blob {
        fn approx_bytes(&self) -> usize {
            self.bytes
        }
    }

    fn blob(id: u64, bytes: usize) -> Arc<Blob> {
        Arc::new(Blob { id, bytes })
    }

    /// The id of the resident blob under `(stage, key)`, if any.
    fn resident(cache: &PipelineCache, stage: &'static str, key: StageKey) -> Option<u64> {
        cache.peek::<Blob>(stage, key).map(|b| b.id)
    }

    /// Per-namespace eviction counts, in `stages` order.
    fn evictions(cache: &PipelineCache, stages: &[&'static str]) -> Vec<u64> {
        cache
            .stats_snapshot(stages)
            .iter()
            .map(|s| s.evictions)
            .collect()
    }

    #[test]
    fn single_shard_cache_evicts_fifo_past_its_byte_budget() {
        let cache = PipelineCache::with_shards(1, 200);
        for key in 0..3u64 {
            cache.insert("s", key, blob(key, 100), Duration::ZERO);
        }
        assert_eq!(resident(&cache, "s", 0), None, "oldest entry evicted");
        assert_eq!(resident(&cache, "s", 1), Some(1));
        assert_eq!(resident(&cache, "s", 2), Some(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 200);
        assert_eq!(evictions(&cache, &["s"]), [1]);
    }

    #[test]
    fn eviction_is_per_shard_and_shards_are_isolated() {
        // 4 shards × 200 bytes each. Keys 0,4,8,12 all land in shard 0;
        // keys 1,5 land in shard 1.
        let cache = PipelineCache::with_shards(4, 800);
        assert_eq!(cache.shard_count(), 4);
        for (stage, key) in [("a", 0u64), ("a", 4), ("b", 8), ("b", 12)] {
            assert_eq!(cache.shard_of(key), 0);
            cache.insert(stage, key, blob(key, 100), Duration::ZERO);
        }
        for key in [1u64, 5] {
            assert_eq!(cache.shard_of(key), 1);
            cache.insert("b", key, blob(key, 100), Duration::ZERO);
        }
        // Shard 0 held 400 bytes against its 200: its two oldest entries
        // were evicted, in FIFO order, and counted against their namespace.
        assert_eq!(resident(&cache, "a", 0), None, "shard-0 FIFO evicted 0");
        assert_eq!(resident(&cache, "a", 4), None, "shard-0 FIFO evicted 4");
        assert_eq!(resident(&cache, "b", 8), Some(8));
        assert_eq!(resident(&cache, "b", 12), Some(12));
        // Shard 1 sat exactly at its share: untouched by shard 0's churn.
        assert_eq!(resident(&cache, "b", 1), Some(1));
        assert_eq!(resident(&cache, "b", 5), Some(5));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.resident_bytes(), 400);
        assert_eq!(evictions(&cache, &["a", "b"]), [2, 0]);
    }

    #[test]
    fn budget_splits_across_shards_with_a_floor_of_one_entry() {
        // 200 / 8 = 25 bytes a shard, below any one 100-byte artifact:
        // every shard still keeps its newest entry.
        let tiny = PipelineCache::with_shards(8, 200);
        for key in 0..8u64 {
            tiny.insert("s", key, blob(key, 100), Duration::ZERO);
        }
        assert_eq!(tiny.len(), 8, "one entry per shard survives");
        assert_eq!(tiny.resident_bytes(), 800);
        assert_eq!(evictions(&tiny, &["s"]), [0]);
        // A 9th entry into shard 0 evicts shard 0's only entry.
        tiny.insert("s", 8, blob(8, 100), Duration::ZERO);
        assert_eq!(resident(&tiny, "s", 0), None);
        assert_eq!(resident(&tiny, "s", 8), Some(8));
        assert_eq!(evictions(&tiny, &["s"]), [1]);
    }

    #[test]
    fn a_replaced_entry_is_charged_once() {
        let cache = PipelineCache::with_shards(1, 1000);
        cache.insert("s", 1, blob(1, 300), Duration::ZERO);
        cache.insert("s", 1, blob(1, 200), Duration::ZERO);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 200);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(PipelineCache::with_shards(3, 64).shard_count(), 4);
        assert_eq!(PipelineCache::with_shards(0, 64).shard_count(), 1);
        assert_eq!(PipelineCache::with_shards(16, 64).shard_count(), 16);
    }

    #[test]
    fn shard_entries_report_residency() {
        let cache = PipelineCache::with_shards(4, 64);
        cache.insert("s", 6, blob(6, 8), Duration::ZERO);
        assert_eq!(cache.shard_entries(), vec![("s", 6, 2)]);
        // Misplacing moves the entry to a foreign shard; lookups by home
        // shard now miss, and the residency view exposes the violation.
        assert!(cache.misplace(("s", 6), 3));
        assert_eq!(cache.shard_entries(), vec![("s", 6, 3)]);
        assert!(cache.get::<Blob>("s", 6).is_none(), "home-shard lookup misses");
        assert_eq!(cache.resident_bytes(), 8, "the entry's bytes moved with it");
    }

    #[test]
    fn atomic_stats_accumulate_and_reset() {
        let cache = PipelineCache::with_shards(1, 100);
        cache.insert("s", 1, blob(1, 80), Duration::from_nanos(500));
        cache.insert("s", 2, blob(2, 80), Duration::from_nanos(250));
        let _ = cache.get::<Blob>("s", 2);
        let _ = cache.get::<Blob>("s", 99); // miss: no hit counted
        cache.record_quarantine("s");
        cache.record_miss("s", Duration::from_nanos(50));
        let snap = cache.stats_snapshot(&["s", "never-ran"]);
        assert_eq!(snap[0].hits, 1);
        assert_eq!(snap[0].misses, 3, "an unpublished recompute is a miss");
        assert_eq!(snap[0].quarantined, 1);
        assert_eq!(snap[0].evictions, 1);
        assert_eq!(snap[0].busy_ns, 800);
        assert_eq!(
            snap[1],
            StageStats {
                stage: "never-ran",
                hits: 0,
                misses: 0,
                quarantined: 0,
                evictions: 0,
                busy_ns: 0
            }
        );
        cache.reset_stats();
        let zeroed = cache.stats_snapshot(&["s"]);
        assert_eq!(zeroed[0].hits, 0);
        assert_eq!(zeroed[0].misses, 0);
        assert_eq!(zeroed[0].quarantined, 0);
        assert_eq!(zeroed[0].evictions, 0);
        assert_eq!(zeroed[0].busy_ns, 0);
    }

    #[test]
    fn concurrent_mixed_stages_count_exactly() {
        // The fixed-slot registration must survive racing first-touches:
        // 8 threads × 4 stage names, every bump lands in the right cell.
        let cache = std::sync::Arc::new(PipelineCache::with_shards(8, 1 << 20));
        let stages: [&'static str; 4] = ["w", "x", "y", "z"];
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let stage = stages[(i % 4) as usize];
                        cache.insert(stage, t * 1000 + i, blob(i, 8), Duration::ZERO);
                    }
                });
            }
        });
        for stage in stages {
            let snap = cache.stats_snapshot(&[stage]);
            assert_eq!(snap[0].misses, 8 * 25, "{stage}");
            assert_eq!(snap[0].evictions, 0, "{stage}");
        }
    }

    #[test]
    fn cross_shard_rekey_moves_residency_and_bytes() {
        // 4 shards × 100 bytes each.
        let cache = PipelineCache::with_shards(4, 400);
        cache.insert("a", 0, blob(7, 60), Duration::ZERO);
        assert!(cache.rekey(("a", 0), ("b", 1)));
        assert_eq!(resident(&cache, "b", 1), Some(7));
        assert_eq!(resident(&cache, "a", 0), None);
        assert_eq!(cache.shard_entries(), vec![("b", 1, 1)]);
        assert!(!cache.rekey(("a", 0), ("a", 2)), "source gone");
        // Shard 0 gave its 60 bytes up: another 60 fits without eviction.
        cache.insert("c", 4, blob(4, 60), Duration::ZERO);
        // Shard 1 carries the moved 60: another 60 overflows it, and the
        // moved entry, oldest in its new ring, is evicted under its new
        // namespace.
        cache.insert("c", 5, blob(5, 60), Duration::ZERO);
        assert_eq!(resident(&cache, "b", 1), None);
        assert_eq!(resident(&cache, "c", 4), Some(4));
        assert_eq!(resident(&cache, "c", 5), Some(5));
        assert_eq!(evictions(&cache, &["a", "b", "c"]), [0, 1, 0]);
        assert_eq!(cache.resident_bytes(), 120);
    }
}
