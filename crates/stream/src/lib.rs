#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-stream
//!
//! Crash-safe **streaming ingestion** with live re-classification and a
//! fault-tolerant change feed — the live complement to the batch corpus
//! pipeline.
//!
//! * [`wal`] — the per-project write-ahead commit log: append-only segment
//!   files with per-record chained FNV-1a checksums, fsync-before-ack,
//!   temp-file+rename rotation and torn-tail truncation on replay. A
//!   `kill -9` at any point recovers to the last acknowledged commit.
//! * [`store`] — per-project WALs behind one **idempotent** append
//!   operation (client sequence numbers: duplicates and out-of-order
//!   retries are safe no-ops, gaps are refused with the expected seq),
//!   plus restart replay that resumes the feed cursor line.
//! * [`classify`] — live re-classification through the incremental stage
//!   cache: one appended commit is one cache miss, keyed by the WAL chain
//!   checksum (a content hash of the full prefix), and derived by folding
//!   that commit into the project's running history.
//! * [`feed`] — the bounded, cursored change feed: monotonic cursors that
//!   survive restarts, `lagged` shedding for slow subscribers, and no
//!   wall-clock anywhere so feed transcripts diff byte-for-byte.
//! * [`render`] — the shared JSON/SSE renderers behind `schemachron
//!   append` and the `POST /project/{id}/commit` / `GET /changes` routes.
//!
//! Fault injection: the `stream::wal_append`, `stream::wal_fsync` and
//! `stream::feed_emit` sites join the deterministic plan, and the chaos
//! drill's streaming phase replays a shuffled commit schedule under
//! injected faults plus a mid-stream kill/restart, asserting that WAL
//! replay, the live feed and a fault-free batch rebuild agree exactly.

pub mod classify;
pub mod feed;

/// Fault state is process-global: tests that install a plan take the write
/// lock, tests that merely exercise fault-instrumented paths take a read
/// lock, so an installed plan never leaks into an unrelated test.
#[cfg(test)]
pub(crate) mod testlock {
    use std::sync::RwLock;

    pub static FAULTS: RwLock<()> = RwLock::new(());

    pub fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
        FAULTS.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
        FAULTS.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
pub mod render;
pub mod store;
pub mod wal;

pub use classify::{
    classification_for, classify_commits, stream_key, StreamArtifact, STREAM_LOGIC_VERSION,
    STREAM_STAGE, UNCLASSIFIED,
};
pub use feed::{ChangeEvent, ChangeFeed, FeedBatch, FEED_CAPACITY};
pub use store::{Append, StreamError, StreamStore};
pub use wal::{record_crc, Wal, WalError, WalRecord, CHAIN_SEED, SEGMENT_HEADER_PREFIX};
