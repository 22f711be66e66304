//! # schemachron-benchmark
//!
//! The repository benchmark. Four workloads, each in its own process,
//! drive the public entry points from outside: an in-process
//! `schemachron_serve::Server` for HTTP, `schemachron_stream::StreamStore`
//! for streaming and `schemachron_corpus::summarize_cards` for ingestion.
//! Untraced runs give the gated end-to-end metrics; a traced run replays
//! the same inputs around each layer's public calls and gives the
//! per-layer metrics. See `README.md` for the workloads and metric lists.

use std::path::PathBuf;

pub mod chain;
pub mod client;
pub mod compare;
pub mod host;
pub mod ingest;
pub mod layers;
pub mod live_commit;
pub mod loadgen;
pub mod report;
pub mod serve_read;
pub mod spec;
pub mod stats;
pub mod trace;

/// The workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["serve-read", "live-commit", "ingest-fit", "ingest-spill"];

/// One run's settings.
pub struct Ctx {
    /// Workload seed: drives arrivals, request targets, synthetic commits
    /// and where the ingestion deck starts.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A private directory inside the working directory for WALs.
    pub scratch: PathBuf,
}

/// Runs one workload by name.
///
/// # Errors
/// Set-up failures (binding, the WAL directory) that leave nothing to
/// measure.
pub fn run_workload(name: &str, ctx: &Ctx) -> std::io::Result<report::RunResult> {
    match name {
        "serve-read" => serve_read::run(ctx),
        "live-commit" => live_commit::run(ctx),
        "ingest-fit" => Ok(ingest::run(ctx, &ingest::FIT)),
        "ingest-spill" => Ok(ingest::run(ctx, &ingest::SPILL)),
        other => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }
}
