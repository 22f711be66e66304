#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-serve
//!
//! An embedded, dependency-free HTTP/1.1 JSON service over the corpus,
//! pattern classification and experiment artifacts — the long-lived query
//! form of the batch pipeline, exposed by the CLI as `schemachron serve`.
//!
//! ## Routes
//!
//! | route | payload |
//! |-------|---------|
//! | `GET /health` | liveness, uptime, per-route request counters |
//! | `GET /corpus/{seed}/projects[?pattern=p]` | per-project summaries of the seed's corpus |
//! | `GET /project/{id}/history[?seed=s]` | monthly schema/source heartbeats |
//! | `GET /project/{id}/pattern[?seed=s]` | classification + the Table-1 label tuple |
//! | `GET /project/{id}/diagnostics[?seed=s]` | the static analyzer's findings (`schemachron lint` JSON shape) |
//! | `GET /experiments/{id}` | a paper table/figure as JSON (matches `goldens/experiments/`) |
//! | `GET /chart/{id}.svg[?seed=s&w=&h=]` | the cumulative evolution chart as SVG |
//! | `POST /project/{id}/commit` | append one commit to the project's WAL (idempotent via `seq`) |
//! | `GET /changes[?since=c&max=n&wait_ms=t&format=sse]` | the cursored change feed, long-poll or SSE |
//!
//! ## Architecture
//!
//! [`Server`] owns a `std::net::TcpListener` and a bounded [`pool`] of
//! worker threads; the accept loop hands each connection to the pool and
//! answers `503` itself when the queue is full (backpressure instead of
//! unbounded buffering). All routes read from the process-wide, seed-keyed
//! `Arc<Corpus>` cache and the memoized `ExpContext` models, so a server
//! under concurrent load builds each corpus exactly once
//! (`Corpus::build_count()` is the observable proof). The accept loop
//! blocks in `accept`; no timer runs on the request path. Shutdown is
//! graceful: a [`ShutdownHandle`] (wired to SIGINT/SIGTERM by the CLI
//! through a self-pipe) wakes the loop with one loopback connection, the
//! pending connections drain, poison pills drain the workers, and
//! in-flight requests complete before the process exits.
//!
//! ## Resilience
//!
//! Every non-`/health` request runs behind a guard
//! ([`AppState::handle_guarded`]): a per-request wall-clock deadline
//! (`504` past it) and a per-route circuit [`breaker`] that sheds load
//! to a degraded cached answer (or `503`) while a route keeps failing,
//! then probes half-open after a cooldown. `/health` reports breaker
//! states and `schemachron-fault` injection counters.
//!
//! ## Streaming
//!
//! `POST /project/{id}/commit` appends one commit to the project's
//! crash-safe WAL (`schemachron-stream`, fsync *before* the ack),
//! re-runs exactly one classification chain, and announces the pattern
//! transition on the bounded `GET /changes` feed — JSON long-poll or
//! Server-Sent Events with `Last-Event-ID` resume. Appends are
//! idempotent via client sequence numbers. Dispatch resolves the route
//! before checking the method, so a wrong-method request answers `405`
//! with that route's `Allow` header while unknown paths stay `404`.

pub mod breaker;
pub mod http;
pub mod pool;
pub mod router;
pub mod server;

pub use router::{route_key, AppState, GuardConfig};
pub use server::{Server, ServerConfig, ShutdownHandle};
