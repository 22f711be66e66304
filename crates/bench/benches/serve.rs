//! HTTP load benchmark for `schemachron serve`: an in-process quiet server
//! under a burst of concurrent clients, reporting requests/sec and latency
//! percentiles for the hottest route, `/project/{id}/pattern`.
//!
//! Emits human-readable lines and writes a machine-readable summary to
//! `BENCH_serve.json` at the workspace root (mirroring `BENCH_pipeline.json`),
//! with the host's detected cores. Exits non-zero when the p50 reaches
//! [`P50_GATE_MS`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use schemachron_bench::context::shared_corpus;
use schemachron_bench::DEFAULT_SEED;
use schemachron_corpus::Corpus;
use schemachron_serve::{Server, ServerConfig};

/// Client threads hammering the server concurrently.
const CLIENTS: usize = 32;
/// Requests per client thread.
const REQUESTS_PER_CLIENT: usize = 8;
/// The p50 gate: half of the 20 ms idle poll the accept loop used to sleep,
/// so a timed poll back on the request path fails the bench.
const P50_GATE_MS: f64 = 10.0;

/// One GET over a fresh connection; returns the wall time on a 200, panics
/// otherwise (a load bench over failing requests measures nothing).
fn timed_get(addr: std::net::SocketAddr, path: &str) -> Duration {
    let started = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    assert!(
        out.starts_with("HTTP/1.1 200"),
        "non-200 under load:\n{}",
        out.lines().next().unwrap_or("")
    );
    started.elapsed()
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1000.0
}

fn main() {
    let detected_cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let jobs = schemachron_corpus::effective_jobs().max(2);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        jobs,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // The pattern route for the corpus's first project, resolved from the
    // same shared cache the server uses (so this does not add a build).
    let corpus = shared_corpus(DEFAULT_SEED);
    let name = corpus.projects()[0].card.name.clone();
    let path = Arc::new(format!("/project/{name}/pattern"));

    // Warm-up: one request, also ensures the server finished its prewarm.
    timed_get(addr, &path);
    let builds_before = Corpus::build_count();

    let bench_started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let path = Arc::clone(&path);
            std::thread::spawn(move || {
                (0..REQUESTS_PER_CLIENT)
                    .map(|_| timed_get(addr, &path))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let wall = bench_started.elapsed();

    assert_eq!(
        Corpus::build_count(),
        builds_before,
        "the load must be served from the cached corpus"
    );

    handle.request_shutdown();
    let served = server_thread.join().unwrap().expect("server run");

    latencies.sort();
    let total = latencies.len();
    let rps = total as f64 / wall.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!(
        "bench: serve/pattern_route {total} reqs, {CLIENTS} clients, j{jobs}, \
         {detected_cores} cores: {rps:.1} req/s  p50 {p50:.2}ms  p95 {p95:.2}ms  \
         p99 {p99:.2}ms (server counted {served})"
    );

    let report = serde_json::json!({
        "bench": "serve/pattern_route",
        "route": (path.as_str()),
        "seed": DEFAULT_SEED,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "jobs": jobs,
        "detected_cores": detected_cores,
        "total_requests": total,
        "wall_secs": (wall.as_secs_f64()),
        "requests_per_sec": rps,
        "p50_gate_ms": P50_GATE_MS,
        "latency_ms": {
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": (percentile(&latencies, 1.0)),
        },
    });
    // CARGO_MANIFEST_DIR = crates/bench, so ../.. is the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(out, serde_json::to_string_pretty(&report).unwrap()) {
        Ok(()) => println!("bench: wrote {out}"),
        Err(e) => eprintln!("bench: could not write {out}: {e}"),
    }
    if p50 >= P50_GATE_MS {
        eprintln!("bench: FAIL p50 {p50:.2}ms >= {P50_GATE_MS}ms gate");
        std::process::exit(1);
    }
    println!("bench: p50 gate ok ({p50:.2}ms < {P50_GATE_MS}ms)");
}
