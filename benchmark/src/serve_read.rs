//! `serve-read`: open-loop reads of cached artifacts over HTTP.
//!
//! Every answer comes from warm caches (about 1.5k artifacts, far below the
//! stage cache's capacity), so the time goes to the serve layers: the
//! accept loop, the guard thread and HTTP. Stream and ingest compute are
//! bypassed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use schemachron_corpus::pipeline;
use schemachron_serve::http::Request;
use schemachron_serve::{AppState, GuardConfig};
use serde_json::Value;

use crate::client;
use crate::layers::{p50, shared_layers, CacheDelta, CacheSnapshot, Shared};
use crate::loadgen::{open_loop, Running, Timed};
use crate::report::{Metric, RunResult};
use crate::stats::{percentile, poisson_schedule, Rng};
use crate::trace::{layer_ms, Span, TracedServer, Tracer};
use crate::Ctx;

/// Arrivals per second.
const RATE: f64 = 50.0;
/// Client threads (and so at most this many open connections).
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The corpus build of the first set-up, for the shared layer metrics.
pub(crate) struct CorpusBuild {
    pub delta: CacheDelta,
    pub wall_s: f64,
    pub jobs: usize,
}

/// Builds the served seed-42 corpus through an `AppState`, timing it.
pub(crate) fn build_served_corpus(state: &AppState) -> CorpusBuild {
    let before = CacheSnapshot::take();
    let t = Instant::now();
    let ctx = state.context(42);
    let wall_s = t.elapsed().as_secs_f64();
    drop(ctx);
    CorpusBuild {
        delta: CacheDelta::between(&before, &CacheSnapshot::take()),
        wall_s,
        jobs: schemachron_corpus::effective_jobs(),
    }
}

/// The seeded target pool: per project, its pattern, history and safety,
/// two as-of schemas, two diffs and two table provenances, each with months
/// and tables valid for that project.
fn target_pool(state: &AppState, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x7ead);
    let ctx = state.context(42);
    let mut pool = Vec::new();
    for p in ctx.corpus.projects() {
        let id = &p.card.name;
        let start = p.history.start();
        let months = p.history.month_count().max(1) as i32;
        let month = |rng: &mut Rng| start.plus(rng.below(months as usize) as i32);
        pool.push(format!("/project/{id}/pattern"));
        pool.push(format!("/project/{id}/history"));
        pool.push(format!("/project/{id}/safety"));
        for _ in 0..2 {
            pool.push(format!("/project/{id}/schema?asof={}", month(&mut rng)));
            let (a, b) = (month(&mut rng), month(&mut rng));
            let (from, to) = if a <= b { (a, b) } else { (b, a) };
            pool.push(format!("/project/{id}/diff?from={from}&to={to}"));
        }
        let last = start.plus(months - 1);
        let schema = state.handle(&Request::get(&format!("/project/{id}/schema?asof={last}")));
        let tables: Vec<String> = std::str::from_utf8(&schema.body)
            .ok()
            .and_then(|b| serde_json::from_str(b).ok())
            .and_then(|v: Value| {
                v.get("schema")
                    .and_then(|s| s.get("tables"))
                    .and_then(Value::as_object)
                    .map(|t| t.keys().cloned().collect())
            })
            .unwrap_or_default();
        if !tables.is_empty() {
            for _ in 0..2 {
                let table = &tables[rng.below(tables.len())];
                pool.push(format!("/project/{id}/provenance/{table}"));
            }
        }
    }
    pool
}

/// Answers every distinct target once through a separate `AppState`,
/// which also warms the caches. Targets that do not answer 200 are left
/// out of the pool.
fn reference(state: &AppState, pool: Vec<String>) -> BTreeMap<String, Vec<u8>> {
    pool.into_iter()
        .filter_map(|t| {
            let resp = state.handle(&Request::get(&t));
            (resp.status == 200).then_some((t, resp.body))
        })
        .collect()
}

/// Sends one GET and checks the body byte for byte against the reference.
fn read_once(addr: std::net::SocketAddr, target: &str, id: u64, want: &[u8]) -> Result<(), String> {
    match client::send(addr, "GET", target, id, b"") {
        Ok(r) if r.status == 200 && r.body == want => Ok(()),
        Ok(r) if r.status == 200 => Err(format!("{target}: body differs from the reference")),
        Ok(r) => Err(format!("{target}: status {}", r.status)),
        Err(e) => Err(format!("{target}: {e}")),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> std::io::Result<RunResult> {
    let mut result = RunResult::default();
    let mut build = None;
    let mut refs = BTreeMap::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(s) = server.take() {
            Running::stop(s);
        }
        let t = Instant::now();
        pipeline::clear_stage_cache();
        let state = AppState::with_stream_root(42, GuardConfig::default(), ctx.scratch.join("ref"));
        if i == 0 {
            build = Some(build_served_corpus(&state));
        }
        refs = reference(&state, target_pool(&state, ctx.seed));
        if refs.is_empty() {
            return Err(std::io::Error::other("no target answered 200"));
        }
        server = Some(Running::start(ctx.scratch.join("stream"))?);
        result.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (Some(server), Some(build)) = (server, build) else {
        unreachable!("at least one set-up ran");
    };

    let targets: Vec<&String> = refs.keys().collect();
    let count = (RATE * ctx.seconds as f64).round() as usize;
    let mut rng = Rng::new(ctx.seed ^ 0x5e1ec7);
    let picks: Vec<usize> = (0..count).map(|_| rng.below(targets.len())).collect();
    let window = Duration::from_secs(ctx.seconds);
    let schedule = poisson_schedule(ctx.seed, count, window);
    // A traced run measures the first half untraced through the real
    // server and the second half traced through the benchmark's acceptor.
    let split = if ctx.trace { count / 2 } else { count };

    let before = CacheSnapshot::take();
    let start = Instant::now() + Duration::from_millis(50);
    let addr = server.addr;
    let untraced = open_loop(start, &schedule[..split], CLIENTS, |i| {
        let target = targets[picks[i]];
        read_once(addr, target, i as u64, &refs[target])
    });
    server.stop();

    let tracer = Arc::new(Tracer::new());
    let mut traced: Vec<Timed> = Vec::new();
    if ctx.trace {
        let state = Arc::new(AppState::with_stream_root(
            42,
            GuardConfig::default(),
            ctx.scratch.join("traced"),
        ));
        let acceptor = TracedServer::start(state, Arc::clone(&tracer), 2)?;
        let addr = acceptor.addr();
        let offset = schedule[split];
        let rest: Vec<Duration> = schedule[split..].iter().map(|d| *d - offset).collect();
        let start = Instant::now() + Duration::from_millis(50);
        traced = open_loop(start, &rest, CLIENTS, |j| {
            let i = split + j;
            let target = targets[picks[i]];
            let t = Instant::now();
            let r = read_once(addr, target, i as u64, &refs[target]);
            tracer.record(i as u64, "loadgen.request", t, Instant::now(), None);
            r
        });
        acceptor.stop();
    }
    let cache = CacheDelta::between(&before, &CacheSnapshot::take());

    let all: Vec<&Timed> = untraced.iter().chain(&traced).collect();
    tally(&mut result, &all, start);
    if ctx.trace {
        result.spans = tracer.spans();
        result.layers = traced_http_layers(&untraced, &traced, &cache, &build, &result.spans);
    }
    Ok(result)
}

/// Counts outcomes and latencies of an HTTP phase into `result`.
pub(crate) fn tally(result: &mut RunResult, timed: &[&Timed], start: Instant) {
    let mut last = start;
    for t in timed {
        result.attempted += 1;
        result.ops_ms.push(t.latency_ms);
        match &t.outcome {
            Ok(()) => last = last.max(t.done),
            Err(why) => result.fail(why.clone()),
        }
    }
    let ok = result.attempted.saturating_sub(result.failed);
    result.throughput_per_s = ok as f64
        / last
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(1e-9);
}

/// The per-layer metrics of a traced HTTP run: the shared set, then the
/// serve layers. `untraced` went through the real server, `traced`
/// through the benchmark's acceptor.
pub(crate) fn traced_http_layers(
    untraced: &[Timed],
    traced: &[Timed],
    cache: &CacheDelta,
    build: &CorpusBuild,
    spans: &[Span],
) -> Vec<Metric> {
    let p50_of = |t: &[Timed]| p50(&t.iter().map(|t| t.latency_ms).collect::<Vec<_>>());
    let untraced_p50 = p50_of(untraced);
    let mut layers = shared_layers(&Shared {
        cache,
        hit_ratio: cache.hit_ratio(),
        build: &build.delta,
        build_wall_s: build.wall_s,
        jobs: build.jobs,
        workers: schemachron_corpus::effective_workers(151, build.jobs),
        overhead_pct: (p50_of(traced) / untraced_p50 - 1.0) * 100.0,
    });
    let all: Vec<&Timed> = untraced.iter().chain(traced).collect();
    layers.extend(http_layers(spans, untraced_p50, &all));
    layers
}

/// The serve-layer metrics of a traced HTTP phase. Long-polls of the
/// change feed wait by design, so their connections are left out of the
/// read, guard, write and wait figures.
fn http_layers(spans: &[Span], untraced_p50: f64, timed: &[&Timed]) -> Vec<Metric> {
    let polls: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.layer == "serve.connection.changes")
        .map(|s| s.id)
        .collect();
    let timed_spans: Vec<Span> = spans
        .iter()
        .filter(|s| !s.parent.is_some_and(|p| polls.contains(&p)))
        .cloned()
        .collect();
    let spans = &timed_spans[..];
    let mut out = Vec::new();
    let read = layer_ms(spans, "serve.http.read");
    let write = layer_ms(spans, "serve.http.write");
    let guarded = layer_ms(spans, "serve.router.guarded");
    out.push(Metric::new("serve.http.read_ms.p50", p50(&read), "ms"));
    out.push(Metric::new("serve.http.write_ms.p50", p50(&write), "ms"));
    out.push(Metric::new(
        "serve.router.guarded_ms.p50",
        p50(&guarded),
        "ms",
    ));
    let mut handled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(route) = s.layer.strip_prefix("serve.router.handle.") {
            handled.entry(route).or_default().push(s.dur_us / 1e3);
        }
    }
    let all_handled: Vec<f64> = handled.values().flatten().copied().collect();
    for (route, ms) in &handled {
        out.push(Metric::new(
            format!("serve.router.handle_ms.p50.{route}"),
            p50(ms),
            "ms",
        ));
    }
    if !all_handled.is_empty() {
        out.push(Metric::new(
            "serve.router.guard_overhead_ms.p50",
            p50(&guarded) - p50(&all_handled),
            "ms",
        ));
    }
    // Per connection: read + guarded + write, joined through the parent.
    let mut per_conn: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if matches!(
            s.layer.as_str(),
            "serve.http.read" | "serve.router.guarded" | "serve.http.write"
        ) {
            if let Some(parent) = s.parent {
                *per_conn.entry(parent).or_default() += s.dur_us / 1e3;
            }
        }
    }
    let served: Vec<f64> = per_conn.into_values().collect();
    out.push(Metric::new(
        "serve.server.wait_ms.p50",
        untraced_p50 - p50(&served),
        "ms",
    ));
    let mut late: Vec<f64> = timed.iter().map(|t| t.late_ms).collect();
    late.sort_by(f64::total_cmp);
    out.push(Metric::new(
        "loadgen.late_ms.p99",
        percentile(&late, 990),
        "ms",
    ));
    out
}
