//! `live-commit`: streamed commits beside a change-feed subscriber on the
//! same server.
//!
//! Two synthetic projects are preloaded to [`PRELOAD`] commits each, so an
//! append's ack is dominated by re-classifying a long history. The writer
//! and the subscriber share the store-wide mutex and the feed's poll, so
//! store, classify and feed changes show here while `serve-read` should
//! not move.

use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use schemachron_corpus::pipeline;
use schemachron_history::Date;
use schemachron_serve::{AppState, GuardConfig};
use schemachron_stream::{
    classification_for, classify_commits, Append, ChangeEvent, ChangeFeed, StreamStore, Wal,
    WalRecord, FEED_CAPACITY, STREAM_STAGE,
};
use serde_json::{json, Value};

use crate::chain::{commit_chain, Commit};
use crate::client;
use crate::layers::{p50, CacheDelta, CacheSnapshot};
use crate::loadgen::{open_loop, Running, Timed};
use crate::report::{Metric, RunResult};
use crate::serve_read::{build_served_corpus, tally, traced_http_layers};
use crate::stats::{percentile, poisson_schedule, summarize};
use crate::trace::{TracedServer, Tracer};
use crate::Ctx;

/// Commits preloaded into each project before timing.
pub const PRELOAD: usize = 1000;
/// Commit arrivals per second, alternating between the two projects.
const RATE: f64 = 25.0;
/// How long one `/changes` long-poll may wait, in milliseconds.
const WAIT_MS: u64 = 2000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const PROJECTS: [&str; 2] = ["live-a", "live-b"];
/// Tables each project's chain creates.
const TABLES: [usize; 2] = [4, 5];

/// Commit `i` of the run: its project index and position in that chain.
fn slot(i: usize) -> (usize, usize) {
    (i % 2, PRELOAD + i / 2)
}

fn dated(chain: &[Commit]) -> Vec<(Date, String)> {
    chain
        .iter()
        .map(|c| {
            (
                Date::from_str(&c.date).expect("generated dates parse"),
                c.sql.clone(),
            )
        })
        .collect()
}

/// Writes each project's first [`PRELOAD`] commits straight into its WAL,
/// cursors in order, as `StreamStore::append` would have made them durable.
/// Skipping the per-append re-classification keeps set-up short; the
/// server's store replays the WALs and classifies each history once.
fn preload(dir: &Path, chains: &[Vec<Commit>; 2]) -> std::io::Result<()> {
    for (p, name) in PROJECTS.iter().enumerate() {
        let mut wal = Wal::open(&dir.join(name), name).map_err(std::io::Error::other)?;
        for (k, c) in chains[p][..PRELOAD].iter().enumerate() {
            wal.append(WalRecord {
                seq: k as u64 + 1,
                cursor: (p * PRELOAD + k) as u64 + 1,
                date: c.date.clone(),
                payload: c.sql.clone(),
            })
            .map_err(std::io::Error::other)?;
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let path = entry?.path();
        let target = to.join(path.file_name().unwrap_or_default());
        if path.is_dir() {
            copy_dir(&path, &target)?;
        } else {
            std::fs::copy(&path, &target)?;
        }
    }
    Ok(())
}

/// What the subscriber saw.
struct Feed {
    /// Receive time per commit of the phase (`None` if never received).
    received: Vec<Option<Instant>>,
    polls: u64,
    errors: Vec<String>,
}

/// Long-polls `/changes` from `base` until all `count` events of the phase
/// arrived or `deadline` passed, checking that each cursor arrives exactly
/// once and in order.
fn subscribe(
    addr: std::net::SocketAddr,
    base: u64,
    count: usize,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Feed {
    let mut feed = Feed {
        received: vec![None; count],
        polls: 0,
        errors: Vec::new(),
    };
    let mut since = base;
    while since < base + count as u64 && Instant::now() < deadline {
        let target = format!("/changes?since={since}&wait_ms={WAIT_MS}");
        let t = Instant::now();
        let reply = client::send(addr, "GET", &target, since, b"");
        if let Some(tracer) = tracer {
            tracer.record(since, "loadgen.changes", t, Instant::now(), None);
        }
        feed.polls += 1;
        let body: Option<Value> = match reply {
            Ok(r) if r.status == 200 => std::str::from_utf8(&r.body)
                .ok()
                .and_then(|b| serde_json::from_str(b).ok()),
            Ok(r) => {
                feed.errors.push(format!("/changes: status {}", r.status));
                None
            }
            Err(e) => {
                feed.errors.push(format!("/changes: {e}"));
                None
            }
        };
        let Some(body) = body else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        if body.get("lagged").and_then(Value::as_bool) == Some(true) {
            feed.errors.push(format!("/changes since {since}: lagged"));
        }
        let now = Instant::now();
        for e in body
            .get("events")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let cursor = e.get("cursor").and_then(Value::as_u64).unwrap_or(0);
            if cursor != since + 1 {
                feed.errors
                    .push(format!("cursor {cursor} arrived, expected {}", since + 1));
                continue;
            }
            if let Some(slot) = feed.received.get_mut((cursor - base - 1) as usize) {
                *slot = Some(now);
            }
            since = cursor;
        }
    }
    feed
}

/// Posts the run's commits from `first` on, one per arrival of `schedule`,
/// while a subscriber long-polls. Returns the writer's timings, what the
/// subscriber saw and the phase's start; the last pattern acknowledged per
/// project lands in `patterns`.
fn phase(
    addr: std::net::SocketAddr,
    chains: &[Vec<Commit>; 2],
    schedule: &[Duration],
    first: usize,
    tracer: Option<&Tracer>,
    patterns: &Mutex<[Option<String>; 2]>,
) -> (Vec<Timed>, Feed, Instant) {
    let base = (2 * PRELOAD + first) as u64;
    let start = Instant::now() + Duration::from_millis(50);
    let deadline = start + schedule.last().copied().unwrap_or_default() + Duration::from_secs(10);
    std::thread::scope(|scope| {
        let sub = scope.spawn(|| subscribe(addr, base, schedule.len(), deadline, tracer));
        let timed = open_loop(start, schedule, 1, |j| {
            let i = first + j;
            let (p, k) = slot(i);
            let c = &chains[p][k];
            let seq = k as u64 + 1;
            let body =
                json!({"seq": seq, "date": (c.date.as_str()), "sql": (c.sql.as_str())}).to_string();
            let target = format!("/project/{}/commit", PROJECTS[p]);
            let t = Instant::now();
            let reply = client::send(addr, "POST", &target, i as u64, body.as_bytes());
            if let Some(tracer) = tracer {
                tracer.record(i as u64, "loadgen.commit", t, Instant::now(), None);
            }
            let reply = reply.map_err(|e| format!("{target} seq {seq}: {e}"))?;
            let ack: Option<Value> = std::str::from_utf8(&reply.body)
                .ok()
                .and_then(|b| serde_json::from_str(b).ok());
            let got_seq = ack
                .as_ref()
                .and_then(|a| a.get("seq"))
                .and_then(Value::as_u64);
            let cursor = ack
                .as_ref()
                .and_then(|a| a.get("cursor"))
                .and_then(Value::as_u64);
            if reply.status != 201 || got_seq != Some(seq) || cursor != Some(base + j as u64 + 1) {
                return Err(format!(
                    "{target} seq {seq}: status {}, ack seq {got_seq:?}, cursor {cursor:?}",
                    reply.status
                ));
            }
            let pattern = ack
                .as_ref()
                .and_then(|a| a.get("pattern"))
                .and_then(Value::as_str)
                .map(str::to_owned);
            patterns.lock().expect("pattern lock")[p] = pattern;
            Ok(())
        });
        let feed = sub.join().expect("subscriber thread panicked");
        (timed, feed, start)
    })
}

/// Feed cursors of the call-by-call replay start this far past the real
/// ones. A WAL record's checksum covers its cursor, so the replay's chain
/// checksums, and with them its classification cache keys, differ from the
/// whole-append replay's: both classify every commit instead of one
/// hitting the other's cache entry.
const LAYER_CURSOR_OFFSET: u64 = 1 << 32;

/// Replays the run's commits in process on two copies of the preloaded
/// store, commit by commit: once through `StreamStore::append`, and once
/// call by call through the WAL, the classifier and the feed. Interleaving
/// the two keeps host-speed drift out of their comparison.
fn replay(
    ctx: &Ctx,
    template: &Path,
    chains: &[Vec<Commit>; 2],
    count: usize,
    tracer: &Tracer,
) -> std::io::Result<Vec<Metric>> {
    let whole = ctx.scratch.join("replay-store");
    let parts = ctx.scratch.join("replay-layers");
    copy_dir(template, &whole)?;
    copy_dir(template, &parts)?;
    let mut store = StreamStore::open(&whole).map_err(std::io::Error::other)?;
    let mut wals = Vec::new();
    let mut histories = Vec::new();
    for (p, name) in PROJECTS.iter().enumerate() {
        wals.push(Wal::open(&parts.join(name), name).map_err(std::io::Error::other)?);
        histories.push(dated(&chains[p][..PRELOAD]));
    }
    let base = (2 * PRELOAD) as u64 + LAYER_CURSOR_OFFSET;
    let mut feed = ChangeFeed::new(FEED_CAPACITY);
    feed.resume_past(base);
    let mut last: [Option<String>; 2] = [None, None];
    pipeline::clear_stage_cache();
    let mut misses = 0;
    let (mut append_ms, mut wal_ms, mut classify_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut per_commit_us, mut emit_us) = (Vec::new(), Vec::new());
    for i in 0..count {
        let (p, k) = slot(i);
        let c = &chains[p][k];
        let seq = k as u64 + 1;

        let before = CacheSnapshot::take();
        let t = Instant::now();
        let r = store.append(PROJECTS[p], seq, &c.date, &c.sql);
        let end = Instant::now();
        misses += CacheDelta::between(&before, &CacheSnapshot::take()).misses_of(STREAM_STAGE);
        if !matches!(r, Ok(Append::Appended { .. })) {
            return Err(std::io::Error::other(format!("replay append {i}: {r:?}")));
        }
        tracer.record(i as u64, "stream.store.append", t, end, None);
        append_ms.push((end - t).as_secs_f64() * 1e3);

        let cursor = base + i as u64 + 1;
        let record = WalRecord {
            seq,
            cursor,
            date: c.date.clone(),
            payload: c.sql.clone(),
        };
        let t0 = Instant::now();
        wals[p].append(record).map_err(std::io::Error::other)?;
        let t1 = Instant::now();
        histories[p].push((
            Date::from_str(&c.date).expect("generated dates parse"),
            c.sql.clone(),
        ));
        let after = classification_for(PROJECTS[p], &histories[p], wals[p].chain_crc())
            .pattern
            .clone();
        let t2 = Instant::now();
        feed.emit(ChangeEvent {
            cursor,
            project: PROJECTS[p].to_owned(),
            seq,
            date: c.date.clone(),
            before: last[p].replace(after.clone()),
            after,
        });
        let t3 = Instant::now();
        tracer.record(i as u64, "stream.wal.append", t0, t1, None);
        tracer.record(i as u64, "stream.classify", t1, t2, None);
        tracer.record(i as u64, "stream.feed.emit", t2, t3, None);
        wal_ms.push((t1 - t0).as_secs_f64() * 1e3);
        classify_ms.push((t2 - t1).as_secs_f64() * 1e3);
        per_commit_us.push((t2 - t1).as_secs_f64() * 1e6 / histories[p].len() as f64);
        emit_us.push((t3 - t2).as_secs_f64() * 1e6);
    }
    let p99 = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        percentile(&s, 990)
    };
    let parts_p50 = p50(&wal_ms) + p50(&classify_ms) + p50(&emit_us) / 1e3;
    Ok(vec![
        Metric::new("stream.store.append_ms.p50", p50(&append_ms), "ms"),
        Metric::new("stream.store.append_ms.p99", p99(&append_ms), "ms"),
        Metric::new("stream.wal.append_ms.p50", p50(&wal_ms), "ms"),
        Metric::new("stream.classify.ms.p50", p50(&classify_ms), "ms"),
        Metric::new("stream.classify.ms.p99", p99(&classify_ms), "ms"),
        Metric::new("stream.classify.us_per_commit", p50(&per_commit_us), "us"),
        Metric::new("stream.feed.emit_us.p50", p50(&emit_us), "us"),
        Metric::new(
            "stream.layers_over_append.p50",
            parts_p50 / p50(&append_ms),
            "ratio",
        ),
        Metric::new(
            "stage_cache.stream-classify.misses_per_append",
            misses as f64 / count as f64,
            "ratio",
        ),
    ])
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> std::io::Result<RunResult> {
    let count = (RATE * ctx.seconds as f64).round() as usize;
    // The table counts are fixed so that every seed streams the same
    // classification load; the seed varies the churn, names and dates.
    let chains: [Vec<Commit>; 2] = [
        commit_chain(
            ctx.seed.wrapping_mul(2).wrapping_add(1),
            TABLES[0],
            PRELOAD + count.div_ceil(2),
        ),
        commit_chain(
            ctx.seed.wrapping_mul(2).wrapping_add(2),
            TABLES[1],
            PRELOAD + count / 2,
        ),
    ];
    let mut result = RunResult::default();
    let mut build = None;
    let mut server = None;
    let dir_of = |i: usize| ctx.scratch.join(format!("stream-{i}"));
    for i in 0..SETUPS {
        if let Some(s) = server.take() {
            Running::stop(s);
        }
        let t = Instant::now();
        if i == 0 {
            let state =
                AppState::with_stream_root(42, GuardConfig::default(), ctx.scratch.join("ref"));
            build = Some(build_served_corpus(&state));
        }
        preload(&dir_of(i), &chains)?;
        let running = Running::start(dir_of(i))?;
        // The first stream request opens the store: replay and one
        // classification per project belong to set-up, not to the first ack.
        let since = format!("/changes?since={}", 2 * PRELOAD);
        match client::send(running.addr, "GET", &since, 0, b"") {
            Ok(r) if r.status == 200 => {}
            _ => result.fail("the preloaded store did not open"),
        }
        server = Some(running);
        result.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (Some(server), Some(build)) = (server, build) else {
        unreachable!("at least one set-up ran");
    };
    let dir = dir_of(SETUPS - 1);
    let template = ctx.scratch.join("template");
    if ctx.trace {
        copy_dir(&dir, &template)?;
    }

    let schedule = poisson_schedule(ctx.seed, count, Duration::from_secs(ctx.seconds));
    let split = if ctx.trace { count / 2 } else { count };
    let patterns = Mutex::new([None, None]);
    let before = CacheSnapshot::take();
    let (untraced, feed_a, start) =
        phase(server.addr, &chains, &schedule[..split], 0, None, &patterns);
    server.stop();

    let tracer = Arc::new(Tracer::new());
    let mut traced = Vec::new();
    let mut feeds = vec![(feed_a, &untraced)];
    if ctx.trace {
        let state = Arc::new(AppState::with_stream_root(
            42,
            GuardConfig::default(),
            dir.clone(),
        ));
        let acceptor = TracedServer::start(state, Arc::clone(&tracer), 2)?;
        let offset = schedule[split];
        let rest: Vec<Duration> = schedule[split..].iter().map(|d| *d - offset).collect();
        let (t, f, _) = phase(
            acceptor.addr(),
            &chains,
            &rest,
            split,
            Some(&tracer),
            &patterns,
        );
        acceptor.stop();
        traced = t;
        feeds.push((f, &traced));
    }
    let cache = CacheDelta::between(&before, &CacheSnapshot::take());

    let all: Vec<&Timed> = untraced.iter().chain(&traced).collect();
    tally(&mut result, &all, start);
    let mut feed_ms = Vec::new();
    let mut polls = 0;
    for (feed, timed) in &feeds {
        polls += feed.polls;
        for e in &feed.errors {
            result.fail(e.clone());
        }
        for (j, t) in timed.iter().enumerate() {
            match feed.received[j] {
                Some(at) => feed_ms.push(at.saturating_duration_since(t.due).as_secs_f64() * 1e3),
                None => result.fail(format!("commit {} never reached the subscriber", t.index)),
            }
        }
    }
    // Each project's final pattern must equal a batch classification of the
    // benchmark's own copy of its chain.
    let acked = patterns.into_inner().expect("pattern lock");
    for (p, name) in PROJECTS.iter().enumerate() {
        let len = PRELOAD + (0..count).filter(|&i| i % 2 == p).count();
        let want = classify_commits(name, &dated(&chains[p][..len]));
        if acked[p].as_deref() != Some(want.as_str()) {
            result.fail(format!(
                "{name}: final pattern {:?}, batch rebuild says {want}",
                acked[p]
            ));
        }
    }
    if !feed_ms.is_empty() {
        let feed = summarize(&feed_ms);
        result
            .details
            .push(Metric::new("feed_p50_ms", feed.p50, "ms"));
        result
            .details
            .push(Metric::new("feed_tail_ms", feed.tail, "ms"));
    }

    if ctx.trace {
        result.layers = traced_http_layers(&untraced, &traced, &cache, &build, &tracer.spans());
        let events = feed_ms.len().max(1);
        result.layers.push(Metric::new(
            "serve.changes.polls_per_event",
            polls as f64 / events as f64,
            "ratio",
        ));
        result
            .layers
            .extend(replay(ctx, &template, &chains, count, &tracer)?);
        result.spans = tracer.spans();
    }
    Ok(result)
}
