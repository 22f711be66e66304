//! `schemachron chaos` — the deterministic fault drill.
//!
//! Installs a seed-keyed [`schemachron_fault::FaultPlan`] and pushes the
//! whole system through its paces: corpus ingestion (self-healing
//! `par_map` + stage quarantine), crash-safe materialization (atomic
//! writes + `MANIFEST` verification + epoch-bumped resume), a fault-free
//! rebuild diffed against the recovered state and the experiment goldens,
//! the guarded serve path (deadlines + circuit breaker), and finally
//! streaming ingestion: a shuffled commit schedule appended through the
//! WAL under injected faults with a mid-stream kill/restart, asserting
//! that the recovered replay, the live feed transitions and a fault-free
//! batch rebuild agree byte-for-byte.
//!
//! Because every injection decision is a pure hash of
//! `(fault seed, site, key, epoch, attempt)` — never of call counts or
//! thread schedule — the whole report is **byte-identical at any `--jobs`
//! level** for a fixed `(corpus seed, fault seed, rate, sites)` tuple.
//! The report deliberately prints no wall-clock times, paths or worker
//! counts.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use schemachron_bench::context::ExpContext;
use schemachron_bench::experiments as exp;
use schemachron_corpus::io::write_corpus_dir;
use schemachron_corpus::materialize::materialize;
use schemachron_corpus::pipeline::clear_stage_cache;
use schemachron_corpus::{load_project_dir, verify_project_dir, Corpus, LoadError};
use schemachron_fault as fault;
use schemachron_hash::{fnv1a, FNV_OFFSET};
use schemachron_history::{Date, IngestMode};
use schemachron_stream::{classify_commits, Append, StreamError, StreamStore, FEED_CAPACITY};
use schemachron_serve::http::{Request, Response};
use schemachron_serve::{AppState, GuardConfig};

use crate::{apply_jobs, opt_value, seed_of, CliError, CliResult, EXPERIMENT_IDS};

/// How often a materialization attempt may be resumed before the drill
/// declares non-convergence (mirrors the `par_map` retry bound).
const WRITE_ATTEMPTS: u32 = 3;

/// How long an injected stall lasts while ingesting and materializing
/// (phases 1–2). It is there to reorder the workers, which a few
/// milliseconds already does; no deadline observes it. `--slow-ms` sizes
/// the serve phase's stalls, which its deadline must see.
const INGEST_STALL: Duration = Duration::from_millis(5);

/// Entry point for `schemachron chaos`.
pub fn run_chaos(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let seed = seed_of(&argv)?;
    apply_jobs(&argv)?;
    let fault_seed: u64 = parse_or(&argv, "--fault-seed", 7)?;
    let slow_ms: u64 = parse_or(&argv, "--slow-ms", 150)?;
    let rate: f64 = parse_or(&argv, "--rate", 0.05)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::new(format!(
            "invalid --rate value `{rate}` (expected a probability in [0, 1])"
        )));
    }
    let sites = site_args(&argv)?;
    let plan = fault::FaultPlan::new(fault_seed, rate)
        .with_sites(sites.iter().cloned())
        .with_slow(Duration::from_millis(slow_ms));

    let _ = writeln!(out, "schemachron chaos — deterministic fault drill");
    let _ = writeln!(out, "  corpus seed: {seed}");
    let _ = writeln!(out, "  fault seed:  {fault_seed}");
    let _ = writeln!(out, "  rate:        {rate}");
    let _ = writeln!(
        out,
        "  sites:       {}",
        if sites.is_empty() {
            "all".to_owned()
        } else {
            sites.join(", ")
        }
    );

    silence_injected_panics();
    let result = drill(seed, &plan, slow_ms, out);
    // Never leak fault state into the rest of the process (tests, serve).
    fault::clear();
    fault::set_epoch(0);
    result
}

/// Injected worker panics are caught and retried by design; the default
/// panic hook would still spray a backtrace per injection onto stderr.
/// Filter those (and only those) out; genuine panics keep the full hook.
fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !fault::is_injected_payload(msg) {
            prev(info);
        }
    }));
}

/// Parses an optional numeric flag with a default.
fn parse_or<T: std::str::FromStr>(argv: &[&str], name: &str, default: T) -> Result<T, CliError> {
    match opt_value(argv, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::new(format!("invalid {name} value `{v}`"))),
    }
}

/// Collects every `--site` occurrence, validated against the registry.
fn site_args(argv: &[&str]) -> Result<Vec<String>, CliError> {
    let mut sites = Vec::new();
    for (i, a) in argv.iter().enumerate() {
        if *a != "--site" {
            continue;
        }
        let Some(v) = argv.get(i + 1) else {
            return Err(CliError::new("chaos: --site needs a value"));
        };
        if !fault::site::ALL.contains(v) {
            return Err(CliError::new(format!(
                "unknown --site `{v}` (valid: {})",
                fault::site::ALL.join(", ")
            )));
        }
        if !sites.contains(&(*v).to_owned()) {
            sites.push((*v).to_owned());
        }
    }
    Ok(sites)
}

/// The five drill phases. Returns `Err` only on **invariant violations**
/// (corrupt state accepted, recovered state diverging from the fault-free
/// reference, golden mismatches) — injected faults that surface as typed
/// errors or shed requests are the expected, healthy outcome.
fn drill(seed: u64, plan: &fault::FaultPlan, slow_ms: u64, out: &mut dyn Write) -> CliResult {
    let mut violations: Vec<String> = Vec::new();

    // [1/5] ingest under faults: par_map isolates poisoned workers, the
    // stage cache quarantines failed stages, bounded retries re-roll.
    let _ = writeln!(out, "\n[1/5] ingest under faults");
    let ingest_plan = plan.clone().with_slow(INGEST_STALL);
    fault::reset_counters();
    fault::set_epoch(0);
    fault::install(ingest_plan.clone());
    clear_stage_cache();
    let cards = schemachron_corpus::cards::all_cards();
    let total_projects = cards.len();
    let jobs = schemachron_corpus::effective_jobs();
    let corpus = match Corpus::try_from_cards(cards, seed, jobs) {
        Ok(c) => {
            let _ = writeln!(
                out,
                "  recovered: built {}/{total_projects} projects through injected faults",
                c.projects().len()
            );
            c
        }
        Err(failures) => {
            let first = failures
                .0
                .first()
                .map_or_else(String::new, std::string::ToString::to_string);
            let _ = writeln!(
                out,
                "  typed failure: {} item(s) failed after bounded retries (first: {first})",
                failures.0.len()
            );
            let _ = writeln!(out, "  rebuilt fault-free for the remaining phases");
            fault::clear();
            clear_stage_cache();
            let c = Corpus::generate(seed);
            fault::install(ingest_plan.clone());
            c
        }
    };

    // [2/5] crash-safe materialization: atomic per-project staging, a
    // checksum MANIFEST committed by rename, epoch-bumped resume.
    let _ = writeln!(out, "\n[2/5] crash-safe materialization");
    let stage_root = std::env::temp_dir().join(format!("schemachron-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&stage_root);
    let mut wrote = false;
    for attempt in 1..=WRITE_ATTEMPTS {
        fault::set_epoch(attempt);
        match write_corpus_dir(&corpus, &stage_root) {
            Ok(()) => {
                let _ = writeln!(out, "  attempt {attempt}: complete");
                wrote = true;
                break;
            }
            Err(e) => {
                let _ = writeln!(out, "  attempt {attempt}: {}", sanitize_io(&e));
            }
        }
    }
    if !wrote {
        let _ = writeln!(
            out,
            "  did not converge in {WRITE_ATTEMPTS} attempts; incomplete directories must stay rejected"
        );
    }
    let mut complete = 0usize;
    for p in corpus.projects() {
        let dir = stage_root.join(&p.card.name);
        if !dir.exists() {
            continue;
        }
        match verify_project_dir(&dir) {
            Ok(()) => match load_project_dir(&dir, IngestMode::Migration) {
                Ok(_) => complete += 1,
                Err(e) => violations.push(format!(
                    "{}: verified clean but failed to load: {e}",
                    p.card.name
                )),
            },
            // An interrupted write correctly rejected — the invariant holds.
            Err(LoadError::Corrupt(_)) => {}
            Err(LoadError::Io(e)) => {
                violations.push(format!("{}: verify I/O error: {e}", p.card.name));
            }
        }
    }
    let _ = writeln!(
        out,
        "  complete project directories: {complete}/{total_projects}"
    );
    if wrote && complete != total_projects {
        violations.push(format!(
            "write reported success but only {complete}/{total_projects} directories verify"
        ));
    }
    let mut staged = 0usize;
    if let Ok(entries) = std::fs::read_dir(&stage_root) {
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".partial") {
                continue;
            }
            staged += 1;
            if load_project_dir(&entry.path(), IngestMode::Migration).is_ok() {
                violations.push(format!("staging directory `{name}` was accepted as a project"));
            }
        }
    }
    let _ = writeln!(out, "  interrupted staging directories: {staged} (all rejected)");
    let _ = std::fs::remove_dir_all(&stage_root);

    // [3/5] the recovered corpus must be indistinguishable from a
    // fault-free build, and the goldens must hold byte-for-byte.
    let _ = writeln!(out, "\n[3/5] fault-free rebuild and goldens");
    fault::clear();
    clear_stage_cache();
    let reference = Corpus::generate(seed);
    let mismatched: Vec<&str> = corpus
        .projects()
        .iter()
        .zip(reference.projects())
        .filter(|(a, b)| {
            a.card.name != b.card.name
                || a.assigned != b.assigned
                || a.metrics != b.metrics
                || a.labels != b.labels
        })
        .map(|(a, _)| a.card.name.as_str())
        .collect();
    if mismatched.is_empty() {
        let _ = writeln!(
            out,
            "  recovered corpus ≡ fault-free corpus ({total_projects}/{total_projects} projects identical)"
        );
    } else {
        let _ = writeln!(
            out,
            "  recovered corpus DIVERGES on {} project(s)",
            mismatched.len()
        );
        violations.push(format!(
            "recovered corpus diverges from the fault-free build: {}",
            mismatched.join(", ")
        ));
    }
    let goldens = Path::new("goldens").join("experiments");
    if goldens.is_dir() {
        let ctx = ExpContext::new(seed);
        let mut identical = 0usize;
        for id in EXPERIMENT_IDS {
            let Some((_text, json)) = exp::run_experiment(id, &ctx) else {
                continue;
            };
            let rendered = format!(
                "{}\n",
                serde_json::to_string_pretty(&json).unwrap_or_default()
            );
            match std::fs::read(goldens.join(format!("{id}.json"))) {
                Ok(bytes) if bytes == rendered.as_bytes() => identical += 1,
                _ => violations.push(format!("experiment golden `{id}` is not byte-identical")),
            }
        }
        let _ = writeln!(
            out,
            "  experiment goldens: {identical}/{} byte-identical",
            EXPERIMENT_IDS.len()
        );
    } else {
        let _ = writeln!(out, "  experiment goldens: not present, skipped");
    }

    // [4/5] serve under faults: per-request deadline, per-route breaker,
    // degraded cached answers. The cooldown is set far past the drill so
    // breaker transitions never race wall time — the report stays
    // deterministic.
    let _ = writeln!(out, "\n[4/5] serve under faults");
    fault::install(plan.clone());
    fault::set_epoch(10);
    let deadline = Duration::from_millis((slow_ms * 2 / 3).max(40));
    let state = Arc::new(AppState::with_guard(
        seed,
        GuardConfig {
            deadline,
            breaker_cooldown: Duration::from_secs(3600),
        },
    ));
    // Warm the corpus/context caches outside the guard so the drill's
    // deadline measures injected stalls, not first-touch builds.
    let _ = state.handle(&get_req(&format!("/corpus/{seed}/projects")));
    let _ = state.handle(&get_req("/experiments/exp_table1"));
    let mut targets: Vec<String> = (0..12)
        .map(|i| format!("/corpus/{seed}/projects?probe={i}"))
        .collect();
    targets.push("/experiments/exp_table1".to_owned());
    targets.push("/experiments/exp_table2".to_owned());
    // Revisit early probes: if the breaker opened, these come back from
    // the degraded cache instead of 503.
    for i in 0..3 {
        targets.push(format!("/corpus/{seed}/projects?probe={i}"));
    }
    for t in &targets {
        let resp = state.handle_guarded(&get_req(t));
        let _ = writeln!(out, "  GET {t} → {}{}", resp.status, outcome_marker(&resp));
    }
    let health = state.handle(&get_req("/health"));
    let parsed: Result<serde_json::Value, _> =
        serde_json::from_str(&String::from_utf8_lossy(&health.body));
    if let Ok(v) = parsed {
        if let Some(breakers) = v
            .get("guard")
            .and_then(|g| g.get("breakers"))
            .and_then(serde_json::Value::as_object)
        {
            for (route, st) in breakers {
                let _ = writeln!(out, "  breaker[{route}]: {}", st.as_str().unwrap_or("?"));
            }
        }
    }

    // [5/5] streaming ingestion under faults: a deterministically shuffled
    // commit schedule appended through the crash-safe WAL with bounded
    // retries, a mid-stream kill/restart, and a duplicate re-send probe;
    // then the recovered replay, the live transition transcript and a
    // fault-free batch rebuild must agree byte-for-byte.
    let _ = writeln!(out, "\n[5/5] streaming ingestion under faults");
    fault::install(plan.clone());
    fault::set_epoch(20);
    stream_phase(seed, &corpus, &mut violations, out);
    fault::clear();

    let _ = writeln!(out, "\nfault summary");
    let counters = fault::counters();
    for (site, n) in &counters {
        let _ = writeln!(out, "  {site}: {n}");
    }
    let _ = writeln!(out, "  total injected: {}", fault::injected_total());
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "verdict: OK — every fault was contained, retried or shed; state stayed consistent"
        );
        Ok(())
    } else {
        for v in &violations {
            let _ = writeln!(out, "violation: {v}");
        }
        Err(CliError::new(format!(
            "chaos: {} invariant violation(s)",
            violations.len()
        )))
    }
}

/// How many corpus projects the streaming phase replays as live commit
/// chains, how many leading commits of each, and the minimum chain length
/// that makes a project worth streaming (flatliners with one commit would
/// leave the shuffle with nothing to interleave).
const STREAM_PROJECTS: usize = 3;
const STREAM_COMMITS: usize = 8;
const STREAM_MIN_COMMITS: usize = 4;

/// Bounded retries per streamed append (mirrors `schemachron watch`).
const STREAM_RETRIES: u32 = 3;

/// The `[5/5]` streaming phase body: shuffled schedule, faulted appends
/// with bounded retries, mid-stream kill/restart, duplicate-re-send probe,
/// then the three-way byte-for-byte agreement check.
fn stream_phase(seed: u64, corpus: &Corpus, violations: &mut Vec<String>, out: &mut dyn Write) {
    // Commit chains from the first materialized projects: the same inputs
    // the batch pipeline classifies, now replayed as a live stream.
    let chains: Vec<(String, Vec<(Date, String)>)> = corpus
        .projects()
        .iter()
        .filter_map(|p| {
            let mat = materialize(&p.card, seed);
            let commits: Vec<(Date, String)> =
                mat.ddl_commits.into_iter().take(STREAM_COMMITS).collect();
            (commits.len() >= STREAM_MIN_COMMITS).then(|| (p.card.name.clone(), commits))
        })
        .take(STREAM_PROJECTS)
        .collect();
    let total: usize = chains.iter().map(|(_, c)| c.len()).sum();
    if total == 0 {
        let _ = writeln!(out, "  no materializable commits; phase skipped");
        return;
    }

    // The shuffled interleaving: per-project order stays sequential (the
    // idempotency contract needs contiguous seqs), the cross-project order
    // is a pure hash of (corpus seed, position) — deterministic at any
    // --jobs and independent of the fault plan.
    let mut order: Vec<usize> = Vec::with_capacity(total);
    {
        let mut remaining: Vec<usize> = chains.iter().map(|(_, c)| c.len()).collect();
        for pos in 0..total {
            let candidates: Vec<usize> =
                (0..chains.len()).filter(|&i| remaining[i] > 0).collect();
            let h = fnv1a(
                fnv1a(FNV_OFFSET, &seed.to_le_bytes()),
                &(pos as u64).to_le_bytes(),
            );
            let pick = candidates[usize::try_from(h % candidates.len() as u64).unwrap_or(0)];
            order.push(pick);
            remaining[pick] -= 1;
        }
    }
    let _ = writeln!(
        out,
        "  schedule: {total} commits across {} projects, shuffled",
        chains.len()
    );

    let stream_root =
        std::env::temp_dir().join(format!("schemachron-chaos-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&stream_root);
    let mut store = match StreamStore::open(&stream_root) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("stream store failed to open: {e}"));
            return;
        }
    };

    let restart_at = total / 2;
    let mut next = vec![0usize; chains.len()];
    let mut transcript = String::new();
    let mut retried = 0u32;
    let mut went_fault_free = false;
    let mut restarted = false;
    for (pos, &pick) in order.iter().enumerate() {
        // Mid-stream kill/restart: drop the store (all derived state) and
        // replay from disk. Any torn tail a fault left behind is truncated;
        // the cursor line resumes where the acknowledged history ends.
        if pos == restart_at && !restarted {
            restarted = true;
            drop(store);
            store = match StreamStore::open(&stream_root) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("mid-stream restart failed to replay: {e}"));
                    return;
                }
            };
            let _ = writeln!(
                out,
                "  mid-stream restart after {pos} commits: replay resumed the cursor line"
            );
            // Idempotency probe across the restart: re-send a commit that
            // is already acknowledged — it must be a no-op, not a rewrite.
            if let Some(done) = (0..chains.len()).find(|&i| next[i] > 0) {
                let (name, commits) = &chains[done];
                let (date, sql) = &commits[0];
                match store.append(name, 1, &date.to_string(), sql) {
                    Ok(Append::Duplicate { .. }) => {
                        let _ = writeln!(
                            out,
                            "  idempotency probe: duplicate re-send of an acked commit was a no-op"
                        );
                    }
                    other => violations.push(format!(
                        "duplicate re-send of {name} seq 1 was not a no-op: {other:?}"
                    )),
                }
            }
        }

        let (name, commits) = &chains[pick];
        let seq = next[pick] as u64 + 1;
        let (date, sql) = &commits[next[pick]];
        let date_str = date.to_string();
        let mut attempt = 0u32;
        let mut result = store.append(name, seq, &date_str, sql);
        while matches!(result, Err(StreamError::Wal(_))) && attempt < STREAM_RETRIES {
            attempt += 1;
            retried += 1;
            result = fault::with_attempt(attempt, || store.append(name, seq, &date_str, sql));
        }
        if matches!(result, Err(StreamError::Wal(_))) && !went_fault_free {
            // Bounded retries exhausted: like phase 1, fall back to a
            // fault-free continuation — the recovery invariants below must
            // hold regardless of where injection stopped.
            went_fault_free = true;
            fault::clear();
            let _ = writeln!(
                out,
                "  typed failure at {name} seq {seq}: bounded retries exhausted; continuing fault-free"
            );
            result = store.append(name, seq, &date_str, sql);
        }
        match result {
            Ok(Append::Appended { seq, before, after, .. }) => {
                let before = before.unwrap_or_else(|| "(new)".to_owned());
                transcript.push_str(&format!("{name} seq={seq}: {before} -> {after}\n"));
                next[pick] += 1;
            }
            Ok(Append::Duplicate { seq, last_seq }) => {
                violations.push(format!(
                    "scheduled append {name} seq {seq} answered duplicate (last {last_seq})"
                ));
                next[pick] += 1;
            }
            Err(e) => {
                violations.push(format!("streaming append {name} seq {seq} failed: {e}"));
                return;
            }
        }
    }
    let _ = writeln!(
        out,
        "  acked: {total}/{total} commits through {retried} bounded retr{}",
        if retried == 1 { "y" } else { "ies" }
    );

    // The live feed since the restart: cursors must be strictly
    // increasing, and every event must restate a transition the acks
    // already reported — same bytes, no drift.
    let batch = store.events_since(0, FEED_CAPACITY);
    let mut prev_cursor = 0u64;
    for e in &batch.events {
        if e.cursor <= prev_cursor {
            violations.push(format!(
                "feed cursor {} does not advance past {prev_cursor}",
                e.cursor
            ));
        }
        prev_cursor = e.cursor;
        let line = format!(
            "{} seq={}: {} -> {}\n",
            e.project,
            e.seq,
            e.before.as_deref().unwrap_or("(new)"),
            e.after
        );
        if !transcript.contains(&line) {
            violations.push(format!(
                "feed event (cursor {}) disagrees with the acked transition: {}",
                e.cursor,
                line.trim_end()
            ));
        }
    }
    let _ = writeln!(
        out,
        "  live feed: {} transition(s) retained, cursors strictly increasing",
        batch.events.len()
    );

    // Recovery: a fresh replay of the WALs must agree with the live state,
    // and the full transition transcript must be re-derivable from the
    // fault-free batch classifier over every prefix — byte-for-byte.
    fault::clear();
    drop(store);
    let recovered = match StreamStore::open(&stream_root) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("post-drill replay failed: {e}"));
            return;
        }
    };
    let mut rebuilt = String::new();
    let mut prefix = vec![0usize; chains.len()];
    let mut prev: Vec<Option<String>> = vec![None; chains.len()];
    for &pick in &order {
        let (name, commits) = &chains[pick];
        prefix[pick] += 1;
        let after = classify_commits(name, &commits[..prefix[pick]]);
        let before = prev[pick].take().unwrap_or_else(|| "(new)".to_owned());
        rebuilt.push_str(&format!(
            "{name} seq={}: {before} -> {after}\n",
            prefix[pick]
        ));
        prev[pick] = Some(after);
    }
    if transcript == rebuilt {
        let _ = writeln!(
            out,
            "  live transitions ≡ fault-free batch rebuild ({total}/{total} identical)"
        );
    } else {
        violations.push(format!(
            "live transitions diverge from the fault-free batch rebuild:\n--- live\n{transcript}--- rebuilt\n{rebuilt}"
        ));
    }
    for (i, (name, commits)) in chains.iter().enumerate() {
        if recovered.last_seq(name) != commits.len() as u64 {
            violations.push(format!(
                "recovered replay of {name} is at seq {}, expected {}",
                recovered.last_seq(name),
                commits.len()
            ));
        }
        if recovered.pattern(name) != recovered.batch_classify(name) {
            violations.push(format!(
                "recovered pattern of {name} disagrees with its batch rebuild"
            ));
        }
        if recovered.pattern(name) != prev[i] {
            violations.push(format!(
                "recovered pattern of {name} disagrees with the live transcript's final state"
            ));
        }
        let _ = writeln!(
            out,
            "  {name}: seq {}, pattern {}",
            recovered.last_seq(name),
            recovered.pattern(name).unwrap_or_else(|| "(none)".to_owned())
        );
    }
    let _ = std::fs::remove_dir_all(&stream_root);
}

/// Keeps the report deterministic: injected I/O errors carry stable,
/// path-free messages and print verbatim; anything else (a real disk
/// problem) prints by kind only, since OS messages embed paths.
fn sanitize_io(e: &std::io::Error) -> String {
    let msg = e.to_string();
    if msg.contains("schemachron-fault:") {
        msg
    } else {
        format!("I/O error ({:?})", e.kind())
    }
}

/// Classifies a guarded response for the report.
fn outcome_marker(resp: &Response) -> &'static str {
    let body = String::from_utf8_lossy(&resp.body);
    if body.contains("\"degraded\": true") {
        " (degraded cache)"
    } else if resp.status == 504 {
        " (deadline)"
    } else if body.contains("circuit open") {
        " (shed)"
    } else {
        ""
    }
}

/// Builds a GET [`Request`] the way the HTTP parser would.
fn get_req(target: &str) -> Request {
    Request::get(target)
}
