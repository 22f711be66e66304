//! The benchmark command.
//!
//! ```text
//! schemachron-benchmark run (--all | --workload NAME) [--seed N] [--trace]
//!                           [--seconds S] --out DIR
//! schemachron-benchmark compare A B
//! schemachron-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! The last form runs one workload in this process and ends its output
//! with one JSON line; `run` starts one such process per workload.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use schemachron_benchmark::report::{self, Metric};
use schemachron_benchmark::{compare, host, spec, Ctx, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: schemachron-benchmark run (--all | --workload NAME) [--seed N] [--trace] [--seconds S] --out DIR\n       \
         schemachron-benchmark compare A B\n       \
         schemachron-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => {
                match compare::compare(Path::new(a), Path::new(b), &spec::spec().end_to_end) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("compare: {e}");
                        ExitCode::from(2)
                    }
                }
            }
            _ => usage(),
        },
        Some(_) => run_one(&args),
        None => usage(),
    }
}

/// `run`: one child process per workload, so no workload inherits another's
/// caches or memory high-water mark.
fn run_all(args: &[String]) -> ExitCode {
    let workloads: Vec<&str> = if args.iter().any(|a| a == "--all") {
        WORKLOADS.to_vec()
    } else if let Some(w) = value(args, "--workload") {
        vec![w]
    } else {
        return usage();
    };
    let Some(out) = value(args, "--out") else {
        return usage();
    };
    let seed = value(args, "--seed").unwrap_or("42");
    let seconds = value(args, "--seconds")
        .map_or_else(|| spec::spec().run_seconds.to_string(), str::to_owned);
    let trace = if args.iter().any(|a| a == "--trace") {
        "1"
    } else {
        "0"
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("run: cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in workloads {
        let status = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
                "--out",
                out,
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("run: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("run: could not start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &[String]) -> ExitCode {
    let Some(workload) = value(args, "--workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage();
    };
    let seed = value(args, "--seed").map_or(Some(42), |s| s.parse::<u64>().ok());
    let seconds =
        value(args, "--seconds").map_or(Some(spec::spec().run_seconds), |s| s.parse::<u64>().ok());
    let trace = match value(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let (Some(seed), Some(seconds)) = (seed, seconds.filter(|s| (1..=600).contains(s))) else {
        return usage();
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("{workload}: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let host = host::record(&scratch);
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        scratch: scratch.clone(),
    };
    let outcome = schemachron_benchmark::run_workload(workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let end_to_end = report::end_to_end(&result, host::peak_rss_mib());
    let mut shown = end_to_end.clone();
    shown.push(Metric::new(
        "fail_ratio",
        report::fail_ratio(&result),
        "ratio",
    ));
    shown.extend(result.details.iter().cloned());
    shown.extend(result.layers.iter().cloned());
    if let Some(note) = host.get("note").and_then(serde_json::Value::as_str) {
        println!("{workload} host: {note}");
    }
    print!("{}", report::human_lines(workload, &shown));
    for why in &result.failures {
        println!("{workload} FAIL {why}");
    }

    if let Some(dir) = value(args, "--out") {
        let dir = Path::new(dir);
        let file = report::result_file(workload, seed, seconds, trace, host, &result, &shown);
        let mut written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                dir.join(format!("{workload}.json")),
                serde_json::to_string_pretty(&file).unwrap_or_default(),
            )
        });
        if trace && written.is_ok() {
            let spans = schemachron_benchmark::trace::trace_file(workload, &result.spans);
            written = std::fs::write(
                dir.join(format!("{workload}.trace.json")),
                serde_json::to_string_pretty(&spans).unwrap_or_default(),
            );
        }
        if let Err(e) = written {
            eprintln!("{workload}: cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let gated: Vec<Metric> = if trace {
        report::per_layer_names()
            .iter()
            .filter_map(|n| result.layers.iter().find(|m| &m.name == n).cloned())
            .collect()
    } else {
        end_to_end
    };
    println!("{}", report::result_line(&result, &gated));
    if result.failed == 0 && result.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
