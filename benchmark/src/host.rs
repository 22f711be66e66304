//! The host record written beside every result, and peak memory.

use std::path::Path;
use std::process::Command;

use serde_json::{json, Value};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The host record: core counts, CPU, compiler and the scratch
/// directory's filesystem. With fewer than two cores the writer and
/// subscriber threads and `jobs = 2` share one core, so contention numbers
/// reflect the scheduler; the record says so and every metric is kept.
pub fn record(scratch: &Path) -> Value {
    let nproc = command_line("nproc", &[]);
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let single_core = nproc.parse::<usize>().map_or(available < 2, |n| n < 2);
    let mut host = json!({
        "nproc": nproc,
        "available_parallelism": available,
        "cpu_model": (cpu_model()),
        "rustc": (command_line("rustc", &["-V"])),
        "scratch_filesystem": (filesystem_of(scratch)),
    });
    if single_core {
        if let Value::Object(map) = &mut host {
            map.insert(
                "note".to_owned(),
                json!("nproc < 2: client threads and jobs = 2 share one core, so contention numbers reflect the scheduler"),
            );
        }
    }
    host
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
