//! The open-loop load generator and the in-process server it drives.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use schemachron_serve::{Server, ServerConfig, ShutdownHandle};

use crate::client;

/// One scheduled operation as it happened.
#[derive(Clone, Debug)]
pub struct Timed {
    /// Index into the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Instant,
    /// How late the generator started it, in milliseconds.
    pub late_ms: f64,
    /// Due time to completion, in milliseconds.
    pub latency_ms: f64,
    /// When it completed.
    pub done: Instant,
    /// `Err` with a description when the answer was wrong or missing.
    pub outcome: Result<(), String>,
}

/// Runs `op(i)` for every arrival of `schedule` (offsets from `start`) on
/// `threads` client threads. Each thread claims the next arrival, sleeps
/// until it is due and runs it, so latency counts from the due time and a
/// stall delays the arrivals behind it instead of hiding them.
pub fn open_loop<F>(start: Instant, schedule: &[Duration], threads: usize, op: F) -> Vec<Timed>
where
    F: Fn(usize) -> Result<(), String> + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(offset) = schedule.get(i) else {
                    break;
                };
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let outcome = op(i);
                let done = Instant::now();
                out.lock().expect("result list lock").push(Timed {
                    index: i,
                    due,
                    late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                    done,
                    outcome,
                });
            });
        }
    });
    let mut timed = out.into_inner().expect("result list lock");
    timed.sort_by_key(|t| t.index);
    timed
}

/// A `schemachron_serve::Server` running on its own thread.
pub struct Running {
    /// Where it listens.
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<u64>>,
}

impl Running {
    /// Binds `127.0.0.1:0` with two workers and quiet logs, starts serving
    /// and waits until `/health` answers.
    pub fn start(stream_dir: PathBuf) -> std::io::Result<Running> {
        let server = Server::bind(ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            jobs: 2,
            quiet: true,
            seed: 42,
            stream_dir: Some(stream_dir),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let running = Running {
            addr,
            handle,
            thread,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match client::send(addr, "GET", "/health", 0, b"") {
                Ok(r) if r.status == 200 => return Ok(running),
                _ if Instant::now() > deadline => {
                    running.stop();
                    return Err(std::io::Error::other("server never became healthy"));
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Requests a graceful shutdown and joins the server thread.
    pub fn stop(self) {
        self.handle.request_shutdown();
        match self.thread.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => eprintln!("server stopped with an error: {e}"),
            Err(_) => eprintln!("server thread panicked"),
        }
    }
}
