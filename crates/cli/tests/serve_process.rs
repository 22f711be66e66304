//! `schemachron serve` as a process: SIGINT and SIGTERM drain an idle
//! server that sits in its blocking accept, and a connection flood past the
//! descriptor limit slows the accept loop down without ending the service.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `schemachron serve` child process, killed if a test leaves it running.
struct Serve {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<String>>,
}

impl Serve {
    /// Starts `cmd` and reads the bound address from its "serving on" line.
    fn spawn(mut cmd: Command) -> Serve {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn schemachron serve");
        let mut stderr = child.stderr.take().expect("piped stderr");
        // Drain stderr as it comes, so the per-request log never fills the pipe.
        let stderr = std::thread::spawn(move || {
            let mut log = String::new();
            let _ = stderr.read_to_string(&mut log);
            log
        });
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("first stdout line");
        let addr = line
            .strip_prefix("serving on http://")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"));
        Serve {
            child,
            addr,
            stdout,
            stderr: Some(stderr),
        }
    }

    /// `schemachron serve --addr 127.0.0.1:0`, optionally under `ulimit -n`.
    fn start(fd_limit: Option<u32>) -> Serve {
        let exe = env!("CARGO_BIN_EXE_schemachron");
        let cmd = match fd_limit {
            None => {
                let mut cmd = Command::new(exe);
                cmd.args(["serve", "--addr", "127.0.0.1:0"]);
                cmd
            }
            Some(n) => {
                let mut cmd = Command::new("sh");
                cmd.args([
                    "-c",
                    &format!("ulimit -n {n} && exec \"$0\" serve --addr 127.0.0.1:0"),
                    exe,
                ]);
                cmd
            }
        };
        Serve::spawn(cmd)
    }

    fn signal(&self, name: &str) {
        let status = Command::new("kill")
            .args([format!("-{name}"), self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -{name} failed");
    }

    /// Waits up to `limit` for the process to exit.
    fn exit_within(&mut self, limit: Duration) -> Option<ExitStatus> {
        let until = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return Some(status);
            }
            if Instant::now() >= until {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The stdout after the "serving on" line and the whole stderr, once
    /// the process has exited.
    fn output(&mut self) -> (String, String) {
        let mut out = String::new();
        let _ = self.stdout.read_to_string(&mut out);
        let err = self
            .stderr
            .take()
            .map(|t| t.join().expect("stderr reader"))
            .unwrap_or_default();
        (out, err)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `GET /health`'s status line, or `None` when the exchange fails.
fn health(addr: SocketAddr) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        .ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    out.lines().next().map(str::to_owned)
}

/// Retries `/health` until it answers 200, for at most `limit`.
fn healthy_within(addr: SocketAddr, limit: Duration) -> bool {
    let until = Instant::now() + limit;
    while Instant::now() < until {
        if health(addr).is_some_and(|l| l.starts_with("HTTP/1.1 200")) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

#[test]
fn an_idle_server_drains_on_sigint_and_on_sigterm() {
    for sig in ["INT", "TERM"] {
        let mut serve = Serve::start(None);
        // The corpus warm-up takes well under a second; after it the
        // server sits in accept without ever having seen a request.
        std::thread::sleep(Duration::from_secs(1));
        serve.signal(sig);
        let status = serve
            .exit_within(Duration::from_secs(2))
            .unwrap_or_else(|| panic!("still running 2 s after SIG{sig}"));
        let (out, err) = serve.output();
        assert!(status.success(), "SIG{sig}: {status}\n{out}\n{err}");
        assert!(
            out.contains("shut down after 0 requests"),
            "SIG{sig}: {out}"
        );
        assert!(err.contains(r#""evt":"shutdown""#), "SIG{sig}: {err}");
    }
}

#[test]
fn a_connection_flood_past_the_fd_limit_does_not_end_the_service() {
    let mut serve = Serve::start(Some(48));
    assert!(
        healthy_within(serve.addr, Duration::from_secs(30)),
        "never became healthy"
    );
    let idle: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(serve.addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    drop(idle);

    assert!(
        healthy_within(serve.addr, Duration::from_secs(30)),
        "/health never answered 200 after the flood"
    );
    serve.signal("INT");
    let status = serve
        .exit_within(Duration::from_secs(15))
        .expect("still running 15 s after SIGINT");
    let (out, err) = serve.output();
    assert!(status.success(), "{status}\n{out}\n{err}");
    assert!(out.contains("shut down after"), "{out}");
    // The flood did run the process out of descriptors.
    assert!(err.contains(r#""evt":"accept-error""#), "{err}");
}
