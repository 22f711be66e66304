//! The TCP accept loop, graceful shutdown and structured request logging.
//!
//! [`Server::run`] blocks in `accept`, so an idle server runs no timer. A
//! shutdown request sets a flag and then opens one loopback connection to
//! the listener, which wakes the blocked call. The loop drops that
//! connection unserved, switches the listener to nonblocking, serves every
//! connection still pending, and returns.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::json;

use crate::http;
use crate::pool::WorkerPool;
use crate::router::{lock, AppState};

/// Bound on the shutdown wake-up's connect. Only a full backlog makes it
/// wait, and then the accept loop is busy and sees the flag at its next
/// accept anyway.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// The accept loop's first delay while descriptors or memory run out; each
/// further failure doubles it.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// The longest the accept loop backs off between two tries.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:8080` (port `0` picks a free one).
    pub addr: SocketAddr,
    /// Worker-pool size (min 1).
    pub jobs: usize,
    /// Bound on connections queued ahead of the workers; beyond it the
    /// accept loop answers `503` itself (backpressure).
    pub queue_depth: usize,
    /// Default corpus seed for routes without an explicit `?seed=`.
    pub seed: u64,
    /// Suppress the per-request log lines (used by tests and benches).
    pub quiet: bool,
    /// Wall-clock budget per request; past it the worker answers `504`
    /// while the handler finishes detached.
    pub request_deadline: Duration,
    /// How long an opened per-route circuit breaker sheds load before
    /// admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Root directory for the streaming WALs (`POST /project/{id}/commit`).
    /// `None` uses a per-process temp directory: appends work but do not
    /// survive a restart of the service.
    pub stream_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let guard = crate::router::GuardConfig::default();
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 8080)),
            jobs: schemachron_corpus::effective_jobs().max(2),
            queue_depth: 128,
            seed: schemachron_bench::DEFAULT_SEED,
            quiet: false,
            request_deadline: guard.deadline,
            breaker_cooldown: guard.breaker_cooldown,
            stream_dir: None,
        }
    }
}

/// Requests a running [`Server`] to stop accepting and drain. Cloneable and
/// callable from any thread, but **not** from a signal handler: the first
/// call opens a loopback connection to wake the blocked accept loop, and
/// connecting is not async-signal-safe. [`Server::install_signal_handler`]
/// hands signals to a thread that calls it instead.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    inner: Arc<Shutdown>,
}

#[derive(Debug)]
struct Shutdown {
    requested: AtomicBool,
    /// Where the wake-up connects: the listener's address, with an
    /// unspecified IP replaced by the loopback of its family.
    wake_addr: SocketAddr,
    /// The wake-up connection's local address, which the accept loop sees
    /// as its peer. The lock is held from before the connect until the
    /// address is stored, so the loop never compares against a wake-up
    /// that is connected but not yet recorded.
    waker: Mutex<Option<SocketAddr>>,
}

impl ShutdownHandle {
    fn new(listening: SocketAddr) -> ShutdownHandle {
        let ip = match listening.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        ShutdownHandle {
            inner: Arc::new(Shutdown {
                requested: AtomicBool::new(false),
                wake_addr: SocketAddr::new(ip, listening.port()),
                waker: Mutex::new(None),
            }),
        }
    }

    /// Asks the server to shut down gracefully: stop accepting, serve every
    /// queued and in-flight request, then return from [`Server::run`]. Only
    /// the first call connects to wake the accept loop; later calls return
    /// at once.
    pub fn request_shutdown(&self) {
        if self.inner.requested.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut waker = lock(&self.inner.waker);
        // A failed connect (the server has stopped, or descriptors ran out)
        // leaves the flag for the loop's next accept or back-off step.
        if let Ok(stream) = TcpStream::connect_timeout(&self.inner.wake_addr, WAKE_CONNECT_TIMEOUT)
        {
            *waker = stream.local_addr().ok();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.inner.requested.load(Ordering::SeqCst)
    }

    /// Whether an accepted connection from `peer` is this handle's wake-up.
    fn is_wakeup(&self, peer: SocketAddr) -> bool {
        self.is_requested() && *lock(&self.inner.waker) == Some(peer)
    }
}

/// A bound (but not yet running) HTTP service.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener and prepares shared state. The corpus is *not*
    /// built yet; [`Server::run`] warms it before accepting so the first
    /// real request never pays the build.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let shutdown = ShutdownHandle::new(listener.local_addr()?);
        let guard = crate::router::GuardConfig {
            deadline: config.request_deadline,
            breaker_cooldown: config.breaker_cooldown,
        };
        let state = match &config.stream_dir {
            Some(dir) => AppState::with_stream_root(config.seed, guard, dir.clone()),
            None => AppState::with_guard(config.seed, guard),
        };
        Ok(Server {
            listener,
            state: Arc::new(state),
            config,
            shutdown,
        })
    }

    /// The actually-bound address (resolves port `0`). Falls back to the
    /// configured address in the (theoretical) case the OS cannot report
    /// the bound one.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().unwrap_or(self.config.addr)
    }

    /// A handle that stops this server from another thread; signals go
    /// through [`Server::install_signal_handler`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Installs this server's [`ShutdownHandle`] as the process SIGINT and
    /// SIGTERM target, turning Ctrl-C into a graceful drain: the handler
    /// wakes a `serve-signal` thread, which requests the shutdown. First
    /// caller wins (one server per process is the CLI's shape).
    #[cfg(unix)]
    pub fn install_signal_handler(&self) {
        signal::install(self.shutdown_handle());
    }

    /// Serves until shutdown is requested; returns the number of requests
    /// handled. Connections already queued when shutdown arrives are still
    /// served (poison-pill drain). Only an error that means the listener
    /// itself is broken ends the loop early.
    pub fn run(self) -> io::Result<u64> {
        let state = Arc::clone(&self.state);
        // Warm the default corpus so /health answers immediately and
        // concurrent first requests cannot pile up behind the build.
        let _ = state.context(self.config.seed);

        let handler_state = Arc::clone(&self.state);
        let quiet = self.config.quiet;
        let pool = WorkerPool::new(
            self.config.jobs,
            self.config.queue_depth,
            Arc::new(move |stream| handle_connection(&handler_state, stream, quiet)),
        );

        // Block in accept until shutdown is requested. The request's wake-up
        // connection unblocks the call; while descriptors are exhausted, the
        // back-off step sees the flag instead.
        let mut backoff = Duration::ZERO;
        while !self.shutdown.is_requested() {
            self.accept_one(&pool, &mut backoff)?;
        }
        // Drain: every connection established before the request is still
        // served, and the first empty accept ends the loop.
        self.listener.set_nonblocking(true)?;
        while self.accept_one(&pool, &mut backoff)? {}

        // Stop accepting, then drain: queued connections are served before
        // the poison pills reach the workers.
        drop(self.listener);
        pool.shutdown();
        let served = self.state.total_requests();
        if !self.config.quiet {
            eprintln!("{}", json!({"evt": "shutdown", "requests_served": served}));
        }
        Ok(served)
    }

    /// Accepts one connection and hands it to the pool, dropping the
    /// shutdown wake-up unserved. After a failed accept it skips the one
    /// bad connection, or sleeps the next step of a doubling back-off while
    /// descriptors or memory run out; a broken listener returns the error.
    /// `Ok(false)` when a nonblocking listener has nothing pending.
    fn accept_one(&self, pool: &WorkerPool, backoff: &mut Duration) -> io::Result<bool> {
        let err = match self.listener.accept() {
            Ok((stream, peer)) => {
                *backoff = Duration::ZERO;
                if !self.shutdown.is_wakeup(peer) {
                    dispatch(pool, stream);
                }
                return Ok(true);
            }
            Err(e) => e,
        };
        let retry_ms = match accept_failure(&err) {
            AcceptFailure::Drained => return Ok(false),
            AcceptFailure::Fatal => return Err(err),
            AcceptFailure::Skip => None,
            AcceptFailure::Exhausted => {
                *backoff = (*backoff * 2).clamp(ACCEPT_BACKOFF_MIN, ACCEPT_BACKOFF_MAX);
                Some(backoff.as_millis() as u64)
            }
        };
        if !self.config.quiet {
            eprintln!(
                "{}",
                json!({"evt": "accept-error", "error": (err.to_string()), "retry_ms": retry_ms})
            );
        }
        if retry_ms.is_some() {
            std::thread::sleep(*backoff);
        }
        Ok(true)
    }
}

/// Hands an accepted connection to the pool, or answers `503` itself when
/// the queue is full.
fn dispatch(pool: &WorkerPool, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(http::READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(http::WRITE_TIMEOUT));
    // Some platforms pass the draining listener's nonblocking flag on.
    let _ = stream.set_nonblocking(false);
    if let Err(mut bounced) = pool.try_dispatch(stream) {
        // Queue full: shed load right here.
        let resp = http::Response::json(503, &json!({"error": "server overloaded, retry later"}));
        let _ = resp.write_to(&mut bounced);
        http::finish(&mut bounced);
    }
}

/// What the accept loop does after a failed `accept`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// Nothing is pending on the nonblocking listener: the drain is over.
    Drained,
    /// One pending connection failed, or a signal interrupted the call:
    /// accept the next.
    Skip,
    /// The process or system is out of descriptors, buffers or memory:
    /// back off, then retry. Also the answer to an error this table does
    /// not know, which then neither spins the loop nor ends the service.
    Exhausted,
    /// The listener itself is broken: `run` returns the error.
    Fatal,
}

/// Classifies a failed `accept` along accept(2)'s error list.
fn accept_failure(e: &io::Error) -> AcceptFailure {
    use io::ErrorKind as K;
    match e.kind() {
        K::WouldBlock => AcceptFailure::Drained,
        // The connection died before it was taken, a firewall refused it,
        // or the call was interrupted; the network errors are the pending
        // ones accept(2) says to retry like EAGAIN.
        K::Interrupted
        | K::ConnectionAborted
        | K::ConnectionReset
        | K::PermissionDenied
        | K::TimedOut
        | K::NetworkDown
        | K::NetworkUnreachable
        | K::HostUnreachable => AcceptFailure::Skip,
        // EINVAL: the socket is not listening.
        K::InvalidInput => AcceptFailure::Fatal,
        K::OutOfMemory => AcceptFailure::Exhausted,
        _ => e
            .raw_os_error()
            .map_or(AcceptFailure::Exhausted, raw_accept_failure),
    }
}

/// The accept(2) errors `io::ErrorKind` does not name, by Linux `errno`.
#[cfg(target_os = "linux")]
fn raw_accept_failure(code: i32) -> AcceptFailure {
    match code {
        // ENONET, EPROTO, ENOPROTOOPT, EOPNOTSUPP, EHOSTDOWN: more of the
        // pending network errors to retry.
        64 | 71 | 92 | 95 | 112 => AcceptFailure::Skip,
        // EBADF, EFAULT, ENOTSOCK.
        9 | 14 | 88 => AcceptFailure::Fatal,
        // EMFILE, ENFILE, ENOBUFS, and anything unknown.
        _ => AcceptFailure::Exhausted,
    }
}

/// Elsewhere the unnamed errors all back off, which never ends the service.
#[cfg(not(target_os = "linux"))]
fn raw_accept_failure(_code: i32) -> AcceptFailure {
    AcceptFailure::Exhausted
}

/// One connection: parse (bounded, timed), route through the request
/// guard, respond, log, close.
fn handle_connection(state: &Arc<AppState>, mut stream: TcpStream, quiet: bool) {
    let started = Instant::now();
    let (resp, method, target) = match http::read_request(&mut stream) {
        Ok(req) => {
            let resp = state.handle_guarded(&req);
            (resp, req.method, req.target)
        }
        Err(e) => (e.response(), "-".to_owned(), "-".to_owned()),
    };
    // Injected connection drop: the response is computed but never makes
    // it onto the wire — the client sees the connection die.
    if schemachron_fault::conn_drop_point(&target) {
        if !quiet {
            eprintln!(
                "{}",
                serde_json::json!({"evt": "conn-drop", "target": (target.as_str())})
            );
        }
        return;
    }
    let ok = resp.write_to(&mut stream).is_ok();
    http::finish(&mut stream);
    if !quiet {
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        eprintln!(
            "{}",
            json!({
                "evt": "request",
                "method": method,
                "target": target,
                "status": (resp.status),
                "bytes": (resp.body.len()),
                "ms": ((ms * 1000.0).round() / 1000.0),
                "delivered": ok,
            })
        );
    }
}

/// SIGINT/SIGTERM → [`ShutdownHandle`] wiring, dependency-free, through a
/// self-pipe. The handler `write(2)`s one byte into one end of a
/// `UnixStream` pair; a `serve-signal` thread blocked reading the other end
/// calls [`ShutdownHandle::request_shutdown`], which connects a socket and
/// so may not run inside the handler. The C `signal(2)` and `write(2)`
/// entry points ship with `std`'s own libc linkage.
///
/// This module is the one audited `unsafe` exception in the workspace
/// (every other crate is `#![forbid(unsafe_code)]`; this crate denies it
/// and re-allows it here only).
// SAFETY: the only unsafe operations are the `signal(2)` and `write(2)` FFI
// declarations and their call sites below. Both are libc entry points with
// the declared C ABIs. The handler is an `extern "C" fn` whose body loads a
// lock-free `AtomicI32` and calls `write(2)`, both async-signal-safe, with a
// pointer to a live one-byte local. The descriptor it writes to is stored
// before the handler is installed and never closed (the writing end is
// leaked for the life of the process), and it is nonblocking, so a full
// buffer drops the byte instead of stalling the interrupted thread. A
// successful write leaves `errno` alone; only a buffer already holding
// more unread bytes than any signal burst sends could make it fail.
#[cfg(unix)]
#[allow(unsafe_code)]
mod signal {
    use super::ShutdownHandle;
    use std::io::Read;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    static INSTALLED: AtomicBool = AtomicBool::new(false);
    /// The writing end of the self-pipe; `-1` until installed.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = 1u8;
            unsafe {
                write(fd, &byte, 1);
            }
        }
    }

    pub fn install(handle: ShutdownHandle) {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        let Ok((mut reader, writer)) = UnixStream::pair() else {
            return;
        };
        if writer.set_nonblocking(true).is_err() {
            return;
        }
        // The thread lives as long as the process, so it is never joined.
        // Should it fail to start, the default dispositions stay: a signal
        // then ends the process at once instead of draining it.
        let spawned = std::thread::Builder::new()
            .name("serve-signal".to_owned())
            .spawn(move || {
                let mut byte = [0u8; 1];
                loop {
                    match reader.read(&mut byte) {
                        Ok(0) => break,
                        Ok(_) => handle.request_shutdown(),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            });
        if spawned.is_err() {
            return;
        }
        WAKE_FD.store(writer.into_raw_fd(), Ordering::SeqCst);
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_port_zero_and_shuts_down_idle() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            jobs: 2,
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run());
        handle.request_shutdown();
        let served = t.join().unwrap().unwrap();
        assert_eq!(served, 0);
    }

    #[test]
    fn the_wakeup_is_told_apart_from_clients() {
        let server = Server::bind(ServerConfig {
            addr: "0.0.0.0:0".parse().unwrap(),
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.shutdown_handle();
        let port = server.local_addr().port();
        let _client = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let (_, client_peer) = server.listener.accept().unwrap();
        // Before any request nothing is a wake-up, and only the first
        // request connects: the second adds nothing to the backlog.
        assert!(!handle.is_wakeup(client_peer));
        handle.request_shutdown();
        handle.clone().request_shutdown();
        // The unspecified bind address was woken through loopback.
        let (_wake, wake_peer) = server.listener.accept().unwrap();
        assert!(wake_peer.ip().is_loopback(), "{wake_peer}");
        assert!(handle.is_wakeup(wake_peer));
        assert!(!handle.is_wakeup(client_peer));
        server.listener.set_nonblocking(true).unwrap();
        let next = server.listener.accept().map(|(_, peer)| peer);
        assert_eq!(
            next.map_err(|e| e.kind()),
            Err(std::io::ErrorKind::WouldBlock),
            "a second request_shutdown connected again"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn accept_errors_are_classified() {
        let of = |code: i32| accept_failure(&std::io::Error::from_raw_os_error(code));
        // EAGAIN ends a drain.
        assert_eq!(of(11), AcceptFailure::Drained);
        // EINTR, EPERM, ECONNABORTED, EPROTO and the pending network
        // errors cost one connection, never the service.
        for code in [4, 1, 103, 71, 64, 92, 95, 100, 101, 110, 112, 113] {
            assert_eq!(of(code), AcceptFailure::Skip, "errno {code}");
        }
        // ENOMEM, ENFILE, EMFILE, ENOBUFS and unknown errors back off.
        for code in [12, 23, 24, 105, 4095] {
            assert_eq!(of(code), AcceptFailure::Exhausted, "errno {code}");
        }
        // EBADF, EFAULT, EINVAL, ENOTSOCK: the listener is broken.
        for code in [9, 14, 22, 88] {
            assert_eq!(of(code), AcceptFailure::Fatal, "errno {code}");
        }
    }

    #[test]
    fn rebinding_same_port_fails() {
        let first = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let clash = ServerConfig {
            addr: first.local_addr(),
            quiet: true,
            ..ServerConfig::default()
        };
        let err = match Server::bind(clash) {
            Ok(_) => panic!("port is taken, bind must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }
}
