//! Spans recorded from the benchmark's own code, around public calls into
//! each layer, and the benchmark-owned acceptor the traced HTTP runs use.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use schemachron_serve::http::{self, Response};
use schemachron_serve::pool::WorkerPool;
use schemachron_serve::{route_key, AppState};
use serde_json::{json, Value};

/// One span: a layer's interval, the request it served and its parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique in the run.
    pub id: u64,
    /// The generator's request id (shared by every span of a request).
    pub request: u64,
    /// Layer name.
    pub layer: String,
    /// Start, in microseconds since the tracer began.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
}

/// An in-memory span recorder, written out when the run ends.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a parent recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        request: u64,
        layer: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) {
        let span = Span {
            id,
            request,
            layer: layer.to_owned(),
            start_us: start.saturating_duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            parent,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Records a span and returns its id.
    pub fn record(
        &self,
        request: u64,
        layer: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, request, layer, start, end, parent);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Durations of every span of `layer`, in milliseconds.
pub fn layer_ms(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur_us / 1e3)
        .collect()
}

/// The trace file: every span, ordered by start.
pub fn trace_file(workload: &str, spans: &[Span]) -> Value {
    let mut sorted = spans.to_vec();
    sorted.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let rows: Vec<Value> = sorted
        .iter()
        .map(|s| {
            json!({
                "id": (s.id),
                "request": (s.request),
                "layer": (s.layer.as_str()),
                "start_us": (s.start_us),
                "dur_us": (s.dur_us),
                "parent": (s.parent.map_or(Value::Null, Value::from)),
            })
        })
        .collect();
    json!({"workload": workload, "spans": rows})
}

/// The accept loop's idle poll, restated from the server's accept loop so
/// the traced acceptor waits the way the real one does.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A benchmark-owned acceptor over an [`AppState`]: the server's accept
/// loop and connection handling, rebuilt from the serve crate's public
/// pieces so spans can be recorded around each call.
pub struct TracedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TracedServer {
    /// Binds `127.0.0.1:0` and starts accepting with a `jobs`-worker pool.
    pub fn start(state: Arc<AppState>, tracer: Arc<Tracer>, jobs: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let pool = WorkerPool::new(
                jobs,
                128,
                Arc::new(move |stream| traced_connection(&state, &tracer, stream)),
            );
            loop {
                let stopping = flag.load(Ordering::SeqCst);
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_read_timeout(Some(http::READ_TIMEOUT));
                        let _ = stream.set_write_timeout(Some(http::WRITE_TIMEOUT));
                        let _ = stream.set_nonblocking(false);
                        if let Err(mut bounced) = pool.try_dispatch(stream) {
                            let resp = Response::json(503, &json!({"error": "server overloaded"}));
                            let _ = resp.write_to(&mut bounced);
                            http::finish(&mut bounced);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if stopping {
                            break;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => {}
                }
            }
            drop(listener);
            pool.shutdown();
        });
        Ok(TracedServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the pool and joins the accept thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("traced accept loop panicked");
        }
    }
}

/// One connection, making the server's public calls in the server's order
/// (read, guarded handle, fault drop point, write, finish), each inside a
/// span under a `serve.connection.<route>` parent. Afterwards a read-only
/// request is handled once more, unguarded, to time its route alone;
/// writes and long-polls are not repeated.
fn traced_connection(state: &Arc<AppState>, tracer: &Tracer, mut stream: TcpStream) {
    let conn = tracer.reserve();
    let began = Instant::now();
    let parsed = http::read_request(&mut stream);
    let read_end = Instant::now();
    let request = parsed
        .as_ref()
        .ok()
        .and_then(|r| r.header("x-bench-id"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    tracer.record(request, "serve.http.read", began, read_end, Some(conn));
    let route = parsed.as_ref().map_or("-", |r| route_key(&r.path));
    let conn_layer = format!("serve.connection.{route}");
    let (resp, req) = match parsed {
        Ok(req) => {
            let t = Instant::now();
            let resp = state.handle_guarded(&req);
            tracer.record(
                request,
                "serve.router.guarded",
                t,
                Instant::now(),
                Some(conn),
            );
            (resp, Some(req))
        }
        Err(e) => (e.response(), None),
    };
    let target = req.as_ref().map_or("-", |r| r.target.as_str());
    if schemachron_fault::conn_drop_point(target) {
        tracer.record_as(conn, request, &conn_layer, began, Instant::now(), None);
        return;
    }
    let t = Instant::now();
    let _ = resp.write_to(&mut stream);
    http::finish(&mut stream);
    let end = Instant::now();
    tracer.record(request, "serve.http.write", t, end, Some(conn));
    tracer.record_as(conn, request, &conn_layer, began, end, None);
    if let Some(req) = req {
        if route != "project_commit" && route != "changes" {
            let t = Instant::now();
            let _ = state.handle(&req);
            let layer = format!("serve.router.handle.{route}");
            tracer.record(request, &layer, t, Instant::now(), Some(conn));
        }
    }
}
