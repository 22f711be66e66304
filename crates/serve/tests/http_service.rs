//! End-to-end tests of the HTTP service over real sockets: protocol
//! guards, all documented routes, cache sharing under concurrency, and
//! graceful shutdown with in-flight requests.

// Integration-test helpers sit outside `#[test]` fns, so clippy's
// allow-in-tests escape hatch does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use schemachron_corpus::Corpus;
use schemachron_serve::{Server, ServerConfig, ShutdownHandle};

struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<u64>>,
}

impl Running {
    fn start(jobs: usize) -> Running {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            jobs,
            quiet: true,
            ..ServerConfig::default()
        })
        .expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            thread,
        }
    }

    fn stop(self) -> u64 {
        self.handle.request_shutdown();
        self.thread.join().unwrap().unwrap()
    }
}

/// Sends raw bytes, returns the full response (head + body) as a string.
fn raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let resp = raw(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_owned())
}

fn json_body(addr: SocketAddr, path: &str) -> (u16, serde_json::Value) {
    let (status, body) = get(addr, path);
    let v = serde_json::from_str(&body)
        .unwrap_or_else(|e| panic!("{path}: non-JSON body ({e:?}):\n{body}"));
    (status, v)
}

#[test]
fn protocol_guards_and_all_routes() {
    let srv = Running::start(4);
    let addr = srv.addr;

    // -- protocol guards ---------------------------------------------------
    let bad = raw(addr, b"GARBAGE\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(bad.contains("malformed request"), "{bad}");

    let huge_decl = raw(
        addr,
        b"GET /health HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(huge_decl.starts_with("HTTP/1.1 413"), "{huge_decl}");

    let mut huge_head = Vec::from(&b"GET /health HTTP/1.1\r\n"[..]);
    while huge_head.len() <= schemachron_serve::http::MAX_HEAD_BYTES {
        huge_head.extend_from_slice(b"X-Filler: yadda yadda yadda yadda\r\n");
    }
    huge_head.extend_from_slice(b"\r\n");
    let huge = raw(addr, &huge_head);
    assert!(huge.starts_with("HTTP/1.1 413"), "{huge}");

    let post = raw(addr, b"POST /health HTTP/1.1\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "{post}");

    let (nf_status, nf) = json_body(addr, "/definitely/not/a/route");
    assert_eq!(nf_status, 404);
    assert!(nf["error"].as_str().is_some(), "404 body must be JSON");

    // -- the six documented routes ----------------------------------------
    let (s, health) = json_body(addr, "/health");
    assert_eq!(s, 200);
    assert_eq!(health["status"].as_str(), Some("ok"));

    let (s, listing) = json_body(addr, "/corpus/42/projects");
    assert_eq!(s, 200);
    assert_eq!(listing["count"].as_u64(), Some(151));
    let name = listing["projects"][0]["name"].as_str().unwrap().to_owned();

    let (s, hist) = json_body(addr, &format!("/project/{name}/history"));
    assert_eq!(s, 200);
    assert!(!hist["schema"].as_array().unwrap().is_empty());

    let (s, pat) = json_body(addr, &format!("/project/{name}/pattern"));
    assert_eq!(s, 200);
    assert!(pat["labels"]["birth_volume"].as_str().is_some());
    assert!(pat["nearest"]["pattern"].as_str().is_some());

    let (s, exp) = json_body(addr, "/experiments/exp_table1");
    assert_eq!(s, 200);
    assert!(exp["censuses"].as_array().is_some());

    let (s, svg) = get(addr, &format!("/chart/{name}.svg"));
    assert_eq!(s, 200);
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{svg}");

    srv.stop();
}

#[test]
fn asof_routes_distinguish_bad_months_from_out_of_lifespan() {
    let srv = Running::start(2);
    let addr = srv.addr;

    let (_, listing) = json_body(addr, "/corpus/42/projects");
    let name = listing["projects"][0]["name"].as_str().unwrap().to_owned();

    // A well-formed as-of query answers 200 with the schema envelope.
    let (s, schema) = json_body(addr, &format!("/project/{name}/schema?asof=2009-06"));
    if s == 200 {
        assert_eq!(schema["asof"].as_str(), Some("2009-06"));
        assert!(schema["schema"]["tables"].as_array().is_some(), "{schema:?}");
    } else {
        // 2009-06 may fall outside this project's lifespan; then the
        // service must say so precisely, not claim a bad request.
        assert_eq!(s, 422, "{schema:?}");
    }

    // Malformed months are 400 with a hint, on every month-taking route.
    for path in [
        format!("/project/{name}/schema?asof=2009-13"),
        format!("/project/{name}/schema?asof=June-2009"),
        format!("/project/{name}/schema"),
        format!("/project/{name}/diff?from=2009-01"),
        format!("/project/{name}/diff?from=x&to=2009-02"),
    ] {
        let (s, body) = json_body(addr, &path);
        assert_eq!(s, 400, "{path}: {body:?}");
        assert!(body["error"].as_str().is_some(), "{path}: {body:?}");
        assert!(
            body["hint"].as_str().is_some_and(|h| h.contains("YYYY-MM")),
            "{path}: {body:?}"
        );
    }

    // A syntactically fine month outside the lifespan is 422, and the
    // body tells the caller where the lifespan actually is.
    let (s, body) = json_body(addr, &format!("/project/{name}/schema?asof=1901-01"));
    assert_eq!(s, 422, "{body:?}");
    assert!(body["lifespan"]["start"].as_str().is_some(), "{body:?}");
    assert!(body["lifespan"]["months"].as_u64().is_some(), "{body:?}");

    let start = body["lifespan"]["start"].as_str().unwrap().to_owned();
    let (s, body) = json_body(
        addr,
        &format!("/project/{name}/diff?from={start}&to=2525-01"),
    );
    assert_eq!(s, 422, "{body:?}");

    // Provenance of a table nobody ever created is 404, not 422.
    let (s, body) = json_body(addr, &format!("/project/{name}/provenance/no_such_table"));
    assert_eq!(s, 404, "{body:?}");
    assert_eq!(body["subject"].as_str(), Some("no_such_table"));

    srv.stop();
}

#[test]
fn concurrent_clients_share_one_corpus_build() {
    let srv = Running::start(4);
    let addr = srv.addr;

    // The server warms the default corpus before accepting; whatever the
    // process-wide count is now, 32 concurrent clients must not raise it.
    let (_, listing) = json_body(addr, "/corpus/42/projects");
    let name = Arc::new(
        listing["projects"][0]["name"]
            .as_str()
            .unwrap()
            .to_owned(),
    );
    let builds_before = Corpus::build_count();

    let clients: Vec<_> = (0..32)
        .map(|i| {
            let name = Arc::clone(&name);
            std::thread::spawn(move || {
                // Mix the corpus-backed routes; every client reconnects per
                // request like real HTTP/1.0-style traffic.
                let paths = [
                    format!("/project/{name}/pattern"),
                    format!("/project/{name}/history"),
                    "/corpus/42/projects".to_owned(),
                ];
                let path = &paths[i % paths.len()];
                for _ in 0..3 {
                    let (status, _) = get(addr, path);
                    assert_eq!(status, 200, "{path}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    assert_eq!(
        Corpus::build_count(),
        builds_before,
        "concurrent load must be served from the cached corpus"
    );

    let (_, health) = json_body(addr, "/health");
    assert!(health["requests"]["total"].as_u64().unwrap() >= 97);
    srv.stop();
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let srv = Running::start(2);
    let addr = srv.addr;
    // Warm up and grab a project id.
    let (_, listing) = json_body(addr, "/corpus/42/projects");
    let name = listing["projects"][0]["name"].as_str().unwrap().to_owned();

    // Every client connects and fully sends its request, *then* signals;
    // shutdown is requested only after all 8 are in flight. The accept
    // loop's drain-until-empty guarantee must still deliver every reply.
    let sent = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let path = format!("/project/{name}/pattern");
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                    .expect("send");
                sent.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut out = String::new();
                s.read_to_string(&mut out).expect("read response");
                let (head, body) = out.split_once("\r\n\r\n").expect("head/body");
                let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
                (status, body.to_owned())
            })
        })
        .collect();
    while sent.load(std::sync::atomic::Ordering::SeqCst) < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let served = srv.stop();

    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "in-flight request dropped: {body}");
        assert!(body.trim_end().ends_with('}'), "truncated body: {body}");
    }
    assert!(served >= 9, "server undercounted: {served}");
}

/// POSTs a JSON body, returns `(status, head, parsed body)`.
fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String, serde_json::Value) {
    let resp = raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let v = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("{path}: non-JSON body ({e:?}):\n{body}"));
    (status, head.to_owned(), v)
}

#[test]
fn commit_appends_are_idempotent_over_the_wire() {
    // Duplicate and out-of-order POST retries — the exact bytes a client
    // resends after a dropped connection — must be acknowledged no-ops at
    // the socket level, and must never re-emit feed events.
    let stream_dir = std::env::temp_dir().join(format!(
        "schemachron-http-stream-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&stream_dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        jobs: 2,
        quiet: true,
        stream_dir: Some(stream_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let commit1 = r#"{"seq": 1, "date": "2020-01-10", "sql": "CREATE TABLE t (a INT);"}"#;
    let (s, _, ack) = post_json(addr, "/project/wire-a/commit", commit1);
    assert_eq!(s, 201, "{ack:?}");
    assert_eq!(ack["status"].as_str(), Some("appended"));
    assert_eq!(ack["cursor"].as_u64(), Some(1));

    // The client's connection died before the ack: it resends the exact
    // same bytes. The server must answer a duplicate ack, not re-append.
    let (s, _, dup) = post_json(addr, "/project/wire-a/commit", commit1);
    assert_eq!(s, 200, "{dup:?}");
    assert_eq!(dup["status"].as_str(), Some("duplicate"));
    assert_eq!(dup["last_seq"].as_u64(), Some(1));

    let commit2 = r#"{"seq": 2, "date": "2020-06-10", "sql": "ALTER TABLE t ADD COLUMN b INT;"}"#;
    let (s, _, ack2) = post_json(addr, "/project/wire-a/commit", commit2);
    assert_eq!(s, 201, "{ack2:?}");
    assert_eq!(ack2["cursor"].as_u64(), Some(2));

    // An out-of-order retry of seq 1 arriving *after* seq 2 is still a
    // safe no-op that reports where the chain actually is.
    let (s, _, late) = post_json(addr, "/project/wire-a/commit", commit1);
    assert_eq!(s, 200, "{late:?}");
    assert_eq!(late["status"].as_str(), Some("duplicate"));
    assert_eq!(late["last_seq"].as_u64(), Some(2));

    // A gap is refused with the expected sequence so the client resyncs.
    let gap = r#"{"seq": 5, "date": "2020-07-10", "sql": "DROP TABLE t;"}"#;
    let (s, _, refused) = post_json(addr, "/project/wire-a/commit", gap);
    assert_eq!(s, 409, "{refused:?}");
    assert_eq!(refused["expected_seq"].as_u64(), Some(3));

    // Idempotency is observable on the feed: two appends, two events —
    // the three retries emitted nothing.
    let (s, feed) = json_body(addr, "/changes?since=0");
    assert_eq!(s, 200, "{feed:?}");
    let events = feed["events"].as_array().unwrap();
    assert_eq!(events.len(), 2, "{feed:?}");
    assert_eq!(events[0]["cursor"].as_u64(), Some(1));
    assert_eq!(events[1]["cursor"].as_u64(), Some(2));

    // Wrong method on a real socket: the route resolves first, so the
    // answer is 405 with the route's Allow header — not a blanket rule.
    let wrong = raw(
        addr,
        b"GET /project/wire-a/commit HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");
    assert!(wrong.contains("Allow: POST"), "{wrong}");

    // And the feed speaks SSE when asked, with cursors as event ids.
    let sse = raw(
        addr,
        b"GET /changes?since=0&format=sse HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(sse.contains("text/event-stream"), "{sse}");
    assert!(sse.contains("id: 1"), "{sse}");
    assert!(sse.contains("event: transition"), "{sse}");

    handle.request_shutdown();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&stream_dir);
}

#[test]
fn unbounded_commit_dates_are_refused_over_the_wire() {
    // A year `Date::from_str` accepts but the `YYYY-MM-DD` grammar does
    // not: refused with 400 before the WAL, so the chain, the sequence
    // line and the feed are untouched.
    let stream_dir = std::env::temp_dir().join(format!(
        "schemachron-http-stream-dates-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&stream_dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        jobs: 2,
        quiet: true,
        stream_dir: Some(stream_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let first = r#"{"seq": 1, "date": "2020-01-10", "sql": "CREATE TABLE t (a INT);"}"#;
    let (s, _, ack) = post_json(addr, "/project/wire-d/commit", first);
    assert_eq!(s, 201, "{ack:?}");
    let far = r#"{"seq": 2, "date": "10000000-01-10", "sql": "DROP TABLE t;"}"#;
    let (s, _, refused) = post_json(addr, "/project/wire-d/commit", far);
    assert_eq!(s, 400, "{refused:?}");
    assert!(
        refused["error"]
            .as_str()
            .is_some_and(|e| e.contains("10000000-01-10")),
        "{refused:?}"
    );

    // The sequence line did not move: a gap still names seq 2.
    let gap = r#"{"seq": 9, "date": "2020-02-10", "sql": "DROP TABLE t;"}"#;
    let (s, _, gap) = post_json(addr, "/project/wire-d/commit", gap);
    assert_eq!(s, 409, "{gap:?}");
    assert_eq!(gap["expected_seq"].as_u64(), Some(2));
    // And the feed holds only the one acknowledged commit.
    let (s, feed) = json_body(addr, "/changes?since=0");
    assert_eq!(s, 200, "{feed:?}");
    assert_eq!(feed["events"].as_array().map(Vec::len), Some(1), "{feed:?}");
    assert_eq!(feed["next_cursor"].as_u64(), Some(1), "{feed:?}");

    handle.request_shutdown();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&stream_dir);
}

#[test]
fn queue_overflow_sheds_load_with_503() {
    // One worker and a tiny queue: a burst of slow-ish requests must see
    // some 503s rather than unbounded queueing — and no hung connections.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        jobs: 1,
        queue_depth: 1,
        quiet: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let clients: Vec<_> = (0..24)
        .map(|_| std::thread::spawn(move || get(addr, "/corpus/42/projects").0))
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "{statuses:?}"
    );
    assert!(statuses.contains(&200), "{statuses:?}");

    handle.request_shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn shutdown_wakes_an_accept_blocked_for_a_while() {
    let srv = Running::start(2);
    // /health answers only after the warm-up, so from here on the server
    // idles in a blocking accept; leave it there a while.
    let (s, _) = get(srv.addr, "/health");
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(150));

    let Running { handle, thread, .. } = srv;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = done_tx.send(thread.join().unwrap());
    });
    let asked = std::time::Instant::now();
    handle.request_shutdown();
    let served = done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("run() must return within 1 s of request_shutdown")
        .unwrap();
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert_eq!(served, 1);
    waiter.join().unwrap();
}

#[test]
fn health_totals_do_not_count_the_shutdown_wakeup() {
    let srv = Running::start(2);
    for _ in 0..3 {
        assert_eq!(get(srv.addr, "/health").0, 200);
    }
    // A client connected before the shutdown request sends its request
    // only after it: the drain still serves it, and its /health answer
    // counts the three requests before it plus itself, not the wake-up.
    let mut late = TcpStream::connect(srv.addr).expect("connect");
    late.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    srv.handle.request_shutdown();
    late.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut out = String::new();
    late.read_to_string(&mut out).expect("read response");
    let (head, body) = out.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let health: serde_json::Value = serde_json::from_str(body).unwrap();
    assert_eq!(health["requests"]["total"].as_u64(), Some(4), "{health}");
    assert_eq!(srv.thread.join().unwrap().unwrap(), 4);
}
