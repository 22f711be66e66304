//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Implements exactly the subset the service needs: a request line, headers
//! (only `Content-Length` is interpreted), and guarded limits — oversized
//! heads or declared bodies are rejected with `413` before any route code
//! runs, and a stalled client trips the socket read timeout into `408`.
//! Every connection carries one request and is closed after the response
//! (`Connection: close`), which keeps the worker pool's accounting trivial.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a declared request body. The service is read-only, so any
/// larger payload is rejected outright.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Socket read timeout: a client that stalls mid-request gets `408`.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket write timeout: a client that stops draining gets dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long [`finish`] waits for the peer to close after the response.
pub const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// Politely finishes a connection after the response has been written:
/// half-closes the write side so the peer sees EOF, then reads and discards
/// anything the client sent that was never consumed (unparsed body, bytes
/// past [`MAX_HEAD_BYTES`], a request bounced with `503`). Closing a socket
/// with unread bytes makes the kernel send `RST`, which can destroy the
/// response that was just written; draining first guarantees a clean `FIN`.
pub fn finish(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
    let mut scratch = [0u8; 4096];
    let mut budget = MAX_HEAD_BYTES + MAX_BODY_BYTES;
    while let Ok(n) = stream.read(&mut scratch) {
        if n == 0 || budget <= n {
            break;
        }
        budget -= n;
    }
}

/// A parsed request: method, decoded path segments, query pairs, headers
/// and (for mutating methods) the body.
#[derive(Clone, Debug)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The raw request target (path + query), for logging.
    pub target: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Percent-decoded `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` declared one).
    pub body: Vec<u8>,
}

impl Request {
    /// A bodiless `GET` for the given target — the in-process construction
    /// used by tests, cache warming and the chaos drill.
    pub fn get(target: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: "GET".to_owned(),
            target: target.to_owned(),
            path: percent_decode(path),
            query: query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `POST` for the given target with a JSON body (in-process tests).
    pub fn post_json(target: &str, body: &str) -> Request {
        let mut req = Request::get(target);
        req.method = "POST".to_owned();
        req.headers
            .push(("content-type".to_owned(), "application/json".to_owned()));
        req.body = body.as_bytes().to_vec();
        req
    }

    /// The first value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps 1:1 onto an error [`Response`].
#[derive(Debug)]
pub enum HttpError {
    /// The bytes do not form an HTTP/1.x request.
    Malformed(&'static str),
    /// The head or declared body exceeds the configured limits.
    TooLarge,
    /// The client stalled past [`READ_TIMEOUT`].
    Timeout,
    /// The connection died mid-request.
    Io(std::io::Error),
}

impl HttpError {
    /// The error as a JSON response.
    pub fn response(&self) -> Response {
        match self {
            HttpError::Malformed(why) => Response::json(
                400,
                &serde_json::json!({"error": "malformed request", "detail": (*why)}),
            ),
            HttpError::TooLarge => Response::json(
                413,
                &serde_json::json!({
                    "error": "request too large",
                    "max_head_bytes": MAX_HEAD_BYTES,
                    "max_body_bytes": MAX_BODY_BYTES,
                }),
            ),
            HttpError::Timeout => {
                Response::json(408, &serde_json::json!({"error": "request timeout"}))
            }
            HttpError::Io(_) => Response::json(
                400,
                &serde_json::json!({"error": "connection error"}),
            ),
        }
    }
}

/// Reads and parses one request from `stream` (which should already have
/// its read timeout set): the head, then — when `Content-Length` declares
/// one — the body, capped at [`MAX_BODY_BYTES`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        })?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed before head end"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("request line needs METHOD TARGET VERSION"));
    };
    if parts.next().is_some() || method.is_empty() || !target.starts_with('/') {
        return Err(HttpError::Malformed("bad request line shape"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("only HTTP/1.x is spoken here"));
    }
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed("unparsable Content-Length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge);
            }
        }
        headers.push((name, value));
    }

    // The body: whatever followed the head in the buffer, then the rest
    // read off the socket up to the declared length.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        })?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed before body end"));
        }
        let want = content_length - body.len();
        body.extend_from_slice(&chunk[..n.min(want)]);
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    Ok(Request {
        method: method.to_owned(),
        target: target.to_owned(),
        path: percent_decode(raw_path),
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decodes `%XX` escapes and `+`-as-space; invalid escapes pass through.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 2;
                }
                None => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize onto the wire.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Allow` on 405), emitted in order.
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A pretty-printed JSON response.
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        let mut body = serde_json::to_string_pretty(value)
            .unwrap_or_else(|_| "{}".to_owned())
            .into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// An SVG response.
    pub fn svg(document: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            headers: Vec::new(),
            body: document.into_bytes(),
        }
    }

    /// A Server-Sent Events batch (the service answers one bounded batch
    /// per connection, so the stream still carries `Content-Length`).
    pub fn sse(frames: String) -> Response {
        Response {
            status: 200,
            content_type: "text/event-stream",
            headers: Vec::new(),
            body: frames.into_bytes(),
        }
    }

    /// Returns the response with an extra header attached.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The first extra header with the given name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Content",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Writes the response (head + body) to `w` in one `write_all`: the
    /// head is built in memory with the body appended, so a socket sees one
    /// write call instead of one per header line.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nServer: schemachron-serve\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"Connection: close\r\n\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%2"), "bad%2");
        assert_eq!(percent_decode("%41%621"), "Ab1");
    }

    #[test]
    fn response_serializes_with_length() {
        let r = Response::json(404, &serde_json::json!({"error": "x"}));
        let mut out = Vec::new();
        r.write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 404 Not Found\r\n"), "{s}");
        assert!(s.contains("Content-Type: application/json"), "{s}");
        assert!(s.contains(&format!("Content-Length: {}", r.body.len())), "{s}");
        assert!(s.ends_with("\"error\": \"x\"\n}\n"), "{s}");
    }

    #[test]
    fn response_goes_out_in_one_write() {
        /// Counts `write` calls and keeps the bytes.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let r = Response::json(405, &serde_json::json!({"error": "x"}))
            .with_header("Allow", "POST")
            .with_header("X-Extra", "1");
        let mut w = Counting::default();
        r.write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1);
        let expected = format!(
            "HTTP/1.1 405 Method Not Allowed\r\nServer: schemachron-serve\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\nAllow: POST\r\n\
             X-Extra: 1\r\nConnection: close\r\n\r\n{}",
            r.body.len(),
            String::from_utf8(r.body.clone()).unwrap()
        );
        assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }
}
