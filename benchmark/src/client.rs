//! The load generator's HTTP/1.1 client: one request per connection, as
//! the server answers every request with `Connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as received.
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response. `id` travels in an
/// `X-Bench-Id` header so the traced run can join server-side spans to the
/// generator's request.
pub fn send(
    addr: SocketAddr,
    method: &str,
    target: &str,
    id: u64,
    body: &[u8],
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.set_nodelay(true)?;
    let mut request = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {id}\r\n");
    if !body.is_empty() {
        request.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    request.push_str("\r\n");
    let mut wire = request.into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
}

fn parse(raw: &[u8]) -> Option<Reply> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some(Reply {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}
