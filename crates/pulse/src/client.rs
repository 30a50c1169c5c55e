//! A std-only HTTP/1.1 *client*, the scraping counterpart of
//! [`PulseServer`](crate::PulseServer).
//!
//! Tests, examples and the serving benchmark drive pulse servers over
//! loopback; this client is exactly big enough for that job — blocking
//! requests with explicit connect/read deadlines, `Connection: close`, body
//! read to EOF — and keeps the workspace's zero-dependency discipline
//! (`std::net` only, no TLS, no keep-alive, no chunked encoding: the pulse
//! server sends none of that).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connect/read deadlines for one request, so a hung server costs bounded
/// time rather than a stuck caller.
#[derive(Clone, Copy, Debug)]
pub struct HttpTimeouts {
    /// TCP connect deadline.
    pub connect: Duration,
    /// Socket read/write deadline (per syscall, not per body).
    pub io: Duration,
}

impl Default for HttpTimeouts {
    fn default() -> Self {
        HttpTimeouts {
            connect: Duration::from_secs(2),
            io: Duration::from_secs(5),
        }
    }
}

/// Status line and body of one response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Numeric status code (200, 404, 503, …).
    pub status: u16,
    /// Response body (headers stripped).
    pub body: String,
    /// Seconds from a `Retry-After` header, when the server sent one
    /// (serving daemons attach it to `429` sheds).
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Blocking `GET <path>` against `addr` (e.g. `"127.0.0.1:4471"`), with
/// the given timeouts. Returns the parsed status and body; any socket or
/// parse problem is an `io::Error`, so callers treat "worker unreachable"
/// and "worker sent garbage" the same way: one failed poll.
pub fn http_get(
    addr: impl ToSocketAddrs,
    path: &str,
    timeouts: HttpTimeouts,
) -> std::io::Result<HttpResponse> {
    http_request(addr, "GET", path, "", "", timeouts)
}

/// Blocking request with an arbitrary method and body — the serving
/// counterpart of [`http_get`], used to drive a daemon's `PUT /doc` and
/// `POST /query` endpoints. An empty `body` sends no `Content-Type` /
/// `Content-Length` headers, making `http_request(addr, "GET", path, "",
/// "", t)` exactly [`http_get`].
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    content_type: &str,
    body: &str,
    timeouts: HttpTimeouts,
) -> std::io::Result<HttpResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad("address resolved to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeouts.connect)?;
    stream.set_read_timeout(Some(timeouts.io))?;
    stream.set_write_timeout(Some(timeouts.io))?;
    if body.is_empty() {
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
    } else {
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n\
             Content-Type: {content_type}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )?;
    }
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response = String::from_utf8(response).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no numeric status"))?;
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("retry-after") {
            value.trim().parse().ok()
        } else {
            None
        }
    });
    Ok(HttpResponse {
        status,
        body: body.to_string(),
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PulseServer, PulseState};
    use qa_obs::Metrics;
    use std::sync::Arc;

    #[test]
    fn client_scrapes_a_pulse_server() {
        let state = PulseState::new(Arc::new(Metrics::new()), "qa_test");
        state.set_ready();
        let server = PulseServer::serve("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.local_addr();
        let t = HttpTimeouts::default();

        let health = http_get(addr, "/healthz", t).expect("healthz");
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

        let metrics = http_get(addr, "/metrics", t).expect("metrics");
        assert!(metrics.is_ok());
        assert!(
            metrics.body.contains("qa_test_steps_total 0"),
            "{}",
            metrics.body
        );

        let missing = http_get(addr, "/nope", t).expect("404 still parses");
        assert_eq!(missing.status, 404);
        assert!(!missing.is_ok());

        server.shutdown();
    }

    #[test]
    fn connect_timeout_fails_fast_on_a_dead_port() {
        // Bind-then-drop guarantees the port is closed at connect time.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = http_get(
            dead,
            "/healthz",
            HttpTimeouts {
                connect: Duration::from_millis(500),
                io: Duration::from_millis(500),
            },
        );
        assert!(err.is_err(), "closed port must not answer");
    }
}
