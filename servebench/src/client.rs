//! A standard HTTP/1.1 client and the closed-loop load generator.
//!
//! The client sends no `connection: close`, frames every response by its
//! `content-length`, and keeps the connection for the next request unless
//! the server closes it. A reused connection that turns out to be closed
//! before any response byte arrives is reopened and the request resent once
//! (the usual keep-alive race); anything else is a failure.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The server will close the connection after this response.
    pub close: bool,
    /// `x-ultra-cache: hit` (`Some(true)`) or `miss` (`Some(false)`).
    pub hit: Option<bool>,
    pub body: Vec<u8>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    let n = r.read_until(b'\n', buf)?;
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(n)
}

/// Parses one response: status line, headers, `content-length` body.
pub fn parse_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let mut buf = Vec::with_capacity(128);
    if line(r, &mut buf)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
    }
    let status_line = String::from_utf8_lossy(&buf).into_owned();
    let mut parts = status_line.split_ascii_whitespace();
    let version = parts.next().unwrap_or("");
    let status: u16 = match (version.starts_with("HTTP/1."), parts.next().map(str::parse)) {
        (true, Some(Ok(code))) => code,
        _ => return Err(bad(format!("bad status line `{status_line}`"))),
    };
    let mut close = version == "HTTP/1.0";
    let mut len = None;
    let mut hit = None;
    loop {
        if line(r, &mut buf)? == 0 {
            return Err(bad("eof in headers".into()));
        }
        if buf.is_empty() {
            break;
        }
        let text = String::from_utf8_lossy(&buf);
        let Some((name, value)) = text.split_once(':') else {
            return Err(bad(format!("bad header `{text}`")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                len = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad length `{value}`")))?,
                )
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "x-ultra-cache" => hit = Some(value == "hit"),
            _ => {}
        }
    }
    let len = len.ok_or_else(|| bad("response without content-length".into()))?;
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok(Reply {
        status,
        close,
        hit,
        body,
    })
}

/// One client connection, reused across requests while the server allows.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Requests resent after a reused connection turned out closed.
    pub resent: usize,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            resent: 0,
        }
    }

    fn once(&mut self, wire: &[u8]) -> Result<Reply, (bool, io::Error)> {
        let reused = self.stream.is_some();
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| (false, e))?;
            let _ = s.set_nodelay(true);
            let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
            self.stream = Some(BufReader::new(s));
        }
        let stream = self.stream.as_mut().expect("connected above");
        if let Err(e) = stream.get_mut().write_all(wire) {
            self.stream = None;
            return Err((reused, e));
        }
        let first = match stream.fill_buf() {
            Ok(b) => b.len(),
            Err(e) => {
                self.stream = None;
                return Err((reused, e));
            }
        };
        if first == 0 {
            self.stream = None;
            return Err((
                reused,
                io::Error::new(io::ErrorKind::UnexpectedEof, "closed"),
            ));
        }
        match parse_reply(stream) {
            Ok(reply) => {
                if reply.close {
                    self.stream = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err((false, e))
            }
        }
    }

    /// Sends one request and reads its response.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<Reply> {
        match self.once(wire) {
            Err((true, _)) => {
                self.resent += 1;
                self.once(wire).map_err(|(_, e)| e)
            }
            other => other.map_err(|(_, e)| e),
        }
    }
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    let wire = format!("GET {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n");
    Conn::new(addr).send(wire.as_bytes())
}

/// What one closed-loop phase saw.
#[derive(Default)]
pub struct Phase {
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub resent: usize,
    /// Responses whose `x-ultra-cache` header said hit.
    pub hit_headers: usize,
    /// Per-request latency, connect (or write, on a reused connection) to
    /// the last body byte, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// When each of those requests completed, from the phase start (ns).
    pub done_ns: Vec<u64>,
    pub wall: Duration,
    /// `(request index, body)` of the requests `keep` selected.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

/// Request source, answer check, and sample selector of a phase.
pub struct Plan<'a> {
    /// The `i`-th request's wire bytes; `None` ends the stream.
    pub wire: &'a (dyn Fn(usize) -> Option<&'a [u8]> + Sync),
    /// Whether a 200 response to request `i` is correct.
    pub check: &'a (dyn Fn(usize, &Reply) -> bool + Sync),
    /// Whether to keep request `i`'s body for the in-process comparison.
    pub keep: &'a (dyn Fn(usize) -> bool + Sync),
}

/// Closed loop: each of `conns` clients sends the next request of the
/// stream as soon as its previous response is complete, until the stream
/// ends or `limit` has passed.
pub fn drive(addr: SocketAddr, conns: usize, limit: Option<Duration>, plan: &Plan<'_>) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| s.spawn(|| client_loop(addr, start, limit, &next, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Phase {
        wall: start.elapsed(),
        ..Phase::default()
    };
    for p in parts {
        all.sent += p.sent;
        all.ok += p.ok;
        all.failed += p.failed;
        all.resent += p.resent;
        all.hit_headers += p.hit_headers;
        all.lat_ns.extend(p.lat_ns);
        all.done_ns.extend(p.done_ns);
        all.kept.extend(p.kept);
        all.errors.extend(p.errors);
    }
    all.kept.sort_by_key(|(i, _)| *i);
    all.errors.truncate(5);
    all
}

fn client_loop(
    addr: SocketAddr,
    start: Instant,
    limit: Option<Duration>,
    next: &AtomicUsize,
    plan: &Plan<'_>,
) -> Phase {
    let mut conn = Conn::new(addr);
    let mut out = Phase::default();
    loop {
        if limit.is_some_and(|l| start.elapsed() >= l) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(wire) = (plan.wire)(i) else { break };
        out.sent += 1;
        let t0 = Instant::now();
        let result = conn.send(wire);
        let lat = t0.elapsed();
        let error = match result {
            Ok(reply) if reply.status == 200 && (plan.check)(i, &reply) => {
                out.ok += 1;
                out.lat_ns.push(lat.as_nanos() as u64);
                out.done_ns.push(start.elapsed().as_nanos() as u64);
                out.hit_headers += usize::from(reply.hit == Some(true));
                if (plan.keep)(i) {
                    out.kept.push((i, reply.body));
                }
                None
            }
            Ok(reply) if reply.status == 200 => Some(format!("request {i}: wrong body")),
            Ok(reply) => Some(format!(
                "request {i}: status {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            )),
            Err(e) => Some(format!("request {i}: {e}")),
        };
        if let Some(e) = error {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
    }
    out.resent = conn.resent;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn parse(raw: &[u8]) -> io::Result<Reply> {
        parse_reply(&mut BufReader::new(raw))
    }

    #[test]
    fn frames_by_content_length_and_reads_headers() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: close\r\nX-Ultra-Cache: hit\r\n\r\n{\"ok\":true}NEXT";
        let mut r = BufReader::new(&raw[..]);
        let reply = parse_reply(&mut r).expect("parses");
        assert_eq!(
            (reply.status, reply.close, reply.hit),
            (200, true, Some(true))
        );
        assert_eq!(reply.body, b"{\"ok\":true}");
        let mut rest = String::new();
        r.read_to_string(&mut rest).expect("rest");
        assert_eq!(rest, "NEXT", "a body ends at its content-length");
    }

    #[test]
    fn keep_alive_is_the_http11_default() {
        let reply =
            parse(b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}").expect("parses");
        assert_eq!((reply.status, reply.close, reply.hit), (404, false, None));
        let reply =
            parse(b"HTTP/1.0 200 OK\ncontent-length: 0\nx-ultra-cache: miss\n\n").expect("parses");
        assert!(reply.close && reply.body.is_empty() && reply.hit == Some(false));
    }

    #[test]
    fn malformed_and_truncated_responses_are_errors() {
        assert!(parse(b"").is_err());
        assert!(parse(b"SMTP 220 hello\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(
            parse(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "no content-length"
        );
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").is_err());
    }

    #[test]
    fn reads_what_the_server_writes() {
        let mut wire = Vec::new();
        ultra_serve::http::write_json_response(
            &mut wire,
            200,
            &[("x-ultra-cache", "miss")],
            b"[1]",
        )
        .expect("write");
        let reply = parse(&wire).expect("parses");
        assert_eq!(
            (reply.status, reply.hit, reply.body.as_slice()),
            (200, Some(false), &b"[1]"[..])
        );
    }
}
