//! Minimal HTTP/1.1 framing over arbitrary `Read`/`Write` streams.
//!
//! Hand-rolled on purpose: the build environment vendors no HTTP crate, and
//! the API surface the server needs is tiny — parse one request (line +
//! headers + `Content-Length` body), write one response, `Connection:
//! close`. The same module provides the client-side request writer and
//! response reader the integration tests use.

use std::io::{BufRead, Write};

/// Upper bound on any single header line (and the request line).
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 100;
/// Upper bound on a request/response body.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request head plus body.
#[derive(Debug)]
pub struct Request {
    /// Verb, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query string), undecoded.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` framed; empty when absent).
    pub body: Vec<u8>,
}

/// A parsed response (client side).
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header (name compared lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed (maps onto a 4xx).
#[derive(Debug)]
pub enum HttpError {
    /// Stream closed before a full message was read.
    UnexpectedEof,
    /// Malformed request line, header, or `Content-Length`.
    Malformed(String),
    /// A line, header count, or body exceeded its cap.
    TooLarge(String),
    /// Underlying I/O failure (includes read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            HttpError::TooLarge(msg) => write!(f, "message too large: {msg}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
fn read_line(stream: &mut impl BufRead) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(80);
    loop {
        let mut byte = 0u8;
        match stream.read(std::slice::from_mut(&mut byte))? {
            0 => {
                if buf.is_empty() {
                    return Err(HttpError::UnexpectedEof);
                }
                break;
            }
            _ => {
                if byte == b'\n' {
                    break;
                }
                if byte != b'\r' {
                    buf.push(byte);
                }
                if buf.len() > MAX_LINE {
                    return Err(HttpError::TooLarge(format!(
                        "line exceeds {MAX_LINE} bytes"
                    )));
                }
            }
        }
    }
    String::from_utf8(buf).map_err(|_| HttpError::Malformed("non-UTF-8 header data".into()))
}

/// Parses headers up to the blank line; returns pairs and `Content-Length`.
fn read_headers(stream: &mut impl BufRead) -> Result<(Vec<(String, String)>, usize), HttpError> {
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(stream)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header without colon: `{line}`"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let len: usize = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{value}`")))?;
            // RFC 9112 §6.3: repeats that disagree leave the body's framing
            // ambiguous, so the message is invalid; identical repeats are not.
            if let Some(first) = content_length.filter(|&first| first != len) {
                return Err(HttpError::Malformed(format!(
                    "conflicting Content-Length values {first} and {len}"
                )));
            }
            if len > MAX_BODY {
                return Err(HttpError::TooLarge(format!("body of {len} bytes")));
            }
            content_length = Some(len);
        }
        headers.push((name, value));
    }
    Ok((headers, content_length.unwrap_or(0)))
}

fn read_body(stream: &mut impl BufRead, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => HttpError::UnexpectedEof,
        _ => HttpError::Io(e),
    })?;
    Ok(body)
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    let line = read_line(stream)?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    let (headers, content_length) = read_headers(stream)?;
    let body = read_body(stream, content_length)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Reads and parses one response from the stream (client side).
pub fn read_response(stream: &mut impl BufRead) -> Result<Response, HttpError> {
    let line = read_line(stream)?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(HttpError::Malformed(format!("bad status line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| HttpError::Malformed(format!("bad status code `{code}`")))?;
    let (headers, content_length) = read_headers(stream)?;
    let body = read_body(stream, content_length)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` response with a JSON body.
pub fn write_json_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason_phrase(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a request with a JSON body (client side).
pub fn write_json_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: ultra-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_req(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_req("POST /expand HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/expand");
        assert_eq!(req.body, b"{\"a\"");
        assert_eq!(
            req.headers
                .iter()
                .find(|(n, _)| n == "host")
                .map(|(_, v)| v.as_str()),
            Some("x")
        );
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse_req("GET /healthz HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse_req("GET /metrics HTTP/1.1\nhost: x\n\n").expect("parses");
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            parse_req("not http\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_req("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::UnexpectedEof)
        ));
        assert!(matches!(
            parse_req("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(parse_req(""), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn conflicting_content_lengths_are_malformed_but_identical_repeats_parse() {
        assert!(matches!(
            parse_req("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde"),
            Err(HttpError::Malformed(_))
        ));
        let req =
            parse_req("POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd")
                .expect("identical repeats parse");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn line_and_header_caps_are_inclusive() {
        // A header line of exactly MAX_LINE bytes parses; one more byte is
        // too large.
        let header = |len: usize| format!("x-pad: {}", "a".repeat(len - "x-pad: ".len()));
        let at_cap = format!("GET / HTTP/1.1\r\n{}\r\n\r\n", header(MAX_LINE));
        assert!(parse_req(&at_cap).is_ok());
        let over = format!("GET / HTTP/1.1\r\n{}\r\n\r\n", header(MAX_LINE + 1));
        assert!(matches!(parse_req(&over), Err(HttpError::TooLarge(_))));

        // MAX_HEADERS headers parse; one more is too large.
        let with_headers = |n: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..n {
                raw.push_str(&format!("x-h{i}: v\r\n"));
            }
            raw + "\r\n"
        };
        let req = parse_req(&with_headers(MAX_HEADERS)).expect("MAX_HEADERS headers parse");
        assert_eq!(req.headers.len(), MAX_HEADERS);
        assert!(matches!(
            parse_req(&with_headers(MAX_HEADERS + 1)),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse_req(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn response_round_trips_through_writer_and_reader() {
        let mut wire = Vec::new();
        write_json_response(
            &mut wire,
            200,
            &[("x-ultra-cache", "hit")],
            b"{\"ok\":true}",
        )
        .expect("write");
        let resp = read_response(&mut BufReader::new(wire.as_slice())).expect("read");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("X-Ultra-Cache"), Some("hit"));
        assert_eq!(resp.body, b"{\"ok\":true}");
    }

    #[test]
    fn request_round_trips_through_writer_and_reader() {
        let mut wire = Vec::new();
        write_json_request(&mut wire, "POST", "/expand", b"{}").expect("write");
        let req = parse_req(std::str::from_utf8(&wire).expect("utf8")).expect("read");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/expand")
        );
        assert_eq!(req.body, b"{}");
    }
}
