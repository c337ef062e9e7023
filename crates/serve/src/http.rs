//! Minimal, strict HTTP/1.1 framing over a [`TcpStream`], with persistent
//! connections.
//!
//! A [`Connection`] wraps the socket plus a carry-over read buffer, so bytes
//! a client pipelined behind one request are the prefix of the next instead
//! of being lost. Requests default to keep-alive under HTTP/1.1 (honoring a
//! `Connection: close`/`keep-alive` override, case-insensitively) and to
//! close for HTTP/1.0 or unrecognizable version tokens. The reader stays
//! deliberately paranoid: per-request read deadlines, a header-size cap, and
//! a body-size cap, mapping each failure onto the [`ApiError`] protocol
//! statuses (408/413/400) so a misbehaving client gets a diagnosis instead
//! of killing a worker. No chunked encoding — `Content-Length` framing only:
//! any `Transfer-Encoding` header, a `Content-Length` that is not all ASCII
//! digits, or two `Content-Length` headers that disagree is one 400 and a
//! closed connection, never a body guessed from the wrong bytes. The head
//! cap also bounds the header count.
//!
//! A steady kept-alive request costs two syscalls: the socket's read
//! timeout is set only when it changes, so a request that arrives whole
//! takes one `read`, and each response leaves in one `write`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::api::ApiError;

/// Cap on the request line + headers (and so on the header count),
/// generous for hand-written clients.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on request bodies. Worksheets are a few hundred bytes; a
/// megabyte leaves room for large sweep-value lists without letting a
/// client buffer gigabytes into a resident service.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, (possibly empty) body, and whether the
/// client wants the connection kept open afterwards.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request path (`/v1/solve`, `/metrics`, ...), query string stripped.
    pub path: String,
    /// The request body, UTF-8 decoded.
    pub body: String,
    /// Whether the connection should persist after this request: HTTP/1.1
    /// defaults to yes, HTTP/1.0 (or garbage versions) to no, and a
    /// `Connection:` header overrides either way.
    pub keep_alive: bool,
}

/// Why a read produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// The connection went quiet between requests — the client closed it or
    /// the idle deadline passed before a first byte arrived. Close silently;
    /// nothing was promised and nothing is owed.
    Idle,
    /// A request was underway (or required) and went wrong; answer with the
    /// mapped status, then close.
    Protocol(ApiError),
}

/// A socket plus the bytes read past the end of the previous request.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The read timeout this connection last set on `stream`, so an
    /// unchanged deadline costs no `setsockopt`.
    read_timeout: Option<Duration>,
}

impl Connection {
    /// Wrap an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            read_timeout: None,
        }
    }

    /// The underlying stream, for writing responses. Its read timeout
    /// belongs to [`Connection::read_request`]; do not change it here.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Read one request. `wait` bounds how long to sit for the *first* byte
    /// (when no pipelined bytes are already buffered); `request_timeout`
    /// bounds each subsequent read of the same request, and is armed only
    /// when such a read is needed. With `idle_wait`
    /// set (a kept-alive connection between requests), first-byte timeout
    /// or clean EOF is [`ReadError::Idle`]; without it (a fresh connection
    /// that owes us a request), the same conditions are protocol errors —
    /// 408 and 400 respectively — exactly as the one-shot parser behaved.
    ///
    /// On success, the returned [`Instant`] is when the request's first
    /// byte was seen, the honest start point for latency accounting on a
    /// connection that may have idled between requests.
    pub fn read_request(
        &mut self,
        wait: Duration,
        request_timeout: Duration,
        max_body: usize,
        idle_wait: bool,
    ) -> Result<(Request, Instant), ReadError> {
        let bad = |what: &str, why: String| ReadError::Protocol(ApiError::bad_request(what, why));

        // Phase A: acquire at least one byte of this request.
        if self.buf.is_empty() {
            self.set_timeout(wait)?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if idle_wait {
                        ReadError::Idle
                    } else {
                        bad(
                            "reading request",
                            "connection closed before headers completed".into(),
                        )
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {
                    return Err(if idle_wait {
                        ReadError::Idle
                    } else {
                        ReadError::Protocol(ApiError::Timeout)
                    })
                }
                Err(e) => return Err(bad("reading request", e.to_string())),
            }
        }
        let started = Instant::now();

        // Phase B: the request is underway; the per-request deadline
        // governs every further read, and is armed just before each one.

        // Scan (and grow) the buffer until the blank line ending the headers.
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::Protocol(ApiError::TooLarge {
                    limit: MAX_HEAD_BYTES,
                }));
            }
            self.set_timeout(request_timeout)?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(bad(
                        "reading request",
                        "connection closed before headers completed".into(),
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return Err(ReadError::Protocol(ApiError::Timeout)),
                Err(e) => return Err(bad("reading request", e.to_string())),
            }
        };

        // A head that completed within the read that crossed the cap is
        // still over it.
        if head_end > MAX_HEAD_BYTES {
            return Err(ReadError::Protocol(ApiError::TooLarge {
                limit: MAX_HEAD_BYTES,
            }));
        }
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end);

        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad("reading request", "empty request line".into()))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| bad("reading request", "request line has no path".into()))?;
        let path = target.split('?').next().unwrap_or(target).to_string();
        // HTTP/1.1 persists by default; 1.0 and unrecognizable versions do
        // not (a client that can't speak 1.1 can't be assumed to frame
        // responses without EOF).
        let mut keep_alive = parts.next() == Some("HTTP/1.1");

        let mut content_length: Option<usize> = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    let n = parse_content_length(value).ok_or_else(|| {
                        bad(
                            "reading request",
                            format!("unparsable Content-Length '{value}'"),
                        )
                    })?;
                    if let Some(prev) = content_length.filter(|prev| *prev != n) {
                        return Err(bad(
                            "reading request",
                            format!("conflicting Content-Length headers: {prev} and {n}"),
                        ));
                    }
                    content_length = Some(n);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    return Err(bad(
                        "reading request",
                        format!(
                            "Transfer-Encoding '{value}' is not supported; \
                             send the body with Content-Length"
                        ),
                    ));
                } else if name.eq_ignore_ascii_case("connection") {
                    if value.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > max_body {
            return Err(ReadError::Protocol(ApiError::TooLarge { limit: max_body }));
        }

        // Body: drain buffered bytes first, then the socket.
        let take = content_length.min(self.buf.len());
        let mut body = Vec::with_capacity(content_length);
        body.extend_from_slice(&self.buf[..take]);
        self.buf.drain(..take);
        let mut read = body.len();
        body.resize(content_length, 0);
        while read < content_length {
            self.set_timeout(request_timeout)?;
            match self.stream.read(&mut body[read..]) {
                Ok(0) => {
                    return Err(bad(
                        "reading request body",
                        format!("client disconnected after {read} of {content_length} bytes"),
                    ))
                }
                Ok(n) => read += n,
                Err(e) if is_timeout(&e) => return Err(ReadError::Protocol(ApiError::Timeout)),
                Err(e) => return Err(bad("reading request body", e.to_string())),
            }
        }
        let body = String::from_utf8(body).map_err(|_| {
            bad(
                "reading request body",
                "body is not valid UTF-8".to_string(),
            )
        })?;

        Ok((
            Request {
                method,
                path,
                body,
                keep_alive,
            },
            started,
        ))
    }

    /// Set the socket's read timeout to `t`, unless it already is.
    fn set_timeout(&mut self, t: Duration) -> Result<(), ReadError> {
        if self.read_timeout == Some(t) {
            return Ok(());
        }
        self.stream.set_read_timeout(Some(t)).map_err(|e| {
            ReadError::Protocol(ApiError::bad_request(
                "configuring connection",
                e.to_string(),
            ))
        })?;
        self.read_timeout = Some(t);
        Ok(())
    }
}

/// A `Content-Length` value: ASCII digits only (no sign, no whitespace
/// inside), and small enough to fit a `usize`.
fn parse_content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

fn is_timeout(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
}

/// Index one past the blank line ending the headers, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    (1..=buf.len()).find(|&end| buf[..end].ends_with(b"\r\n\r\n") || buf[..end].ends_with(b"\n\n"))
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

/// Write a complete response and flush, advertising whether the connection
/// stays open. Head and body go out in one buffer through one `write_all`,
/// so a response is one send (one TCP segment when it fits), not two.
/// Errors are returned so the caller can count them, but a failed write to
/// a gone client is not fatal.
pub fn write_response<W: Write + ?Sized>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    );
    response.reserve_exact(body.len());
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Write a JSON response (`application/json`).
pub fn write_json<W: Write + ?Sized>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// What one [`read_one`] call saw.
    struct ReadOne {
        request: Result<Request, ReadError>,
        /// How long `read_request` took.
        took: Duration,
        /// The read timeout the connection was left with.
        armed: Option<Duration>,
    }

    /// Feed `raw` to a fresh connection and read one request under the
    /// given deadlines. The client holds its socket open until the read is
    /// done, so a request short of bytes times out instead of seeing EOF.
    fn read_one(raw: &[u8], wait: Duration, request_timeout: Duration, idle_wait: bool) -> ReadOne {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let (done, until_done) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            let _ = until_done.recv_timeout(Duration::from_secs(10));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let t0 = Instant::now();
        let request = conn
            .read_request(wait, request_timeout, MAX_BODY_BYTES, idle_wait)
            .map(|(req, _)| req);
        let took = t0.elapsed();
        let _ = done.send(());
        client.join().unwrap();
        ReadOne {
            request,
            took,
            armed: conn.read_timeout,
        }
    }

    /// Feed `raw` to a fresh connection and read the first request with
    /// first-request semantics (no idle grace).
    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let t = Duration::from_millis(150);
        read_one(raw, t, t, false).request
    }

    /// The error's status and its cause line.
    fn diagnosis(err: ReadError) -> (u16, String) {
        match err {
            ReadError::Idle => panic!("expected a protocol error, got Idle"),
            ReadError::Protocol(e) => (e.status(), e.to_json()),
        }
    }

    fn status_of(err: ReadError) -> u16 {
        diagnosis(err).0
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, "abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body_and_strips_query() {
        let req = round_trip(b"GET /metrics?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let req = round_trip(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "Connection: close wins over HTTP/1.1");
        let req = round_trip(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive, "Connection: keep-alive wins over HTTP/1.0");
        let req = round_trip(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = round_trip(b"GET /\r\n\r\n").unwrap();
        assert!(
            !req.keep_alive,
            "versionless request lines default to close"
        );
    }

    #[test]
    fn pipelined_bytes_become_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Two complete requests in one write.
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo",
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let wait = Duration::from_millis(150);
        let (first, _) = conn
            .read_request(wait, wait, MAX_BODY_BYTES, false)
            .unwrap();
        assert_eq!((first.path.as_str(), first.body.as_str()), ("/a", "one"));
        let (second, _) = conn.read_request(wait, wait, MAX_BODY_BYTES, true).unwrap();
        assert_eq!((second.path.as_str(), second.body.as_str()), ("/b", "two"));
        client.join().unwrap();
    }

    #[test]
    fn idle_wait_timeout_is_idle_not_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _s = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(250));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let wait = Duration::from_millis(60);
        match conn.read_request(wait, wait, MAX_BODY_BYTES, true) {
            Err(ReadError::Idle) => {}
            other => panic!("idle keep-alive wait should be Idle, got {other:?}"),
        }
        // The same silence on a fresh connection is a 408.
        match conn.read_request(wait, wait, MAX_BODY_BYTES, false) {
            Err(ReadError::Protocol(e)) => assert_eq!(e.status(), 408),
            other => panic!("fresh-connection silence should be 408, got {other:?}"),
        }
        client.join().unwrap();
    }

    #[test]
    fn short_body_times_out_instead_of_hanging() {
        let err = round_trip(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-some")
            .unwrap_err();
        assert_eq!(status_of(err), 408);
    }

    #[test]
    fn the_request_deadline_still_applies_after_an_idle_wait() {
        let (wait, request_timeout) = (Duration::from_secs(2), Duration::from_millis(150));
        for raw in [
            &b"POST /v1/solve HTTP/1.1\r\nContent-Le"[..],
            &b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-some"[..],
        ] {
            let seen = read_one(raw, wait, request_timeout, true);
            let shown = String::from_utf8_lossy(raw);
            assert_eq!(status_of(seen.request.unwrap_err()), 408, "{shown}");
            assert!(
                seen.took < Duration::from_secs(1),
                "{shown}: 408 after {:?}, so the idle wait bounded a read inside the request",
                seen.took
            );
            assert_eq!(seen.armed, Some(request_timeout), "{shown}");
        }
        // A request that arrives whole never arms the request deadline:
        // the idle wait is the only timeout this connection set.
        let seen = read_one(
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
            wait,
            request_timeout,
            true,
        );
        assert_eq!(seen.request.unwrap().body, "abcd");
        assert_eq!(seen.armed, Some(wait));
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let err = round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(status_of(err), 413);
    }

    #[test]
    fn garbage_content_length_is_400() {
        for value in ["ten", "+4", "-4", "4 4", "0x4", "4.0", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            let (status, body) = diagnosis(round_trip(raw.as_bytes()).unwrap_err());
            assert_eq!(status, 400, "Content-Length '{value}': {body}");
            assert!(body.contains("Content-Length"), "{body}");
        }
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert_eq!(status_of(round_trip(raw).unwrap_err()), 400);
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        let (status, body) = diagnosis(
            round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap_err(),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("conflicting Content-Length"), "{body}");
        let req =
            round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn any_transfer_encoding_is_400_naming_the_header() {
        for value in ["chunked", "gzip, chunked", "identity"] {
            let raw = format!(
                "POST /x HTTP/1.1\r\nTransfer-Encoding: {value}\r\n\r\n4\r\nabcd\r\n0\r\n\r\n"
            );
            let (status, body) = diagnosis(round_trip(raw.as_bytes()).unwrap_err());
            assert_eq!(status, 400, "{value}: {body}");
            assert!(body.contains("Transfer-Encoding"), "{body}");
        }
        // Alongside a Content-Length too: the two framings may disagree.
        let raw =
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nabcd";
        assert_eq!(status_of(round_trip(raw).unwrap_err()), 400);
    }

    #[test]
    fn a_head_past_the_cap_is_413_even_when_complete() {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        while raw.len() <= MAX_HEAD_BYTES {
            raw.push_str("X-a: b\r\n");
        }
        raw.push_str("\r\n");
        assert_eq!(status_of(round_trip(raw.as_bytes()).unwrap_err()), 413);
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The one write `respond` makes, as text.
    fn one_write(respond: impl FnOnce(&mut Writes) -> std::io::Result<()>) -> String {
        let mut w = Writes::default();
        respond(&mut w).unwrap();
        assert_eq!(
            w.0.len(),
            1,
            "a response must be one write, got {}",
            w.0.len()
        );
        String::from_utf8(w.0.remove(0)).unwrap()
    }

    #[test]
    fn each_response_is_one_write_of_head_then_body() {
        assert_eq!(
            one_write(|w| write_json(w, 200, "{\"x\": 1}", true)),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
             Connection: keep-alive\r\n\r\n{\"x\": 1}"
        );
        assert_eq!(
            one_write(|w| write_response(w, 200, "text/plain; charset=utf-8", "ok\n", false)),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\n\
             Connection: close\r\n\r\nok\n"
        );
        let err = ApiError::Timeout;
        let body = err.to_json();
        assert_eq!(
            one_write(|w| write_json(w, err.status(), &body, false)),
            format!(
                "HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        // No size threshold: a body far larger than the head is still one
        // write.
        let big = "y".repeat(100_000);
        let sent = one_write(|w| write_json(w, 200, &big, true));
        assert!(sent.ends_with(&format!(
            "Content-Length: 100000\r\nConnection: keep-alive\r\n\r\n{big}"
        )));
    }

    #[test]
    fn reason_phrases_cover_the_status_table() {
        for s in [200, 400, 404, 405, 408, 413, 422, 500, 503, 507] {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
