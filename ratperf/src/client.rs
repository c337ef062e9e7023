//! A minimal HTTP/1.1 keep-alive client: one socket, one request in
//! flight, `Content-Length` framing. It knows nothing of the server's
//! internals; it is the black-box side of the benchmark.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
pub struct Response {
    /// HTTP status code (0 if the status line did not parse).
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
}

/// Read one framed response from `stream`, keeping bytes past its end in
/// `buf` for the next response.
pub fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Response> {
    let eof = |what: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what.to_string());
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof("connection closed before response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    buf.drain(..head_end);
    while buf.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf.drain(..length).collect();
    Ok(Response {
        status,
        body,
        close,
    })
}

/// Frame a request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive connection that reconnects when the server closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    timeout: Duration,
}

impl Client {
    /// A client for `addr`; nothing is connected until the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::new(),
            timeout,
        }
    }

    /// Open the connection if there is none. Call before starting a
    /// latency clock, so reconnects are not timed as request latency.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            self.buf.clear();
            self.stream = Some(s);
        }
        Ok(())
    }

    /// Send pre-framed request bytes and read the response. On any error
    /// the connection is dropped, so the next call starts clean.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .and_then(|()| read_response(stream, &mut self.buf));
        match &result {
            Ok(r) if !r.close => {}
            _ => {
                self.stream = None;
                self.buf.clear();
            }
        }
        result
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send(&request_bytes("GET", path, ""))
    }

    /// `POST path` with `body`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.send(&request_bytes("POST", path, body))
    }
}
