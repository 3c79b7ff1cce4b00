//! A minimal HTTP/1.1 client: keep-alive requests with `Content-Length`
//! bodies, which is all `dtucker-serve` emits.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response head accepted.
const MAX_HEAD: usize = 64 * 1024;

/// A received response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The bytes of a request without a body.
pub fn request(method: &str, target: &str, close: bool) -> Vec<u8> {
    let conn = if close { "close" } else { "keep-alive" };
    format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: {conn}\r\n\r\n").into_bytes()
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Bounds how long one read may block.
    pub fn set_timeout(&self, t: Duration) -> io::Result<()> {
        let t = t.max(Duration::from_millis(1));
        self.stream.set_read_timeout(Some(t))?;
        self.stream.set_write_timeout(Some(t))
    }

    /// Sends `req` and reads the response.
    pub fn exchange(&mut self, req: &[u8]) -> io::Result<Response> {
        self.stream.write_all(req)?;
        self.receive()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one response.
    pub fn receive(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line in '{head}'")))?;
        let (mut len, mut close) = (0usize, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let body = self.buf[start..start + len].to_vec();
        self.buf.drain(..start + len);
        Ok(Response {
            status,
            close,
            body,
        })
    }
}

/// One request on a fresh connection that closes afterwards.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    target: &str,
    timeout: Duration,
) -> io::Result<Response> {
    let mut c = Client::connect(addr, timeout)?;
    c.set_timeout(timeout)?;
    c.exchange(&request(method, target, true))
}
