//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, responses framed by `Content-Length` (the only framing the
//! flexserve daemons emit).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut req = Vec::with_capacity(96 + body.len());
        write!(
            req,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(bad("response head too large"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = None;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or_else(|| bad("response without Content-Length"))?;
        if len > 64 * 1024 * 1024 {
            return Err(bad("response body too large"));
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One request on a fresh connection.
pub fn call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    let (status, body) = conn.request(method, path, body.as_bytes())?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}
