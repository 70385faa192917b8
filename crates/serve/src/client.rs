//! Minimal blocking client for the serve protocol — used by the
//! `bench_serve` load generator, the chaos harness, and tests.

use std::io::{self, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::proto::{self, FrameError, Reply, Request};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's reply failed to parse.
    Frame(FrameError),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Frame(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Bytes one socket read may deliver to the client's buffer: a burst of
/// replies fits in one.
const READ_BUF: usize = 64 << 10;

/// A blocking connection to an `absort serve` daemon. Replies are read
/// through a buffer, so one `read()` can deliver many of them.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects immediately.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::with_capacity(READ_BUF, stream),
        })
    }

    /// Connects with retry until `timeout` elapses — for CI and tests
    /// that race the daemon's bind.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
    ) -> io::Result<Client> {
        let start = Instant::now();
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= timeout => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// The underlying socket, for timeouts and raw injection. Reading
    /// from it directly skips replies already in the client's buffer.
    pub fn stream(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// Sends a request without waiting for the reply (pipelining).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.stream().write_all(&proto::encode_request(req))
    }

    /// Sends raw bytes verbatim (chaos tests inject corruption here).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream().write_all(bytes)
    }

    /// Receives the next reply frame.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        match proto::read_frame(&mut self.reader)? {
            None => Err(ClientError::Closed),
            Some(body) => proto::decode_reply(&body).map_err(ClientError::Frame),
        }
    }

    /// Round-trips one request.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.send(req)?;
        self.recv()
    }
}
