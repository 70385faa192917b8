//! The daemon: acceptor + thread-per-core workers over bounded channels.
//!
//! ## Degradation ladder
//!
//! Every failure mode has a *typed* response one rung down; nothing
//! tears the daemon down:
//!
//! 1. **Wide batched path** — requests coalesced across connections into
//!    batches of up to [`WIDE_LANES`]. Each key's group runs the program
//!    its cache entry decoded once, at fill: one `u64` pass per 64
//!    requests, packed straight from the requests' bits.
//! 2. **Scalar solo retry** — if a batch evaluation panics, each request
//!    in the batch is retried alone through the interpreter's
//!    `try_eval`, on the key's netlist rebuilt for the rung (the cache
//!    keeps only the tape and its program), so one poisoned request
//!    cannot corrupt or fail its batch-mates. The panic is caught,
//!    counted, and isolated.
//! 3. **Typed error reply** — a request that fails its solo retry gets
//!    `Internal`; a full queue gets `Overloaded` (load shedding, not
//!    buffering); an expired deadline gets `DeadlineExceeded`; a
//!    malformed frame gets `Malformed` and the connection lives on.
//! 4. **Connection poisoning** — only framing-level damage (oversized
//!    length prefix, mid-frame truncation, a slow-loris stall) closes
//!    the offending connection. The daemon keeps serving everyone else.
//!
//! Graceful drain: [`Server::trigger_drain`] (or SIGTERM via the CLI)
//! stops the acceptor, lets readers finish the frame they are on, flushes
//! every queued request through the workers, and joins with a stats
//! snapshot — all accepted requests are answered.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use absort_circuit::compile::CompiledEvaluator;
use absort_circuit::eval::{pack_lanes, unpack_lanes, EvalError};
use absort_circuit::passes::{CompileOptions, OptLevel};
use absort_core::sorter::SorterKind;
use absort_networks::permuter::RadixPermuter;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};

use crate::cache::{build_network, CacheKey, CircuitCache, Compiled};
use crate::proto::{
    self, FrameError, NetKind, Reply, ReplyPayload, Request, RequestKind, Status, MAX_FRAME,
};

/// How many requests one batch can carry: four 64-lane `u64` passes.
pub const WIDE_LANES: usize = 256;

/// Server configuration. `Default` is tuned for tests and the smoke CI
/// job; the CLI exposes the operationally interesting knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker thread count; 0 means one per available core.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue sheds load with
    /// `Overloaded` instead of buffering.
    pub queue_capacity: usize,
    /// Bounded per-connection reply-queue depth; a slow client drops
    /// its own replies, never blocking a worker.
    pub reply_capacity: usize,
    /// Max requests coalesced into one wide batch (clamped to
    /// [`WIDE_LANES`]).
    pub batch_max: usize,
    /// Largest accepted request width.
    pub max_n: u32,
    /// Compiled-circuit LRU capacity.
    pub cache_capacity: usize,
    /// Read poll interval: how often idle readers check the drain flag.
    pub read_poll: Duration,
    /// How long a connection may sit mid-frame before it is closed as a
    /// slow-loris.
    pub midframe_stall: Duration,
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
    /// After a drain is requested, connections keep reading for this
    /// long so frames already in flight are accepted and answered
    /// instead of being reset mid-stream.
    pub drain_grace: Duration,
    /// Honor `ChaosPanic` requests (forced worker panic mid-batch).
    pub chaos: bool,
    /// Compiler tier for cached tapes (default O1: for every served key
    /// O2 yields the same tape, so CSE and const-prop would only slow
    /// each cache fill).
    pub opt: OptLevel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            reply_capacity: 1024,
            batch_max: WIDE_LANES,
            max_n: proto::DEFAULT_MAX_N,
            cache_capacity: 16,
            read_poll: Duration::from_millis(25),
            midframe_stall: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(2000),
            drain_grace: Duration::from_millis(250),
            chaos: false,
            opt: OptLevel::O1,
        }
    }
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Live atomic counters shared by every thread of a server.
        #[derive(Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        /// A point-in-time snapshot of a server's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServeStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            fn snapshot(&self) -> ServeStats {
                ServeStats {
                    $($name: self.$name.load(Ordering::SeqCst),)*
                }
            }
        }
    };
}

counters! {
    /// Connections accepted.
    conns_accepted,
    /// Connections fully closed (reader side exited).
    conns_closed,
    /// Well-formed requests admitted to the work queue.
    requests,
    /// `Ok` replies produced.
    replies_ok,
    /// Requests shed with `Overloaded` (queue full).
    shed,
    /// Requests answered `DeadlineExceeded`.
    deadline_missed,
    /// Frames rejected with a typed `Malformed` reply.
    malformed,
    /// Connections closed for stalling mid-frame.
    slow_loris_closed,
    /// Requests answered `Unsupported`.
    unsupported,
    /// Ping requests answered inline.
    pings,
    /// Worker panics caught and isolated (batch demoted to solo).
    panics_isolated,
    /// Solo scalar retries run after a batch panic.
    solo_retries,
    /// Requests answered `Internal` (failed even the solo retry).
    internal_errors,
    /// Reply frames dropped because the client was too slow or gone.
    write_drops,
    /// Wide batches evaluated.
    batches,
}

impl ServeStats {
    /// Total requests answered with *some* typed reply (the graceful-
    /// drain invariant is `answered() == requests + shed + malformed +
    /// unsupported + pings + deadline-misses seen at the reader`).
    pub fn answered(&self) -> u64 {
        self.replies_ok
            + self.shed
            + self.deadline_missed
            + self.malformed
            + self.unsupported
            + self.pings
            + self.internal_errors
    }
}

/// One admitted unit of work.
struct Job {
    req: Request,
    received: Instant,
    deadline: Option<Instant>,
    reply_tx: Sender<Vec<u8>>,
}

/// A sort job's input bits, so a group packs straight from its jobs.
impl AsRef<[bool]> for Job {
    fn as_ref(&self) -> &[bool] {
        &self.req.bits
    }
}

/// A running daemon. Dropping without [`Server::join`] detaches the
/// threads; call `join` for a graceful drain.
pub struct Server {
    local_addr: SocketAddr,
    drain: Arc<AtomicBool>,
    counters: Arc<Counters>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<Sender<Job>>,
}

/// Suppress default panic backtraces from serve worker threads: their
/// panics are caught, counted, and degraded by design (chaos injection
/// relies on this), so the default hook would only spam stderr.
fn install_quiet_worker_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("serve-wrk"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

impl Server {
    /// Binds, spawns the acceptor and workers, and returns immediately.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        install_quiet_worker_hook();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let drain = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let cache = Arc::new(CircuitCache::new(cfg.cache_capacity));
        let (job_tx, job_rx) = channel::bounded::<Job>(cfg.queue_capacity.max(1));

        let n_workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(2, |p| p.get())
        } else {
            cfg.workers
        };
        let batch_max = cfg.batch_max.clamp(1, WIDE_LANES);

        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let rx = job_rx.clone();
            let cache = Arc::clone(&cache);
            let counters = Arc::clone(&counters);
            let opts = CompileOptions::for_level(cfg.opt);
            let opt = cfg.opt;
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-wrk-{i}"))
                    .spawn(move || worker_loop(rx, cache, counters, opts, opt, batch_max))
                    .expect("spawn worker"),
            );
        }
        drop(job_rx);

        let acceptor = {
            let drain = Arc::clone(&drain);
            let counters = Arc::clone(&counters);
            let job_tx = job_tx.clone();
            let cfg = cfg.clone();
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, cfg, drain, counters, job_tx))
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            drain,
            counters,
            acceptor: Some(acceptor),
            workers,
            job_tx: Some(job_tx),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful drain: stop accepting, flush in-flight work.
    pub fn trigger_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Drains and joins every thread, returning the final stats.
    pub fn join(mut self) -> ServeStats {
        self.trigger_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Dropping the last non-reader sender lets workers run the queue
        // dry and exit (readers have all exited with the acceptor).
        self.job_tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.counters.snapshot()
    }
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

fn accept_loop(
    listener: TcpListener,
    cfg: ServeConfig,
    drain: Arc<AtomicBool>,
    counters: Arc<Counters>,
    job_tx: Sender<Job>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !drain.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters.conns_accepted.fetch_add(1, Ordering::SeqCst);
                #[cfg(feature = "telemetry")]
                absort_telemetry::counter_add("serve.conns_accepted", 1);
                match spawn_connection(stream, &cfg, &drain, &counters, &job_tx) {
                    Ok((r, w)) => {
                        conns.push(r);
                        conns.push(w);
                    }
                    Err(_) => {
                        counters.conns_closed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
        // Opportunistically reap finished connection threads so a
        // long-lived daemon does not accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    // Final backlog sweep: connections the kernel established before the
    // drain flag flipped would be reset by dropping the listener. Accept
    // them once — their readers run inside the drain grace window, so
    // requests already in flight are answered before close.
    while let Ok((stream, _peer)) = listener.accept() {
        counters.conns_accepted.fetch_add(1, Ordering::SeqCst);
        if let Ok((r, w)) = spawn_connection(stream, &cfg, &drain, &counters, &job_tx) {
            conns.push(r);
            conns.push(w);
        } else {
            counters.conns_closed.fetch_add(1, Ordering::SeqCst);
        }
    }
    drop(job_tx);
    for h in conns {
        let _ = h.join();
    }
}

/// Socket set-up of an accepted connection; returns its write half.
/// `TCP_NODELAY` goes on before the clone so both halves carry it: each
/// reply is one small frame, and Nagle's algorithm would hold it back
/// until the client's delayed ACK.
fn configure_stream(stream: &TcpStream, cfg: &ServeConfig) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    write_half.set_write_timeout(Some(cfg.write_timeout))?;
    stream.set_read_timeout(Some(cfg.read_poll))?;
    Ok(write_half)
}

fn spawn_connection(
    stream: TcpStream,
    cfg: &ServeConfig,
    drain: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
    job_tx: &Sender<Job>,
) -> io::Result<(JoinHandle<()>, JoinHandle<()>)> {
    let write_half = configure_stream(&stream, cfg)?;
    let (reply_tx, reply_rx) = channel::bounded::<Vec<u8>>(cfg.reply_capacity.max(1));

    let writer = {
        let counters = Arc::clone(counters);
        thread::Builder::new()
            .name("serve-conn-w".to_string())
            .spawn(move || writer_loop(write_half, reply_rx, counters))?
    };
    let reader = {
        let cfg = cfg.clone();
        let drain = Arc::clone(drain);
        let counters = Arc::clone(counters);
        let job_tx = job_tx.clone();
        thread::Builder::new()
            .name("serve-conn-r".to_string())
            .spawn(move || reader_loop(stream, cfg, drain, counters, job_tx, reply_tx))?
    };
    Ok((reader, writer))
}

// ---------------------------------------------------------------------
// Writer: the only thread that touches the socket's write half.
// ---------------------------------------------------------------------

fn writer_loop(mut stream: TcpStream, reply_rx: Receiver<Vec<u8>>, counters: Arc<Counters>) {
    let mut dead = false;
    while let Ok(frame) = reply_rx.recv() {
        if dead {
            // Keep draining so reply senders never block on a corpse.
            counters.write_drops.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        if stream.write_all(&frame).is_err() {
            // Write timeout or a gone peer: this client stops receiving
            // replies, and nobody else is affected.
            counters.write_drops.fetch_add(1, Ordering::SeqCst);
            dead = true;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Best-effort reply enqueue: a slow or dead client drops its own
/// replies rather than blocking the sender.
fn offer_reply(reply_tx: &Sender<Vec<u8>>, reply: &Reply, counters: &Counters) {
    if reply_tx.try_send(proto::encode_reply(reply)).is_err() {
        counters.write_drops.fetch_add(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Reader: frame loop with drain polling and slow-loris detection.
// ---------------------------------------------------------------------

enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
    /// Server is draining and the connection is between frames.
    Drain,
    /// Stalled mid-frame past the configured limit.
    SlowLoris,
    /// Length prefix beyond [`MAX_FRAME`]: unrecoverable framing damage.
    Oversized(u64),
    /// Stream ended mid-frame.
    TruncatedEof {
        needed: usize,
        got: usize,
    },
    Io,
}

/// Reads one length-prefixed frame. Poll timeouts between frames check
/// the drain flag; poll timeouts *inside* a frame accrue against the
/// slow-loris budget.
fn read_frame_live(stream: &mut TcpStream, cfg: &ServeConfig, drain: &AtomicBool) -> ReadOutcome {
    use io::Read as _;

    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    let mut frame_start: Option<Instant> = None;
    loop {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::TruncatedEof {
                        needed: 4,
                        got: filled,
                    }
                };
            }
            Ok(k) => {
                filled += k;
                frame_start.get_or_insert_with(Instant::now);
                if filled == 4 {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                match frame_start {
                    None => {
                        if drain.load(Ordering::SeqCst) {
                            return ReadOutcome::Drain;
                        }
                    }
                    Some(start) => {
                        if start.elapsed() > cfg.midframe_stall {
                            return ReadOutcome::SlowLoris;
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Io,
        }
    }

    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return ReadOutcome::Oversized(len as u64);
    }
    let start = frame_start.unwrap_or_else(Instant::now);
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match stream.read(&mut body[got..]) {
            Ok(0) => {
                return ReadOutcome::TruncatedEof {
                    needed: 4 + len,
                    got: 4 + got,
                }
            }
            Ok(k) => got += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if start.elapsed() > cfg.midframe_stall {
                    return ReadOutcome::SlowLoris;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Io,
        }
    }
    ReadOutcome::Frame(body)
}

fn reader_loop(
    mut stream: TcpStream,
    cfg: ServeConfig,
    drain: Arc<AtomicBool>,
    counters: Arc<Counters>,
    job_tx: Sender<Job>,
    reply_tx: Sender<Vec<u8>>,
) {
    let mut drain_seen: Option<Instant> = None;
    loop {
        match read_frame_live(&mut stream, &cfg, &drain) {
            ReadOutcome::Frame(body) => {
                if !handle_frame(&body, &cfg, &counters, &job_tx, &reply_tx) {
                    break;
                }
            }
            ReadOutcome::Drain => {
                // Grace window: frames the client sent before the drain
                // may still be in flight — keep reading briefly so they
                // are accepted and answered, not reset mid-stream.
                let since = *drain_seen.get_or_insert_with(Instant::now);
                if since.elapsed() > cfg.drain_grace {
                    break;
                }
            }
            ReadOutcome::Eof | ReadOutcome::Io => break,
            ReadOutcome::SlowLoris => {
                counters.slow_loris_closed.fetch_add(1, Ordering::SeqCst);
                break;
            }
            ReadOutcome::Oversized(len) => {
                counters.malformed.fetch_add(1, Ordering::SeqCst);
                let err = FrameError::Oversized {
                    len,
                    max: MAX_FRAME,
                };
                offer_reply(
                    &reply_tx,
                    &Reply::error(Status::Malformed, 0, 0, err.to_string()),
                    &counters,
                );
                break; // no frame boundary left to resync on
            }
            ReadOutcome::TruncatedEof { needed, got } => {
                counters.malformed.fetch_add(1, Ordering::SeqCst);
                let err = FrameError::Truncated { needed, got };
                offer_reply(
                    &reply_tx,
                    &Reply::error(Status::Malformed, 0, 0, err.to_string()),
                    &counters,
                );
                break;
            }
        }
    }
    counters.conns_closed.fetch_add(1, Ordering::SeqCst);
    // reply_tx and job_tx drop here; the writer exits once every queued
    // job for this connection has been answered.
}

/// Handles one complete frame body. Returns `false` when the connection
/// should close (drain observed at enqueue).
fn handle_frame(
    body: &[u8],
    cfg: &ServeConfig,
    counters: &Counters,
    job_tx: &Sender<Job>,
    reply_tx: &Sender<Vec<u8>>,
) -> bool {
    #[cfg(feature = "telemetry")]
    let t_decode = stage_clock();
    let decoded = proto::decode_request(body, cfg.max_n);
    #[cfg(feature = "telemetry")]
    stage_record("serve.stage.decode_us", t_decode);
    let req = match decoded {
        Ok(req) => req,
        Err(e) => {
            // Body-level damage: typed reply, connection survives.
            counters.malformed.fetch_add(1, Ordering::SeqCst);
            #[cfg(feature = "telemetry")]
            absort_telemetry::counter_add("serve.malformed", 1);
            let reply = Reply::error(
                Status::Malformed,
                proto::salvage_req_id(body),
                0,
                e.to_string(),
            );
            offer_reply(reply_tx, &reply, counters);
            return true;
        }
    };

    match req.kind {
        RequestKind::Ping => {
            counters.pings.fetch_add(1, Ordering::SeqCst);
            offer_reply(
                reply_tx,
                &Reply {
                    status: Status::Ok,
                    req_id: req.req_id,
                    n: 0,
                    payload: ReplyPayload::Empty,
                },
                counters,
            );
            return true;
        }
        RequestKind::ChaosPanic if !cfg.chaos => {
            counters.unsupported.fetch_add(1, Ordering::SeqCst);
            offer_reply(
                reply_tx,
                &Reply::error(
                    Status::Unsupported,
                    req.req_id,
                    req.n,
                    "chaos requests need a server started with --chaos",
                ),
                counters,
            );
            return true;
        }
        RequestKind::Permute if req.network == NetKind::Nonadaptive => {
            counters.unsupported.fetch_add(1, Ordering::SeqCst);
            offer_reply(
                reply_tx,
                &Reply::error(
                    Status::Unsupported,
                    req.req_id,
                    req.n,
                    "permute requires an adaptive sorter (prefix or mux-merger)",
                ),
                counters,
            );
            return true;
        }
        _ => {}
    }

    let received = Instant::now();
    let deadline = if req.deadline_ms > 0 {
        Some(received + Duration::from_millis(u64::from(req.deadline_ms)))
    } else {
        None
    };
    let job = Job {
        req,
        received,
        deadline,
        reply_tx: reply_tx.clone(),
    };
    match job_tx.try_send(job) {
        Ok(()) => {
            counters.requests.fetch_add(1, Ordering::SeqCst);
            #[cfg(feature = "telemetry")]
            absort_telemetry::counter_add("serve.requests", 1);
            true
        }
        Err(TrySendError::Full(job)) => {
            // Bounded queue: shed, don't buffer.
            counters.shed.fetch_add(1, Ordering::SeqCst);
            #[cfg(feature = "telemetry")]
            absort_telemetry::counter_add("serve.shed", 1);
            offer_reply(
                &job.reply_tx,
                &Reply {
                    status: Status::Overloaded,
                    req_id: job.req.req_id,
                    n: job.req.n,
                    payload: ReplyPayload::Empty,
                },
                counters,
            );
            true
        }
        Err(TrySendError::Disconnected(job)) => {
            // Workers are gone (drain completed under us): tell the
            // client to go elsewhere and close.
            counters.shed.fetch_add(1, Ordering::SeqCst);
            offer_reply(
                &job.reply_tx,
                &Reply {
                    status: Status::Overloaded,
                    req_id: job.req.req_id,
                    n: job.req.n,
                    payload: ReplyPayload::Empty,
                },
                counters,
            );
            false
        }
    }
}

// ---------------------------------------------------------------------
// Workers: coalesce, batch, degrade.
// ---------------------------------------------------------------------

fn worker_loop(
    job_rx: Receiver<Job>,
    cache: Arc<CircuitCache>,
    counters: Arc<Counters>,
    opts: CompileOptions,
    opt: OptLevel,
    batch_max: usize,
) {
    loop {
        let first = match job_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job,
            Err(channel::RecvTimeoutError::Timeout) => continue,
            Err(channel::RecvTimeoutError::Disconnected) => break,
        };
        let mut batch = vec![first];
        while batch.len() < batch_max {
            match job_rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        process_batch(batch, &cache, &counters, &opts, opt);
    }
}

fn reply_and_count(job: &Job, reply: &Reply, counters: &Counters) {
    offer_reply(&job.reply_tx, reply, counters);
    #[cfg(feature = "telemetry")]
    {
        let us = job.received.elapsed().as_micros() as u64;
        absort_telemetry::hist_record("serve.request_us", us);
        absort_telemetry::counter_add(
            match reply.status {
                Status::Ok => "serve.replies_ok",
                _ => "serve.replies_err",
            },
            1,
        );
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = &job.received;
}

/// Reads the clock for a stage histogram, only while telemetry records.
#[cfg(feature = "telemetry")]
fn stage_clock() -> Option<Instant> {
    absort_telemetry::enabled().then(Instant::now)
}

/// Records the µs since `t0` (if the clock was read) into the stage
/// histogram `name`.
#[cfg(feature = "telemetry")]
fn stage_record(name: &str, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        absort_telemetry::hist_record(name, t0.elapsed().as_micros() as u64);
    }
}

fn expired(job: &Job, now: Instant) -> bool {
    job.deadline.is_some_and(|d| d <= now)
}

fn reply_deadline(job: &Job, counters: &Counters) {
    counters.deadline_missed.fetch_add(1, Ordering::SeqCst);
    #[cfg(feature = "telemetry")]
    absort_telemetry::counter_add("serve.deadline_missed", 1);
    reply_and_count(
        job,
        &Reply {
            status: Status::DeadlineExceeded,
            req_id: job.req.req_id,
            n: job.req.n,
            payload: ReplyPayload::Empty,
        },
        counters,
    );
}

fn process_batch(
    batch: Vec<Job>,
    cache: &CircuitCache,
    counters: &Counters,
    opts: &CompileOptions,
    opt: OptLevel,
) {
    let now = Instant::now();
    let mut groups: HashMap<CacheKey, Vec<Job>> = HashMap::new();
    for job in batch {
        #[cfg(feature = "telemetry")]
        absort_telemetry::hist_record(
            "serve.stage.queue_us",
            now.saturating_duration_since(job.received).as_micros() as u64,
        );
        // Deadline check #1: at dequeue.
        if expired(&job, now) {
            reply_deadline(&job, counters);
            continue;
        }
        match job.req.kind {
            RequestKind::Permute => serve_permute(job, counters),
            RequestKind::Sort | RequestKind::ChaosPanic => {
                let key = CacheKey {
                    network: job.req.network,
                    n: job.req.n,
                    opt,
                };
                groups.entry(key).or_default().push(job);
            }
            RequestKind::Ping => unreachable!("pings are answered at the reader"),
        }
    }
    for (key, jobs) in groups {
        serve_sort_group(key, jobs, cache, counters, opts);
    }
}

fn serve_sort_group(
    key: CacheKey,
    jobs: Vec<Job>,
    cache: &CircuitCache,
    counters: &Counters,
    opts: &CompileOptions,
) {
    // The compile itself is guarded: widths are validated at decode, but
    // a cache/compile panic must degrade to typed Internal replies, not
    // a dead worker.
    let compiled = match panic::catch_unwind(AssertUnwindSafe(|| cache.get_or_build(key, opts))) {
        Ok(c) => c,
        Err(_) => {
            counters.panics_isolated.fetch_add(1, Ordering::SeqCst);
            for job in &jobs {
                counters.internal_errors.fetch_add(1, Ordering::SeqCst);
                reply_and_count(
                    job,
                    &Reply::error(
                        Status::Internal,
                        job.req.req_id,
                        job.req.n,
                        "circuit compilation failed",
                    ),
                    counters,
                );
            }
            return;
        }
    };

    // Deadline check #2: mid-batch admission, after any compile wait.
    let now = Instant::now();
    let mut admitted = Vec::with_capacity(jobs.len());
    for job in jobs {
        if expired(&job, now) {
            reply_deadline(&job, counters);
        } else {
            admitted.push(job);
        }
    }
    if admitted.is_empty() {
        return;
    }

    counters.batches.fetch_add(1, Ordering::SeqCst);
    #[cfg(feature = "telemetry")]
    absort_telemetry::hist_record("serve.batch_lanes", admitted.len() as u64);

    let chaos_armed = admitted
        .iter()
        .any(|j| j.req.kind == RequestKind::ChaosPanic);

    // Rung 1: the wide batched path.
    #[cfg(feature = "telemetry")]
    let t_eval = stage_clock();
    let wide = panic::catch_unwind(AssertUnwindSafe(|| {
        if chaos_armed {
            panic!("chaos: forced worker panic mid-batch");
        }
        sort_wide(&compiled, &admitted)
    }));
    #[cfg(feature = "telemetry")]
    stage_record("serve.stage.eval_us", t_eval);

    let was_panic = wide.is_err();
    match wide {
        Ok(Ok(outputs)) => {
            #[cfg(feature = "telemetry")]
            let t_write = stage_clock();
            for (job, out) in admitted.iter().zip(outputs) {
                counters.replies_ok.fetch_add(1, Ordering::SeqCst);
                reply_and_count(
                    job,
                    &Reply {
                        status: Status::Ok,
                        req_id: job.req.req_id,
                        n: job.req.n,
                        payload: ReplyPayload::Bits(out),
                    },
                    counters,
                );
            }
            #[cfg(feature = "telemetry")]
            stage_record("serve.stage.write_us", t_write);
        }
        Ok(Err(_)) | Err(_) => {
            // Rung 2: the batch failed as a unit — a panic (chaos or
            // genuine) or an eval error. Retry every member solo through
            // the scalar interpreter so one poisoned request cannot take
            // its batch-mates down with it.
            if was_panic {
                counters.panics_isolated.fetch_add(1, Ordering::SeqCst);
                #[cfg(feature = "telemetry")]
                absort_telemetry::counter_add("serve.panics_isolated", 1);
            }
            // The cache keeps no netlist. The rung builds it inside a
            // job's guard, so a failing build also degrades to typed
            // replies, and reuses it for the rest of the group.
            let mut circuit = None;
            for job in &admitted {
                counters.solo_retries.fetch_add(1, Ordering::SeqCst);
                let solo = panic::catch_unwind(AssertUnwindSafe(|| {
                    circuit
                        .get_or_insert_with(|| build_network(key.network, key.n as usize))
                        .try_eval(&job.req.bits)
                }));
                match solo {
                    Ok(Ok(out)) => {
                        counters.replies_ok.fetch_add(1, Ordering::SeqCst);
                        reply_and_count(
                            job,
                            &Reply {
                                status: Status::Ok,
                                req_id: job.req.req_id,
                                n: job.req.n,
                                payload: ReplyPayload::Bits(out),
                            },
                            counters,
                        );
                    }
                    Ok(Err(e)) => {
                        counters.internal_errors.fetch_add(1, Ordering::SeqCst);
                        reply_and_count(
                            job,
                            &Reply::error(
                                Status::Internal,
                                job.req.req_id,
                                job.req.n,
                                format!("solo retry failed: {e:?}"),
                            ),
                            counters,
                        );
                    }
                    Err(_) => {
                        counters.internal_errors.fetch_add(1, Ordering::SeqCst);
                        reply_and_count(
                            job,
                            &Reply::error(
                                Status::Internal,
                                job.req.req_id,
                                job.req.n,
                                "solo retry panicked",
                            ),
                            counters,
                        );
                    }
                }
            }
        }
    }
}

/// Rung 1's evaluation: sorts `rows` (each as wide as the key) on the
/// key's decoded program, one `u64` pass per 64 rows, packing each chunk
/// straight from the borrowed rows. Outputs come back in row order.
fn sort_wide(
    compiled: &Compiled,
    rows: &[impl AsRef<[bool]>],
) -> Result<Vec<Vec<bool>>, EvalError> {
    let n = compiled.tape.n_inputs();
    let mut ev = CompiledEvaluator::with_decoded(&compiled.tape, &compiled.program)?;
    let mut outputs = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(64) {
        let out = ev.try_run(&pack_lanes(chunk, n))?;
        outputs.extend(unpack_lanes(&out, chunk.len()));
    }
    Ok(outputs)
}

fn serve_permute(job: Job, counters: &Counters) {
    let kind = match job.req.network {
        NetKind::Prefix => SorterKind::Prefix,
        NetKind::MuxMerger => SorterKind::MuxMerger,
        NetKind::Nonadaptive => unreachable!("rejected at the reader"),
    };
    let n = job.req.n as usize;
    let packets: Vec<(usize, u16)> = job
        .req
        .perm
        .iter()
        .enumerate()
        .map(|(i, &d)| (d as usize, i as u16))
        .collect();
    let routed = panic::catch_unwind(AssertUnwindSafe(|| {
        RadixPermuter::new(kind, n).route(&packets)
    }));
    match routed {
        Ok(Ok(out)) => {
            counters.replies_ok.fetch_add(1, Ordering::SeqCst);
            reply_and_count(
                &job,
                &Reply {
                    status: Status::Ok,
                    req_id: job.req.req_id,
                    n: job.req.n,
                    payload: ReplyPayload::Perm(out),
                },
                counters,
            );
        }
        Ok(Err(e)) => {
            // Destinations were each in range but not a permutation:
            // that's the client's frame, not our failure.
            counters.malformed.fetch_add(1, Ordering::SeqCst);
            reply_and_count(
                &job,
                &Reply::error(
                    Status::Malformed,
                    job.req.req_id,
                    job.req.n,
                    format!("invalid permutation: {e:?}"),
                ),
                counters,
            );
        }
        Err(_) => {
            counters.panics_isolated.fetch_add(1, Ordering::SeqCst);
            counters.internal_errors.fetch_add(1, Ordering::SeqCst);
            reply_and_count(
                &job,
                &Reply::error(
                    Status::Internal,
                    job.req.req_id,
                    job.req.n,
                    "permute routing panicked",
                ),
                counters,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted_oracle;
    use rand::prelude::*;

    /// Rung 1 on every served key, at group sizes on both sides of one
    /// and of several 64-lane passes. The socket tests cannot force a
    /// group size.
    #[test]
    fn sort_wide_agrees_with_the_oracle_across_chunk_boundaries() {
        let opt = ServeConfig::default().opt;
        let cache = CircuitCache::new(6);
        let mut rng = StdRng::seed_from_u64(64);
        for n in [64u32, 1024] {
            for network in NetKind::ALL {
                let key = CacheKey { network, n, opt };
                let compiled = cache.get_or_build(key, &CompileOptions::for_level(opt));
                for count in [1usize, 63, 64, 65, 128, 256] {
                    let rows: Vec<Vec<bool>> = (0..count)
                        .map(|_| (0..n).map(|_| rng.gen()).collect())
                        .collect();
                    let outs = sort_wide(&compiled, &rows).unwrap();
                    assert_eq!(outs.len(), count, "{network} n={n}");
                    for (j, (row, out)) in rows.iter().zip(&outs).enumerate() {
                        assert_eq!(
                            out,
                            &sorted_oracle(row),
                            "{network} n={n}: row {j} of {count}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accepted_connections_disable_nagle_on_both_halves() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let write_half = configure_stream(&stream, &ServeConfig::default()).unwrap();
        assert!(stream.nodelay().unwrap(), "read half");
        assert!(write_half.nodelay().unwrap(), "write half");
    }
}
