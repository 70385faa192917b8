//! Load generator and chaos probe for the `absort serve` daemon.
//!
//! Two workload modes write `BENCH_serve.json` (schema
//! `absort-bench-serve/v1`):
//!
//! * **closed-loop** (default): `--conns` client threads each issue
//!   `--requests` sort requests back to back; offered load tracks
//!   service rate, so throughput is the daemon's sustained capacity.
//! * **fixed-rate** (`--rate R`): the same threads pace their sends to
//!   an aggregate target of `R` requests/second, which keeps offered
//!   load constant and makes shedding visible under overload.
//!
//! Every `Ok` sort reply is differentially checked against the popcount
//! oracle — a single cross-request corruption fails the whole run.
//! `Overloaded` replies are retried with capped exponential backoff
//! (base 1 ms, cap 100 ms) and counted, so the report separates shed
//! load from lost load.
//!
//! `--chaos-probe` replaces the load test with a liveness audit:
//! corrupt frames, a bad protocol version, an oversized length prefix,
//! a forced worker panic, and valid sorts coalesced with a malformed
//! body and an oversized prefix in one write are thrown at the daemon,
//! which must answer each with a typed rejection (or a correct result,
//! for the sorts and the panic's solo retry) and keep serving.
//!
//! With no `--addr`, an in-process server is spawned on a free port
//! (with chaos hooks armed when probing); `--addr` targets an external
//! daemon, which is how CI exercises the real binary.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use absort_bench::bench_bits;
use absort_serve::proto::encode_request;
use absort_serve::{
    sorted_oracle, Client, ClientError, NetKind, ReplyPayload, Request, ServeConfig, Server, Status,
};

const BACKOFF_BASE_MS: u64 = 1;
const BACKOFF_CAP_MS: u64 = 100;
const MAX_RETRIES: u32 = 64;

#[derive(Clone)]
struct Opts {
    addr: Option<String>,
    conns: usize,
    requests: usize,
    network: NetKind,
    n: usize,
    deadline_ms: u32,
    rate: Option<f64>,
    out: String,
    chaos_probe: bool,
}

/// Shared tallies across client threads.
#[derive(Default)]
struct Tally {
    completed: AtomicU64,
    shed: AtomicU64,
    retried: AtomicU64,
    deadline_missed: AtomicU64,
    errors: AtomicU64,
    corrupt: AtomicU64,
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn backoff(attempt: u32) -> Duration {
    let ms = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_CAP_MS);
    Duration::from_millis(ms)
}

/// One client thread: issues `requests` sorts, retrying shed load with
/// capped exponential backoff, and returns per-request latencies in
/// microseconds (successful requests only).
fn client_loop(opts: &Opts, addr: &str, conn_idx: usize, tally: &Tally) -> Vec<u64> {
    let mut client = match Client::connect_retry(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("conn {conn_idx}: connect failed: {e}");
            tally
                .errors
                .fetch_add(opts.requests as u64, Ordering::Relaxed);
            return Vec::new();
        }
    };
    let mut latencies = Vec::with_capacity(opts.requests);
    // Fixed-rate pacing: each of the `conns` threads carries rate/conns.
    let pace = opts
        .rate
        .map(|r| Duration::from_secs_f64(opts.conns as f64 / r));
    let start = Instant::now();

    for i in 0..opts.requests {
        if let Some(period) = pace {
            let due = start + period * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let seed = (conn_idx as u64) << 32 | i as u64;
        let bits = bench_bits(opts.n, seed);
        let req_id = seed;
        let mut req = Request::sort(opts.network, req_id, &bits);
        if opts.deadline_ms > 0 {
            req = req.with_deadline_ms(opts.deadline_ms);
        }

        let mut attempt = 0u32;
        loop {
            let t0 = Instant::now();
            let reply = match client.call(&req) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("conn {conn_idx}: request {i} failed: {e}");
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                    return latencies;
                }
            };
            match reply.status {
                Status::Ok => {
                    if reply.req_id != req_id {
                        tally.corrupt.fetch_add(1, Ordering::Relaxed);
                    } else {
                        match &reply.payload {
                            ReplyPayload::Bits(out) if *out == sorted_oracle(&bits) => {
                                tally.completed.fetch_add(1, Ordering::Relaxed);
                                latencies.push(t0.elapsed().as_micros() as u64);
                            }
                            _ => {
                                tally.corrupt.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    break;
                }
                Status::Overloaded => {
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    if attempt >= MAX_RETRIES {
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                    tally.retried.fetch_add(1, Ordering::Relaxed);
                }
                Status::DeadlineExceeded => {
                    tally.deadline_missed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                _ => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
    latencies
}

fn run_load(opts: &Opts, addr: &str) -> Result<String, String> {
    let tally = Arc::new(Tally::default());
    let start = Instant::now();
    let handles: Vec<_> = (0..opts.conns)
        .map(|c| {
            let opts = opts.clone();
            let addr = addr.to_string();
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || client_loop(&opts, &addr, c, &tally))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().unwrap_or_default());
    }
    let duration_s = start.elapsed().as_secs_f64();

    let corrupt = tally.corrupt.load(Ordering::Relaxed);
    if corrupt > 0 {
        return Err(format!(
            "{corrupt} replies failed the popcount-oracle differential check"
        ));
    }

    latencies.sort_unstable();
    let completed = tally.completed.load(Ordering::Relaxed);
    let mean_us = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    let mode = if opts.rate.is_some() {
        "fixed-rate"
    } else {
        "closed-loop"
    };
    Ok(format!(
        concat!(
            "{{\n",
            "  \"schema\": \"absort-bench-serve/v1\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"connections\": {conns},\n",
            "  \"network\": \"{network}\",\n",
            "  \"n\": {n},\n",
            "  \"requests\": {requests},\n",
            "  \"completed\": {completed},\n",
            "  \"duration_s\": {duration_s:.3},\n",
            "  \"throughput_rps\": {rps:.1},\n",
            "  \"p50_us\": {p50},\n",
            "  \"p99_us\": {p99},\n",
            "  \"p999_us\": {p999},\n",
            "  \"mean_us\": {mean},\n",
            "  \"max_us\": {max},\n",
            "  \"shed\": {shed},\n",
            "  \"retried\": {retried},\n",
            "  \"deadline_missed\": {deadline_missed},\n",
            "  \"errors\": {errors}\n",
            "}}\n"
        ),
        mode = mode,
        conns = opts.conns,
        network = opts.network.name(),
        n = opts.n,
        requests = opts.conns * opts.requests,
        completed = completed,
        duration_s = duration_s,
        rps = completed as f64 / duration_s.max(1e-9),
        p50 = percentile(&latencies, 0.50),
        p99 = percentile(&latencies, 0.99),
        p999 = percentile(&latencies, 0.999),
        mean = mean_us,
        max = latencies.last().copied().unwrap_or(0),
        shed = tally.shed.load(Ordering::Relaxed),
        retried = tally.retried.load(Ordering::Relaxed),
        deadline_missed = tally.deadline_missed.load(Ordering::Relaxed),
        errors = tally.errors.load(Ordering::Relaxed),
    ))
}

/// Chaos liveness audit. Each probe damages the protocol in a specific
/// way and checks the daemon's typed response; every probe ends with a
/// proof-of-life request.
fn run_chaos_probe(opts: &Opts, addr: &str) -> Result<(), String> {
    let n = opts.n;
    let alive = |c: &mut Client, probe: &str| -> Result<(), String> {
        let bits = bench_bits(n, 0xC0FFEE);
        let reply = c
            .call(&Request::sort(opts.network, 7, &bits))
            .map_err(|e| format!("{probe}: liveness request failed: {e}"))?;
        match (&reply.status, &reply.payload) {
            (Status::Ok, ReplyPayload::Bits(out)) if *out == sorted_oracle(&bits) => Ok(()),
            _ => Err(format!(
                "{probe}: liveness reply was {} instead of a correct sort",
                reply.status.name()
            )),
        }
    };

    // Probe 1: garbage body behind a valid length prefix -> typed
    // Malformed, connection stays usable.
    let mut c =
        Client::connect_retry(addr, Duration::from_secs(5)).map_err(|e| format!("connect: {e}"))?;
    let garbage = [12u32.to_le_bytes().to_vec(), vec![0xEE; 12]].concat();
    c.send_raw(&garbage).map_err(|e| format!("garbage: {e}"))?;
    let reply = c.recv().map_err(|e| format!("garbage: no reply: {e}"))?;
    if reply.status != Status::Malformed {
        return Err(format!(
            "garbage frame: expected malformed, got {}",
            reply.status.name()
        ));
    }
    alive(&mut c, "garbage frame")?;
    eprintln!("probe ok: garbage frame -> typed malformed, connection live");

    // Probe 2: wrong protocol version -> typed Malformed, connection
    // stays usable.
    let bits = bench_bits(n, 1);
    let mut frame = {
        let mut f = Vec::new();
        let body_start = 4;
        let req = Request::sort(opts.network, 9, &bits);
        f.extend_from_slice(&encode_request(&req));
        f[body_start + 1] = 0xFF; // version byte
        f
    };
    c.send_raw(&frame)
        .map_err(|e| format!("bad version: {e}"))?;
    let reply = c
        .recv()
        .map_err(|e| format!("bad version: no reply: {e}"))?;
    if reply.status != Status::Malformed {
        return Err(format!(
            "bad version: expected malformed, got {}",
            reply.status.name()
        ));
    }
    alive(&mut c, "bad version")?;
    eprintln!("probe ok: bad version -> typed malformed, connection live");

    // Probe 3: oversized length prefix -> the connection is poisoned
    // and closed, but the daemon accepts fresh connections.
    frame = (u32::MAX).to_le_bytes().to_vec();
    c.send_raw(&frame).map_err(|e| format!("oversized: {e}"))?;
    let mut fresh = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("oversized: daemon dead: {e}"))?;
    alive(&mut fresh, "oversized prefix")?;
    eprintln!("probe ok: oversized prefix -> connection cut, daemon live");

    // Probe 4: forced worker panic. The batched path dies; the solo
    // scalar retry must still produce the correct sorted output. A
    // daemon without --chaos answers with a typed Unsupported instead.
    let bits = bench_bits(n, 2);
    let mut req = Request::sort(opts.network, 11, &bits);
    req.kind = absort_serve::RequestKind::ChaosPanic;
    let reply = fresh.call(&req).map_err(|e| format!("chaos panic: {e}"))?;
    match (&reply.status, &reply.payload) {
        (Status::Ok, ReplyPayload::Bits(out)) if *out == sorted_oracle(&bits) => {
            eprintln!("probe ok: forced panic -> isolated, solo retry returned correct sort");
        }
        (Status::Unsupported, _) => {
            eprintln!("probe ok: chaos hooks disarmed -> typed unsupported (run daemon with --chaos to exercise panic isolation)");
        }
        _ => {
            return Err(format!(
                "chaos panic: expected ok-with-correct-sort or unsupported, got {}",
                reply.status.name()
            ));
        }
    }
    alive(&mut fresh, "after panic")?;

    // Probe 5: coalesced frames. Valid sorts, a malformed body and an
    // oversized prefix arrive in one write: the daemon's reader must
    // answer the sorts correctly, reject the body with a typed Malformed
    // naming its id, and reject the prefix with a typed Malformed before
    // it closes the connection.
    let mut c = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("coalesced: connect: {e}"))?;
    c.stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("coalesced: {e}"))?;
    const FIRST_ID: u64 = 100;
    const BAD_ID: u64 = 99;
    let inputs: Vec<Vec<bool>> = (0..8).map(|i| bench_bits(n, FIRST_ID + i)).collect();
    let mut bytes = Vec::new();
    for (id, bits) in (FIRST_ID..).zip(&inputs) {
        bytes.extend(encode_request(&Request::sort(opts.network, id, bits)));
    }
    let mut bad = encode_request(&Request::sort(opts.network, BAD_ID, &inputs[0]));
    bad[5] = 0xFF; // version byte
    bytes.extend(bad);
    bytes.extend(u32::MAX.to_le_bytes());
    c.send_raw(&bytes).map_err(|e| format!("coalesced: {e}"))?;
    let mut answered = vec![false; inputs.len()];
    let (mut bad_body, mut bad_prefix) = (false, false);
    loop {
        let reply = match c.recv() {
            Ok(reply) => reply,
            Err(ClientError::Closed) => break,
            Err(e) => return Err(format!("coalesced: no close after the replies: {e}")),
        };
        let slot = reply.req_id.checked_sub(FIRST_ID).map(|i| i as usize);
        match (reply.status, &reply.payload) {
            (Status::Ok, ReplyPayload::Bits(out))
                if slot.is_some_and(|i| i < inputs.len() && *out == sorted_oracle(&inputs[i])) =>
            {
                answered[slot.unwrap_or_default()] = true;
            }
            (Status::Malformed, _) if reply.req_id == BAD_ID => bad_body = true,
            (Status::Malformed, _) if reply.req_id == 0 => bad_prefix = true,
            _ => {
                return Err(format!(
                    "coalesced: unexpected {} reply for req_id {}",
                    reply.status.name(),
                    reply.req_id
                ))
            }
        }
    }
    if !(answered.iter().all(|&a| a) && bad_body && bad_prefix) {
        return Err(format!(
            "coalesced: sorts answered {answered:?}, malformed body rejected {bad_body}, \
             oversized prefix rejected {bad_prefix}"
        ));
    }
    eprintln!(
        "probe ok: coalesced frames -> sorts answered, malformed body and oversized prefix rejected"
    );
    alive(&mut fresh, "after coalesced frames")?;
    eprintln!("probe ok: daemon serving normally after all probes");
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_serve [--addr HOST:PORT] [--conns N] [--requests N]\n\
         \u{20}                  [--network prefix|mux-merger|nonadaptive] [--n N]\n\
         \u{20}                  [--deadline-ms N] [--rate RPS] [--quick]\n\
         \u{20}                  [--out <path>] [--chaos-probe]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Opts {
        addr: None,
        conns: 4,
        requests: 2000,
        network: NetKind::MuxMerger,
        n: 64,
        deadline_ms: 0,
        rate: None,
        out: String::from("BENCH_serve.json"),
        chaos_probe: false,
    };
    let mut requests_set = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => opts.addr = Some(args.next().unwrap_or_else(|| usage())),
            "--conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => opts.conns = v,
                _ => usage(),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => {
                    opts.requests = v;
                    requests_set = true;
                }
                _ => usage(),
            },
            "--network" => match args.next().as_deref().and_then(NetKind::parse) {
                Some(k) => opts.network = k,
                None => usage(),
            },
            "--n" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 2 && v.is_power_of_two() => opts.n = v,
                _ => {
                    eprintln!("error: --n must be a power of two >= 2");
                    std::process::exit(2);
                }
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.deadline_ms = v,
                None => usage(),
            },
            "--rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => opts.rate = Some(v),
                _ => usage(),
            },
            "--quick" => quick = true,
            "--out" => opts.out = args.next().unwrap_or_else(|| usage()),
            "--chaos-probe" => opts.chaos_probe = true,
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }
    if quick && !requests_set {
        opts.requests = 200;
    }

    // No --addr: spawn an in-process server (chaos hooks armed when
    // probing so the forced-panic probe exercises the real ladder).
    let local = if opts.addr.is_none() {
        let cfg = ServeConfig {
            addr: String::from("127.0.0.1:0"),
            chaos: opts.chaos_probe,
            ..ServeConfig::default()
        };
        let server = match Server::start(cfg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot start in-process server: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("in-process server on {}", server.local_addr());
        Some(server)
    } else {
        None
    };
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => local.as_ref().unwrap().local_addr().to_string(),
    };

    if opts.chaos_probe {
        match run_chaos_probe(&opts, &addr) {
            Ok(()) => {
                eprintln!("chaos probe passed: daemon survived every fault");
                if let Some(server) = local {
                    server.join();
                }
            }
            Err(e) => {
                eprintln!("chaos probe FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    eprintln!(
        "load: {} conns x {} requests, network={}, n={}, mode={}",
        opts.conns,
        opts.requests,
        opts.network.name(),
        opts.n,
        if opts.rate.is_some() {
            "fixed-rate"
        } else {
            "closed-loop"
        },
    );
    let doc = match run_load(&opts, &addr) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(server) = local {
        let stats = server.join();
        eprintln!(
            "server stats: {} requests, {} ok, {} shed, {} deadline-missed, {} panics isolated",
            stats.requests,
            stats.replies_ok,
            stats.shed,
            stats.deadline_missed,
            stats.panics_isolated,
        );
    }

    let mut f = match std::fs::File::create(&opts.out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", opts.out);
            std::process::exit(1);
        }
    };
    if let Err(e) = f.write_all(doc.as_bytes()) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
}
