//! The `serve-burst` workload: an in-process daemon (`Server::start`) driven
//! over one TCP connection from one thread. Every fixed interval, 256 sorts
//! stratified over all six served keys are written back to back; a burst is
//! written at its due time, or as soon as the previous one is answered if
//! that is later, and is timed from its due time to its last reply.
//!
//! Every reply is checked against `absort_serve::sorted_oracle` and its
//! `req_id`. The traced run adds a stage replay: the same bursts pushed
//! through the serve layers' public calls on one thread, no socket.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use absort_circuit::eval::{pack_lanes_wide, unpack_lanes_wide};
use absort_circuit::{CompileOptions, CompiledEvaluator};
use absort_serve::cache::{CacheKey, CircuitCache};
use absort_serve::proto::{self, NetKind, Reply, ReplyPayload, Request, Status};
use absort_serve::{sorted_oracle, Client, ServeConfig, ServeStats, Server};

use crate::calib::Calib;
use crate::layers::REPLAY_CALLS;
use crate::stats::{median, ms, percentile, us, Rng};
use crate::trace::Spans;
use crate::{Bite, Ctx, Report};

/// Worker threads of the daemon: fixed, never derived from the machine.
const WORKERS: usize = 1;
/// The widths the daemon serves; set-up compiles every key of both.
const WIDTHS: [usize; 2] = [64, 1024];
/// Sorts per burst, and the interval between burst due times.
const BURST: usize = 256;
const BURST_INTERVAL: Duration = Duration::from_millis(100);
/// Distinct seeded bursts; bursts cycle through them.
const BURST_POOL: usize = 8;
/// The start of every timed phase (at most a quarter of it) is sent and
/// checked but not sampled, so the stream has reached its steady state when
/// sampling starts.
const WARMUP: Duration = Duration::from_millis(500);
/// `tail_ms` percentile. A run of 20 s samples 195 bursts, but in some runs
/// 10–50 % of them end in a ~35 ms stall (the daemon's last small reply of a
/// burst waits for the client's delayed ACK; see README.md), which moves
/// p90 fivefold between runs; p75 stays on the work.
const TAIL: f64 = 75.0;
/// Bursts pushed through the stage replay.
const REPLAY_BURSTS: usize = 40;
/// Ids of the set-up requests sit far above any stream id.
const WARM_ID: u64 = 1 << 62;

/// One seeded sort and its expected reply.
struct Item {
    net: NetKind,
    bits: Vec<bool>,
    expect: Vec<bool>,
}

impl Item {
    fn new(rng: &mut Rng, net: NetKind, n: usize) -> Item {
        let bits = rng.bits(n);
        let expect = sorted_oracle(&bits);
        Item { net, bits, expect }
    }

    fn request(&self, req_id: u64) -> Request {
        Request::sort(self.net, req_id, &self.bits)
    }
}

/// Under `--bite oracle`, the first expected reply of a stream is wrong.
fn bite_oracle(ctx: &Ctx, items: &mut [Item]) {
    if ctx.bite == Some(Bite::Oracle) {
        items[0].expect[0] = !items[0].expect[0];
    }
}

/// Checks one reply against the item it answers.
fn check_reply(rep: &mut Report, reply: &Reply, item: &Item) {
    let ok = reply.status == Status::Ok
        && matches!(&reply.payload, ReplyPayload::Bits(out) if *out == item.expect);
    rep.check(ok, || {
        format!(
            "req {}: {} reply on {} n={} does not match the sorted oracle",
            reply.req_id,
            reply.status.name(),
            item.net,
            item.bits.len()
        )
    });
}

/// A running daemon plus the benchmark's one connection to it.
struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    /// Starts the daemon and warms every served key with one checked sort.
    fn start(rng: &mut Rng, rep: &mut Report) -> Result<Daemon, String> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut id = WARM_ID;
        for n in WIDTHS {
            for net in NetKind::ALL {
                let item = Item::new(rng, net, n);
                let reply = client
                    .call(&item.request(id))
                    .map_err(|e| format!("warming {net} n={n}: {e}"))?;
                check_reply(rep, &reply, &item);
                id += 1;
            }
        }
        client
            .stream()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        Ok(Daemon { server, client })
    }

    /// Receives one reply; `None` after a timeout, a closed socket or an
    /// undecodable frame.
    fn recv(&mut self, rep: &mut Report) -> Option<Reply> {
        match self.client.recv() {
            Ok(reply) => Some(reply),
            Err(e) => {
                rep.fail(format!("waiting for a reply: {e}"));
                None
            }
        }
    }

    /// Closes the connection, drains the daemon and fails the run if the
    /// daemon shed, dropped or failed anything.
    fn stop(self, rep: &mut Report) -> ServeStats {
        drop(self.client);
        let stats = self.server.join();
        let failed = serve_failed(&stats);
        rep.check(failed == 0, || {
            format!("daemon counted {failed} failed requests: {stats:?}")
        });
        stats
    }
}

impl Phase {
    fn latency_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.1).collect()
    }
}

fn serve_failed(s: &ServeStats) -> u64 {
    s.shed + s.deadline_missed + s.internal_errors + s.write_drops
}

/// What one timed phase measured.
struct Phase {
    /// Per sampled burst: when its last reply arrived, and its due time to
    /// that reply in ms.
    done: Vec<(Instant, f64)>,
    /// How late each sampled burst was written, in µs.
    late_us: Vec<f64>,
    /// Bursts written.
    units: usize,
}

/// Writes `units` bursts over the one connection every `BURST_INTERVAL`,
/// each only once the previous burst is fully answered, so no burst is
/// pipelined behind unanswered requests (see the Nagle hazard in
/// README.md). `frames(b)` encodes burst `b` ahead of its due time and is
/// written in one call; each of its `BURST` replies is checked by
/// `on_reply(b, ..)`. A late burst charges its wait to the bursts behind
/// it. `calib` is sampled after each sampled burst, while the daemon is
/// idle.
fn paced(
    d: &mut Daemon,
    units: usize,
    frames: impl Fn(usize) -> Vec<u8>,
    mut on_reply: impl FnMut(usize, &Reply, &mut Report),
    calib: &mut Calib,
    rep: &mut Report,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(2);
    let warmup = WARMUP.min(BURST_INTERVAL.mul_f64(units as f64 / 4.0));
    let mut done = Vec::with_capacity(units);
    let mut late_us = Vec::with_capacity(units);
    for b in 0..units {
        let bytes = frames(b);
        let due = start + BURST_INTERVAL.mul_f64(b as f64);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sampled = due >= start + warmup;
        if sampled {
            late_us.push(us(Instant::now().saturating_duration_since(due)));
        }
        if let Err(e) = d.client.send_raw(&bytes) {
            rep.fail(format!("sending: {e}"));
            break;
        }
        for got in 0..BURST {
            let Some(reply) = d.recv(rep) else {
                for _ in got..BURST {
                    rep.check(false, || "reply never arrived".to_owned());
                }
                return Phase {
                    done,
                    late_us,
                    units,
                };
            };
            on_reply(b, &reply, rep);
        }
        if sampled {
            let now = Instant::now();
            done.push((now, ms(now - due)));
            calib.sample();
        }
    }
    Phase {
        done,
        late_us,
        units,
    }
}

/// The untraced-then-traced phases of a run; returns their measurements
/// and the daemon counters across the traced phase.
fn run_phases(
    ctx: &Ctx,
    d: &mut Daemon,
    rep: &mut Report,
    mut phase: impl FnMut(&mut Daemon, Duration, &mut Report) -> Phase,
) -> (Vec<Phase>, ServeStats, ServeStats) {
    let mut out = Vec::new();
    let (mut before, mut after) = (ServeStats::default(), ServeStats::default());
    for (traced, dur) in ctx.phases() {
        if traced {
            absort_telemetry::reset();
            absort_telemetry::set_enabled(true);
            before = d.server.stats();
        }
        out.push(phase(d, dur, rep));
        if traced {
            absort_telemetry::set_enabled(false);
            after = d.server.stats();
        }
    }
    (out, before, after)
}

/// Due time to last reply, per burst of 256 sorts over all six keys.
pub fn run(ctx: &Ctx, rep: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed);
    let mut d = Daemon::start(&mut rng, rep)?;
    let keys: Vec<(NetKind, usize)> = WIDTHS
        .iter()
        .flat_map(|&n| NetKind::ALL.map(|net| (net, n)))
        .collect();
    let mut bursts: Vec<Vec<Item>> = (0..BURST_POOL)
        .map(|_| {
            let mut slots: Vec<(NetKind, usize)> =
                (0..BURST).map(|j| keys[j % keys.len()]).collect();
            rng.shuffle(&mut slots);
            slots
                .into_iter()
                .map(|(net, n)| Item::new(&mut rng, net, n))
                .collect()
        })
        .collect();
    bite_oracle(ctx, &mut bursts[0]);
    let setup = ctx.since_start();
    rep.set("setup_s", setup * Calib::setup_factor());
    if ctx.setup_only {
        d.stop(rep);
        return Ok(());
    }

    let mut next_id = 0u64;
    let mut calib = Calib::default();
    let (phases, before, after) = run_phases(ctx, &mut d, rep, |d, dur, rep| {
        let first = next_id;
        let units = (dur.as_secs_f64() / BURST_INTERVAL.as_secs_f64()).ceil() as usize;
        next_id += (units * BURST) as u64;
        let bursts = &bursts;
        let mut seen = vec![false; units * BURST];
        paced(
            d,
            units,
            |b| {
                bursts[b % BURST_POOL]
                    .iter()
                    .enumerate()
                    .flat_map(|(j, it)| {
                        proto::encode_request(&it.request(first + (b * BURST + j) as u64))
                    })
                    .collect()
            },
            |b, reply, rep| {
                let i = reply.req_id.wrapping_sub(first) as usize;
                if i / BURST != b || std::mem::replace(&mut seen[i], true) {
                    rep.fail(format!("burst {b} got a reply for req_id {}", reply.req_id));
                    return;
                }
                check_reply(rep, reply, &bursts[b % BURST_POOL][i % BURST]);
            },
            &mut calib,
            rep,
        )
    });
    let stats = d.stop(rep);

    let last = phases.last().expect("at least one phase");
    if !ctx.trace {
        let mut scaled = calib.scale(&last.done);
        rep.set("p50_ms", median(&mut scaled));
        rep.set("tail_ms", percentile(&mut scaled, TAIL));
        return Ok(());
    }
    let traced_p50_us = 1e3 * median(&mut last.latency_ms());
    serve_layers(rep, &phases[1], &before, &after, &stats);
    let replayed = replay_bursts(&bursts, rep, spans)?;
    let untraced_p50_us = 1e3 * median(&mut phases[0].latency_ms());
    rep.set_trace_shares(untraced_p50_us, traced_p50_us, replayed);
    Ok(())
}

/// Sets the daemon-side metrics of the traced phase.
fn serve_layers(
    rep: &mut Report,
    traced: &Phase,
    before: &ServeStats,
    after: &ServeStats,
    total: &ServeStats,
) {
    let snap = absort_telemetry::global().snapshot();
    let hist = snap
        .hists
        .iter()
        .find(|(name, _)| name == "serve.request_us")
        .map(|(_, h)| h.clone())
        .unwrap_or_default();
    rep.set("serve.server_p50_us", hist.quantile(0.5) as f64);
    rep.set("serve.server_p99_us", hist.quantile(0.99) as f64);
    let batches = (after.batches - before.batches) as f64;
    rep.set("serve.batches", batches / traced.units as f64);
    rep.set(
        "serve.batch_lanes_mean",
        (after.requests - before.requests) as f64 / batches.max(1.0),
    );
    rep.set("serve.failed", serve_failed(total) as f64);
    rep.set(
        "gen.late_p99_us",
        percentile(&mut traced.late_us.clone(), 99.0),
    );
}

/// Per-call sample vectors of the stage replay, in [`REPLAY_CALLS`] order.
type CallSamples = [Vec<f64>; REPLAY_CALLS.len()];

/// The stage replay of whole bursts through decode, cache, dispatch decode,
/// pack, run, unpack and encode, grouped per key like the server's batches,
/// with every output checked. Sets the median µs per burst and call;
/// returns their sum.
fn replay_bursts(bursts: &[Vec<Item>], rep: &mut Report, spans: &mut Spans) -> Result<f64, String> {
    let (cache, opts) = warm_cache();
    let mut samples: CallSamples = Default::default();
    for b in 0..REPLAY_BURSTS {
        let items = &bursts[b % bursts.len()];
        let frames: Vec<Vec<u8>> = items
            .iter()
            .enumerate()
            .map(|(j, it)| proto::encode_request(&it.request(j as u64)))
            .collect();
        let unit = spans.open();
        let t0 = Instant::now();
        let mut reqs = Vec::with_capacity(BURST);
        for f in &frames {
            reqs.push(
                proto::decode_request(&f[4..], proto::DEFAULT_MAX_N).map_err(|e| e.to_string())?,
            );
        }
        let mut calls = [Duration::ZERO; REPLAY_CALLS.len()];
        let t1 = Instant::now();
        calls[0] = t1 - t0;
        spans.leaf(unit, REPLAY_CALLS[0], t0, t1);
        let mut groups: BTreeMap<(u8, u32), Vec<usize>> = BTreeMap::new();
        for (j, r) in reqs.iter().enumerate() {
            groups.entry((r.network as u8, r.n)).or_default().push(j);
        }
        let mut replies = Vec::with_capacity(BURST);
        for members in groups.values() {
            let first = &reqs[members[0]];
            let n = first.n as usize;
            let mut t = vec![Instant::now()];
            let compiled = cache.get_or_build(key(first.network, n), &opts);
            t.push(Instant::now());
            let mut ev = CompiledEvaluator::<[u64; 4]>::new(&compiled.tape);
            t.push(Instant::now());
            let vectors: Vec<Vec<bool>> = members.iter().map(|&j| reqs[j].bits.clone()).collect();
            let packed = pack_lanes_wide::<4>(&vectors, n);
            t.push(Instant::now());
            let out = ev.try_run(&packed).map_err(|e| format!("{e:?}"))?;
            t.push(Instant::now());
            let outs = unpack_lanes_wide::<4>(&out, vectors.len());
            t.push(Instant::now());
            for (k, w) in t.windows(2).enumerate() {
                calls[k + 1] += w[1] - w[0];
                spans.leaf(unit, REPLAY_CALLS[k + 1], w[0], w[1]);
            }
            for (&j, out) in members.iter().zip(outs) {
                replies.push((
                    j,
                    Reply {
                        status: Status::Ok,
                        req_id: reqs[j].req_id,
                        n: reqs[j].n,
                        payload: ReplyPayload::Bits(out),
                    },
                ));
            }
        }
        let t_enc = Instant::now();
        for (_, reply) in &replies {
            std::hint::black_box(proto::encode_reply(reply));
        }
        let end = Instant::now();
        calls[REPLAY_CALLS.len() - 1] = end - t_enc;
        spans.leaf(unit, REPLAY_CALLS[REPLAY_CALLS.len() - 1], t_enc, end);
        for (j, reply) in &replies {
            check_reply(rep, reply, &items[*j]);
        }
        rep.check(replies.len() == BURST, || {
            format!("burst replay answered {} of {BURST}", replies.len())
        });
        for (k, d) in calls.iter().enumerate() {
            samples[k].push(us(*d));
        }
        spans.close(unit, 0, "replay/burst256", t0, end);
    }
    Ok(set_replay(rep, samples))
}

fn key(network: NetKind, n: usize) -> CacheKey {
    CacheKey {
        network,
        n: n as u32,
        opt: ServeConfig::default().opt,
    }
}

/// A replay cache holding every served key, compiled the way the daemon
/// compiles them.
fn warm_cache() -> (CircuitCache, CompileOptions) {
    let opts = CompileOptions::for_level(ServeConfig::default().opt);
    let cache = CircuitCache::new(ServeConfig::default().cache_capacity);
    for n in WIDTHS {
        for net in NetKind::ALL {
            cache.get_or_build(key(net, n), &opts);
        }
    }
    (cache, opts)
}

/// Sets the median µs per burst of each call; returns their sum.
fn set_replay(rep: &mut Report, mut samples: CallSamples) -> f64 {
    let mut sum = 0.0;
    for (call, s) in REPLAY_CALLS.iter().zip(samples.iter_mut()) {
        let m = median(s);
        sum += m;
        rep.set(&format!("{call}.burst256"), m);
    }
    sum
}
