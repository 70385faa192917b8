//! End-to-end robustness suite: a real daemon on a loopback port,
//! exercised by well-behaved clients, overload floods, malformed frames,
//! slow-loris stalls, dropped connections, and forced worker panics.
//!
//! Every `Ok` sort reply in this file is differentially checked against
//! the zero-one oracle, so any cross-request corruption (a reply carrying
//! another request's lanes) fails loudly.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use absort_serve::proto::{self, NetKind, ReplyPayload, Request, Status};
use absort_serve::{sorted_oracle, Client, ServeConfig, Server};
use rand::prelude::*;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        read_poll: Duration::from_millis(5),
        midframe_stall: Duration::from_millis(250),
        write_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

fn connect(server: &Server) -> Client {
    Client::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect")
}

fn random_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen::<bool>()).collect()
}

/// Asserts an `Ok` sort reply against the oracle for its input.
fn assert_sorted(input: &[bool], reply: &absort_serve::Reply) {
    assert_eq!(reply.status, Status::Ok, "reply: {reply:?}");
    match &reply.payload {
        ReplyPayload::Bits(out) => assert_eq!(out, &sorted_oracle(input)),
        other => panic!("expected bits payload, got {other:?}"),
    }
}

#[test]
fn sorts_pings_and_permutes() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(1);

    // Ping.
    let rep = client.call(&Request::ping(1)).unwrap();
    assert_eq!(rep.status, Status::Ok);
    assert_eq!(rep.req_id, 1);

    // Sorts across all three networks and several widths.
    let mut id = 10;
    for network in NetKind::ALL {
        for n in [2usize, 16, 64, 256] {
            let bits = random_bits(&mut rng, n);
            let rep = client.call(&Request::sort(network, id, &bits)).unwrap();
            assert_eq!(rep.req_id, id);
            assert_sorted(&bits, &rep);
            id += 1;
        }
    }

    // Permute: a reversal through both adaptive sorters.
    for network in [NetKind::Prefix, NetKind::MuxMerger] {
        let n = 16u16;
        let perm: Vec<u16> = (0..n).rev().collect();
        let rep = client.call(&Request::permute(network, id, &perm)).unwrap();
        assert_eq!(rep.status, Status::Ok);
        match &rep.payload {
            // Output d carries the source whose destination was d.
            ReplyPayload::Perm(out) => {
                let expect: Vec<u16> = (0..n).rev().collect();
                assert_eq!(out, &expect);
            }
            other => panic!("expected perm payload, got {other:?}"),
        }
        id += 1;
    }

    // Permute on the nonadaptive network is a typed Unsupported.
    let rep = client
        .call(&Request::permute(NetKind::Nonadaptive, id, &[1, 0]))
        .unwrap();
    assert_eq!(rep.status, Status::Unsupported);

    // Duplicate destinations pass decode (each in range) but fail
    // routing with a typed Malformed, not a panic.
    let rep = client
        .call(&Request::permute(NetKind::MuxMerger, id + 1, &[1, 1, 0, 0]))
        .unwrap();
    assert_eq!(rep.status, Status::Malformed);

    let stats = server.join();
    assert_eq!(stats.internal_errors, 0);
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn pipelined_batches_have_no_cross_request_corruption() {
    let mut cfg = test_config();
    cfg.workers = 1; // maximize coalescing into wide batches
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(7);

    let n = 64;
    let inputs: Vec<Vec<bool>> = (0..300).map(|_| random_bits(&mut rng, n)).collect();
    for (i, bits) in inputs.iter().enumerate() {
        client
            .send(&Request::sort(NetKind::MuxMerger, i as u64, bits))
            .unwrap();
    }
    for (i, bits) in inputs.iter().enumerate() {
        let rep = client.recv().unwrap();
        // Replies on one connection come back in request order; the
        // req_id echo plus the oracle check rules out lane swaps.
        assert_eq!(rep.req_id, i as u64);
        assert_sorted(bits, &rep);
    }
    let stats = server.join();
    assert_eq!(stats.replies_ok, 300);
    assert!(stats.batches > 0);
}

#[test]
fn overload_sheds_with_typed_replies_and_answers_everything() {
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    cfg.batch_max = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(13);

    // Flood well past 2× of what a single batch=1 worker can absorb.
    let n = 256;
    let total = 400;
    let inputs: Vec<Vec<bool>> = (0..total).map(|_| random_bits(&mut rng, n)).collect();
    for (i, bits) in inputs.iter().enumerate() {
        client
            .send(&Request::sort(NetKind::MuxMerger, i as u64, bits))
            .unwrap();
    }
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..total {
        let rep = client.recv().unwrap();
        match rep.status {
            Status::Ok => {
                let bits = &inputs[rep.req_id as usize];
                assert_sorted(bits, &rep);
                ok += 1;
            }
            Status::Overloaded => {
                // Typed shed: empty payload, id echoed.
                assert_eq!(rep.payload, ReplyPayload::Empty);
                overloaded += 1;
            }
            other => panic!("unexpected status under overload: {other:?}"),
        }
    }
    assert_eq!(
        ok + overloaded,
        total as u64,
        "every request answered exactly once"
    );
    assert!(
        overloaded > 0,
        "a queue of 2 must shed under a 400-request flood"
    );
    let stats = server.join();
    assert_eq!(stats.shed, overloaded);
    assert_eq!(stats.replies_ok, ok);
}

#[test]
fn malformed_frames_get_typed_rejection_and_connection_lives() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);

    let good = proto::encode_request(&Request::sort(NetKind::Prefix, 5, &[true; 8]));

    // Corpus of body-level damage: each gets a Malformed reply and the
    // SAME connection keeps working afterwards.
    let mut bad_version = good.clone();
    bad_version[5] = 0x42; // version byte (after the 4-byte prefix)

    let mut zero_n = good.clone();
    zero_n[20..24].copy_from_slice(&0u32.to_le_bytes());

    let mut big_n = good.clone();
    big_n[20..24].copy_from_slice(&(proto::DEFAULT_MAX_N * 4).to_le_bytes());

    // Truncated header: a frame whose body is shorter than the header.
    let mut short = proto::frame(vec![0u8; 5]);
    short[4] = proto::MAGIC_REQUEST;

    // Pure garbage with a valid length prefix.
    let garbage = proto::frame(vec![0xEE; 40]);

    for (name, frame) in [
        ("bad version", &bad_version),
        ("zero n", &zero_n),
        ("n too large", &big_n),
        ("truncated header", &short),
        ("garbage", &garbage),
    ] {
        client.send_raw(frame).unwrap();
        let rep = client.recv().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rep.status, Status::Malformed, "{name}");
        match &rep.payload {
            ReplyPayload::Message(m) => assert!(!m.is_empty(), "{name}: empty diagnostic"),
            other => panic!("{name}: expected message payload, got {other:?}"),
        }
        // Still-live connection: a valid request round-trips after the
        // rejection.
        let bits = [true, false, false, true, true, false, true, false];
        let rep = client
            .call(&Request::sort(NetKind::Prefix, 99, &bits))
            .unwrap();
        assert_sorted(&bits, &rep);
    }

    // Length-prefix overflow is framing damage: this connection closes
    // (best-effort Malformed first), but the daemon keeps serving new
    // connections.
    client
        .send_raw(&(proto::MAX_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    let rep = client.recv().expect("best-effort malformed before close");
    assert_eq!(rep.status, Status::Malformed);
    assert!(client.recv().is_err(), "poisoned connection must close");

    let mut fresh = connect(&server);
    let bits = [false, true, true, false];
    let rep = fresh
        .call(&Request::sort(NetKind::MuxMerger, 1, &bits))
        .unwrap();
    assert_sorted(&bits, &rep);

    let stats = server.join();
    assert!(stats.malformed >= 6, "stats: {stats:?}");
}

#[test]
fn slow_loris_is_cut_and_daemon_survives() {
    let mut cfg = test_config();
    cfg.midframe_stall = Duration::from_millis(100);
    let server = Server::start(cfg).unwrap();

    // Open a connection, dribble half a length prefix, then stall.
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris.write_all(&[0x10, 0x00]).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    // The server must cut us off rather than hold the reader forever.
    let closed = matches!(loris.read(&mut buf), Ok(0) | Err(_));
    assert!(closed, "slow-loris connection should be closed");

    // Well-behaved clients are unaffected.
    let mut client = connect(&server);
    let bits = [true, true, false, false, true, false, false, false];
    let rep = client
        .call(&Request::sort(NetKind::Prefix, 3, &bits))
        .unwrap();
    assert_sorted(&bits, &rep);

    let stats = server.join();
    assert!(stats.slow_loris_closed >= 1, "stats: {stats:?}");
}

#[test]
fn abrupt_connection_drops_do_not_hurt_others() {
    let server = Server::start(test_config()).unwrap();
    let mut rng = StdRng::seed_from_u64(23);

    // A wave of clients that send work and vanish without reading.
    for i in 0..10 {
        let mut c = connect(&server);
        let bits = random_bits(&mut rng, 64);
        c.send(&Request::sort(NetKind::MuxMerger, i, &bits))
            .unwrap();
        drop(c); // RST/close with the reply still in flight
    }

    // A polite client still gets correct service afterwards.
    let mut client = connect(&server);
    for i in 0..20 {
        let bits = random_bits(&mut rng, 64);
        let rep = client
            .call(&Request::sort(NetKind::MuxMerger, 100 + i, &bits))
            .unwrap();
        assert_sorted(&bits, &rep);
    }
    let stats = server.join();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn chaos_panic_degrades_to_solo_retry_without_collateral() {
    let mut cfg = test_config();
    cfg.workers = 1; // force the chaos job to share a batch with others
    cfg.chaos = true;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(31);

    // Pipeline normal sorts around a chaos request so they coalesce into
    // the same wide batch; the forced panic must not corrupt or fail any
    // batch-mate. The n = 1024 prefix case makes the solo-retry rung
    // rebuild the largest served netlist.
    for (network, n, count) in [(NetKind::MuxMerger, 64, 50), (NetKind::Prefix, 1024, 20)] {
        let before = server.stats();
        let inputs: Vec<Vec<bool>> = (0..count).map(|_| random_bits(&mut rng, n)).collect();
        for (i, bits) in inputs.iter().enumerate() {
            let mut req = Request::sort(network, i as u64, bits);
            if i == count / 2 {
                req.kind = absort_serve::RequestKind::ChaosPanic;
            }
            client.send(&req).unwrap();
        }
        for (i, bits) in inputs.iter().enumerate() {
            let rep = client.recv().unwrap();
            assert_eq!(rep.req_id, i as u64);
            // Everyone — including the chaos request itself — still gets
            // the correct sorted answer via the scalar solo retry.
            assert_sorted(bits, &rep);
        }
        let after = server.stats();
        assert!(
            after.solo_retries > before.solo_retries,
            "{network} n={n}: {after:?}"
        );
    }

    let stats = server.join();
    assert!(stats.panics_isolated >= 1, "stats: {stats:?}");
    assert!(stats.solo_retries >= 1, "stats: {stats:?}");
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn chaos_requests_without_chaos_mode_are_unsupported() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);
    let mut req = Request::sort(NetKind::Prefix, 8, &[true; 8]);
    req.kind = absort_serve::RequestKind::ChaosPanic;
    let rep = client.call(&req).unwrap();
    assert_eq!(rep.status, Status::Unsupported);
    let stats = server.join();
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn deadlines_are_enforced_while_worker_is_busy() {
    let mut cfg = test_config();
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);

    // Request A compiles a big circuit (no deadline); B and C carry a
    // 1 ms deadline and the same width, so whichever side of the compile
    // they land on (dequeue or mid-batch admission) they are expired by
    // the time the single worker can evaluate them.
    let n = 2048;
    let bits_a = vec![true; n];
    client
        .send(&Request::sort(NetKind::MuxMerger, 1, &bits_a))
        .unwrap();
    let bits_bc = vec![false; n];
    client
        .send(&Request::sort(NetKind::MuxMerger, 2, &bits_bc).with_deadline_ms(1))
        .unwrap();
    client
        .send(&Request::sort(NetKind::MuxMerger, 3, &bits_bc).with_deadline_ms(1))
        .unwrap();

    // Reply order depends on whether B/C shared A's batch (admission
    // check) or followed it (dequeue check) — match by id, not order.
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..3 {
        let rep = client.recv().unwrap();
        by_id.insert(rep.req_id, rep);
    }
    assert_sorted(&bits_a, &by_id[&1]);
    assert_eq!(
        by_id[&2].status,
        Status::DeadlineExceeded,
        "reply: {:?}",
        by_id[&2]
    );
    assert_eq!(
        by_id[&3].status,
        Status::DeadlineExceeded,
        "reply: {:?}",
        by_id[&3]
    );

    // Generous deadlines are met.
    let bits = vec![true; 16];
    let rep = client
        .call(&Request::sort(NetKind::MuxMerger, 4, &[true; 16]).with_deadline_ms(60_000))
        .unwrap();
    assert_sorted(&bits, &rep);

    let stats = server.join();
    assert_eq!(stats.deadline_missed, 2);
}

#[test]
fn graceful_drain_answers_all_accepted_requests() {
    let mut cfg = test_config();
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(41);

    let total = 50;
    let inputs: Vec<Vec<bool>> = (0..total).map(|_| random_bits(&mut rng, 128)).collect();
    for (i, bits) in inputs.iter().enumerate() {
        client
            .send(&Request::sort(NetKind::MuxMerger, i as u64, bits))
            .unwrap();
    }
    // Drain while the flood is still queued.
    server.trigger_drain();

    let mut answered = 0usize;
    for _ in 0..total {
        match client.recv() {
            Ok(rep) => {
                match rep.status {
                    Status::Ok => assert_sorted(&inputs[rep.req_id as usize], &rep),
                    // A request can race the worker shutdown and be
                    // redirected — but it must still be *answered*.
                    Status::Overloaded => {}
                    other => panic!("unexpected drain status {other:?}"),
                }
                answered += 1;
            }
            Err(e) => panic!("connection died before all replies arrived: {e}"),
        }
    }
    assert_eq!(answered, total);

    let stats = server.join();
    assert_eq!(stats.answered(), total as u64, "stats: {stats:?}");
}

#[test]
fn many_connections_interleave_without_corruption() {
    let mut cfg = test_config();
    cfg.workers = 2;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                for i in 0..60 {
                    let n = [16usize, 64, 256][rng.gen_range(0..3)];
                    let bits: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
                    let id = t * 1000 + i;
                    let rep = client
                        .call(&Request::sort(NetKind::MuxMerger, id, &bits))
                        .unwrap();
                    assert_eq!(rep.req_id, id);
                    match &rep.payload {
                        ReplyPayload::Bits(out) => assert_eq!(out, &sorted_oracle(&bits)),
                        other => panic!("bad payload {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.join();
    assert_eq!(stats.replies_ok, 8 * 60);
    assert_eq!(stats.internal_errors, 0);
}

/// Sort requests cycling over every key of `NetKind::ALL` × `widths`,
/// `count` of them with ids from `first` (an id of 0 would collide with
/// the unknown id of a framing rejection); returns the frames back to
/// back and each request's id and input.
fn sort_frames(
    rng: &mut StdRng,
    widths: &[usize],
    first: u64,
    count: usize,
) -> (Vec<u8>, Vec<(u64, Vec<bool>)>) {
    let keys: Vec<(NetKind, usize)> = widths
        .iter()
        .flat_map(|&n| NetKind::ALL.map(|net| (net, n)))
        .collect();
    let mut bytes = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..count {
        let (network, n) = keys[i % keys.len()];
        let id = first + i as u64;
        let bits = random_bits(rng, n);
        bytes.extend(proto::encode_request(&Request::sort(network, id, &bits)));
        inputs.push((id, bits));
    }
    (bytes, inputs)
}

/// Receives replies until the server closes the connection; fails if it
/// stays open for 5 s.
fn recv_until_close(client: &mut Client) -> Vec<absort_serve::Reply> {
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut replies = Vec::new();
    loop {
        match client.recv() {
            Ok(rep) => replies.push(rep),
            Err(absort_serve::ClientError::Closed) => return replies,
            Err(e) => panic!("expected a close after {} replies, got {e}", replies.len()),
        }
    }
}

/// Checks that `replies` answer every input of `inputs` with its sorted
/// bits, exactly once; returns the replies left over.
fn take_sorted(
    replies: Vec<absort_serve::Reply>,
    inputs: &[(u64, Vec<bool>)],
) -> Vec<absort_serve::Reply> {
    let mut by_id: std::collections::HashMap<u64, &[bool]> =
        inputs.iter().map(|(id, bits)| (*id, &bits[..])).collect();
    let mut rest = Vec::new();
    for rep in replies {
        match by_id.remove(&rep.req_id) {
            Some(bits) => assert_sorted(bits, &rep),
            None => rest.push(rep),
        }
    }
    assert!(by_id.is_empty(), "unanswered ids: {:?}", by_id.keys());
    rest
}

/// A `Malformed` reply's diagnostic.
fn malformed_message(rep: &absort_serve::Reply) -> &str {
    assert_eq!(rep.status, Status::Malformed, "{rep:?}");
    match &rep.payload {
        ReplyPayload::Message(m) => m,
        other => panic!("expected a message payload, got {other:?}"),
    }
}

#[test]
fn one_write_of_many_frames_is_served_frame_by_frame() {
    let mut cfg = test_config();
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(51);

    // 256 sorts over every served key, a malformed body in the middle.
    let (head, mut inputs) = sort_frames(&mut rng, &[2, 8, 64, 1024], 0, 128);
    let (tail, more) = sort_frames(&mut rng, &[2, 8, 64, 1024], 1000, 128);
    inputs.extend(more);
    let mut bad = proto::encode_request(&Request::sort(NetKind::Prefix, 777, &[true; 16]));
    bad[5] = 0x42; // the version byte
    let bytes = [head, bad, tail].concat();
    client.send_raw(&bytes).unwrap();

    let replies: Vec<_> = (0..inputs.len() + 1)
        .map(|_| client.recv().unwrap())
        .collect();
    let rest = take_sorted(replies, &inputs);
    assert_eq!(rest.len(), 1, "{rest:?}");
    assert_eq!(rest[0].req_id, 777, "the salvaged id");
    assert!(malformed_message(&rest[0]).contains("version"), "{rest:?}");

    // The connection is still usable.
    let bits = random_bits(&mut rng, 64);
    let rep = client
        .call(&Request::sort(NetKind::MuxMerger, 5000, &bits))
        .unwrap();
    assert_sorted(&bits, &rep);
    let stats = server.join();
    assert_eq!(stats.malformed, 1, "{stats:?}");
    assert_eq!(stats.replies_ok, 257, "{stats:?}");
}

#[test]
fn a_frame_dribbled_byte_by_byte_is_served() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(52);
    let bits = random_bits(&mut rng, 64);
    let frame = proto::encode_request(&Request::sort(NetKind::Prefix, 9, &bits));
    // 32 bytes 2 ms apart: well inside the 250 ms stall budget.
    for byte in &frame {
        client.send_raw(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let rep = client.recv().unwrap();
    assert_eq!(rep.req_id, 9);
    assert_sorted(&bits, &rep);
    let stats = server.join();
    assert_eq!(stats.slow_loris_closed, 0, "{stats:?}");
}

#[test]
fn frames_before_an_oversized_prefix_are_answered_before_the_close() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(53);
    let (frames, inputs) = sort_frames(&mut rng, &[16, 64], 1, 12);
    let oversized = (proto::MAX_FRAME as u32 + 1).to_le_bytes();
    client
        .send_raw(&[&frames[..], &oversized].concat())
        .unwrap();

    let rest = take_sorted(recv_until_close(&mut client), &inputs);
    assert_eq!(rest.len(), 1, "{rest:?}");
    assert!(
        malformed_message(&rest[0]).contains("oversized"),
        "{rest:?}"
    );
    let stats = server.join();
    assert_eq!(stats.malformed, 1, "{stats:?}");
}

#[test]
fn frames_before_a_truncated_frame_are_answered_before_the_close() {
    let server = Server::start(test_config()).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(54);
    let (frames, inputs) = sort_frames(&mut rng, &[16, 64], 1, 12);
    let cut = proto::encode_request(&Request::sort(NetKind::Prefix, 99, &[true; 64]));
    client
        .send_raw(&[&frames[..], &cut[..10]].concat())
        .unwrap();
    client.stream().shutdown(std::net::Shutdown::Write).unwrap();

    let rest = take_sorted(recv_until_close(&mut client), &inputs);
    assert_eq!(rest.len(), 1, "{rest:?}");
    assert_eq!(
        malformed_message(&rest[0]),
        format!("truncated frame: needed {} bytes, got 10", cut.len())
    );
    let stats = server.join();
    assert_eq!(stats.malformed, 1, "{stats:?}");
}

#[test]
fn frames_before_a_stalled_partial_frame_are_answered_before_the_cut() {
    let mut cfg = test_config();
    cfg.midframe_stall = Duration::from_millis(100);
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(55);
    let (frames, inputs) = sort_frames(&mut rng, &[16, 64], 1, 12);
    let stalled = proto::encode_request(&Request::sort(NetKind::Prefix, 99, &[true; 64]));
    client
        .send_raw(&[&frames[..], &stalled[..10]].concat())
        .unwrap();

    // The slow-loris cut sends nothing: every reply answers a sort.
    let rest = take_sorted(recv_until_close(&mut client), &inputs);
    assert!(rest.is_empty(), "{rest:?}");
    let stats = server.join();
    assert_eq!(stats.slow_loris_closed, 1, "{stats:?}");
}
