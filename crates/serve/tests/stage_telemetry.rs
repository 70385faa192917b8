//! The daemon's per-stage histograms: one sample per frame decoded, per
//! job dequeued, and per key group evaluated and written.
//!
//! Telemetry state is process-global, so this test has a binary of its
//! own.

use std::time::Duration;

use absort_serve::proto::{NetKind, Request};
use absort_serve::{sorted_oracle, Client, ReplyPayload, ServeConfig, Server, Status};

#[test]
fn every_stage_histogram_counts_its_unit() {
    absort_telemetry::reset();
    absort_telemetry::set_enabled(true);
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client =
        Client::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect");

    // One request in flight at a time: each is a batch of one group.
    let calls = 6u64;
    for id in 0..calls {
        let network = NetKind::ALL[id as usize % NetKind::ALL.len()];
        let bits: Vec<bool> = (0..16).map(|i| (id >> (i % 4)) & 1 == 1).collect();
        let rep = client.call(&Request::sort(network, id, &bits)).unwrap();
        assert_eq!(rep.status, Status::Ok, "{rep:?}");
        assert_eq!(rep.payload, ReplyPayload::Bits(sorted_oracle(&bits)));
    }
    drop(client);
    // Joining the worker waits out the samples it records after a reply
    // is enqueued.
    let stats = server.join();
    absort_telemetry::set_enabled(false);
    assert_eq!(stats.batches, calls, "{stats:?}");

    let snap = absort_telemetry::global().snapshot();
    let count = |name: &str| {
        snap.hists
            .iter()
            .find(|(h, _)| h == name)
            .map_or(0, |(_, h)| h.count())
    };
    for name in [
        "serve.stage.decode_ns",
        "serve.stage.queue_ns",
        "serve.stage.eval_ns",
        "serve.stage.write_ns",
        "serve.request_us",
        "serve.batch_lanes",
    ] {
        assert_eq!(count(name), calls, "{name}");
    }
}
