//! Integration of the event-loop connection plane, over real loopback
//! TCP (that its replies are identical to sequential execution is
//! checked in `tests/integration_batch.rs`):
//!
//! * **idle timeout**: `idle_timeout` reaps connections that stay
//!   quiet past the deadline (counted in `idle_closed`) while active
//!   connections on the same loop keep serving;
//! * **drain**: a shutdown under live write load completes promptly
//!   and never loses an acknowledged write;
//! * **group commit**: bursts from different connections share shard
//!   sweeps.

use dego_server::{spawn, Client, MiddlewareConfig, ServerConfig};
use std::time::{Duration, Instant};

mod common;
use common::shards;

/// `--idle-timeout-ms`: a connection quiet past the deadline with
/// nothing in flight is reaped (and counted), while a chatty
/// connection sharing the plane keeps serving.
#[test]
fn idle_timeout_reaps_quiet_connections() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .expect("server boots");

    let mut idle = Client::connect(server.local_addr()).expect("connect");
    let mut active = Client::connect(server.local_addr()).expect("connect");
    idle.ping().expect("idle client serves before going quiet");
    active.ping().expect("active client serves");

    // Stay quiet well past the deadline; the active client keeps the
    // clock honest by talking the whole time.
    let parked = Instant::now();
    while parked.elapsed() < Duration::from_millis(400) {
        active
            .ping()
            .expect("active connection must survive the sweep");
        std::thread::sleep(Duration::from_millis(20));
    }

    assert!(
        idle.ping().is_err(),
        "the idle connection must have been closed by the sweep"
    );
    assert!(
        server.stats().idle_closed >= 1,
        "the reap must be counted in idle_closed"
    );
    // Reconnecting after a reap works — the slot is gone, not poisoned.
    let mut again = Client::connect(server.local_addr()).expect("reconnect");
    again.ping().expect("fresh connection serves");
    server.shutdown();
}

/// Idle timeout off (the default): a quiet connection lives
/// indefinitely.
#[test]
fn no_idle_timeout_means_no_reaping() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 512,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.ping().expect("serves");
    std::thread::sleep(Duration::from_millis(300));
    c.ping().expect("still serving after a long quiet spell");
    assert_eq!(server.stats().idle_closed, 0);
    server.shutdown();
}

/// Drain under live write load: shutdown
/// completes promptly (deferred acks are still collected, in-flight
/// bursts finish) and every write acknowledged before the cut reads
/// back consistently.
#[test]
fn event_loop_drain_under_load_keeps_acked_writes() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        middleware: MiddlewareConfig::full(),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        let mut pairs = 0u64;
        loop {
            let key = format!("evdrain{pairs}");
            if c.set(&key, "v").is_err() {
                break; // Connection cut before the ack: write unacked.
            }
            match c.get(&key) {
                Ok(got) => assert_eq!(
                    got.as_deref(),
                    Some("v"),
                    "acked write {key} must be readable"
                ),
                Err(_) => break, // Cut between ack and read-back.
            }
            pairs += 1;
        }
        pairs
    });

    std::thread::sleep(Duration::from_millis(100));
    assert!(server.ready(), "serving before the drain");
    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "drain must not wait out a chatty client"
    );
    let pairs = worker.join().expect("worker");
    assert!(pairs > 0, "the worker made progress before the drain");
}

/// Cross-connection group commit: several connections flooding
/// pipelined writes at a slow shard plane (1 ms per apply, so the
/// queues actually build) produce far fewer shard batches than
/// mutations — bursts from different connections coalesce into shared
/// shard sweeps (and all of it stays correct: every ack reads back).
#[test]
fn concurrent_bursts_share_shard_sweeps() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 4096,
        shard_delay: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();
    const WRITERS: usize = 4;
    const BURSTS: usize = 5;
    const BURST: usize = 32;

    let workers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for b in 0..BURSTS {
                    let lines: Vec<String> =
                        (0..BURST).map(|i| format!("SET w{w}b{b}i{i} v")).collect();
                    for reply in c.pipeline(&lines).expect("burst") {
                        assert!(
                            matches!(reply, dego_server::ClientReply::Status(_)),
                            "got {reply:?}"
                        );
                    }
                }
                c.get(&format!("w{w}b0i0", w = w)).expect("read back")
            })
        })
        .collect();
    for worker in workers {
        assert_eq!(
            worker.join().expect("writer").as_deref(),
            Some("v"),
            "acked writes read back"
        );
    }

    let snap = server.stats();
    let writes = (WRITERS * BURSTS * BURST) as u64;
    assert_eq!(snap.applied, writes, "every write applied exactly once");
    assert!(
        snap.shard_batches < writes / 4,
        "group commit must amortize: {} batches for {} writes",
        snap.shard_batches,
        writes
    );
    server.shutdown();
}
