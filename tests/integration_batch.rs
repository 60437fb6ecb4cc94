//! Integration of the batched execution path and the server-plane
//! robustness fixes, over real loopback TCP:
//!
//! * **batch ≡ sequential**: randomized pipelined scripts (kv + social
//!   verbs + parse errors) produce byte-identical reply streams on a
//!   batching server and a `batch: false` server, with and without the
//!   full middleware stack;
//! * **accept backoff**: injected `accept()` failures (fd pressure)
//!   are counted in `STATS` and back off instead of busy-spinning;
//! * **fan-out deadline**: a stuck shard costs a `POST` one overall
//!   ack deadline, not one per follower, and the poisoned session
//!   closes instead of draining stale acks;
//! * **blank lines**: keepalive newlines burn no stats and no
//!   rate-limit tokens.

use dego_metrics::rng::XorShift64;
use dego_server::{
    spawn, AcceptHook, Client, MiddlewareConfig, Role, ServerConfig, ServerHandle, TokenSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::shards;

fn boot(batch: bool, middleware: MiddlewareConfig) -> ServerHandle {
    spawn(ServerConfig {
        shards: shards(4),
        capacity: 4096,
        batch,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// A deterministic pseudo-random script over kv and social verbs (no
/// `STATS` — its counters legitimately differ between the two paths).
fn random_script(seed: u64, len: usize) -> Vec<String> {
    let mut rng = XorShift64::new(seed);
    let mut script = Vec::with_capacity(len);
    for i in 0..len {
        let key = rng.next_bounded(6);
        let user = rng.next_bounded(5);
        let line = match rng.next_bounded(16) {
            0..=3 => format!("GET k{key}"),
            4..=5 => format!("SET k{key} v{i}"),
            6 => format!("DEL k{key}"),
            7 => format!("INCR c{key} {}", rng.next_bounded(9) as i64 - 4),
            8 => format!("ADDUSER {user}"),
            9 => format!("FOLLOW {} {user}", rng.next_bounded(5)),
            10 => format!("UNFOLLOW {} {user}", rng.next_bounded(5)),
            11 => format!("POST {user} {i}"),
            12 => format!("TIMELINE {user}"),
            13 => format!("ISFOLLOWING {} {user}", rng.next_bounded(5)),
            14 => match rng.next_bounded(4) {
                0 => format!("JOIN {user}"),
                1 => format!("LEAVE {user}"),
                2 => format!("INGROUP {user}"),
                _ => format!("PROFILE {user}"),
            },
            _ => match rng.next_bounded(3) {
                0 => "PING".to_string(),
                1 => format!("FOLLOWERS {user}"),
                // Parse errors must keep their positional slot.
                _ => format!("BLORP {i}"),
            },
        };
        script.push(line);
    }
    script
}

/// Drive `script` through `client` in pipelined bursts of pseudo-random
/// sizes, returning the raw reply stream.
fn drive(client: &mut Client, script: &[String], seed: u64) -> Vec<dego_server::ClientReply> {
    let mut rng = XorShift64::new(seed);
    let mut replies = Vec::with_capacity(script.len());
    let mut at = 0;
    while at < script.len() {
        let burst = (1 + rng.next_bounded(48) as usize).min(script.len() - at);
        replies.extend(
            client
                .pipeline(&script[at..at + burst])
                .expect("pipelined burst"),
        );
        at += burst;
    }
    replies
}

/// The tentpole equivalence guarantee: a pipelined burst through
/// `call_batch` produces byte-identical replies, in order, to the same
/// commands executed one at a time.
#[test]
fn batched_replies_match_sequential_plain() {
    let batched = boot(true, MiddlewareConfig::none());
    let unbatched = boot(false, MiddlewareConfig::none());
    for seed in [0x5eed1, 0x5eed2, 0x5eed3] {
        let script = random_script(seed, 400);
        let mut a = Client::connect(batched.local_addr()).expect("connect");
        let mut b = Client::connect(unbatched.local_addr()).expect("connect");
        let got_a = drive(&mut a, &script, seed ^ 0xff);
        let got_b = drive(&mut b, &script, seed ^ 0xff);
        assert_eq!(got_a, got_b, "reply streams diverged for seed {seed:#x}");
    }
    batched.shutdown();
    unbatched.shutdown();
}

/// The same equivalence through the full seven-layer stack (generous
/// limits, so no timing-dependent rejection can fire).
#[test]
fn batched_replies_match_sequential_full_stack() {
    let stack = || {
        let mut mw = MiddlewareConfig::full();
        mw.auth.tokens = vec![TokenSpec {
            name: "writer".into(),
            token: "sekrit".into(),
            role: Role::ReadWrite,
        }];
        mw.auth.anon_role = Role::ReadWrite;
        mw.deadline.read_us = 30_000_000;
        mw.deadline.write_us = 30_000_000;
        mw
    };
    let batched = boot(true, stack());
    let unbatched = boot(false, stack());
    // Logins and far-future timers sprinkled through the script make
    // bursts take the admission driver's sequential split, over the
    // event loop's deferring dispatch.
    let mut script = random_script(0xbee5, 400);
    for at in (20..script.len()).step_by(37).rev() {
        script.insert(at, format!("EXPIRE k{} 600000", at % 6));
        script.insert(at - 9, "AUTH sekrit".to_string());
    }
    let mut a = Client::connect(batched.local_addr()).expect("connect");
    let mut b = Client::connect(unbatched.local_addr()).expect("connect");
    a.auth("sekrit").expect("login");
    b.auth("sekrit").expect("login");
    let got_a = drive(&mut a, &script, 7);
    let got_b = drive(&mut b, &script, 7);
    assert_eq!(got_a, got_b, "full-stack reply streams diverged");
    batched.shutdown();
    unbatched.shutdown();
}

/// Regression (fd pressure): persistent `accept()` failures must count
/// into `accept_errors` and back off — the loop used to busy-spin at
/// 100% CPU on `Err(_) => continue`.
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    let injected = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let hook = {
        let injected = Arc::clone(&injected);
        AcceptHook(Arc::new(move || {
            // EMFILE-style pressure for the first 250 ms, then healthy.
            if started.elapsed() < Duration::from_millis(250) {
                injected.fetch_add(1, Ordering::Relaxed);
                Some(std::io::Error::other("injected EMFILE"))
            } else {
                None
            }
        }))
    };
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        accept_hook: Some(hook),
        ..ServerConfig::default()
    })
    .expect("server boots");
    // Wait out the pressure window, then the listener must serve again.
    std::thread::sleep(Duration::from_millis(350));
    let mut c = Client::connect(server.local_addr()).expect("connect after pressure");
    c.ping().expect("server survived fd pressure");
    let errors = injected.load(Ordering::Relaxed);
    assert!(errors >= 3, "pressure window must inject, got {errors}");
    assert!(
        errors < 1000,
        "backoff must bound the retry rate (busy-spin would hit millions), got {errors}"
    );
    let stats = c.stats_map().expect("stats");
    let accept_errors: u64 = stats
        .get("accept_errors")
        .expect("accept_errors stat")
        .parse()
        .expect("numeric");
    assert_eq!(accept_errors, errors, "every failure counted");
    server.shutdown();
}

/// Regression (stuck shard): a `POST` fan-out pays **one** overall ack
/// deadline — not a fresh one per follower (up to 17 × timeout ≈ 85 s
/// with the old code) — and bails as soon as the session is poisoned.
#[test]
fn stuck_shard_fanout_times_out_once_overall() {
    const FOLLOWERS: u64 = 8;
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 256,
        // Every mutation applies 100 ms late; a single command fits the
        // 250 ms deadline, a 9-target fan-out (~900 ms) cannot.
        shard_delay: Some(Duration::from_millis(100)),
        ack_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for u in 0..=FOLLOWERS {
        c.add_user(u).expect("adduser");
    }
    for f in 1..=FOLLOWERS {
        c.follow(f, 0).expect("follow");
    }
    let started = Instant::now();
    let err = c.post(0, 99).expect_err("fan-out must blow the deadline");
    let elapsed = started.elapsed();
    assert!(
        err.to_string().contains("timeout"),
        "structured timeout error, got {err}"
    );
    assert!(
        elapsed < Duration::from_millis(700),
        "one overall deadline + immediate bail, took {elapsed:?}"
    );
    // The poisoned session is closed: a stale ack can never desync a
    // later reply.
    assert!(c.ping().is_err(), "connection must be closed");
    server.shutdown();
}

/// Regression (batched parse failure): non-UTF-8 bytes in the middle
/// of a pipelined burst must answer exactly like the sequential path —
/// the valid lines before them reply, then the structured UTF-8 error,
/// then the connection closes (the byte stream is unrecoverable). The
/// batched drain loop used to swallow the failed line reply-less.
#[test]
fn non_utf8_mid_burst_errors_and_closes() {
    use std::io::{BufRead, BufReader, Read, Write};
    let server = boot(true, MiddlewareConfig::none());
    let mut socket = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    socket
        .write_all(b"PING\n\xff\xfe garbage\nPING\n")
        .expect("write");
    socket.flush().expect("flush");
    let mut reader = BufReader::new(socket.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("first reply");
    assert_eq!(line.trim_end(), "+PONG", "valid line before answers");
    line.clear();
    reader.read_line(&mut line).expect("error reply");
    assert_eq!(
        line.trim_end(),
        "-ERR protocol requires UTF-8 input",
        "the failed line gets its structured error"
    );
    // Then the server hangs up: the trailing PING is never answered.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("eof");
    assert_eq!(n, 0, "connection closed after the unrecoverable input");
    server.shutdown();
}

/// Regression (keepalives): blank and whitespace-only lines are
/// skipped before parsing — no command count, no error count, and no
/// rate-limit token burned.
#[test]
fn blank_lines_burn_no_tokens_or_counters() {
    let mut mw = MiddlewareConfig::full();
    mw.rate.burst = 3;
    mw.rate.refill_per_sec = 1;
    let server = boot(true, mw);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // Six keepalives would exhaust a burst of 3 if they were charged.
    for _ in 0..6 {
        c.send("").expect("send");
        c.send("   ").expect("send");
    }
    for _ in 0..3 {
        c.ping().expect("keepalives must not burn tokens");
    }
    let snap = server.stats();
    assert_eq!(snap.commands, 3, "only the PINGs count");
    assert_eq!(snap.errors, 0, "keepalives are not errors");
    server.shutdown();
}
