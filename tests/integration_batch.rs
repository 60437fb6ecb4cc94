//! Integration of the batched execution path and the server-plane
//! robustness fixes, over real loopback TCP:
//!
//! * **batch ≡ sequential**: randomized pipelined scripts (kv + social
//!   verbs + parse errors) produce byte-identical reply streams to a
//!   lockstep client that sends one line at a time, with and without
//!   the full middleware stack;
//! * **accept backoff**: injected `accept()` failures (fd pressure)
//!   are counted in `STATS` and back off instead of busy-spinning;
//! * **fan-out deadline**: a stuck shard costs a `POST` one overall
//!   ack deadline, not one per follower, and the poisoned session
//!   closes instead of draining stale acks;
//! * **blank lines**: keepalive newlines burn no stats and no
//!   rate-limit tokens.

use dego_server::{
    spawn, AcceptHook, Client, ClientReply, MiddlewareConfig, Role, ServerConfig, ServerHandle,
    TokenSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{drive, drive_lockstep, random_script, shards};

fn boot(middleware: MiddlewareConfig) -> ServerHandle {
    spawn(ServerConfig {
        shards: shards(4),
        capacity: 4096,
        middleware,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// Run `script` pipelined (through `pipelined`) on one fresh server
/// and lockstep on another with the same stack; `login` authenticates
/// both sessions first. Returns (pipelined, lockstep) reply streams.
fn against_lockstep(
    middleware: MiddlewareConfig,
    login: Option<&str>,
    script: &[String],
    pipelined: impl FnOnce(&mut Client, &[String]) -> Vec<ClientReply>,
) -> (Vec<ClientReply>, Vec<ClientReply>) {
    let session = || {
        let server = boot(middleware.clone());
        let mut client = Client::connect(server.local_addr()).expect("connect");
        if let Some(token) = login {
            client.auth(token).expect("login");
        }
        (server, client)
    };
    let (server, mut client) = session();
    let got = pipelined(&mut client, script);
    server.shutdown();
    let (server, mut client) = session();
    let want = drive_lockstep(&mut client, script);
    server.shutdown();
    (got, want)
}

/// The tentpole equivalence guarantee: pipelined bursts through
/// `call_batch` — deferred ack barriers, cross-connection group commit,
/// vectored writes and all — produce byte-identical replies, in order,
/// to the same lines sent one at a time.
#[test]
fn batched_replies_match_sequential_plain() {
    for seed in [0x5eed1, 0x5eed2, 0x5eed3, 0xe5001, 0xe5002, 0xe5003] {
        let script = random_script(seed, 400);
        let (got, want) = against_lockstep(MiddlewareConfig::none(), None, &script, |c, s| {
            drive(c, s, seed ^ 0xff)
        });
        assert_eq!(got, want, "reply streams diverged for seed {seed:#x}");
    }
    // Read-after-write on a few hot keys, all in one burst.
    let script: Vec<String> = (0..40)
        .flat_map(|i| {
            vec![
                format!("SET k{} v{i}", i % 7),
                format!("GET k{}", i % 7),
                format!("INCR n{} 3", i % 3),
                "BLORP".to_string(), // parse errors keep their slot
            ]
        })
        .collect();
    let (got, want) = against_lockstep(MiddlewareConfig::none(), None, &script, |c, s| {
        c.pipeline(s).expect("one burst")
    });
    assert_eq!(got, want, "one-burst reply stream diverged");
}

/// The same equivalence through the full seven-layer stack (generous
/// limits, so no timing-dependent rejection can fire).
#[test]
fn batched_replies_match_sequential_full_stack() {
    let mut mw = MiddlewareConfig::full();
    mw.auth.tokens = vec![TokenSpec {
        name: "writer".into(),
        token: "sekrit".into(),
        role: Role::ReadWrite,
    }];
    mw.auth.anon_role = Role::ReadWrite;
    mw.deadline.read_us = 30_000_000;
    mw.deadline.write_us = 30_000_000;
    // Logins and far-future timers sprinkled through the first script
    // make bursts take the admission driver's sequential split, over
    // the event loop's deferring dispatch.
    let mut split = random_script(0xbee5, 400);
    for at in (20..split.len()).step_by(37).rev() {
        split.insert(at, format!("EXPIRE k{} 600000", at % 6));
        split.insert(at - 9, "AUTH sekrit".to_string());
    }
    for script in [split, random_script(0xfee1, 400)] {
        let (got, want) =
            against_lockstep(mw.clone(), Some("sekrit"), &script, |c, s| drive(c, s, 7));
        assert_eq!(got, want, "full-stack reply streams diverged");
    }
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
    let server = boot(MiddlewareConfig::none());
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
    let server = boot(mw);
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
