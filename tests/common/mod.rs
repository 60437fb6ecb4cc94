//! Helpers shared by the integration test binaries (each test file
//! pulls this in with `mod common;`, and not every binary uses every
//! helper).
#![allow(dead_code)]

use dego_metrics::rng::XorShift64;
use dego_server::{Client, ClientReply};

/// Shard count for a test server, honoring the CI matrix's
/// `DEGO_TEST_SHARDS` override — the single-shard leg funnels every
/// integration server through one shard-owner thread (the clients=4
/// regression class from PR 2 only reproduced there).
pub fn shards(default: usize) -> usize {
    std::env::var("DEGO_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A deterministic pseudo-random script over kv and social verbs (no
/// `STATS` — its counters legitimately depend on how lines were
/// grouped into bursts).
pub fn random_script(seed: u64, len: usize) -> Vec<String> {
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
/// sizes (1 to 48 lines), returning the raw reply stream.
pub fn drive(client: &mut Client, script: &[String], seed: u64) -> Vec<ClientReply> {
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

/// The sequential reference: send one line, wait for its reply, then
/// send the next. Every request reaches the server as a burst of one,
/// so it runs alone through the admission driver's `call_one`.
pub fn drive_lockstep(client: &mut Client, script: &[String]) -> Vec<ClientReply> {
    script
        .iter()
        .map(|line| client.request(line).expect("lockstep request"))
        .collect()
}
