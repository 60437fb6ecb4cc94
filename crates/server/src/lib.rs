//! # dego-server — the sharded adjusted-object middleware server
//!
//! The paper adjusts shared objects to their usage so they scale; this
//! crate puts those objects behind a network: a multi-threaded TCP
//! key-value + retwis service whose entire storage plane is built from
//! `dego-core`'s catalogue.
//!
//! | Piece | Adjusted object | Type (Table 1) |
//! |---|---|---|
//! | keyspace, timelines, followers, profiles | [`dego_core::SegmentedHashMap`] | `(M2, CWMR)` |
//! | interest group | [`dego_core::SegmentedSet`] | `(S3, CWMR)` |
//! | mutation funnel, one per shard | [`dego_core::mpsc`] (`QueueMasp`) | `(Q1, MWSR)` |
//! | applied-mutation counter | [`dego_core::CounterIncrementOnly`] | `(C3, CWSR)` |
//!
//! The server keeps the paper's access disciplines **by construction**:
//! every segmented structure has one segment per shard, and only that
//! shard's owner thread holds its writer handles. Event-loop threads
//! read lock-free from any segment and funnel every mutation through
//! the owning shard's MPSC queue — multi-producer is exactly what the
//! `(Q1, MWSR)` adjustment grants, and single-consumer is what the
//! single-writer segments require. No lock is taken on any hot path.
//!
//! Consistency: a mutation is acknowledged only after the owning shard
//! applied it, so `GET` after a `SET`'s `+OK` observes the value from
//! any connection (per-key linearizable — one writer serializes each
//! key, and segment publication is release/acquire).
//!
//! The wire protocol is a compact RESP-like line protocol; see
//! [`protocol`]. A blocking [`Client`] with pipelining support lives
//! in [`client`].
//!
//! ## Quickstart
//!
//! ```
//! use dego_server::{spawn, Client, ServerConfig};
//!
//! let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.set("greeting", "hello world").unwrap();
//! assert_eq!(client.get("greeting").unwrap().as_deref(), Some("hello world"));
//! assert_eq!(client.incr("visits", 2).unwrap(), 2);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
mod event_loop;
mod metrics_http;
mod server;
pub mod stats;
mod store;

// The wire protocol lives in dego-middleware (the pipeline intercepts
// and rewrites commands); re-exported here so `dego_server::protocol`
// keeps working.
pub use dego_middleware::protocol;

pub use client::{Client, ClientReply};
pub use dego_middleware::{MiddlewareConfig, Role, Stack, TokenSpec};
pub use server::{spawn, AcceptHook, ServerConfig, ServerHandle, MAX_LINE_BYTES, TIMELINE_LIMIT};
pub use stats::{ServerStats, StatsSnapshot};
pub use store::{FANOUT_LIMIT, TIMELINE_KEEP};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerHandle {
        spawn(ServerConfig {
            shards: 2,
            capacity: 256,
            ..ServerConfig::default()
        })
        .expect("server spawns")
    }

    #[test]
    fn kv_roundtrip_over_tcp() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.ping().unwrap();
        assert_eq!(c.get("missing").unwrap(), None);
        c.set("k", "v1").unwrap();
        assert_eq!(c.get("k").unwrap().as_deref(), Some("v1"));
        c.set("k", "value with spaces").unwrap();
        assert_eq!(c.get("k").unwrap().as_deref(), Some("value with spaces"));
        c.del("k").unwrap();
        assert_eq!(c.get("k").unwrap(), None);
        assert_eq!(c.incr("n", 5).unwrap(), 5);
        assert_eq!(c.incr("n", -2).unwrap(), 3);
        c.set("s", "notanumber").unwrap();
        assert!(c.incr("s", 1).is_err());
        server.shutdown();
    }

    #[test]
    fn social_verbs_roundtrip() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for u in 0..4 {
            c.add_user(u).unwrap();
        }
        c.follow(1, 0).unwrap();
        c.follow(2, 0).unwrap();
        assert!(c.is_following(1, 0).unwrap());
        assert!(!c.is_following(0, 1).unwrap());
        assert_eq!(c.follower_count(0).unwrap(), 2);
        c.post(0, 41).unwrap();
        c.post(0, 42).unwrap();
        // Author and followers all see the messages, newest first.
        assert_eq!(c.timeline(0).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(1).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(2).unwrap(), vec![42, 41]);
        assert_eq!(c.timeline(3).unwrap(), Vec::<u64>::new());
        c.unfollow(1, 0).unwrap();
        assert!(!c.is_following(1, 0).unwrap());
        assert_eq!(c.follower_count(0).unwrap(), 1);
        c.join_group(3).unwrap();
        assert!(c.in_group(3).unwrap());
        c.leave_group(3).unwrap();
        assert!(!c.in_group(3).unwrap());
        assert_eq!(c.profile_bump(2).unwrap(), 1);
        assert_eq!(c.profile_bump(2).unwrap(), 2);
        assert_eq!(c.profile_version(2).unwrap(), 2);
        server.shutdown();
    }

    #[test]
    fn pipelined_burst_keeps_order() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..100 {
            c.send(&format!("SET k{i} {i}")).unwrap();
        }
        for _ in 0..100 {
            c.send("INCR total 1").unwrap();
        }
        c.flush().unwrap();
        for _ in 0..100 {
            assert_eq!(c.read_reply().unwrap(), ClientReply::Status("OK".into()));
        }
        for i in 1..=100 {
            assert_eq!(c.read_reply().unwrap(), ClientReply::Int(i));
        }
        assert_eq!(c.get("k37").unwrap().as_deref(), Some("37"));
        server.shutdown();
    }

    #[test]
    fn pipeline_api_keeps_reply_order() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let replies = c
            .pipeline([
                "SET k one",
                "GET k",
                "INCR n 2",
                "SET k two",
                "GET k",
                "PING",
            ])
            .unwrap();
        assert_eq!(
            replies,
            vec![
                ClientReply::Status("OK".into()),
                ClientReply::Value("one".into()),
                ClientReply::Int(2),
                ClientReply::Status("OK".into()),
                ClientReply::Value("two".into()),
                ClientReply::Status("PONG".into()),
            ]
        );
        server.shutdown();
    }

    #[test]
    fn blank_lines_are_keepalives_not_commands() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Blank and whitespace-only lines produce no reply, no command
        // count, no error count — the PING right after answers first.
        c.send("").unwrap();
        c.send("   ").unwrap();
        c.send("\t").unwrap();
        c.ping().unwrap();
        let snap = server.stats();
        assert_eq!(snap.commands, 1, "only the PING counts");
        assert_eq!(snap.errors, 0, "keepalives are not errors");
        server.shutdown();
    }

    #[test]
    fn pipelined_bursts_group_commit_on_the_shards() {
        // A slowed shard guarantees the whole burst is enqueued before
        // the owner finishes draining, so the group commit is visible
        // deterministically: far fewer drains than mutations.
        let server = spawn(ServerConfig {
            shards: 1,
            capacity: 256,
            shard_delay: Some(std::time::Duration::from_millis(1)),
            ..ServerConfig::default()
        })
        .expect("server spawns");
        let mut c = Client::connect(server.local_addr()).unwrap();
        let burst: Vec<String> = (0..16).map(|i| format!("SET g{i} v{i}")).collect();
        for reply in c.pipeline(&burst).unwrap() {
            assert_eq!(reply, ClientReply::Status("OK".into()));
        }
        let snap = server.stats();
        assert_eq!(snap.applied, 16);
        assert!(snap.shard_batches > 0, "shard drained batches");
        assert!(
            snap.shard_batches <= 8,
            "group commit: far fewer drains than mutations, got {}",
            snap.shard_batches
        );
        assert_eq!(c.get("g15").unwrap().as_deref(), Some("v15"));
        server.shutdown();
    }

    #[test]
    fn stats_reflect_traffic() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("a", "1").unwrap();
        c.set("b", "2").unwrap();
        let _ = c.get("a").unwrap();
        let _ = c.get("nope").unwrap();
        let stats = c.stats_map().unwrap();
        let lookup = |name: &str| -> u64 {
            stats
                .get(name)
                .unwrap_or_else(|| panic!("stat {name} missing"))
                .parse()
                .expect("numeric stat")
        };
        assert_eq!(lookup("shards"), 2);
        assert_eq!(lookup("keys"), 2);
        assert!(lookup("gets") >= 2);
        assert!(lookup("get_hits") >= 1);
        assert!(lookup("mutations") >= 2);
        assert!(lookup("applied") >= 2);
        let snap = server.stats();
        assert!(snap.commands >= 5);
        assert_eq!(snap.applied, 2);
        server.shutdown();
    }

    #[test]
    fn self_follow_delivers_posts_once() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for u in 0..3 {
            c.add_user(u).unwrap();
        }
        c.follow(1, 0).unwrap();
        c.follow(0, 0).unwrap(); // the author follows themselves
        c.post(0, 9).unwrap();
        assert_eq!(c.timeline(0).unwrap(), vec![9], "no double delivery");
        assert_eq!(c.timeline(1).unwrap(), vec![9]);
        server.shutdown();
    }

    #[test]
    fn rejected_mutations_do_not_count_as_applied() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("s", "notanumber").unwrap();
        let before = server.stats().applied;
        assert!(c.incr("s", 1).is_err());
        assert_eq!(server.stats().applied, before);
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_errors_not_disconnects() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            c.request("BLORP 1").unwrap(),
            ClientReply::Error(_)
        ));
        assert!(matches!(c.request("GET").unwrap(), ClientReply::Error(_)));
        // The session survives protocol errors.
        c.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn quit_closes_the_session() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.quit().unwrap();
        assert!(c.ping().is_err());
        server.shutdown();
    }

    #[test]
    fn middleware_full_stack_serves_ttl_over_tcp() {
        let server = spawn(ServerConfig {
            shards: 2,
            capacity: 256,
            middleware: MiddlewareConfig::full(),
            ..ServerConfig::default()
        })
        .expect("server spawns");
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set("k", "v").unwrap();
        assert!(c.expire("k", 30).unwrap(), "timer armed on a live key");
        assert!(!c.expire("ghost", 30).unwrap(), "no timer on a miss");
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(c.get("k").unwrap(), None, "lazily expired");
        // No tokens are configured, so AUTH is a structured rejection.
        let err = c.auth("nope").unwrap_err();
        assert!(err.to_string().contains("AUTH"), "got {err}");
        // The trace layer folds mw_* lines into STATS.
        let stats = c.stats_map().unwrap();
        assert_eq!(stats.get("mw_depth").map(String::as_str), Some("7"));
        assert!(stats.contains_key("mw_ttl_expired"));
        server.shutdown();
    }

    #[test]
    fn middleware_verbs_reject_structurally_at_depth_zero() {
        let server = tiny();
        let mut c = Client::connect(server.local_addr()).unwrap();
        match c.request("EXPIRE k 100").unwrap() {
            ClientReply::Error(e) => assert!(e.starts_with("TTL "), "got {e:?}"),
            other => panic!("expected TTL rejection, got {other:?}"),
        }
        match c.request("AUTH tok").unwrap() {
            ClientReply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_clean() {
        let server = tiny();
        let addr = server.local_addr();
        {
            let mut c = Client::connect(addr).unwrap();
            c.set("x", "1").unwrap();
        }
        server.shutdown();
        // The port is released: a fresh connection must not find a
        // live server behind it.
        assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
    }
}
