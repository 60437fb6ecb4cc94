//! The three workloads as deterministic request streams.
//!
//! Everything the server receives is generated here from the workload
//! seed. Each connection owns a pinned slice of the keys and users, so
//! its generator can predict the exact reply to every request on its
//! own slice: a `GET` must return the connection's own last `SET`, an
//! `INCR` its own running total, a `PROFILE` its own next version. The
//! stream never depends on replies, so a seed fixes it byte for byte.
//!
//! * `kv-read`: bursts of 16, 90/5/5 GET/SET/INCR, uniform over 200k
//!   `k*` keys and 200k `c*` counters (a working set well past the CPU
//!   caches). Lock-free segment reads, parsing and batch admission do
//!   the work; shard queues carry only a tenth of the ops.
//! * `kv-write`: bursts of 32, 45/45/10 SET/INCR/GET, Zipf 0.99 over
//!   4096 keys of each family (fits in cache). The shard funnel, group
//!   commit, ack delivery and mid-burst read-after-write barriers do the
//!   work: the same layers as `kv-read`, used the other way round.
//! * `retwis`: the paper's Table 2 mix at pipeline 1 over a 20k-user
//!   power-law follow graph, with Zipf 1.0 acting users. The only
//!   workload with singleton bursts (batch-1 admission and the ack wait
//!   that blocks a loop), `POST` fan-out across shards, multi-line
//!   `TIMELINE` replies and interest-group membership.

use dego_metrics::rng::{mix64, XorShift64};
use dego_metrics::stats::Zipf;
use dego_retwis::graph::{generate_edges, GraphConfig};
use std::collections::{HashSet, VecDeque};

/// Load connections, one closed-loop thread each.
pub const CONNS: usize = 2;

/// Every `c*` counter starts here.
pub const COUNTER_BASE: i64 = 1000;

/// Preloaded users of the retwis workload.
pub const USERS: usize = 20_000;

/// The follow graph is part of the fixed universe, like the kv keys:
/// the workload seed varies the request stream, not the graph.
const GRAPH_SEED: u64 = 42;

/// Fresh user ids each retwis connection cycles through for `ADDUSER`,
/// so the user table stops growing once they are all added.
const NEW_USER_IDS: u64 = 4096;

/// Values are fixed width, so the server's memory does not grow with
/// the number of writes.
const VALUE_PAD: &str = "xxxxxxxxxxxx";

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KvRead,
    KvWrite,
    Retwis,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvRead, Workload::KvWrite, Workload::Retwis];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read",
            Workload::KvWrite => "kv-write",
            Workload::Retwis => "retwis",
        }
    }

    fn kv_shape(self) -> Option<KvShape> {
        match self {
            Workload::KvRead => Some(KvShape {
                keys: 200_000,
                burst: 16,
                get_pct: 90,
                set_pct: 5,
                zipf_alpha: None,
            }),
            Workload::KvWrite => Some(KvShape {
                keys: 4096,
                burst: 32,
                get_pct: 10,
                set_pct: 45,
                zipf_alpha: Some(0.99),
            }),
            Workload::Retwis => None,
        }
    }
}

/// What a reply must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `+OK`.
    Ok,
    /// `+OK` to a `POST` of this message id.
    Posted(u64),
    /// `$value`.
    Value(String),
    /// `:n`.
    Int(i64),
    /// A `TIMELINE` array: at most `TIMELINE_LIMIT` ids, each one posted
    /// before the read, and each poster's ids newest first.
    Timeline,
}

/// One pipelined burst: request lines (without terminators) and the
/// reply each must get.
#[derive(Clone, Debug, Default)]
pub struct Burst {
    pub lines: Vec<String>,
    pub expects: Vec<Expect>,
}

impl Burst {
    fn push(&mut self, line: String, expect: Expect) {
        self.lines.push(line);
        self.expects.push(expect);
    }
}

struct KvShape {
    /// Keys of each family (`k*` and `c*`) in the whole universe.
    keys: usize,
    burst: usize,
    get_pct: u64,
    set_pct: u64,
    /// `None`: uniform key picks.
    zipf_alpha: Option<f64>,
}

/// The inputs of one run: the workload's fixed universe (keys or follow
/// graph) and each connection's seeded request stream.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// Retwis follow edges `(follower, followee)`; empty for kv.
    edges: Vec<(u64, u64)>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let edges = if workload == Workload::Retwis {
            generate_edges(&GraphConfig {
                users: USERS,
                mean_out_degree: 10,
                alpha: 1.0,
                seed: GRAPH_SEED,
            })
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            seed,
            edges,
        }
    }

    /// Connection `conn`'s request stream, positioned after the preload.
    pub fn generator(&self, conn: usize) -> Generator {
        let rng = XorShift64::new(mix64(self.seed ^ mix64(conn as u64 + 1)));
        let model = match self.workload.kv_shape() {
            Some(shape) => {
                let slice = shape.keys / CONNS;
                Model::Kv(KvModel {
                    zipf: shape.zipf_alpha.map(|a| Zipf::new(slice, a)),
                    versions: vec![0; slice],
                    counters: vec![COUNTER_BASE; slice],
                    shape,
                })
            }
            None => Model::Retwis(RetwisModel {
                actors: Zipf::new(USERS / CONNS, 1.0),
                followees: Zipf::new(USERS, 1.0),
                follows: self
                    .edges
                    .iter()
                    .copied()
                    .filter(|(a, _)| owner(*a) == conn)
                    .collect(),
                profiles: vec![0; USERS / CONNS],
                posts: 0,
                new_users: 0,
                queued: VecDeque::new(),
            }),
        };
        Generator { conn, rng, model }
    }

    /// The requests that load connection `conn`'s slice.
    pub fn preload(&self, conn: usize) -> Burst {
        let mut burst = Burst::default();
        match self.workload.kv_shape() {
            Some(shape) => {
                for slot in 0..shape.keys / CONNS {
                    let idx = slot * CONNS + conn;
                    burst.push(format!("SET k{idx:07} {}", value(idx, 0)), Expect::Ok);
                    burst.push(format!("SET c{idx:07} {COUNTER_BASE}"), Expect::Ok);
                }
            }
            None => {
                for user in (conn..USERS).step_by(CONNS) {
                    burst.push(format!("ADDUSER {user}"), Expect::Ok);
                }
                for &(a, b) in self.edges.iter().filter(|(a, _)| owner(*a) == conn) {
                    burst.push(format!("FOLLOW {a} {b}"), Expect::Ok);
                }
            }
        }
        burst
    }

    /// Reads that prove connection `conn`'s part of the preload landed:
    /// every own user's follower count (kv is checked by `STATS keys`).
    pub fn verify(&self, conn: usize) -> Burst {
        let mut burst = Burst::default();
        if self.workload == Workload::Retwis {
            let mut in_degree = vec![0i64; USERS];
            for &(_, b) in &self.edges {
                in_degree[b as usize] += 1;
            }
            for user in (conn..USERS).step_by(CONNS) {
                burst.push(format!("FOLLOWERS {user}"), Expect::Int(in_degree[user]));
            }
        }
        burst
    }

    /// The `keys` count `STATS` must show after the preload.
    pub fn expected_keys(&self) -> usize {
        self.workload.kv_shape().map_or(0, |s| 2 * s.keys)
    }

    /// Every `c*` counter of the universe (kv workloads).
    pub fn counter_keys(&self) -> Vec<String> {
        let keys = self.workload.kv_shape().map_or(0, |s| s.keys);
        (0..keys).map(|idx| format!("c{idx:07}")).collect()
    }
}

/// The connection that owns key index or user `n`.
fn owner(n: u64) -> usize {
    (n % CONNS as u64) as usize
}

/// The fixed-width value of key `idx` after its `version`-th `SET`.
fn value(idx: usize, version: u32) -> String {
    format!("v{idx:07}-{version:010}-{VALUE_PAD}")
}

/// One connection's request stream and its model of the slice it owns.
pub struct Generator {
    conn: usize,
    rng: XorShift64,
    model: Model,
}

enum Model {
    Kv(KvModel),
    Retwis(RetwisModel),
}

struct KvModel {
    shape: KvShape,
    zipf: Option<Zipf>,
    /// `SET` count per own key slot.
    versions: Vec<u32>,
    /// Value per own counter slot.
    counters: Vec<i64>,
}

struct RetwisModel {
    actors: Zipf,
    followees: Zipf,
    /// Own users' follow edges. Follows and unfollows come in converse
    /// pairs, so the set never changes.
    follows: HashSet<(u64, u64)>,
    profiles: Vec<u64>,
    posts: u64,
    new_users: u64,
    /// The second request of a converse pair, sent as its own burst.
    queued: VecDeque<(String, Expect)>,
}

impl Generator {
    /// The next burst of requests, with the model advanced as if every
    /// one succeeds.
    pub fn next_burst(&mut self) -> Burst {
        match &mut self.model {
            Model::Kv(kv) => kv.burst(self.conn, &mut self.rng),
            Model::Retwis(rt) => rt.burst(self.conn, &mut self.rng),
        }
    }

    /// Sum of this connection's counters, as its acknowledged `INCR`s
    /// left them.
    pub fn counter_total(&self) -> i64 {
        match &self.model {
            Model::Kv(kv) => kv.counters.iter().sum(),
            Model::Retwis(_) => 0,
        }
    }
}

impl KvModel {
    fn slot(&self, rng: &mut XorShift64) -> usize {
        match &self.zipf {
            Some(zipf) => zipf.rank(rng.next_f64()),
            None => rng.next_bounded(self.versions.len() as u64) as usize,
        }
    }

    fn burst(&mut self, conn: usize, rng: &mut XorShift64) -> Burst {
        let mut burst = Burst::default();
        for _ in 0..self.shape.burst {
            let roll = rng.next_bounded(100);
            let slot = self.slot(rng);
            let idx = slot * CONNS + conn;
            if roll < self.shape.get_pct {
                if rng.next_u64() & 1 == 0 {
                    let expect = Expect::Value(value(idx, self.versions[slot]));
                    burst.push(format!("GET k{idx:07}"), expect);
                } else {
                    let expect = Expect::Value(self.counters[slot].to_string());
                    burst.push(format!("GET c{idx:07}"), expect);
                }
            } else if roll < self.shape.get_pct + self.shape.set_pct {
                self.versions[slot] += 1;
                let line = format!("SET k{idx:07} {}", value(idx, self.versions[slot]));
                burst.push(line, Expect::Ok);
            } else {
                let delta = 1 + rng.next_bounded(9) as i64;
                self.counters[slot] += delta;
                let expect = Expect::Int(self.counters[slot]);
                burst.push(format!("INCR c{idx:07} {delta}"), expect);
            }
        }
        burst
    }
}

impl RetwisModel {
    fn burst(&mut self, conn: usize, rng: &mut XorShift64) -> Burst {
        if self.queued.is_empty() {
            self.next_op(conn, rng);
        }
        let (line, expect) = self.queued.pop_front().expect("an op queues a request");
        let mut burst = Burst::default();
        burst.push(line, expect);
        burst
    }

    /// Draw one Table 2 operation (5/5/15/60/5/10) and queue its
    /// requests.
    fn next_op(&mut self, conn: usize, rng: &mut XorShift64) {
        let slot = self.actors.rank(rng.next_f64());
        let actor = (slot * CONNS + conn) as u64;
        let roll = rng.next_bounded(100);
        let q = &mut self.queued;
        if roll < 5 {
            let fresh = USERS as u64 + (self.new_users % NEW_USER_IDS) * CONNS as u64 + conn as u64;
            self.new_users += 1;
            q.push_back((format!("ADDUSER {fresh}"), Expect::Ok));
        } else if roll < 10 {
            let mut target = self.followees.rank(rng.next_f64()) as u64;
            if target == actor {
                target = (actor + 1) % USERS as u64;
            }
            let follow = (format!("FOLLOW {actor} {target}"), Expect::Ok);
            let unfollow = (format!("UNFOLLOW {actor} {target}"), Expect::Ok);
            // The converse request restores the graph either way.
            if self.follows.contains(&(actor, target)) {
                q.extend([unfollow, follow]);
            } else {
                q.extend([follow, unfollow]);
            }
        } else if roll < 25 {
            self.posts += 1;
            let msg = message_id(conn, self.posts);
            q.push_back((format!("POST {actor} {msg}"), Expect::Posted(msg)));
        } else if roll < 85 {
            q.push_back((format!("TIMELINE {actor}"), Expect::Timeline));
        } else if roll < 90 {
            q.push_back((format!("JOIN {actor}"), Expect::Ok));
            q.push_back((format!("LEAVE {actor}"), Expect::Ok));
        } else {
            self.profiles[slot] += 1;
            let expect = Expect::Int(self.profiles[slot] as i64);
            q.push_back((format!("PROFILE {actor}"), expect));
        }
    }
}

/// Message ids carry their poster: connection `conn`'s `n`-th post.
pub fn message_id(conn: usize, n: u64) -> u64 {
    ((conn as u64 + 1) << 32) | n
}

/// Split a message id into `(connection, n)`.
pub fn message_poster(id: u64) -> Option<(usize, u64)> {
    let tag = (id >> 32) as usize;
    let n = id & 0xFFFF_FFFF;
    (1..=CONNS).contains(&tag).then_some((tag - 1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes connection `conn` sends: preload, then `bursts` bursts.
    fn stream(workload: Workload, seed: u64, conn: usize, bursts: usize) -> Vec<u8> {
        let inputs = Inputs::new(workload, seed);
        let mut out = Vec::new();
        let mut append = |burst: Burst| {
            for line in burst.lines {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
        };
        append(inputs.preload(conn));
        let mut generator = inputs.generator(conn);
        for _ in 0..bursts {
            append(generator.next_burst());
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_for_every_workload() {
        for workload in Workload::ALL {
            for conn in 0..CONNS {
                let a = stream(workload, 7, conn, 3000);
                assert_eq!(a, stream(workload, 7, conn, 3000), "{workload:?}");
                assert_ne!(a, stream(workload, 8, conn, 3000), "{workload:?}");
            }
        }
    }

    #[test]
    fn connections_stay_on_their_own_slice() {
        let inputs = Inputs::new(Workload::KvWrite, 1);
        let mut generator = inputs.generator(1);
        for _ in 0..200 {
            for line in generator.next_burst().lines {
                let key = line.split_whitespace().nth(1).unwrap();
                let idx: usize = key[1..].parse().unwrap();
                assert_eq!(idx % CONNS, 1, "{line}");
            }
        }
    }

    #[test]
    fn values_are_fixed_width() {
        assert_eq!(value(0, 0).len(), value(199_999, u32::MAX).len());
    }

    #[test]
    fn message_ids_round_trip() {
        assert_eq!(message_poster(message_id(1, 42)), Some((1, 42)));
        assert_eq!(message_poster(42), None);
    }
}
