//! Per-layer measurements for the traced run: `STATS` deltas, and
//! replays of the workload's own generated inputs through the public
//! `protocol`, middleware `Stack` and `dego_core` entry points.

use crate::workload::{Burst, Inputs, Workload, USERS};
use dego_core::{mpsc, SegmentationKind, SegmentedHashMap};
use dego_middleware::pipeline::{Request, Response, Service, Session};
use dego_middleware::protocol::{Command, Reply};
use dego_middleware::{MiddlewareConfig, Stack};
use dego_server::ClientReply;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::hint::black_box;
use std::time::Instant;

/// Shards the server runs by default, and so segments per map.
const SEGMENTS: usize = 4;

/// Requests each replay draws from the workload's stream.
const REPLAY_REQUESTS: usize = 100_000;

/// Timed repetitions per replay; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, in ns per item; `f` returns how
/// many items it processed.
fn ns_per_item(mut f: impl FnMut() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let items = f().max(1);
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&mut samples)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The first bursts of connection 0's stream, up to about
/// [`REPLAY_REQUESTS`] requests.
pub fn replay_bursts(inputs: &Inputs) -> Vec<Burst> {
    let mut generator = inputs.generator(0);
    let mut bursts = Vec::new();
    let mut n = 0;
    while n < REPLAY_REQUESTS {
        let burst = generator.next_burst();
        n += burst.lines.len();
        bursts.push(burst);
    }
    bursts
}

/// `Command::parse` on the workload's request lines.
pub fn parse_ns(bursts: &[Burst]) -> f64 {
    ns_per_item(|| {
        let mut n = 0;
        for line in bursts.iter().flat_map(|b| &b.lines) {
            let _ = black_box(Command::parse(black_box(line)));
            n += 1;
        }
        n
    })
}

/// `Reply::render` on the reply shapes the workload received.
pub fn render_ns(sample: &[ClientReply]) -> f64 {
    let replies: Vec<Reply> = sample.iter().map(to_reply).collect();
    let mut out = String::with_capacity(4096);
    ns_per_item(|| {
        for reply in &replies {
            out.clear();
            black_box(reply).render(&mut out);
            black_box(&out);
        }
        replies.len()
    })
}

fn to_reply(reply: &ClientReply) -> Reply {
    match reply {
        ClientReply::Status(s) if s == "OK" => Reply::Status("OK"),
        ClientReply::Status(_) => Reply::Status("PONG"),
        ClientReply::Value(v) => Reply::Value(v.clone()),
        ClientReply::Nil => Reply::Nil,
        ClientReply::Int(n) => Reply::Int(*n),
        ClientReply::Error(e) => Reply::Error(e.clone()),
        ClientReply::Array(items) => Reply::Array(items.clone()),
    }
}

/// Stands in for the server's store executor: answers every command
/// with a reply of the right shape, touching no store.
struct Stub;

impl Service for Stub {
    fn call(&mut self, req: Request) -> Response {
        Response::ok(match req.command {
            Command::Get(_) => Reply::Value(String::new()),
            Command::Incr(..) | Command::Profile(_) => Reply::Int(1),
            Command::Timeline(_) => Reply::Array(Vec::new()),
            _ => Reply::Status("OK"),
        })
    }
}

/// Admission cost per command: the full default stack, fused as the
/// server's default plane fuses it, driven with the workload's own
/// bursts (singletons through `call_one`, bursts through `call_batch`)
/// over [`Stub`]. Returns `(ns per command, rejected commands)`.
pub fn admission_ns(bursts: &[Burst]) -> (f64, u64) {
    let stack = Stack::build(&MiddlewareConfig::full());
    let commands: Vec<Vec<Command>> = bursts
        .iter()
        .map(|b| {
            b.lines
                .iter()
                .map(|l| Command::parse(l).expect("generated lines parse"))
                .collect()
        })
        .collect();
    let mut rejected = 0u64;
    let mut rep = 0;
    let ns = ns_per_item(|| {
        // A fresh session per repetition: its rate-limit bucket starts
        // full, as a new connection's does.
        rep += 1;
        let session = Session {
            client: format!("127.0.0.1:{rep}"),
        };
        let mut chain = stack
            .fused_service(&session, Stub)
            .expect("the full stack fuses");
        let mut n = 0;
        for burst in &commands {
            let mut reqs: Vec<Request> = burst.iter().cloned().map(Request::new).collect();
            let responses = if reqs.len() == 1 {
                vec![chain.call_one(reqs.pop().expect("one request"))]
            } else {
                chain.call_batch(reqs)
            };
            n += responses.len();
            rejected += responses
                .iter()
                .filter(|r| matches!(r.reply, Reply::Error(_)))
                .count() as u64;
            black_box(responses);
        }
        n
    });
    (ns, rejected)
}

/// `(get ns, put ns)` of a `SegmentedHashMap` with the server's segment
/// count, holding the workload's keys, read and written in the order the
/// workload reads and writes them.
pub fn map_ns(inputs: &Inputs, bursts: &[Burst]) -> (f64, f64) {
    let ops = || {
        bursts
            .iter()
            .flat_map(|b| &b.lines)
            .map(|l| Command::parse(l).expect("generated lines parse"))
    };
    match inputs.workload {
        Workload::KvRead | Workload::KvWrite => {
            let keys = inputs.counter_keys().len();
            let universe: Vec<String> = (0..keys)
                .flat_map(|i| [format!("k{i:07}"), format!("c{i:07}")])
                .collect();
            let value = "v".repeat(32);
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for cmd in ops() {
                match cmd {
                    Command::Get(k) => reads.push(k),
                    Command::Set(k, v) => writes.push((k, v)),
                    Command::Incr(k, d) => writes.push((k, d.to_string())),
                    _ => {}
                }
            }
            map_bench(universe, |_| value.clone(), &reads, writes)
        }
        Workload::Retwis => {
            // The timelines map: the workload's hottest read.
            let universe: Vec<u64> = (0..USERS as u64).collect();
            let row: Vec<u64> = (0..50).collect();
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for cmd in ops() {
                match cmd {
                    Command::Timeline(u) => reads.push(u),
                    Command::Post(u, _) => writes.push((u, row.clone())),
                    _ => {}
                }
            }
            map_bench(universe, |_| row.clone(), &reads, writes)
        }
    }
}

fn map_bench<K, V>(
    universe: Vec<K>,
    initial: impl Fn(&K) -> V + Sync,
    reads: &[K],
    writes: Vec<(K, V)>,
) -> (f64, f64)
where
    K: Hash + Eq + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    let map = SegmentedHashMap::new(SEGMENTS, universe.len(), SegmentationKind::Hash);
    // Owner threads run one after another, so thread `i` claims segment
    // `i` and writes only keys homed there, as shard `i` does.
    let mut put_ns = 0u128;
    let mut puts = 0usize;
    for segment in 0..SEGMENTS {
        let home = |k: &K| dego_core::home_segment(k, SEGMENTS) == segment;
        let own: Vec<&K> = universe.iter().filter(|k| home(k)).collect();
        let own_writes: Vec<&(K, V)> = writes.iter().filter(|(k, _)| home(k)).collect();
        let (ns, n) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut writer = map.writer();
                for k in &own {
                    writer.put((*k).clone(), initial(k));
                }
                let batch: Vec<(K, V)> = own_writes.iter().map(|kv| (*kv).clone()).collect();
                let t = Instant::now();
                for (k, v) in batch {
                    writer.put(k, v);
                }
                (t.elapsed().as_nanos(), own_writes.len())
            })
            .join()
            .expect("map writer thread")
        });
        put_ns += ns;
        puts += n;
    }
    let get = ns_per_item(|| {
        for k in reads {
            black_box(map.get(black_box(k)));
        }
        reads.len()
    });
    (get, put_ns as f64 / puts.max(1) as f64)
}

/// `dego_core::mpsc` offer of each burst's mutations, then a drain, as
/// a shard funnel carries them; ns per item.
pub fn queue_ns(bursts: &[Burst]) -> f64 {
    let batches: Vec<Vec<Command>> = bursts
        .iter()
        .map(|b| {
            b.lines
                .iter()
                .map(|l| Command::parse(l).expect("generated lines parse"))
                .filter(|c| !matches!(c, Command::Get(_) | Command::Timeline(_)))
                .collect()
        })
        .collect();
    let (producer, mut consumer) = mpsc::queue::<Command>();
    // The items are moved into the queue, so each repetition gets its
    // own copy, made before the clock starts.
    let mut copies: Vec<Vec<Vec<Command>>> = (0..REPS).map(|_| batches.clone()).collect();
    ns_per_item(|| {
        let mut n = 0;
        for batch in copies.pop().expect("one copy per repetition") {
            n += batch.len();
            for cmd in batch {
                producer.offer(cmd);
            }
            black_box(consumer.drain());
        }
        n
    })
}

/// `STATS` plus `STATS SHARDS`, numeric lines only.
pub type Stats = BTreeMap<String, f64>;

pub fn snapshot(client: &mut dego_server::Client) -> Result<Stats, String> {
    let mut stats = Stats::new();
    let plain = client.stats_map().map_err(|e| format!("STATS: {e}"))?;
    let shards = client
        .stats_shards()
        .map_err(|e| format!("STATS SHARDS: {e}"))?;
    for (k, v) in plain.into_iter().chain(shards) {
        if let Ok(v) = v.parse::<f64>() {
            stats.insert(k, v);
        }
    }
    Ok(stats)
}

/// `after[name] - before[name]`.
pub fn delta(before: &Stats, after: &Stats, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
