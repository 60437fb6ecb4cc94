//! Closed-loop load generator for `dego-server` — the middleware
//! deployment of the adjusted objects.
//!
//! Nine sweeps, all written to `BENCH_server.json`:
//!
//! 1. **Client sweep** (no middleware): for each point, an in-process
//!    server is booted on an ephemeral loopback port and `t` client
//!    threads run pipelined closed-loop traffic for the configured
//!    window (a 90/5/5 GET/SET/INCR mix, pipeline depth 16).
//! 2. **Batch-depth sweep**: the full seven-layer stack at pipeline
//!    (= batch) sizes 1/8/32, so the `call_batch` amortization curve
//!    is tracked point to point.
//! 3. **Middleware overhead** (batched): the same load at a fixed
//!    client count against stack depth 0 and depth 7; `overhead_pct`
//!    is the pipeline's throughput cost (pre-batching it measured
//!    14.7%, target ≤ 8% now that every layer pays once per burst).
//! 4. **Group commit**: write-heavy bursts of 32 through the full
//!    stack. `mutations_per_sweep` is the run's applied mutations over
//!    its shard batches — how many writes one shard sweep
//!    acknowledges as a group (the ratio wirebench reports as
//!    `store.mutations_per_sweep`).
//! 5. **Connection sweep** (full stack, fixed pipeline depth): a
//!    `connections` probe block tracking throughput across connection
//!    counts (`DEGO_BENCH_CONNS`, default 4/64/256/1024).
//!    `conn_scaling_x` is the headline: throughput at 256 connections
//!    over 4 connections (target ≥ 0.9 — fan-in must not collapse
//!    under connection count).
//! 6. **Observability overhead**: the full stack with span sampling
//!    off vs the default 1-in-64, at burst depth 5 — the cost of the
//!    per-layer attribution plane (`observability_overhead`, target
//!    ≤ 2%).
//! 7. **Tracing overhead**: the whole recording plane A/B — flight
//!    recorder, slowlog, span sampling and windowed histograms all off
//!    vs every default on — at burst depth 5 (`tracing_overhead`,
//!    target ≤ 3% at default sampling).
//! 8. **Stack dispatch**: batch-1 `call_one` through the full
//!    seven-layer stack vs the same in-memory store called bare, with
//!    no admission at all (no sockets — TCP at pipeline 1 is
//!    syscall-dominated and would mask the admission cost this A/B
//!    isolates). Each point is its fastest 1024-command chunk, so
//!    interference from other tenants of the host only ever slows a
//!    chunk down. Five interleaved pairs, alternating which arm runs
//!    first; `batch1_full_over_bare_x` is the median of the per-pair
//!    full/bare throughput ratios (target ≥ 0.072×).
//! 9. **Overload**: a write-heavy closed loop against a server whose
//!    shard owners carry a seeded 1 ms apply stall, load shedding off
//!    vs on (`--shed-queue-depth` semantics). The `overload` block
//!    reports each side's windowed shard ack p99 and shed count —
//!    shedding should hold the ack p99 bounded while the stalled
//!    shard works down a short queue instead of an unbounded one.
//!
//! Keys are **pinned per client** by default: each client owns a
//! disjoint slice of the key range, so shard parallelism is measurable
//! and cross-client key contention cannot mask the accept/funnel cost
//! (`DEGO_BENCH_SHARED_KEYS=1` restores the old shared-range mix).
//!
//! Environment/flags: the [`BenchEnv`] conventions
//! (`DEGO_BENCH_MILLIS`, `DEGO_BENCH_THREADS`, `--quick`) plus
//! `DEGO_BENCH_SHARDS` (default 4), `DEGO_BENCH_PIPELINE`
//! (default 16) and `DEGO_BENCH_CONNS` (default `4,64,256,1024`).

use dego_bench::harness::BenchEnv;
use dego_metrics::rng::XorShift64;
use dego_metrics::table::{fmt_kops, Table};
use dego_middleware::protocol::{Command, Reply};
use dego_middleware::{Request, Response, Service, Session, Stack};
use dego_server::{spawn, Client, MiddlewareConfig, ServerConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const KEY_RANGE: usize = 4 * 1024;

/// Operation mix, percent; the remainder is `INCR`.
#[derive(Clone, Copy)]
struct Mix {
    get: u64,
    set: u64,
}

impl Mix {
    /// The `get/set/incr` label carried by table rows and JSON points.
    fn label(&self) -> String {
        format!("{}/{}/{}", self.get, self.set, 100 - self.get - self.set)
    }
}

/// The standard read-heavy service mix.
const STANDARD: Mix = Mix { get: 90, set: 5 };
/// The group-commit mix: pure mutations, where batched shard acks are
/// the whole story.
const WRITE_HEAVY: Mix = Mix { get: 0, set: 100 };

struct Point {
    clients: usize,
    shards: usize,
    pipeline: usize,
    middleware_depth: usize,
    mix: Mix,
    elapsed: Duration,
    total_ops: u64,
    applied: u64,
    /// Batches the shard owners drained (one group ack each).
    shard_batches: u64,
    get_hits: u64,
    gets: u64,
}

impl Point {
    fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Applied mutations per shard sweep: the group-commit factor.
    fn mutations_per_sweep(&self) -> f64 {
        self.applied as f64 / self.shard_batches.max(1) as f64
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A comma-separated usize list from the environment (`"4,16,64"`).
fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            v.split(',')
                .map(|part| part.trim().parse().ok())
                .collect::<Option<Vec<usize>>>()
        })
        .filter(|list| !list.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// The stack a sweep point runs behind: depth 0 = no middleware,
/// anything else = the full seven layers.
fn depth_config(depth: usize) -> MiddlewareConfig {
    match depth {
        0 => MiddlewareConfig::none(),
        _ => MiddlewareConfig::full(),
    }
}

fn shared_keys() -> bool {
    std::env::var("DEGO_BENCH_SHARED_KEYS").is_ok_and(|v| v == "1")
}

/// One client thread's closed loop: issue `pipeline` commands, read
/// `pipeline` replies, repeat until the deadline. With pinned keys the
/// client draws from its own `[base, base+span)` slice.
///
/// Every client connects first and then parks on `barrier`, so the
/// measured window holds sustained load only — at hundreds of
/// connections the connect/spawn ramp would otherwise eat a visible
/// slice of the window and skew the wide points low.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    pipeline: usize,
    mix: Mix,
    key_base: u64,
    key_span: u64,
    window: Duration,
    barrier: &std::sync::Barrier,
    stop: &AtomicBool,
) -> u64 {
    let mut client = Client::connect(addr).expect("load client connects");
    barrier.wait();
    let deadline = Instant::now() + window;
    let mut rng = XorShift64::new(seed);
    let mut ops = 0u64;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        for _ in 0..pipeline {
            let key = key_base + rng.next_bounded(key_span);
            match rng.next_bounded(100) {
                p if p < mix.get => client.send(&format!("GET k{key}")),
                p if p < mix.get + mix.set => client.send(&format!("SET k{key} v{ops}")),
                _ => client.send(&format!("INCR c{key} 1")),
            }
            .expect("send");
        }
        client.flush().expect("flush");
        for _ in 0..pipeline {
            client.read_reply().expect("reply");
        }
        ops += pipeline as u64;
    }
    ops
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    clients: usize,
    shards: usize,
    pipeline: usize,
    window: Duration,
    middleware: MiddlewareConfig,
    mix: Mix,
) -> Point {
    let server = spawn(ServerConfig {
        shards,
        capacity: KEY_RANGE * 2,
        middleware,
        ..ServerConfig::default()
    })
    .expect("bench server boots");
    let middleware_depth = server.stack().depth();
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    // +1: the bench thread joins the barrier to timestamp the window
    // start the instant the whole fleet is connected.
    let barrier = std::sync::Barrier::new(clients + 1);
    let mut started = Instant::now();
    let shared = shared_keys();
    let total_ops: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                let barrier = &barrier;
                // Pinned mode: client c owns keys [c*span, (c+1)*span).
                let span = if shared {
                    KEY_RANGE as u64
                } else {
                    (KEY_RANGE / clients).max(1) as u64
                };
                let base = if shared { 0 } else { c as u64 * span };
                s.spawn(move || {
                    client_loop(
                        addr,
                        0x5eed + c as u64,
                        pipeline,
                        mix,
                        base,
                        span,
                        window,
                        barrier,
                        stop,
                    )
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = started.elapsed();
    let stats = server.stats();
    server.shutdown();
    Point {
        clients,
        shards,
        pipeline,
        middleware_depth,
        mix,
        elapsed,
        total_ops,
        applied: stats.applied,
        shard_batches: stats.shard_batches,
        get_hits: stats.get_hits,
        gets: stats.gets,
    }
}

/// Best-of-`runs` for the headline comparisons: closed-loop throughput
/// noise on a shared box is one-sided (scheduler interference only
/// slows a run down), so the max is the least-biased estimator.
fn run_best(
    runs: usize,
    clients: usize,
    shards: usize,
    pipeline: usize,
    window: Duration,
    middleware: &MiddlewareConfig,
    mix: Mix,
) -> Point {
    (0..runs)
        .map(|_| run_point(clients, shards, pipeline, window, middleware.clone(), mix))
        .max_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()))
        .expect("at least one run")
}

fn write_point(out: &mut String, p: &Point) {
    let _ = write!(
        out,
        "{{\"clients\": {}, \"shards\": {}, \"pipeline\": {}, \"middleware_depth\": {}, \"mix\": \"{}\", \"elapsed_ms\": {}, \"total_ops\": {}, \"ops_per_sec\": {:.0}, \"applied\": {}, \"gets\": {}, \"get_hits\": {}}}",
        p.clients,
        p.shards,
        p.pipeline,
        p.middleware_depth,
        p.mix.label(),
        p.elapsed.as_millis(),
        p.total_ops,
        p.ops_per_sec(),
        p.applied,
        p.gets,
        p.get_hits,
    );
}

/// The throughput cost of `slow` relative to `fast`, percent
/// (positive = cost).
fn overhead_pct(fast: &Point, slow: &Point) -> f64 {
    100.0 * (1.0 - slow.ops_per_sec() / fast.ops_per_sec().max(1e-9))
}

/// The (base, high) pair the `conn_scaling_x` ratio is computed over:
/// the points at 4 and 256 connections when the sweep includes them,
/// otherwise the narrowest and widest counts swept.
fn conn_scaling_pair(conns: &[Point]) -> Option<(&Point, &Point)> {
    let at = |want: usize| conns.iter().find(|p| p.clients == want);
    let base = at(4).or_else(|| conns.iter().min_by_key(|p| p.clients))?;
    let high = at(256).or_else(|| conns.iter().max_by_key(|p| p.clients))?;
    (base.clients < high.clients).then_some((base, high))
}

/// The sampled-tracing A/B: the full stack with span sampling off vs
/// the default 1-in-N.
struct ObservabilityOverhead {
    sample_every: u32,
    nosample: Point,
    sampled: Point,
}

/// The whole-recording-plane A/B: flight recorder + slowlog + span
/// sampling + windowed histograms, everything off vs every default on.
struct TracingOverhead {
    off: Point,
    on: Point,
}

/// The stack-dispatch A/B: interleaved (full stack, bare store) pairs
/// of batch-1 throughput, ops/s.
struct Dispatch {
    pairs: Vec<(f64, f64)>,
}

impl Dispatch {
    /// `f` over the pairs, sorted ascending.
    fn sorted(&self, f: impl Fn(&(f64, f64)) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.pairs.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The in-memory store the dispatch A/B bottoms out in — cheap enough
/// that admission dominates, stateful enough that commands do real
/// work.
struct MapStore {
    map: HashMap<String, String>,
}

impl Service for MapStore {
    fn call(&mut self, req: Request) -> Response {
        match req.command {
            Command::Get(k) => Response::ok(match self.map.get(&k) {
                Some(v) => Reply::Value(v.clone()),
                None => Reply::Nil,
            }),
            Command::Set(k, v) => {
                self.map.insert(k, v);
                Response::ok(Reply::Status("OK"))
            }
            Command::Incr(k, d) => {
                let next = self
                    .map
                    .get(&k)
                    .and_then(|v| v.parse::<i64>().ok())
                    .unwrap_or(0)
                    + d;
                self.map.insert(k, next.to_string());
                Response::ok(Reply::Int(next))
            }
            _ => Response::ok(Reply::Status("OK")),
        }
    }
}

/// The full stack with the rate limiter effectively off, so the A/B
/// measures admission, not token exhaustion.
fn dispatch_stack() -> std::sync::Arc<Stack> {
    let mut config = MiddlewareConfig::full();
    config.rate.burst = 1 << 40;
    config.rate.refill_per_sec = u64::MAX / (1 << 22);
    Stack::build(&config)
}

/// A fresh command from the standard mix over a small key range.
fn dispatch_command(rng: &mut XorShift64, ops: u64) -> Command {
    let key = rng.next_bounded(KEY_RANGE as u64);
    match rng.next_bounded(100) {
        p if p < STANDARD.get => Command::Get(format!("k{key}")),
        p if p < STANDARD.get + STANDARD.set => Command::Set(format!("k{key}"), format!("v{ops}")),
        _ => Command::Incr(format!("c{key}"), 1),
    }
}

/// One closed in-process loop: drive singletons through the full
/// stack's `call_one` (`full`) or straight into the store until the
/// window closes, returning the ops/s of the fastest chunk. Request
/// construction (rng draws, key formatting) happens *outside* the timed
/// chunks — the point measures admission, not `format!`.
fn run_dispatch_point(full: bool, window: Duration) -> f64 {
    let session = Session {
        client: "bench:dispatch".into(),
    };
    let store = || MapStore {
        map: HashMap::new(),
    };
    let mut chain = dispatch_stack()
        .fused_service(&session, store())
        .expect("every stack builds the typed chain");
    let mut bare = store();
    let mut rng = XorShift64::new(0xd15);
    // Pre-built command pool, cycled; chunks of this size are timed so
    // clock reads stay off the per-op cost.
    const POOL: usize = 1024;
    let pool: Vec<Command> = (0..POOL)
        .map(|i| dispatch_command(&mut rng, i as u64))
        .collect();
    let mut fastest = Duration::MAX;
    let started = Instant::now();
    while started.elapsed() < window {
        let reqs: Vec<Request> = pool.iter().cloned().map(Request::new).collect();
        let t = Instant::now();
        for req in reqs {
            if full {
                chain.call_one(req);
            } else {
                bare.call(req);
            }
        }
        fastest = fastest.min(t.elapsed());
    }
    POOL as f64 / fastest.as_secs_f64().max(1e-9)
}

/// `pairs` interleaved (full, bare) runs, alternating which arm goes
/// first, so host drift hits both arms alike.
fn run_dispatch(pairs: usize, window: Duration) -> Dispatch {
    Dispatch {
        pairs: (0..pairs)
            .map(|i| {
                if i % 2 == 0 {
                    let full = run_dispatch_point(true, window);
                    (full, run_dispatch_point(false, window))
                } else {
                    let bare = run_dispatch_point(false, window);
                    (run_dispatch_point(true, window), bare)
                }
            })
            .collect(),
    }
}

/// The seeded apply stall every shard owner carries during the
/// overload A/B.
const OVERLOAD_STALL: Duration = Duration::from_millis(1);
/// The shed-on side's queue-depth threshold. Two clients flooding
/// 32-deep write bursts over the stalled shards hold each queue well
/// past this, so the shedder demonstrably fires (at 8 it sat right at
/// the expected depth and shedding was marginal).
const OVERLOAD_SHED_DEPTH: u64 = 4;
/// Fixed load shape for the overload A/B (small on purpose — the
/// stalled shards, not the socket plane, are the bottleneck).
const OVERLOAD_CLIENTS: usize = 2;
const OVERLOAD_PIPELINE: usize = 32;

/// One side of the overload A/B: ops pushed through the closed loop
/// (admitted or shed), the worst windowed shard ack p99, and how many
/// writes were shed.
struct OverloadPoint {
    ops: u64,
    elapsed: Duration,
    ack_p99_us: u64,
    shed: u64,
}

impl OverloadPoint {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Write-heavy closed loop against a server whose every shard owner
/// sleeps [`OVERLOAD_STALL`] per apply; `shed` arms the queue-depth
/// shedder. Telemetry is read over the wire (`STATS`/`STATS SHARDS`)
/// while the server is still up, exactly as an operator would.
fn run_overload_point(shed: bool, shards: usize, window: Duration) -> OverloadPoint {
    let mut middleware = MiddlewareConfig::full();
    if shed {
        middleware.shed.queue_depth = OVERLOAD_SHED_DEPTH;
    }
    let server = spawn(ServerConfig {
        shards,
        capacity: KEY_RANGE * 2,
        middleware,
        shard_delay: Some(OVERLOAD_STALL),
        ..ServerConfig::default()
    })
    .expect("overload server boots");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let barrier = std::sync::Barrier::new(OVERLOAD_CLIENTS + 1);
    let mut started = Instant::now();
    let ops: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
            .map(|c| {
                let stop = &stop;
                let barrier = &barrier;
                let span = (KEY_RANGE / OVERLOAD_CLIENTS).max(1) as u64;
                s.spawn(move || {
                    client_loop(
                        addr,
                        0x0bad + c as u64,
                        OVERLOAD_PIPELINE,
                        WRITE_HEAVY,
                        c as u64 * span,
                        span,
                        window,
                        barrier,
                        stop,
                    )
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = started.elapsed();
    let mut probe = Client::connect(addr).expect("overload probe connects");
    let shard_stats = probe.stats_shards().expect("STATS SHARDS");
    let ack_p99_us = (0..shards)
        .filter_map(|i| shard_stats.get(&format!("shard{i}_ack_p99_us")))
        .filter_map(|v| v.parse().ok())
        .max()
        .unwrap_or(0);
    let shed_count = probe
        .stats_map()
        .expect("STATS")
        .get("mw_shed_shed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    server.shutdown();
    OverloadPoint {
        ops,
        elapsed,
        ack_p99_us,
        shed: shed_count,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    sweep: &[Point],
    batch_depth: &[Point],
    overhead_pair: &[Point],
    commit: &Point,
    conns: &[Point],
    obs: &ObservabilityOverhead,
    tracing: &TracingOverhead,
    dispatch: &Dispatch,
    overload: &(OverloadPoint, OverloadPoint),
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"server_load\",\n  \"key_range\": 4096,\n");
    let _ = writeln!(
        out,
        "  \"key_mode\": \"{}\",",
        if shared_keys() { "shared" } else { "pinned" }
    );
    out.push_str("  \"points\": [\n");
    let points: Vec<&Point> = sweep.iter().chain(overhead_pair.iter()).collect();
    for (i, p) in points.iter().enumerate() {
        out.push_str("    ");
        write_point(&mut out, p);
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"batch_depth\": [\n");
    for (i, p) in batch_depth.iter().enumerate() {
        out.push_str("    ");
        write_point(&mut out, p);
        out.push_str(if i + 1 < batch_depth.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"connections\": [\n");
    for (i, p) in conns.iter().enumerate() {
        out.push_str("    ");
        write_point(&mut out, p);
        out.push_str(if i + 1 < conns.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    // conn_scaling: sustained throughput at 256 connections relative
    // to 4 (or the widest/narrowest swept counts) — fan-in across the
    // loops must not collapse as connections grow.
    if let Some((base, high)) = conn_scaling_pair(conns) {
        let _ = write!(
            out,
            ",\n  \"conn_scaling\": {{\"base_clients\": {}, \"high_clients\": {}, \"base_ops_per_sec\": {:.0}, \"high_ops_per_sec\": {:.0}, \"conn_scaling_x\": {:.3}, \"target_x\": 0.9}}",
            base.clients,
            high.clients,
            base.ops_per_sec(),
            high.ops_per_sec(),
            high.ops_per_sec() / base.ops_per_sec().max(1e-9),
        );
    }
    // observability_overhead: the cost of the sampled per-layer span
    // plane — the same full-stack load with tracing spans off vs the
    // default 1-in-N sampling (positive = cost; target ≤ 2%).
    let _ = write!(
        out,
        ",\n  \"observability_overhead\": {{\"clients\": {}, \"pipeline\": {}, \"sample_every\": {}, \"nosample_ops_per_sec\": {:.0}, \"sampled_ops_per_sec\": {:.0}, \"overhead_pct\": {:.1}}}",
        obs.sampled.clients,
        obs.sampled.pipeline,
        obs.sample_every,
        obs.nosample.ops_per_sec(),
        obs.sampled.ops_per_sec(),
        overhead_pct(&obs.nosample, &obs.sampled),
    );
    // tracing_overhead: the whole recording plane — flight recorder,
    // slowlog, span sampling and windowed histograms, all off vs every
    // default on (positive = cost; target ≤ 3% at default sampling).
    let _ = write!(
        out,
        ",\n  \"tracing_overhead\": {{\"clients\": {}, \"pipeline\": {}, \"off_ops_per_sec\": {:.0}, \"on_ops_per_sec\": {:.0}, \"overhead_pct\": {:.1}}}",
        tracing.on.clients,
        tracing.on.pipeline,
        tracing.off.ops_per_sec(),
        tracing.on.ops_per_sec(),
        overhead_pct(&tracing.off, &tracing.on),
    );
    // stack_dispatch: batch-1 call_one through the full stack vs the
    // bare store, in interleaved pairs. The headline is the median
    // per-pair full/bare ratio (target ≥ 0.072×).
    let median = |v: Vec<f64>| v[v.len() / 2];
    let ratios = dispatch.sorted(|(full, bare)| full / bare.max(1e-9));
    let _ = write!(
        out,
        ",\n  \"stack_dispatch\": {{\"depth\": 7, \"batch\": 1, \"pairs\": {}, \"full_ops_per_sec\": {:.0}, \"bare_ops_per_sec\": {:.0}, \"batch1_full_over_bare_x\": {:.3}, \"min_x\": {:.3}, \"max_x\": {:.3}, \"target_x\": 0.072}}",
        dispatch.pairs.len(),
        median(dispatch.sorted(|p| p.0)),
        median(dispatch.sorted(|p| p.1)),
        ratios[ratios.len() / 2],
        ratios[0],
        ratios[ratios.len() - 1],
    );
    if let [depth0, depth7] = overhead_pair {
        // middleware_overhead: the batched pipeline's throughput cost —
        // how much slower the same load runs at stack depth 7 vs depth
        // 0 (positive = cost; 14.7% pre-batching, target ≤ 8%) — plus
        // group commit: write bursts of 32 through the full stack, and
        // how many of those writes each shard sweep acknowledged.
        let _ = write!(
            out,
            ",\n  \"middleware_overhead\": {{\"clients\": {}, \"depth0_ops_per_sec\": {:.0}, \"depth7_ops_per_sec\": {:.0}, \"overhead_pct\": {:.1}, \"write_batch32_ops_per_sec\": {:.0}, \"mutations_per_sweep\": {:.2}}}",
            depth0.clients,
            depth0.ops_per_sec(),
            depth7.ops_per_sec(),
            overhead_pct(depth0, depth7),
            commit.ops_per_sec(),
            commit.mutations_per_sweep(),
        );
    }
    // overload: the shed A/B under a seeded per-apply stall. With
    // shedding armed the stalled shards work down a short queue, so
    // the windowed ack p99 stays bounded instead of growing with the
    // closed-loop's whole in-flight window.
    let (off, on) = overload;
    let _ = write!(
        out,
        ",\n  \"overload\": {{\"stall_ms\": {}, \"clients\": {}, \"pipeline\": {}, \"shed_queue_depth\": {}, \"shed_off\": {{\"ops_per_sec\": {:.0}, \"ack_p99_us\": {}, \"shed\": {}}}, \"shed_on\": {{\"ops_per_sec\": {:.0}, \"ack_p99_us\": {}, \"shed\": {}}}}}",
        OVERLOAD_STALL.as_millis(),
        OVERLOAD_CLIENTS,
        OVERLOAD_PIPELINE,
        OVERLOAD_SHED_DEPTH,
        off.ops_per_sec(),
        off.ack_p99_us,
        off.shed,
        on.ops_per_sec(),
        on.ack_p99_us,
        on.shed,
    );
    out.push_str("\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let env = BenchEnv::from_args(&args);
    let shards = env_usize("DEGO_BENCH_SHARDS", 4);
    let pipeline = env_usize("DEGO_BENCH_PIPELINE", 16);
    println!(
        "=== dego-server load: {:?} per point, {shards} shards, pipeline {pipeline}, clients {:?}, {} keys ===\n",
        env.duration,
        env.threads,
        if shared_keys() { "shared" } else { "pinned" }
    );

    let mut table = Table::new(["clients", "mw", "pipe", "mix", "Kops/s", "applied", "hit%"]);
    let row = |p: &Point, table: &mut Table| {
        table.row([
            p.clients.to_string(),
            p.middleware_depth.to_string(),
            p.pipeline.to_string(),
            p.mix.label(),
            fmt_kops(p.ops_per_sec()),
            p.applied.to_string(),
            format!("{:.1}", 100.0 * p.get_hits as f64 / p.gets.max(1) as f64),
        ]);
    };

    // 1. Client sweep, storage plane only.
    let mut points = Vec::new();
    for &clients in &env.threads {
        let p = run_point(
            clients,
            shards,
            pipeline,
            env.duration,
            depth_config(0),
            STANDARD,
        );
        row(&p, &mut table);
        points.push(p);
    }
    let overhead_clients = env.threads.iter().copied().max().unwrap_or(1);

    // 2. Batch-depth sweep: the full stack across burst sizes.
    let mut batch_points = Vec::new();
    for depth in [1usize, 8, 32] {
        let p = run_point(
            overhead_clients,
            shards,
            depth,
            env.duration,
            depth_config(7),
            STANDARD,
        );
        row(&p, &mut table);
        batch_points.push(p);
    }

    // 3. Middleware overhead: the same load, stack depth 0 vs 5, at the
    // largest swept client count (both batched — the production path —
    // at the batch-native burst size the tentpole targets).
    let overhead_pipeline = pipeline.max(32);
    let mut overhead_points = Vec::new();
    for depth in [0usize, 7] {
        let p = run_best(
            3,
            overhead_clients,
            shards,
            overhead_pipeline,
            env.duration,
            &depth_config(depth),
            STANDARD,
        );
        row(&p, &mut table);
        overhead_points.push(p);
    }

    // 4. Group commit: write bursts of 32 through the full stack.
    let commit = run_best(
        3,
        overhead_clients,
        shards,
        32,
        env.duration,
        &depth_config(7),
        WRITE_HEAVY,
    );
    row(&commit, &mut table);

    // 5. Connection sweep: the full stack at a fixed pipeline depth,
    // across connection counts — the accept/funnel scaling curve.
    let conn_counts = env_usize_list("DEGO_BENCH_CONNS", &[4, 64, 256, 1024]);
    let mut conn_points = Vec::new();
    for &conns in &conn_counts {
        let p = run_point(
            conns,
            shards,
            pipeline,
            env.duration,
            depth_config(7),
            STANDARD,
        );
        row(&p, &mut table);
        conn_points.push(p);
    }

    // 6. Observability overhead: the full stack with span sampling off
    // vs the default 1-in-64, at burst depth 5 (short bursts keep the
    // per-command sampling tick on the critical path).
    let mut nosample = MiddlewareConfig::full();
    nosample.trace.sample_every = 0;
    let sampled = MiddlewareConfig::full();
    let sample_every = sampled.trace.sample_every;
    let obs = ObservabilityOverhead {
        sample_every,
        nosample: run_best(
            3,
            overhead_clients,
            shards,
            5,
            env.duration,
            &nosample,
            STANDARD,
        ),
        sampled: run_best(
            3,
            overhead_clients,
            shards,
            5,
            env.duration,
            &sampled,
            STANDARD,
        ),
    };
    row(&obs.nosample, &mut table);
    row(&obs.sampled, &mut table);

    // 7. Tracing overhead: every recording surface off (no spans, no
    // slowlog, no flight recorder, no window slots) vs every default
    // on — the headline cost of the whole observability tentpole.
    let mut recording_off = MiddlewareConfig::full();
    recording_off.trace.sample_every = 0;
    recording_off.trace.slowlog_capacity = 0;
    recording_off.trace.trace_capacity = 0;
    recording_off.trace.window_secs = 0;
    let tracing = TracingOverhead {
        off: run_best(
            3,
            overhead_clients,
            shards,
            5,
            env.duration,
            &recording_off,
            STANDARD,
        ),
        on: run_best(
            3,
            overhead_clients,
            shards,
            5,
            env.duration,
            &MiddlewareConfig::full(),
            STANDARD,
        ),
    };
    row(&tracing.off, &mut table);
    row(&tracing.on, &mut table);

    // 8. Stack dispatch: full stack vs bare store, in-process, batch 1.
    let dispatch = run_dispatch(5, env.duration);

    // 9. Overload: the shed A/B under a seeded per-apply stall.
    let overload = (
        run_overload_point(false, shards, env.duration),
        run_overload_point(true, shards, env.duration),
    );

    println!("{}", table.render());
    let pct = overhead_pct(&overhead_points[0], &overhead_points[1]);
    println!(
        "middleware overhead at depth 7 (batched): {pct:.1}% ({} -> {} ops/s)",
        overhead_points[0].ops_per_sec() as u64,
        overhead_points[1].ops_per_sec() as u64
    );
    println!(
        "group commit at batch 32 (write-heavy): {:.2} mutations per shard sweep ({} ops/s)",
        commit.mutations_per_sweep(),
        commit.ops_per_sec() as u64
    );
    if let Some((base, high)) = conn_scaling_pair(&conn_points) {
        println!(
            "connection scaling ({} -> {} conns): {:.2}x ({} -> {} ops/s)",
            base.clients,
            high.clients,
            high.ops_per_sec() / base.ops_per_sec().max(1e-9),
            base.ops_per_sec() as u64,
            high.ops_per_sec() as u64
        );
    }
    println!(
        "observability overhead at sample 1-in-{sample_every}: {:.1}% ({} -> {} ops/s)",
        overhead_pct(&obs.nosample, &obs.sampled),
        obs.nosample.ops_per_sec() as u64,
        obs.sampled.ops_per_sec() as u64
    );
    println!(
        "tracing overhead, whole recording plane on vs off: {:.1}% ({} -> {} ops/s)",
        overhead_pct(&tracing.off, &tracing.on),
        tracing.off.ops_per_sec() as u64,
        tracing.on.ops_per_sec() as u64
    );
    for (full, bare) in &dispatch.pairs {
        println!(
            "stack dispatch batch 1: full stack {} ops/s, bare store {} ops/s ({:.3}x)",
            *full as u64,
            *bare as u64,
            full / bare.max(1e-9)
        );
    }
    println!(
        "overload (stall {}ms, write-heavy): shed off ack p99 {}us, shed on ack p99 {}us ({} writes shed)",
        OVERLOAD_STALL.as_millis(),
        overload.0.ack_p99_us,
        overload.1.ack_p99_us,
        overload.1.shed,
    );

    let json = write_json(
        &points,
        &batch_points,
        &overhead_points,
        &commit,
        &conn_points,
        &obs,
        &tracing,
        &dispatch,
        &overload,
    );
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!(
        "wrote BENCH_server.json ({} points)",
        points.len() + batch_points.len() + overhead_points.len() + conn_points.len()
    );
}
