//! A minimal Prometheus text-exposition responder.
//!
//! `--metrics-addr` spawns one thread running an HTTP/1.0 accept loop:
//! `GET /metrics` renders a point-in-time snapshot of every server and
//! middleware counter in the Prometheus text format (version 0.0.4);
//! `GET /trace` renders the flight recorder's captured trace trees as
//! JSON (slowest first); `GET /health` is liveness (200 as long as the
//! process serves); `GET /ready` is readiness (200 normally, 503 once
//! a drain has begun — the signal an orchestrator uses to stop routing
//! new traffic here). Each closes the connection after one reply;
//! anything else is a 404. One request per connection, served
//! sequentially — a scrape endpoint, not a web server. No HTTP library
//! is involved: the protocol surface is a request line in, a
//! `Content-Length`-framed body out.

use crate::stats::ServerStats;
use crate::store::Store;
use dego_middleware::{LatencyHistogram, LayerKind, PromText, Stack, WindowedHistogram};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A client gets this long to send its request line before the
/// responder hangs up (one stuck scraper must not wedge the loop).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// And this long to drain the reply. Without a write timeout a scraper
/// that stops reading mid-body pins the responder in `write` — during a
/// drain that keeps `/ready` probes from being answered, so the
/// orchestrator never sees the 503.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Bind `addr` and spawn the responder thread. Returns the bound
/// address (port 0 resolves here) and the join handle; the thread
/// exits once `stop` is up and the accept loop is poked with a
/// throwaway connection. `stop` is deliberately NOT the server's
/// shutdown flag: during a drain the responder keeps serving probes
/// (`/ready` answering 503 is how an orchestrator sees the drain) and
/// only goes down after the connection plane has flushed.
pub(crate) fn spawn_metrics(
    addr: SocketAddr,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stack: Arc<Stack>,
    stop: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("dego-metrics".into())
        .spawn(move || loop {
            let socket = match listener.accept() {
                Ok((socket, _)) => socket,
                Err(_) => {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    // Accept failures (fd pressure) must not busy-spin.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if stop.load(Ordering::Acquire) {
                return;
            }
            let _ = serve_one(socket, &store, &stats, &stack, &ready);
        })?;
    Ok((bound, handle))
}

/// Answer one scrape: read the request line, write the exposition (or
/// a 404), close.
fn serve_one(
    socket: TcpStream,
    store: &Store,
    stats: &ServerStats,
    stack: &Stack,
    ready: &AtomicBool,
) -> std::io::Result<()> {
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    socket.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(socket.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let is_get = parts.next() == Some("GET");
    let path = parts.next();
    let mut socket = socket;
    if is_get && matches!(path, Some("/health") | Some("/health/")) {
        // Liveness: the responder thread answering *is* the signal.
        let body = "ok\n";
        write!(
            socket,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else if is_get && matches!(path, Some("/ready") | Some("/ready/")) {
        // Readiness: 503 once a drain has begun, so load balancers
        // stop routing new traffic while the queues flush.
        let (status, body) = if ready.load(Ordering::Acquire) {
            ("200 OK", "ready\n")
        } else {
            ("503 Service Unavailable", "draining\n")
        };
        write!(
            socket,
            "HTTP/1.0 {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            status,
            body.len(),
            body
        )?;
    } else if is_get && matches!(path, Some("/metrics") | Some("/metrics/")) {
        let body = render_exposition(store, stats, stack, ready.load(Ordering::Acquire));
        write!(
            socket,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else if is_get && matches!(path, Some("/trace") | Some("/trace/")) {
        let body = render_trace_json(stack);
        write!(
            socket,
            "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        let body = "not found\n";
        write!(
            socket,
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    }
    socket.flush()
}

/// Render the flight recorder's trace trees (slowest first) as one
/// JSON object: `{"entries":[{...},...]}`.
fn render_trace_json(stack: &Stack) -> String {
    let entries: Vec<String> = stack
        .metrics()
        .flight
        .entries()
        .iter()
        .map(|t| t.render_json())
        .collect();
    format!("{{\"entries\":[{}]}}\n", entries.join(","))
}

/// Render every counter, gauge and histogram the server knows about.
///
/// Families are grouped by plane: server counters (`dego_*_total`),
/// storage-plane gauges and per-shard series (`dego_shard_*`), then
/// the middleware pipeline (`dego_mw_*`) including the sampled
/// per-layer admission-cost histograms.
fn render_exposition(store: &Store, stats: &ServerStats, stack: &Stack, ready: bool) -> String {
    let snap = stats.snapshot(store.applied_since_reset());
    let mut prom = PromText::new();

    prom.gauge(
        "dego_ready",
        "1 while the server accepts new traffic, 0 once a drain began.",
        ready as u64,
    );
    prom.counter(
        "dego_connections_total",
        "Connections accepted since boot.",
        snap.connections,
    );
    prom.counter(
        "dego_commands_total",
        "Request lines handled.",
        snap.commands,
    );
    prom.counter("dego_gets_total", "GETs served (hit or miss).", snap.gets);
    prom.counter(
        "dego_get_hits_total",
        "GETs that found the key.",
        snap.get_hits,
    );
    prom.counter(
        "dego_mutations_total",
        "Mutations enqueued to shard owners.",
        snap.mutations,
    );
    prom.counter(
        "dego_applied_total",
        "Mutations applied by shard owners.",
        store.applied.get(),
    );
    prom.counter(
        "dego_timeline_reads_total",
        "TIMELINE reads served.",
        snap.timeline_reads,
    );
    prom.counter(
        "dego_errors_total",
        "Protocol errors returned.",
        snap.errors,
    );
    prom.counter(
        "dego_accept_errors_total",
        "accept() failures observed by the accept loop.",
        snap.accept_errors,
    );
    prom.counter(
        "dego_shard_batches_total",
        "Mutation batches drained by shard owners (group commits).",
        snap.shard_batches,
    );
    prom.counter(
        "dego_idle_closed_total",
        "Connections reaped by the event loops' idle-timeout sweep.",
        snap.idle_closed,
    );
    prom.counter(
        "dego_cas_failures_total",
        "Process-wide CAS retries (contention stall proxy).",
        snap.contention.cas_failures,
    );
    prom.counter(
        "dego_lock_spins_total",
        "Process-wide lock spin events.",
        snap.contention.lock_spins,
    );
    prom.counter(
        "dego_rmw_ops_total",
        "Process-wide read-modify-write operations.",
        snap.contention.rmw_ops,
    );
    prom.gauge("dego_shards", "Storage shards.", store.shards() as u64);
    prom.gauge(
        "dego_keys",
        "Keys in the string keyspace.",
        store.kv.len() as u64,
    );

    let shard_label = |i: usize| vec![("shard", i.to_string())];
    let depths: Vec<_> = store
        .telemetry()
        .iter()
        .enumerate()
        .map(|(i, t)| (shard_label(i), t.queue_depth()))
        .collect();
    prom.gauge_vec(
        "dego_shard_queue_depth",
        "Mutations enqueued to the shard but not yet applied.",
        &depths,
    );
    let enqueued: Vec<_> = store
        .telemetry()
        .iter()
        .enumerate()
        .map(|(i, t)| (shard_label(i), t.enqueued()))
        .collect();
    prom.counter_vec(
        "dego_shard_enqueued_total",
        "Mutations handed to the shard since boot.",
        &enqueued,
    );
    let batch_sizes: Vec<(Vec<(&str, String)>, &LatencyHistogram)> = store
        .telemetry()
        .iter()
        .enumerate()
        .map(|(i, t)| (shard_label(i), t.drained_batch().lifetime()))
        .collect();
    prom.histogram_vec(
        "dego_shard_drained_batch_size",
        "Group-commit width: mutations per drained batch.",
        &batch_sizes,
    );
    let ack_us: Vec<(Vec<(&str, String)>, &LatencyHistogram)> = store
        .telemetry()
        .iter()
        .enumerate()
        .map(|(i, t)| (shard_label(i), t.ack_us().lifetime()))
        .collect();
    prom.histogram_vec(
        "dego_shard_ack_us",
        "Enqueue-to-apply latency per mutation, microseconds.",
        &ack_us,
    );

    let m = stack.metrics();
    prom.gauge(
        "dego_mw_depth",
        "Configured middleware layers.",
        stack.depth() as u64,
    );
    prom.counter(
        "dego_mw_traced_total",
        "Commands observed by the trace layer.",
        m.traced.sum(),
    );
    prom.histogram(
        "dego_mw_read_us",
        "Read-class command latency below trace, microseconds.",
        m.read_latency.lifetime(),
    );
    prom.histogram(
        "dego_mw_write_us",
        "Write-class command latency below trace, microseconds.",
        m.write_latency.lifetime(),
    );
    prom.histogram(
        "dego_mw_control_us",
        "Control-class command latency below trace, microseconds.",
        m.control_latency.lifetime(),
    );
    prom.counter(
        "dego_mw_batches_total",
        "Pipelined bursts driven through call_batch.",
        m.batches.sum(),
    );
    prom.counter(
        "dego_mw_batch_commands_total",
        "Commands carried by those bursts.",
        m.batch_commands.sum(),
    );
    prom.histogram(
        "dego_mw_batch_us",
        "Whole-burst latency, microseconds.",
        m.batch_latency.lifetime(),
    );
    prom.counter(
        "dego_mw_rate_admitted_total",
        "Requests admitted by the rate limiter.",
        m.rate_admitted.sum().max(0) as u64,
    );
    prom.counter(
        "dego_mw_rate_rejected_total",
        "Requests rejected by the rate limiter.",
        m.rate_rejected.sum().max(0) as u64,
    );
    prom.counter(
        "dego_mw_rate_refilled_total",
        "Tokens refilled into buckets.",
        m.rate_refilled.sum().max(0) as u64,
    );
    prom.counter(
        "dego_mw_auth_admitted_total",
        "Commands admitted by the ACL check.",
        m.auth_admitted.sum(),
    );
    prom.counter(
        "dego_mw_auth_denied_total",
        "Commands or AUTH attempts denied.",
        m.auth_denied.sum(),
    );
    prom.counter(
        "dego_mw_auth_logins_total",
        "Successful AUTH logins.",
        m.auth_logins.sum(),
    );
    prom.counter(
        "dego_mw_auth_reloads_total",
        "Runtime policy/token reloads.",
        m.auth_reloads.sum(),
    );
    prom.counter(
        "dego_mw_deadline_checked_total",
        "Commands measured against a deadline budget.",
        m.deadline_checked.sum(),
    );
    prom.counter(
        "dego_mw_deadline_missed_total",
        "Commands that blew their budget.",
        m.deadline_missed.sum(),
    );
    prom.counter(
        "dego_mw_breaker_checked_total",
        "Commands measured by the circuit breaker.",
        m.breaker_checked.sum(),
    );
    prom.counter(
        "dego_mw_breaker_rejected_total",
        "Commands rejected while a breaker was open.",
        m.breaker_rejected.sum(),
    );
    prom.counter(
        "dego_mw_breaker_trips_total",
        "Closed- or half-open-to-open breaker transitions.",
        m.breaker_trips.sum(),
    );
    prom.counter(
        "dego_mw_breaker_recoveries_total",
        "Half-open-to-closed breaker transitions.",
        m.breaker_recoveries.sum(),
    );
    prom.counter(
        "dego_mw_breaker_probes_total",
        "Probe commands admitted through a half-open breaker.",
        m.breaker_probes.sum(),
    );
    let breaker_states: Vec<_> = ["read", "write"]
        .iter()
        .enumerate()
        .map(|(slot, class)| {
            (
                vec![("class", class.to_string())],
                m.breaker_state[slot].load(Ordering::Relaxed) as u64,
            )
        })
        .collect();
    prom.gauge_vec(
        "dego_mw_breaker_state",
        "Per-class breaker state: 0 closed, 1 open, 2 half-open.",
        &breaker_states,
    );
    prom.counter(
        "dego_mw_shed_checked_total",
        "Writes whose target shard's pressure was read.",
        m.shed_checked.sum(),
    );
    prom.counter(
        "dego_mw_shed_total",
        "Writes shed because their target shard was distressed.",
        m.shed_shed.sum(),
    );
    prom.counter(
        "dego_mw_ttl_checked_total",
        "Commands inspected by the TTL layer.",
        m.ttl_checked.sum(),
    );
    prom.counter(
        "dego_mw_ttl_armed_total",
        "TTL timers armed by EXPIRE.",
        m.ttl_armed.sum(),
    );
    prom.counter(
        "dego_mw_ttl_expired_total",
        "Keys lazily expired on GET.",
        m.ttl_expired.sum(),
    );
    prom.counter(
        "dego_mw_spans_sampled_total",
        "Requests whose per-layer costs were sampled.",
        m.spans_sampled.sum(),
    );
    let layers: Vec<(Vec<(&str, String)>, &LatencyHistogram)> = LayerKind::ALL
        .iter()
        .map(|k| {
            (
                vec![("layer", k.name().to_string())],
                m.layer_admission_us[k.index()].lifetime(),
            )
        })
        .collect();
    prom.histogram_vec(
        "dego_mw_layer_admission_us",
        "Sampled per-layer admission cost, microseconds.",
        &layers,
    );
    prom.gauge(
        "dego_mw_slowlog_len",
        "Entries currently held by the slowlog ring.",
        m.slowlog.len() as u64,
    );
    prom.counter(
        "dego_mw_slowlog_total",
        "Slow commands captured since boot (resets keep counting).",
        m.slowlog.total(),
    );
    prom.gauge(
        "dego_mw_flight_len",
        "Trace trees currently held by the flight recorder.",
        m.flight.len() as u64,
    );
    prom.counter(
        "dego_mw_flight_total",
        "Trace trees captured since boot (resets keep counting).",
        m.flight.total(),
    );

    // Rolling-window views: the histogram families above are cumulative
    // (Prometheus-idiomatic); these gauges report the last ~window
    // only, matching what `STATS` serves.
    prom.gauge(
        "dego_mw_window_seconds",
        "Rolling-percentile window width (0 = windowing disabled).",
        m.read_latency.window_secs(),
    );
    let classes: [(&str, &WindowedHistogram); 4] = [
        ("read", &m.read_latency),
        ("write", &m.write_latency),
        ("control", &m.control_latency),
        ("batch", &m.batch_latency),
    ];
    let class_label = |c: &str| vec![("class", c.to_string())];
    let p50: Vec<_> = classes
        .iter()
        .map(|(c, h)| (class_label(c), h.percentile_us(0.50)))
        .collect();
    prom.gauge_vec(
        "dego_mw_p50_us_window",
        "Windowed p50 latency per command class, microseconds.",
        &p50,
    );
    let p99: Vec<_> = classes
        .iter()
        .map(|(c, h)| (class_label(c), h.percentile_us(0.99)))
        .collect();
    prom.gauge_vec(
        "dego_mw_p99_us_window",
        "Windowed p99 latency per command class, microseconds.",
        &p99,
    );
    prom.finish()
}
