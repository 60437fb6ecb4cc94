//! Wire benchmark for `dego-server`.
//!
//! ```text
//! wirebench --server PATH --workload kv-read|kv-write|retwis --seed N
//!           --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Boots the release server binary in its own process with the full
//! middleware stack, preloads a fixed universe, then drives the
//! workload from two connections, one closed-loop thread each, checking
//! every reply. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The lines before it give every figure by name and unit, and the host
//! fingerprint. The exit code is 1 when any correctness check fails.
//!
//! The `--trace 1` run measures half its time untraced and half with the
//! benchmark's own spans on (written under `--out`), takes `STATS` and
//! `STATS SHARDS` deltas over the traced half, and
//! replays the workload's generated inputs through the `protocol`,
//! middleware and `dego_core` entry points. End-to-end figures come only
//! from untraced windows.

mod layers;
mod load;
mod server;
mod workload;

use layers::{delta, median, Stats};
use load::{Conn, ConnResult, Posted, Window};
use server::ServerProc;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Inputs, Workload, CONNS};

/// Servers booted and preloaded per run; `setup_s` is their median and
/// the last one serves the measured windows.
const SETUPS: usize = 3;

/// Each window is cut into this many slices; throughput and latency
/// percentiles are medians over the slices.
const SLICES: usize = 20;

/// Load before the first measured window, so lazy set-up is done.
const WARMUP_SECONDS: f64 = 1.0;

/// Idle `PING`s timed at pipeline 1 before the load.
const PINGS: usize = 2000;

/// Requests per pipelined burst while preloading.
const PRELOAD_CHUNK: usize = 512;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("wirebench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wirebench: {e}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(report) => {
            report.print();
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

/// A running server with its load connections.
struct Rig {
    server: ServerProc,
    conns: Vec<Conn>,
}

/// Boot a server and preload it; returns the rig and the seconds from
/// spawning the binary to a verified preload.
fn setup(bin: &Path, inputs: &Inputs) -> Result<(Rig, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conns = (0..CONNS)
        .map(|index| {
            let client =
                dego_server::Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
            Ok(Conn {
                client,
                generator: inputs.generator(index),
                index,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for phase in [Inputs::preload, Inputs::verify] {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let burst = phase(inputs, conn.index);
                    s.spawn(move || load::pipeline_checked(&mut conn.client, &burst, PRELOAD_CHUNK))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<Vec<()>, String>>()
        })
        .map_err(|e| format!("preload: {e}"))?;
    }
    let keys = conns[0]
        .client
        .stats_map()
        .map_err(|e| format!("STATS: {e}"))?;
    let keys: usize = keys
        .get("keys")
        .and_then(|k| k.parse().ok())
        .unwrap_or(usize::MAX);
    if keys != inputs.expected_keys() {
        return Err(format!(
            "preload: STATS keys={keys}, expected {}",
            inputs.expected_keys()
        ));
    }
    Ok((Rig { server, conns }, t0.elapsed().as_secs_f64()))
}

/// One window's results across connections, plus the CPU it cost.
struct Measured {
    results: Vec<ConnResult>,
    seconds: f64,
    server_cpu_us: f64,
    loadgen_cpu_us: f64,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.results.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.results.iter().map(|r| r.failed).sum()
    }

    fn replies(&self) -> u64 {
        self.results.iter().map(|r| r.replies).sum::<u64>().max(1)
    }

    fn samples(&self) -> usize {
        self.results
            .iter()
            .flat_map(|r| &r.slice_lat)
            .map(Vec::len)
            .sum()
    }

    /// Median over slices of correct replies per second.
    fn ops_per_s(&self) -> f64 {
        let slice_s = self.seconds / SLICES as f64;
        let mut per_slice: Vec<f64> = (0..SLICES)
            .map(|i| self.results.iter().map(|r| r.slice_ops[i]).sum::<u64>() as f64 / slice_s)
            .collect();
        median(&mut per_slice)
    }

    /// Median over slices of the slice's latency quantile `q`, in µs.
    fn latency_us(&self, q: f64) -> f64 {
        let mut per_slice: Vec<f64> = (0..SLICES)
            .filter_map(|i| {
                let mut lat: Vec<u32> = self
                    .results
                    .iter()
                    .flat_map(|r| r.slice_lat[i].iter().copied())
                    .collect();
                quantile(&mut lat, q).map(|ns| ns as f64 / 1000.0)
            })
            .collect();
        median(&mut per_slice)
    }

    fn print_errors(&self) {
        for e in self.results.iter().flat_map(|r| &r.errors) {
            eprintln!("wirebench: check failed: {e}");
        }
    }
}

fn quantile(values: &mut [u32], q: f64) -> Option<u32> {
    if values.is_empty() {
        return None;
    }
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len()) - 1;
    Some(*values.select_nth_unstable(rank).1)
}

fn measure(rig: &mut Rig, posted: &Posted, seconds: f64, traced: bool) -> Result<Measured, String> {
    let window = Window {
        seconds,
        slices: SLICES,
        traced,
    };
    let server_cpu = rig.server.cpu_us()?;
    let own_cpu = server::proc_cpu_us("/proc/self/stat")?;
    let server = &rig.server;
    let results = load::drive(&mut rig.conns, &window, posted, &|| server.kill());
    Ok(Measured {
        results,
        seconds,
        server_cpu_us: rig.server.cpu_us()? - server_cpu,
        loadgen_cpu_us: server::proc_cpu_us("/proc/self/stat")? - own_cpu,
    })
}

/// After the load: the `c*` counters must sum to the preload plus every
/// acknowledged `INCR`. Returns a failure description.
fn check_counters(rig: &mut Rig, inputs: &Inputs) -> Result<Option<String>, String> {
    let keys = inputs.counter_keys();
    if keys.is_empty() {
        return Ok(None);
    }
    let expected: i64 = rig.conns.iter().map(|c| c.generator.counter_total()).sum();
    let client = &mut rig.conns[0].client;
    let mut total = 0i64;
    for chunk in keys.chunks(PRELOAD_CHUNK) {
        let lines: Vec<String> = chunk.iter().map(|k| format!("GET {k}")).collect();
        for (key, reply) in chunk
            .iter()
            .zip(client.pipeline(&lines).map_err(|e| format!("GET: {e}"))?)
        {
            match reply {
                dego_server::ClientReply::Value(v) => match v.parse::<i64>() {
                    Ok(n) => total += n,
                    Err(_) => return Ok(Some(format!("counter {key} holds {v:?}"))),
                },
                other => return Ok(Some(format!("counter {key}: {other:?}"))),
            }
        }
    }
    Ok((total != expected).then(|| format!("counters sum to {total}, expected {expected}")))
}

/// A metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    header: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        let mut out = std::io::stdout().lock();
        for line in &self.header {
            let _ = writeln!(out, "{line}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<32} {ratio} ratio ({} of {} attempted)",
            "failed_ratio", self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{:<32} {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        // Stop the previous server before booting the next.
        drop(rig.take());
        let (booted, seconds) = setup(&args.server, &inputs)?;
        setup_s.push(seconds);
        rig = Some(booted);
    }
    let mut rig = rig.expect("at least one setup");
    let setup_s = median(&mut setup_s);

    let mut header = vec![
        format!(
            "# wirebench workload={} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("# host {}", fingerprint(&rig.server)),
    ];
    let posted = Posted::default();
    let ping_us = if args.trace {
        Some(ping_rtt_us(&mut rig)?)
    } else {
        None
    };
    let warmup = measure(&mut rig, &posted, WARMUP_SECONDS, false)?;
    // A traced run splits its time between an untraced and a traced
    // window of equal length, so their difference is the tracing cost.
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&mut rig, &posted, window_s, false)?;
    let mut failed = warmup.failed() + plain.failed();
    let mut attempted = warmup.attempted() + plain.attempted();
    warmup.print_errors();
    plain.print_errors();

    let metrics = if !args.trace {
        header.push(format!("# latency samples {}", plain.samples()));
        vec![
            metric("ops_per_s", plain.ops_per_s(), "1/s"),
            metric("p50_us", plain.latency_us(0.50), "us"),
            metric("p99_us", plain.latency_us(0.99), "us"),
            metric(
                "cpu_us_per_op",
                plain.server_cpu_us / plain.replies() as f64,
                "us",
            ),
            metric("rss_mib", rig.server.peak_rss_mib()?, "MiB"),
            metric("setup_s", setup_s, "s"),
        ]
    } else {
        let client = &mut rig.conns[0].client;
        client
            .stats_reset()
            .map_err(|e| format!("STATS RESET: {e}"))?;
        let before = layers::snapshot(client)?;
        let traced = measure(&mut rig, &posted, window_s, true)?;
        let after = layers::snapshot(&mut rig.conns[0].client)?;
        traced.print_errors();
        failed += traced.failed();
        attempted += traced.attempted();
        let spans = write_spans(&args.out, args.workload, &traced)?;
        header.push(format!(
            "# spans {} written to {}",
            spans.0,
            spans.1.display()
        ));
        layer_metrics(
            &inputs,
            &plain,
            &traced,
            &before,
            &after,
            ping_us.expect("traced runs ping"),
        )
    };

    if let Some(why) = check_counters(&mut rig, &inputs)? {
        eprintln!("wirebench: check failed: {why}");
        failed += 1;
    }
    drop(rig);
    Ok(Report {
        header,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn ping_rtt_us(rig: &mut Rig) -> Result<f64, String> {
    let client = &mut rig.conns[0].client;
    let mut rtt: Vec<u32> = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().map_err(|e| format!("PING: {e}"))?;
        rtt.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
    }
    Ok(quantile(&mut rtt, 0.5).unwrap_or(0) as f64 / 1000.0)
}

fn layer_metrics(
    inputs: &Inputs,
    plain: &Measured,
    traced: &Measured,
    before: &Stats,
    after: &Stats,
    ping_us: f64,
) -> Vec<Metric> {
    let d = |name: &str| delta(before, after, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let commands = d("commands");

    let bursts: Vec<_> = traced.results.iter().flat_map(|r| &r.bursts).collect();
    let mut wait_first: Vec<f64> = bursts
        .iter()
        .map(|b| (b.first - b.flushed) as f64 / 1000.0)
        .collect();
    let mut drain: Vec<f64> = bursts
        .iter()
        .map(|b| (b.last - b.first) as f64 / 1000.0)
        .collect();

    let replay = layers::replay_bursts(inputs);
    let sample: Vec<_> = traced
        .results
        .iter()
        .flat_map(|r| r.reply_sample.iter().cloned())
        .collect();
    let (admission_ns, replay_rejected) = layers::admission_ns(&replay);
    let (get_ns, put_ns) = layers::map_ns(inputs, &replay);

    // Commands per admission call: each multi-command batch is one call,
    // every command outside one (singletons, STATS) is a call of its own.
    let batches = d("mw_batches");
    let batched = d("mw_batch_commands");
    let calls = batches + (commands - batched).max(0.0);
    let rejected = d("mw_rate_rejected")
        + d("mw_auth_denied")
        + d("mw_deadline_missed")
        + d("mw_breaker_rejected")
        + d("mw_shed_shed");
    // No GET served means no GET missed.
    let gets = d("gets");
    let hit_ratio = if gets > 0.0 {
        d("get_hits") / gets
    } else {
        1.0
    };
    let ack_p99 = (0..64)
        .map_while(|i| after.get(&format!("shard{i}_ack_p99_us")).copied())
        .fold(0.0, f64::max);

    if replay_rejected > 0 {
        eprintln!("wirebench: the admission replay rejected {replay_rejected} commands");
    }
    vec![
        metric("client.wait_first_us.p50", median(&mut wait_first), "us"),
        metric("client.drain_us.p50", median(&mut drain), "us"),
        metric("event_loop.ping_rtt_us.p50", ping_us, "us"),
        metric("protocol.parse_ns", layers::parse_ns(&replay), "ns"),
        metric("protocol.render_ns", layers::render_ns(&sample), "ns"),
        metric("admission.ns_per_cmd", admission_ns, "ns"),
        metric("admission.cmds_per_batch", ratio(commands, calls), "count"),
        metric(
            "admission.rejected_ratio",
            ratio(rejected, commands),
            "ratio",
        ),
        metric(
            "exec.mutations_per_cmd",
            ratio(d("mutations"), commands),
            "ratio",
        ),
        metric("exec.get_hit_ratio", hit_ratio, "ratio"),
        metric(
            "store.mutations_per_sweep",
            ratio(d("applied"), d("shard_batches")),
            "count",
        ),
        metric("store.ack_us.p99", ack_p99, "us"),
        metric("core.map_get_ns", get_ns, "ns"),
        metric("core.map_put_ns", put_ns, "ns"),
        metric("core.queue_offer_poll_ns", layers::queue_ns(&replay), "ns"),
        metric(
            "core.cas_failures_per_op",
            ratio(d("cas_failures"), commands),
            "ratio",
        ),
        metric(
            "core.lock_spins_per_op",
            ratio(d("lock_spins"), commands),
            "ratio",
        ),
        metric(
            "loadgen.cpu_us_per_op",
            plain.loadgen_cpu_us / plain.replies() as f64,
            "us",
        ),
        metric(
            "trace.overhead_ops_per_s",
            plain.ops_per_s() - traced.ops_per_s(),
            "1/s",
        ),
    ]
}

/// Write the traced window's spans, one per line: burst id, parent
/// (`-` for the root), name, start and end in ns from the window start.
/// Every burst is a `client.burst` span with `client.flush`,
/// `client.wait_first` and `client.drain` children sharing its id.
fn write_spans(
    dir: &Path,
    workload: Workload,
    traced: &Measured,
) -> Result<(usize, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut spans = 0;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(out, "id\tparent\tname\tconn\trequests\tstart_ns\tend_ns").map_err(io)?;
    for (id, b) in traced.results.iter().flat_map(|r| &r.bursts).enumerate() {
        let (c, n) = (b.conn, b.requests);
        writeln!(
            out,
            "{id}\t-\tclient.burst\t{c}\t{n}\t{}\t{}",
            b.start, b.last
        )
        .map_err(io)?;
        writeln!(
            out,
            "{id}\t{id}\tclient.flush\t{c}\t{n}\t{}\t{}",
            b.flush, b.flushed
        )
        .map_err(io)?;
        writeln!(
            out,
            "{id}\t{id}\tclient.wait_first\t{c}\t{n}\t{}\t{}",
            b.flushed, b.first
        )
        .map_err(io)?;
        writeln!(
            out,
            "{id}\t{id}\tclient.drain\t{c}\t{n}\t{}\t{}",
            b.first, b.last
        )
        .map_err(io)?;
        spans += 4;
    }
    out.flush().map_err(io)?;
    Ok((spans, path))
}

/// Host and build facts every result carries.
fn fingerprint(server: &ServerProc) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {:?}, \"cpu\": {cpu:?}, \"shards\": {}, \"event_loops\": {}, \"git_commit\": {commit:?}, \"source_digest\": \"{:016x}\", \"ref_loop_ms\": {:.3}}}",
        read("/proc/sys/kernel/osrelease").trim(),
        server.shards,
        server.event_loops(),
        source_digest(Path::new("crates")),
        reference_loop_ms(),
    )
}

/// Time of a fixed single-threaded integer loop: shows how fast the
/// host ran when the result was taken (shared hosts drift).
fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..(1 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1000.0
}

/// FNV-1a over the paths and bytes of every file under `dir`, in sorted
/// order: names the code measured where no git metadata is at hand.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
