//! The sharded storage plane: dego-core adjusted objects behind N
//! shard-owner threads, with **group acknowledgement**.
//!
//! Every structure is segmented with [`SegmentationKind::Hash`] into
//! one segment per shard, and each shard's segment writers are claimed
//! by exactly one **shard-owner thread** — the single-writer (M2,
//! CWMR) discipline the paper's map adjustment requires. Reads go
//! straight to the lock-free segment readers from any thread;
//! mutations travel through a [`dego_core::mpsc`] queue (the paper's
//! `QueueMasp`, MWSR) to the owning shard, which applies them in
//! arrival order and acks through a per-connection reply channel.
//!
//! **Group acknowledgement.** A mutation is shipped as a
//! [`MutationMsg`] envelope tagged with its connection id and a
//! per-connection sequence number. A shard owner drains its whole
//! inbox in one sweep, applies every mutation, and sends **one ack per
//! (connection run, drained batch)** — consecutive mutations from the
//! same connection collapse into a single [`ShardAck::Many`] message
//! instead of one channel send each. The connection side reassembles
//! replies by sequence number, so a pipelined burst of `k` writes
//! costs the reply channel `O(shards)` sends instead of `O(k)`.
//!
//! Routing is [`dego_core::home_segment`] of the key (or user id), the
//! same hash the maps use internally, so a shard writer never touches
//! a foreign segment (`debug_assert`ed inside dego-core).

use crate::protocol::Reply;
use crate::stats::ServerStats;
use dego_core::{
    home_segment, mpsc, CounterIncrementOnly, SegmentationKind, SegmentedHashMap, SegmentedSet,
};
use dego_middleware::{StatLines, StoreSegment, WindowedHistogram};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::{Builder, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Messages never linger longer than this in a timeline row.
pub const TIMELINE_KEEP: usize = 64;

/// How many followers receive a post synchronously (mirrors
/// `dego_retwis::FANOUT_LIMIT`).
pub const FANOUT_LIMIT: usize = 16;

/// One mutation's acknowledgement payload: the reply keyed by its
/// per-connection sequence number, plus — when the issuing request is
/// being traced — the store-side span segment the shard owner stamped
/// (queue wait and apply time on the owner thread).
pub(crate) struct AckItem {
    /// Per-connection sequence number (reply reassembly key).
    pub seq: u64,
    /// The mutation's reply.
    pub reply: Reply,
    /// Store-side trace segment; `None` for untraced mutations.
    pub seg: Option<StoreSegment>,
}

/// An acknowledgement from a shard owner back to a connection.
///
/// `Many` carries every consecutive mutation of one drained batch that
/// belonged to the same connection.
pub(crate) enum ShardAck {
    /// A lone mutation's ack.
    One(AckItem),
    /// A group-commit ack: one send for a whole run of the batch.
    Many(Vec<AckItem>),
}

/// A mutation envelope on its way to a shard-owner thread.
pub(crate) struct MutationMsg {
    /// The issuing connection (group-ack run key).
    pub conn: u64,
    /// Per-connection sequence number (reply reassembly key).
    pub seq: u64,
    /// The issuing connection's ack inlet.
    pub reply: Sender<ShardAck>,
    /// The issuing connection's event-loop waker, rung after the ack
    /// send so the loop's `epoll_wait` observes it.
    pub waker: std::sync::Arc<crate::event_loop::LoopWaker>,
    /// When the envelope was built — the shard owner turns this into
    /// the enqueue→apply latency sample.
    pub enqueued_at: Instant,
    /// Whether a trace span is open on the issuing connection: asks
    /// the shard owner to stamp a [`StoreSegment`] into the ack.
    /// Untraced envelopes pay nothing extra on the owner thread.
    pub traced: bool,
    /// The payload.
    pub op: Mutation,
}

/// Per-shard observability counters: the load-shedding inputs
/// (`STATS SHARDS`, `/metrics`) for one shard owner.
///
/// Counters are relaxed atomics and the histograms are the same
/// log₂-bucket windowed histograms the middleware uses — statistics,
/// not synchronization, on the storage plane's hottest path.
pub(crate) struct ShardTelemetry {
    /// Mutations handed to this shard's queue.
    enqueued: AtomicU64,
    /// Mutations the owner has drained and applied.
    drained: AtomicU64,
    /// Drained-batch sizes (the group-commit width, log₂ buckets).
    drained_batch: WindowedHistogram,
    /// Enqueue→apply latency per mutation, microseconds.
    ack_us: WindowedHistogram,
}

impl ShardTelemetry {
    fn new(window_secs: u64) -> Self {
        ShardTelemetry {
            enqueued: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            drained_batch: WindowedHistogram::new(window_secs),
            ack_us: WindowedHistogram::new(window_secs),
        }
    }

    /// `STATS RESET`: zero the counters and both histogram planes.
    /// The enqueued/drained pair is zeroed together; a mutation in
    /// flight across the reset can transiently read as depth, which
    /// the next drain clears.
    pub fn reset(&self) {
        self.enqueued.store(0, Ordering::Relaxed);
        self.drained.store(0, Ordering::Relaxed);
        self.drained_batch.reset();
        self.ack_us.reset();
    }

    /// Mutations enqueued but not yet applied. The two counters are
    /// read independently, so the gauge can transiently read high
    /// while a drain is in flight — never negative.
    pub fn queue_depth(&self) -> u64 {
        self.enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(self.drained.load(Ordering::Relaxed))
    }

    /// Mutations handed to this shard since boot.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Drained-batch size histogram (group-commit width).
    pub fn drained_batch(&self) -> &WindowedHistogram {
        &self.drained_batch
    }

    /// Enqueue→apply latency histogram, microseconds.
    pub fn ack_us(&self) -> &WindowedHistogram {
        &self.ack_us
    }
}

/// A storage-plane mutation (the payload of a [`MutationMsg`]).
pub(crate) enum Mutation {
    Set { key: String, value: String },
    Del { key: String },
    Incr { key: String, delta: i64 },
    AddUser { user: u64 },
    TimelinePush { user: u64, msg: u64 },
    FollowerAdd { followee: u64, follower: u64 },
    FollowerDel { followee: u64, follower: u64 },
    GroupJoin { user: u64 },
    GroupLeave { user: u64 },
    ProfileBump { user: u64 },
}

/// The shared storage plane.
pub(crate) struct Store {
    shards: usize,
    /// The string keyspace (GET/SET/DEL/INCR).
    pub kv: Arc<SegmentedHashMap<String, String>>,
    /// user → recent messages, newest last.
    pub timelines: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    /// user → who follows them.
    pub followers: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    /// user → profile version.
    pub profiles: Arc<SegmentedHashMap<u64, u64>>,
    /// The interest group.
    pub group: Arc<SegmentedSet<u64>>,
    /// Mutations applied, one owner-exclusive cell per shard (C3).
    pub applied: Arc<CounterIncrementOnly>,
    /// Mutation inlets, indexed by shard.
    producers: Vec<mpsc::Producer<MutationMsg>>,
    /// Shard threads, for post-enqueue wakeups.
    wakers: Vec<Thread>,
    /// Per-shard observability counters, indexed by shard.
    telemetry: Vec<Arc<ShardTelemetry>>,
    /// `applied` reading at the last `STATS RESET`
    /// ([`CounterIncrementOnly`] cells are owner-exclusive and cannot
    /// be zeroed, so resets subtract an offset instead).
    applied_offset: AtomicU64,
    /// Chaos hook: nanoseconds every shard owner sleeps before applying
    /// each mutation (0 = off). Shared with every [`ShardCtx`] so the
    /// stall can be turned on and off at runtime
    /// ([`crate::ServerHandle::set_shard_delay`]).
    shard_delay_ns: Arc<AtomicU64>,
}

impl Store {
    /// The shard owning `key`.
    pub fn shard_of_key(&self, key: &String) -> usize {
        home_segment(key, self.shards)
    }

    /// The shard owning `user`'s rows.
    pub fn shard_of_user(&self, user: u64) -> usize {
        home_segment(&user, self.shards)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Hand `msg` to its owning shard and wake the owner.
    pub(crate) fn enqueue(&self, shard: usize, msg: MutationMsg) {
        self.telemetry[shard]
            .enqueued
            .fetch_add(1, Ordering::Relaxed);
        self.producers[shard].offer(msg);
        self.wakers[shard].unpark();
    }

    /// Wake a parked shard owner (e.g. to notice shutdown).
    pub(crate) fn wake(&self, shard: usize) {
        self.wakers[shard].unpark();
    }

    /// Per-shard observability counters, indexed by shard.
    pub(crate) fn telemetry(&self) -> &[Arc<ShardTelemetry>] {
        &self.telemetry
    }

    /// Mutations applied since boot or the last `STATS RESET` — the
    /// number `STATS` reports as `applied` (`/metrics` keeps the raw
    /// monotonic counter, as Prometheus counters must).
    pub(crate) fn applied_since_reset(&self) -> u64 {
        self.applied
            .get()
            .saturating_sub(self.applied_offset.load(Ordering::Relaxed))
    }

    /// Set (or clear) the per-mutation apply stall — the chaos hook the
    /// stuck-shard tests and the CI chaos-smoke job lean on. Takes
    /// effect on the next mutation each shard owner applies.
    pub(crate) fn set_shard_delay(&self, delay: Option<Duration>) {
        let ns = delay.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.shard_delay_ns.store(ns, Ordering::Relaxed);
    }

    /// `STATS RESET` on the storage plane: zero every shard's
    /// telemetry and re-baseline the applied counter.
    pub(crate) fn reset_telemetry(&self) {
        for t in &self.telemetry {
            t.reset();
        }
        self.applied_offset
            .store(self.applied.get(), Ordering::Relaxed);
    }

    /// The `name=value` lines of the `STATS SHARDS` array reply:
    /// per-shard queue depth, group-commit batch shape, and
    /// enqueue→apply latency percentiles — the inputs a load shedder
    /// (or a human squinting at a hot shard) needs.
    /// Percentile lines report the rolling window, with
    /// `_total`-suffixed lifetime twins (same contract as the `mw_*`
    /// block).
    pub(crate) fn render_shard_lines(&self) -> Vec<String> {
        let mut out = StatLines::new();
        out.push("shards", self.shards);
        for (i, t) in self.telemetry.iter().enumerate() {
            out.push(&format!("shard{i}_queue_depth"), t.queue_depth());
            out.push(&format!("shard{i}_enqueued"), t.enqueued());
            out.push(
                &format!("shard{i}_drained_batches"),
                t.drained_batch.count(),
            );
            out.push(
                &format!("shard{i}_batch_p50"),
                t.drained_batch.percentile_us(0.50),
            );
            out.push(
                &format!("shard{i}_batch_p99"),
                t.drained_batch.percentile_us(0.99),
            );
            out.push(
                &format!("shard{i}_batch_p50_total"),
                t.drained_batch.lifetime().percentile_us(0.50),
            );
            out.push(
                &format!("shard{i}_batch_p99_total"),
                t.drained_batch.lifetime().percentile_us(0.99),
            );
            out.push(
                &format!("shard{i}_ack_p50_us"),
                t.ack_us.percentile_us(0.50),
            );
            out.push(
                &format!("shard{i}_ack_p99_us"),
                t.ack_us.percentile_us(0.99),
            );
            out.push(
                &format!("shard{i}_ack_p50_us_total"),
                t.ack_us.lifetime().percentile_us(0.50),
            );
            out.push(
                &format!("shard{i}_ack_p99_us_total"),
                t.ack_us.lifetime().percentile_us(0.99),
            );
        }
        out.into_lines()
    }
}

/// The storage plane plus its shard-owner threads.
pub(crate) struct ShardRuntime {
    pub store: Arc<Store>,
    pub threads: Vec<JoinHandle<()>>,
}

/// Build the storage plane and spawn one owner thread per shard.
///
/// Shard threads are spawned **serially**: each claims its segment
/// writers before the next thread starts, so shard `i` always holds
/// slot `i` of every segmented structure and key routing stays aligned
/// with writer ownership.
///
/// `apply_delay` seeds the chaos hook: when set, every owner sleeps
/// that long before applying each mutation (a "stuck shard" for
/// timeout and load-shedding tests). The stall lives in a shared
/// atomic, so [`Store::set_shard_delay`] can change it at runtime.
/// `window_secs` sizes the telemetry histograms' rolling window.
pub(crate) fn spawn_shards(
    shards: usize,
    capacity: usize,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    apply_delay: Option<Duration>,
    window_secs: u64,
) -> ShardRuntime {
    assert!(shards > 0, "need at least one shard");
    let kv = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let timelines = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let followers = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let profiles = SegmentedHashMap::new(shards, capacity, SegmentationKind::Hash);
    let group = SegmentedSet::new(shards, capacity, SegmentationKind::Hash);
    let applied = CounterIncrementOnly::new(shards);
    let telemetry: Vec<Arc<ShardTelemetry>> = (0..shards)
        .map(|_| Arc::new(ShardTelemetry::new(window_secs)))
        .collect();
    let shard_delay_ns = Arc::new(AtomicU64::new(
        apply_delay.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64),
    ));

    let mut producers = Vec::with_capacity(shards);
    let mut wakers = Vec::with_capacity(shards);
    let mut threads = Vec::with_capacity(shards);

    for (shard, shard_telemetry) in telemetry.iter().enumerate() {
        let (producer, consumer) = mpsc::queue::<MutationMsg>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<usize>();
        let ctx = ShardCtx {
            shard,
            kv: Arc::clone(&kv),
            timelines: Arc::clone(&timelines),
            followers: Arc::clone(&followers),
            profiles: Arc::clone(&profiles),
            group: Arc::clone(&group),
            applied: Arc::clone(&applied),
            stats: Arc::clone(&stats),
            telemetry: Arc::clone(shard_telemetry),
            shutdown: Arc::clone(&shutdown),
            apply_delay: Arc::clone(&shard_delay_ns),
        };
        let handle = Builder::new()
            .name(format!("dego-shard-{shard}"))
            .spawn(move || shard_loop(ctx, consumer, ready_tx))
            .expect("spawn shard thread");
        wakers.push(handle.thread().clone());
        threads.push(handle);
        producers.push(producer);
        let claimed = ready_rx
            .recv()
            .expect("shard thread died before claiming its writers");
        assert_eq!(claimed, shard, "serialized startup must assign slot=shard");
    }

    let store = Arc::new(Store {
        shards,
        kv,
        timelines,
        followers,
        profiles,
        group,
        applied,
        producers,
        wakers,
        telemetry,
        applied_offset: AtomicU64::new(0),
        shard_delay_ns,
    });
    ShardRuntime { store, threads }
}

struct ShardCtx {
    shard: usize,
    kv: Arc<SegmentedHashMap<String, String>>,
    timelines: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    followers: Arc<SegmentedHashMap<u64, Vec<u64>>>,
    profiles: Arc<SegmentedHashMap<u64, u64>>,
    group: Arc<SegmentedSet<u64>>,
    applied: Arc<CounterIncrementOnly>,
    stats: Arc<ServerStats>,
    telemetry: Arc<ShardTelemetry>,
    shutdown: Arc<AtomicBool>,
    /// Nanoseconds slept before each apply (0 = off); shared with the
    /// store so the stall can change at runtime.
    apply_delay: Arc<AtomicU64>,
}

/// One connection's run of acks within a drained batch, flushed as a
/// single channel send when the run ends.
struct AckRun {
    conn: u64,
    reply: Sender<ShardAck>,
    waker: std::sync::Arc<crate::event_loop::LoopWaker>,
    acks: Vec<AckItem>,
}

impl AckRun {
    /// Send the run to its connection (a closed channel means the
    /// connection died mid-flight; the mutations were still applied),
    /// then ring the connection's event-loop doorbell — the send must
    /// land first so the woken loop's sweep observes it.
    fn flush(mut self) {
        let ack = if self.acks.len() == 1 {
            ShardAck::One(self.acks.pop().expect("one ack"))
        } else {
            ShardAck::Many(self.acks)
        };
        let _ = self.reply.send(ack);
        self.waker.wake();
    }
}

/// The owner loop: claim this shard's writers, then drain and apply
/// mutation batches in arrival order until shutdown, group-acking each
/// connection's run of a batch with one send.
fn shard_loop(ctx: ShardCtx, mut inbox: mpsc::Consumer<MutationMsg>, ready: Sender<usize>) {
    let mut kv_w = ctx.kv.writer();
    let mut tl_w = ctx.timelines.writer();
    let mut fo_w = ctx.followers.writer();
    let mut pr_w = ctx.profiles.writer();
    let mut gr_w = ctx.group.writer();
    let cell = ctx.applied.cell();
    debug_assert_eq!(kv_w.slot(), ctx.shard);
    ready.send(kv_w.slot()).expect("startup handshake");

    loop {
        let batch = inbox.drain();
        if batch.is_empty() {
            if ctx.shutdown.load(Ordering::Acquire) {
                // Flag is up and the queue is drained: done.
                return;
            }
            // Sleep until a producer wakes us (or a timeout, to
            // re-check the shutdown flag).
            std::thread::park_timeout(Duration::from_millis(10));
            continue;
        }
        ctx.stats.note_shard_batch();
        ctx.telemetry.drained_batch.record(batch.len() as u64);
        let mut run: Option<AckRun> = None;
        for msg in batch {
            // Stamp the apply start before the delay hook: a stuck
            // shard's stall is apply time, and the trace tree must
            // account for it.
            let apply_started = msg.traced.then(Instant::now);
            let stall_ns = ctx.apply_delay.load(Ordering::Relaxed);
            if stall_ns > 0 {
                std::thread::sleep(Duration::from_nanos(stall_ns));
            }
            let reply = apply(
                &msg.op, &mut kv_w, &mut tl_w, &mut fo_w, &mut pr_w, &mut gr_w,
            );
            let seg = apply_started.map(|started| StoreSegment {
                shard: ctx.shard,
                // Saturates to zero if clocks read out of order.
                queue_us: started.duration_since(msg.enqueued_at).as_micros() as u64,
                apply_us: started.elapsed().as_micros() as u64,
            });
            ctx.telemetry
                .ack_us
                .record(msg.enqueued_at.elapsed().as_micros() as u64);
            ctx.telemetry.drained.fetch_add(1, Ordering::Relaxed);
            // Rejected mutations (e.g. INCR on a non-integer) must
            // not inflate the applied count.
            if !matches!(reply, Reply::Error(_)) {
                cell.inc();
            }
            let item = AckItem {
                seq: msg.seq,
                reply,
                seg,
            };
            match &mut run {
                Some(current) if current.conn == msg.conn => {
                    current.acks.push(item);
                }
                _ => {
                    if let Some(done) = run.take() {
                        done.flush();
                    }
                    run = Some(AckRun {
                        conn: msg.conn,
                        reply: msg.reply,
                        waker: msg.waker,
                        acks: vec![item],
                    });
                }
            }
        }
        if let Some(done) = run.take() {
            done.flush();
        }
    }
}

/// Apply one mutation through this shard's writers. Single-writer per
/// segment, so read-modify-write sequences on owned rows are races
/// with nobody.
fn apply(
    mutation: &Mutation,
    kv_w: &mut dego_core::SegmentedHashMapWriter<String, String>,
    tl_w: &mut dego_core::SegmentedHashMapWriter<u64, Vec<u64>>,
    fo_w: &mut dego_core::SegmentedHashMapWriter<u64, Vec<u64>>,
    pr_w: &mut dego_core::SegmentedHashMapWriter<u64, u64>,
    gr_w: &mut dego_core::SegmentedSetWriter<u64>,
) -> Reply {
    match mutation {
        Mutation::Set { key, value } => {
            kv_w.put(key.clone(), value.clone());
            Reply::Status("OK")
        }
        Mutation::Del { key } => {
            kv_w.remove(key);
            Reply::Status("OK")
        }
        Mutation::Incr { key, delta } => {
            let current = match kv_w.get(key) {
                None => 0,
                Some(raw) => match raw.parse::<i64>() {
                    Ok(n) => n,
                    Err(_) => return Reply::Error(format!("value at {key:?} is not an integer")),
                },
            };
            let next = current.wrapping_add(*delta);
            kv_w.put(key.clone(), next.to_string());
            Reply::Int(next)
        }
        Mutation::AddUser { user } => {
            if tl_w.get(user).is_none() {
                tl_w.put(*user, Vec::new());
            }
            if fo_w.get(user).is_none() {
                fo_w.put(*user, Vec::new());
            }
            if pr_w.get(user).is_none() {
                pr_w.put(*user, 0);
            }
            Reply::Status("OK")
        }
        Mutation::TimelinePush { user, msg } => {
            let mut row = tl_w.get(user).unwrap_or_default();
            row.push(*msg);
            if row.len() > TIMELINE_KEEP {
                let excess = row.len() - TIMELINE_KEEP;
                row.drain(..excess);
            }
            tl_w.put(*user, row);
            Reply::Status("OK")
        }
        Mutation::FollowerAdd { followee, follower } => {
            let mut row = fo_w.get(followee).unwrap_or_default();
            if !row.contains(follower) {
                row.push(*follower);
            }
            fo_w.put(*followee, row);
            Reply::Status("OK")
        }
        Mutation::FollowerDel { followee, follower } => {
            let mut row = fo_w.get(followee).unwrap_or_default();
            row.retain(|f| f != follower);
            fo_w.put(*followee, row);
            Reply::Status("OK")
        }
        Mutation::GroupJoin { user } => {
            gr_w.add(*user);
            Reply::Status("OK")
        }
        Mutation::GroupLeave { user } => {
            gr_w.remove(user);
            Reply::Status("OK")
        }
        Mutation::ProfileBump { user } => {
            let version = pr_w.get(user).unwrap_or(0) + 1;
            pr_w.put(*user, version);
            Reply::Int(version as i64)
        }
    }
}
