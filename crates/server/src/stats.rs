//! Server-side operation counters and the `STATS` snapshot.
//!
//! Per-connection counters are plain relaxed atomics (statistics, not
//! synchronization — the same doctrine as [`dego_metrics`]); the
//! mutation-application counter lives in the storage plane as a
//! [`dego_core::CounterIncrementOnly`] with one owner-exclusive cell
//! per shard. The snapshot also folds in the process-wide contention
//! stall proxy from [`dego_metrics::GLOBAL`].

use dego_metrics::ContentionSnapshot;
use dego_middleware::StatLines;
use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed event counters bumped on the request path.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    commands: AtomicU64,
    gets: AtomicU64,
    get_hits: AtomicU64,
    mutations: AtomicU64,
    timeline_reads: AtomicU64,
    errors: AtomicU64,
    accept_errors: AtomicU64,
    shard_batches: AtomicU64,
    idle_closed: AtomicU64,
    lines_too_long: AtomicU64,
}

macro_rules! bump {
    ($($method:ident => $field:ident),* $(,)?) => {$(
        #[doc = concat!("Count one `", stringify!($field), "` event.")]
        #[inline]
        pub fn $method(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    )*};
}

impl ServerStats {
    /// A zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    bump! {
        note_connection => connections,
        note_command => commands,
        note_get_miss => gets,
        note_mutation => mutations,
        note_timeline_read => timeline_reads,
        note_error => errors,
        note_accept_error => accept_errors,
        note_shard_batch => shard_batches,
        note_idle_closed => idle_closed,
        note_line_too_long => lines_too_long,
    }

    /// Count a `GET` that found its key.
    #[inline]
    pub fn note_get_hit(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.get_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero every counter (`STATS RESET`). The process-wide contention
    /// proxy is **not** touched — it is shared telemetry owned by
    /// `dego_metrics::GLOBAL`, not this server instance.
    pub fn reset(&self) {
        self.connections.store(0, Ordering::Relaxed);
        self.commands.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        self.get_hits.store(0, Ordering::Relaxed);
        self.mutations.store(0, Ordering::Relaxed);
        self.timeline_reads.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.accept_errors.store(0, Ordering::Relaxed);
        self.shard_batches.store(0, Ordering::Relaxed);
        self.idle_closed.store(0, Ordering::Relaxed);
        self.lines_too_long.store(0, Ordering::Relaxed);
    }

    /// Snapshot every counter plus the global contention proxy;
    /// `applied` is the storage plane's count (the one counter not kept
    /// here).
    pub fn snapshot(&self, applied: u64) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_hits: self.get_hits.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            applied,
            timeline_reads: self.timeline_reads.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            shard_batches: self.shard_batches.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            lines_too_long: self.lines_too_long.load(Ordering::Relaxed),
            contention: dego_metrics::GLOBAL.snapshot(),
        }
    }
}

/// A point-in-time view served by the `STATS` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted since boot.
    pub connections: u64,
    /// Request lines handled.
    pub commands: u64,
    /// `GET`s served (hit or miss).
    pub gets: u64,
    /// `GET`s that found the key.
    pub get_hits: u64,
    /// Mutations enqueued to shard owners.
    pub mutations: u64,
    /// Mutations applied by shard owners.
    pub applied: u64,
    /// `TIMELINE` reads served.
    pub timeline_reads: u64,
    /// Protocol errors returned.
    pub errors: u64,
    /// `accept()` failures observed by the accept loop (fd pressure —
    /// EMFILE/ENFILE — network stack hiccups); each one also pays a
    /// bounded backoff sleep so the loop cannot busy-spin.
    pub accept_errors: u64,
    /// Mutation batches drained by shard owners (group commits); the
    /// amortization ratio is `applied / shard_batches`.
    pub shard_batches: u64,
    /// Connections reaped by the event loops' `--idle-timeout-ms`
    /// sweep (idle past the deadline with nothing in flight).
    pub idle_closed: u64,
    /// Connections closed for sending a line longer than
    /// `MAX_LINE_BYTES` (answered `-ERR line too long`).
    pub lines_too_long: u64,
    /// The process-wide stall proxy at snapshot time.
    pub contention: ContentionSnapshot,
}

impl StatsSnapshot {
    /// The `name=value` lines of the `STATS` array reply.
    ///
    /// Emitted through [`StatLines`], which `debug_assert`s that no
    /// stat name repeats — the invariant clients rely on when they
    /// parse the reply into a map.
    pub fn render_lines(&self, shards: usize, keys: usize) -> Vec<String> {
        let mut out = StatLines::new();
        out.push("shards", shards);
        out.push("keys", keys);
        out.push("connections", self.connections);
        out.push("commands", self.commands);
        out.push("gets", self.gets);
        out.push("get_hits", self.get_hits);
        out.push("mutations", self.mutations);
        out.push("applied", self.applied);
        out.push("timeline_reads", self.timeline_reads);
        out.push("errors", self.errors);
        out.push("accept_errors", self.accept_errors);
        out.push("shard_batches", self.shard_batches);
        out.push("idle_closed", self.idle_closed);
        out.push("lines_too_long", self.lines_too_long);
        out.push("cas_failures", self.contention.cas_failures);
        out.push("lock_spins", self.contention.lock_spins);
        out.push("rmw_ops", self.contention.rmw_ops);
        out.into_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_the_snapshot() {
        let s = ServerStats::new();
        s.note_connection();
        s.note_command();
        s.note_command();
        s.note_get_hit();
        s.note_get_miss();
        s.note_mutation();
        s.note_timeline_read();
        s.note_error();
        let snap = s.snapshot(1);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.commands, 2);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.get_hits, 1);
        assert_eq!(snap.mutations, 1);
        assert_eq!(snap.applied, 1);
        assert_eq!(snap.timeline_reads, 1);
        assert_eq!(snap.errors, 1);
        let lines = snap.render_lines(4, 10);
        assert!(lines.contains(&"shards=4".to_string()));
        assert!(lines.contains(&"get_hits=1".to_string()));
    }

    #[test]
    fn reset_returns_every_counter_to_zero() {
        let s = ServerStats::new();
        s.note_connection();
        s.note_command();
        s.note_get_hit();
        s.note_mutation();
        s.note_error();
        s.note_accept_error();
        s.note_shard_batch();
        s.reset();
        let snap = s.snapshot(0);
        assert_eq!(snap.connections, 0);
        assert_eq!(snap.commands, 0);
        assert_eq!(snap.gets, 0);
        assert_eq!(snap.get_hits, 0);
        assert_eq!(snap.mutations, 0);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.accept_errors, 0);
        assert_eq!(snap.shard_batches, 0);
    }
}
