//! TTL/expiry: an expiry sidecar in front of the store.
//!
//! The store itself stays TTL-ignorant; this phase keeps a
//! [`SegmentedHashMap`] of `key → expires_at` sidecar entries.
//! `EXPIRE key millis` arms a timer on an existing key (probing
//! existence with a downstream `GET`); a `GET` whose sidecar timer has
//! lapsed is answered `_` (nil) and the stale row is reaped with a
//! synthesized downstream `DEL` — lazy expiry, Redis-style. A `SET` or
//! `DEL` passing through clears the key's timer; `INCR` (a
//! read-modify-write) respects a lapsed timer by reaping first, so it
//! restarts from zero instead of resurrecting an expired value.
//!
//! **Safety of the rewrite-vs-expiry race.** The destructive half of a
//! reap (the synthesized `DEL`) and every store mutation on a *timed*
//! key are serialized under the sidecar's writer mutex, and the reap
//! re-checks the entry after acquiring it. A mutation that won the
//! lock first removed the entry, so the reap aborts; a mutation that
//! lost waits until the reap's `DEL` was acknowledged, so its write
//! lands after. Either way an acknowledged write is never destroyed by
//! an expiry.
//!
//! Hot path: one lock-free sidecar lookup per `GET`/`SET`/`DEL`/
//! `INCR`; keys without timers never touch the mutex, and timed keys
//! pay it only on mutation or reap (live reads stay lock-free). With
//! no timer armed anywhere (the sidecar empty — by far the common state
//! under kv load) no key can be timed, so even the lookup is skipped,
//! and a burst carrying no `EXPIRE` forwards as one inner batch. Any
//! armed timer (or an `EXPIRE` arming one mid-burst) makes the
//! admission driver plan the burst one request at a time, whose reap
//! locking is what makes expiry safe.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{Request, Response, Service};
use crate::protocol::{Command, Reply};
use dego_core::{SegmentationKind, SegmentedHashMap, SegmentedHashMapWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Sidecar entry: when the key's value expires (micros since the
/// state's epoch).
#[derive(Debug)]
pub(crate) struct TtlEntry {
    expires_at_us: AtomicU64,
}

pub(crate) struct TtlState {
    epoch: Instant,
    sidecar: Arc<SegmentedHashMap<String, Arc<TtlEntry>>>,
    /// Serializes entry insert/remove *and* every cross-plane sequence
    /// (reap `DEL`s, mutations on timed keys) — see the module doc.
    writer: Mutex<SegmentedHashMapWriter<String, Arc<TtlEntry>>>,
    metrics: Arc<PipelineMetrics>,
}

type SidecarWriter<'a> = MutexGuard<'a, SegmentedHashMapWriter<String, Arc<TtlEntry>>>;

/// What the TTL phase does with one request, decided on a borrowed
/// view so the common case forwards `req` without cloning its key.
pub(crate) enum Plan {
    /// Untimed: straight to the store.
    Forward,
    /// A mutation on a timed key.
    MutateTimed(String),
    /// A `GET` whose unlocked probe saw a lapsed timer.
    GetLapsed(String),
    /// `EXPIRE key millis`.
    Expire(String, u64),
}

impl TtlState {
    /// Build the state with its shared sidecar map.
    pub(crate) fn new(metrics: Arc<PipelineMetrics>) -> Self {
        let sidecar = SegmentedHashMap::new(1, 1024, SegmentationKind::Hash);
        let writer = Mutex::new(sidecar.writer());
        TtlState {
            epoch: Instant::now(),
            sidecar,
            writer,
            metrics,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Whether `key` currently has a *lapsed* entry (unlocked probe).
    fn lapsed(&self, entry: &TtlEntry) -> bool {
        self.now_us() >= entry.expires_at_us.load(Ordering::Acquire)
    }

    /// Whether any timer is armed: then any key may be timed, and a
    /// burst needs one plan per request.
    pub(crate) fn armed(&self) -> bool {
        !self.sidecar.is_empty()
    }

    /// The burst plan with no timer armed and no `EXPIRE`: every
    /// command forwards, and the kv ones are counted checked in one
    /// add.
    pub(crate) fn forward_all<'a>(&self, cmds: impl Iterator<Item = &'a Command>) {
        let kv = cmds
            .filter(|c| {
                matches!(
                    c,
                    Command::Get(_) | Command::Set(..) | Command::Del(_) | Command::Incr(..)
                )
            })
            .count() as u64;
        self.metrics.ttl_checked.add(kv);
    }

    /// The plan for one request. This sidecar probe is the phase's
    /// admission cost; the plan's own store work (reaps, the rewrite)
    /// is real store traffic, run by [`TtlState::run`].
    #[inline]
    pub(crate) fn plan(&self, cmd: &Command) -> Plan {
        match cmd {
            Command::Expire(key, millis) => {
                self.metrics.ttl_checked.increment();
                Plan::Expire(key.clone(), *millis)
            }
            Command::Get(key)
            | Command::Set(key, _)
            | Command::Del(key)
            | Command::Incr(key, _) => {
                self.metrics.ttl_checked.increment();
                // No timer armed anywhere: no key can be timed.
                let Some(entry) = self.armed().then(|| self.sidecar.get(key)).flatten() else {
                    return Plan::Forward;
                };
                match cmd {
                    // Live timers read lock-free; only a lapsed one
                    // takes the slow path.
                    Command::Get(_) if self.lapsed(&entry) => Plan::GetLapsed(key.clone()),
                    Command::Get(_) => Plan::Forward,
                    _ => Plan::MutateTimed(key.clone()),
                }
            }
            _ => Plan::Forward,
        }
    }

    /// Carry out `plan` for `req` against `inner` (the store).
    pub(crate) fn run<S: Service>(&self, plan: Plan, req: Request, inner: &mut S) -> Response {
        match plan {
            Plan::Forward => inner.call(req),
            Plan::MutateTimed(key) => self.mutate_timed(inner, req, key),
            Plan::GetLapsed(key) => self.get_lapsed(inner, req, key),
            Plan::Expire(key, millis) => self.expire(inner, key, millis),
        }
    }

    /// With the lock held: if `key`'s entry is (still) lapsed, reap it
    /// — `DEL` the stale row downstream and drop the entry. Returns
    /// whether a reap happened. The lock stays held across the `DEL`,
    /// which is what makes expiry safe against concurrent rewrites.
    fn reap_if_lapsed<S: Service>(
        &self,
        inner: &mut S,
        writer: &mut SidecarWriter<'_>,
        key: &String,
    ) -> bool {
        match self.sidecar.get(key) {
            Some(entry) if self.lapsed(&entry) => {
                let _ = inner.call(Request::new(Command::Del(key.clone())));
                writer.remove(key);
                self.metrics.ttl_expired.increment();
                true
            }
            _ => false,
        }
    }

    /// `EXPIRE key millis`: probe the key and arm (or re-arm) a timer.
    fn expire<S: Service>(&self, inner: &mut S, key: String, millis: u64) -> Response {
        let mut writer = self.writer.lock().expect("ttl writer");
        // A lapsed timer means the value is gone: reap it and report
        // "no such key" instead of resurrecting it.
        if self.reap_if_lapsed(inner, &mut writer, &key) {
            return Response::ok(Reply::Int(0));
        }
        match inner.call(Request::new(Command::Get(key.clone()))).reply {
            Reply::Nil => Response::ok(Reply::Int(0)),
            Reply::Value(_) => {
                let deadline = self.now_us().saturating_add(millis.saturating_mul(1_000));
                if let Some(entry) = self.sidecar.get(&key) {
                    entry.expires_at_us.store(deadline, Ordering::Release);
                } else {
                    writer.put(
                        key,
                        Arc::new(TtlEntry {
                            expires_at_us: AtomicU64::new(deadline),
                        }),
                    );
                }
                self.metrics.ttl_armed.increment();
                Response::ok(Reply::Int(1))
            }
            // Propagate downstream failures (e.g. the store refused).
            other => Response::ok(other),
        }
    }

    /// A mutation (`SET`/`DEL`/`INCR`) on a key that has a sidecar
    /// entry: serialize against reaps, clearing a lapsed value first so
    /// `INCR` restarts from zero, then clear the timer (`SET`/`DEL`
    /// rewrite the value; `INCR` keeps its — now reaped-or-live — row
    /// fresh, Redis-style it would keep the TTL, but after a rewrite
    /// through this path the timer is gone either way).
    fn mutate_timed<S: Service>(&self, inner: &mut S, req: Request, key: String) -> Response {
        let mut writer = self.writer.lock().expect("ttl writer");
        self.reap_if_lapsed(inner, &mut writer, &key);
        let resp = inner.call(req);
        if !matches!(resp.reply, Reply::Error(_)) {
            // The rewrite clears any remaining timer (and its entry).
            writer.remove(&key);
        }
        resp
    }

    /// A `GET` on a key whose unlocked probe saw a lapsed timer:
    /// re-check under the lock, reap, answer nil.
    fn get_lapsed<S: Service>(&self, inner: &mut S, req: Request, key: String) -> Response {
        let mut writer = self.writer.lock().expect("ttl writer");
        if self.reap_if_lapsed(inner, &mut writer, &key) {
            return Response::ok(Reply::Nil);
        }
        // Lost the race to a rewrite: the key is live again.
        drop(writer);
        inner.call(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiddlewareConfig;
    use crate::fused::tests::{one_layer, MapStore};
    use crate::fused::FusedService;
    use crate::pipeline::LayerKind;
    use std::time::Duration;

    fn ttl_over_store() -> (FusedService<MapStore>, Arc<PipelineMetrics>) {
        let (svc, stack) = one_layer(
            LayerKind::Ttl,
            MiddlewareConfig::none(),
            MapStore::default(),
        );
        (svc, Arc::clone(stack.metrics()))
    }

    fn call(svc: &mut FusedService<MapStore>, cmd: Command) -> Reply {
        svc.call(Request::new(cmd)).reply
    }

    #[test]
    fn expire_on_missing_key_reports_zero() {
        let (mut svc, _) = ttl_over_store();
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 50)),
            Reply::Int(0)
        );
    }

    #[test]
    fn expired_key_reads_as_nil_and_is_reaped() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 20)),
            Reply::Int(1)
        );
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v".into()),
            "alive before the deadline"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
        // Reaped for real: later reads miss without touching the sidecar.
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1, "no double expiry");
    }

    #[test]
    fn set_disarms_a_pending_timer() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v1".into()));
        call(&mut svc, Command::Expire("k".into(), 20));
        call(&mut svc, Command::Set("k".into(), "v2".into()));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v2".into()),
            "rewrite must cancel the timer"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn rearming_extends_the_deadline() {
        let (mut svc, _) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        call(&mut svc, Command::Expire("k".into(), 20));
        std::thread::sleep(Duration::from_millis(10));
        call(&mut svc, Command::Expire("k".into(), 10_000));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            call(&mut svc, Command::Get("k".into())),
            Reply::Value("v".into())
        );
    }

    #[test]
    fn expire_cannot_resurrect_a_lapsed_key() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        call(&mut svc, Command::Expire("k".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The timer lapsed (no GET reaped it yet): a re-EXPIRE must
        // treat the key as gone, not re-arm the stale value.
        assert_eq!(
            call(&mut svc, Command::Expire("k".into(), 10_000)),
            Reply::Int(0)
        );
        assert_eq!(call(&mut svc, Command::Get("k".into())), Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1);
    }

    #[test]
    fn incr_on_a_lapsed_key_restarts_from_zero() {
        let (mut svc, _) = ttl_over_store();
        call(&mut svc, Command::Set("n".into(), "41".into()));
        call(&mut svc, Command::Expire("n".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The expired 41 must not leak into the increment.
        assert_eq!(call(&mut svc, Command::Incr("n".into(), 1)), Reply::Int(1));
        assert_eq!(
            call(&mut svc, Command::Get("n".into())),
            Reply::Value("1".into()),
            "the incremented row has no timer"
        );
    }

    #[test]
    fn incr_on_a_live_timed_key_clears_the_timer() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("n".into(), "1".into()));
        call(&mut svc, Command::Expire("n".into(), 20));
        assert_eq!(call(&mut svc, Command::Incr("n".into(), 1)), Reply::Int(2));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            call(&mut svc, Command::Get("n".into())),
            Reply::Value("2".into()),
            "rewritten row survives the stale deadline"
        );
        assert_eq!(metrics.ttl_expired.sum(), 0);
    }

    #[test]
    fn batch_with_no_timers_sweeps_once_and_forwards() {
        let (mut svc, metrics) = ttl_over_store();
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("a".into(), "1".into())),
            Request::new(Command::Get("a".into())),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps[1].reply, Reply::Value("1".into()));
        // The two kv commands are counted by the one sweep; PING is
        // not kv traffic.
        assert_eq!(metrics.ttl_checked.sum(), 2);
    }

    #[test]
    fn batch_with_timers_keeps_expiry_semantics() {
        let (mut svc, metrics) = ttl_over_store();
        call(&mut svc, Command::Set("k".into(), "v".into()));
        call(&mut svc, Command::Expire("k".into(), 10));
        std::thread::sleep(Duration::from_millis(30));
        // The armed (now lapsed) timer forces the sequential path:
        // the batched GET must still observe the expiry.
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Get("k".into())),
        ]);
        assert_eq!(resps[0].reply, Reply::Nil);
        assert_eq!(resps[1].reply, Reply::Nil);
        assert_eq!(metrics.ttl_expired.sum(), 1, "reaped exactly once");
    }

    #[test]
    fn batch_carrying_expire_arms_timers() {
        let (mut svc, metrics) = ttl_over_store();
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Expire("k".into(), 10_000)),
        ]);
        assert_eq!(resps[1].reply, Reply::Int(1), "armed mid-burst");
        assert_eq!(metrics.ttl_armed.sum(), 1);
    }

    #[test]
    fn non_kv_commands_pass_untouched() {
        let (mut svc, metrics) = ttl_over_store();
        let before = metrics.ttl_checked.sum();
        call(&mut svc, Command::Ping);
        assert_eq!(metrics.ttl_checked.sum(), before);
    }
}
