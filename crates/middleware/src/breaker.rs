//! Circuit breaker: per-verb-class overload protection.
//!
//! Each command class (read, write) owns a closed → open → half-open
//! state machine. Consecutive downstream failures — structured
//! `DEADLINE` overruns or shard ack timeouts — trip the class open, and
//! while open every command of that class is rejected immediately with
//! a structured `BREAKER` error instead of queueing into a distressed
//! store. After a cooldown the breaker admits a bounded quota of probe
//! requests (half-open): if they all succeed the class closes again,
//! one probe failure re-opens it. `Control` verbs are exempt, so
//! `HEALTH`/`READY`/`STATS` stay answerable while the data plane is
//! shedding.
//!
//! The breaker phase runs directly after the trace phase — *outside*
//! the deadline phase — so it observes the `DEADLINE` rejections the
//! deadline check writes and its own rejections skip the deadline clock
//! entirely. A burst is admitted against the state at burst start and
//! each admitted response observed in order, so failure streaks
//! accumulate once per burst rather than between its commands (the
//! amortized metering exemption the deadline and rate-limit phases
//! take too).
//!
//! Disabled by default: a zero failure threshold
//! ([`BreakerConfig::failures`]) never trips, making the phase a pure
//! passthrough until `--breaker-failures` arms it.

use crate::metrics::PipelineMetrics;
use crate::pipeline::Response;
use crate::protocol::{CommandClass, Reply};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Breaker tuning. The default (`failures: 0`) disables the breaker.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a class open; 0 disables the
    /// breaker entirely.
    pub failures: u32,
    /// How long a tripped class stays open before probing, ms.
    pub cooldown_ms: u64,
    /// Probe quota while half-open: this many requests are admitted,
    /// and all of them must succeed to close the class again.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failures: 0,
            cooldown_ms: 1_000,
            probes: 1,
        }
    }
}

/// Breaker states, stored as one atomic byte per class (mirrored into
/// `mw_breaker_<class>_state`).
pub(crate) const CLOSED: u8 = 0;
pub(crate) const OPEN: u8 = 1;
pub(crate) const HALF_OPEN: u8 = 2;

/// One class's lock-free state machine.
#[derive(Debug)]
struct ClassBreaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// When the class last tripped, µs since the breaker was built.
    opened_at_us: AtomicU64,
    probes_issued: AtomicU32,
    probe_successes: AtomicU32,
}

impl ClassBreaker {
    fn new() -> Self {
        ClassBreaker {
            state: AtomicU8::new(CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_us: AtomicU64::new(0),
            probes_issued: AtomicU32::new(0),
            probe_successes: AtomicU32::new(0),
        }
    }
}

/// Class slots: read 0, write 1 (`Control` is exempt).
fn class_slot(class: CommandClass) -> Option<usize> {
    match class {
        CommandClass::Read => Some(0),
        CommandClass::Write => Some(1),
        CommandClass::Control => None,
    }
}

fn class_label(slot: usize) -> &'static str {
    if slot == 0 {
        "read"
    } else {
        "write"
    }
}

/// Whether a response counts as a downstream failure: a structured
/// `DEADLINE` overrun or a shard ack timeout (the two shapes a
/// distressed store answers with).
pub(crate) fn is_breaker_failure(resp: &Response) -> bool {
    match &resp.reply {
        Reply::Error(msg) => msg.starts_with("DEADLINE ") || msg.contains("ack timeout"),
        _ => false,
    }
}

/// The shared per-class state machines (one set per [`Stack`],
/// `Arc`-shared by every session's service).
///
/// [`Stack`]: crate::pipeline::Stack
#[derive(Debug)]
pub(crate) struct BreakerState {
    config: BreakerConfig,
    born: Instant,
    classes: [ClassBreaker; 2],
    metrics: Arc<PipelineMetrics>,
}

impl BreakerState {
    pub(crate) fn new(config: BreakerConfig, metrics: Arc<PipelineMetrics>) -> Self {
        BreakerState {
            config,
            born: Instant::now(),
            classes: [ClassBreaker::new(), ClassBreaker::new()],
            metrics,
        }
    }

    /// Whether the breaker can ever trip (`failures > 0`).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.config.failures > 0
    }

    fn now_us(&self) -> u64 {
        self.born.elapsed().as_micros() as u64
    }

    fn publish_state(&self, slot: usize, state: u8) {
        self.metrics.breaker_state[slot].store(state, Ordering::Relaxed);
    }

    /// Admit or reject one command of `class` — `None` means admitted.
    /// Callers must pair every admission with one
    /// [`BreakerState::observe`] of the eventual response.
    #[inline]
    pub(crate) fn admit(&self, class: CommandClass) -> Option<Response> {
        if !self.enabled() {
            return None;
        }
        let slot = class_slot(class)?;
        self.admit_at(slot, self.now_us())
    }

    /// Clock-explicit admission (the deterministic test surface).
    fn admit_at(&self, slot: usize, now_us: u64) -> Option<Response> {
        let b = &self.classes[slot];
        self.metrics.breaker_checked.increment();
        loop {
            match b.state.load(Ordering::Relaxed) {
                OPEN => {
                    let opened = b.opened_at_us.load(Ordering::Relaxed);
                    let cooldown_us = self.config.cooldown_ms.saturating_mul(1_000);
                    let waited = now_us.saturating_sub(opened);
                    if waited < cooldown_us {
                        self.metrics.breaker_rejected.increment();
                        return Some(Response::rejection(
                            "BREAKER",
                            format_args!(
                                "{} open retry_us={}",
                                class_label(slot),
                                cooldown_us - waited
                            ),
                        ));
                    }
                    // Cooldown over: one CAS moves to half-open; the
                    // loser of a race simply re-reads and may become a
                    // probe itself.
                    if b.state
                        .compare_exchange(OPEN, HALF_OPEN, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        b.probes_issued.store(0, Ordering::Relaxed);
                        b.probe_successes.store(0, Ordering::Relaxed);
                        self.publish_state(slot, HALF_OPEN);
                    }
                }
                HALF_OPEN => {
                    // Claim one probe slot with a bounded CAS loop so
                    // exactly `probes` requests are admitted per
                    // half-open episode (a plain fetch_add could wrap).
                    let issued = b.probes_issued.load(Ordering::Relaxed);
                    if issued >= self.config.probes {
                        self.metrics.breaker_rejected.increment();
                        return Some(Response::rejection(
                            "BREAKER",
                            format_args!("{} half-open probe quota exhausted", class_label(slot)),
                        ));
                    }
                    if b.probes_issued
                        .compare_exchange(issued, issued + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.metrics.breaker_probes.increment();
                        return None;
                    }
                }
                _ => return None, // CLOSED
            }
        }
    }

    /// Observe the response of an **admitted** command: failures count
    /// toward the trip threshold (or re-open a half-open class),
    /// successes reset the streak (or close the class once the probe
    /// quota all succeeded).
    #[inline]
    pub(crate) fn observe(&self, class: CommandClass, resp: &Response) {
        if !self.enabled() {
            return;
        }
        let Some(slot) = class_slot(class) else {
            return;
        };
        self.observe_at(slot, is_breaker_failure(resp), self.now_us());
    }

    /// Clock-explicit observation (the deterministic test surface).
    fn observe_at(&self, slot: usize, failure: bool, now_us: u64) {
        let b = &self.classes[slot];
        match b.state.load(Ordering::Relaxed) {
            CLOSED => {
                if failure {
                    let streak = b.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= self.config.failures
                        && b.state
                            .compare_exchange(CLOSED, OPEN, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        b.opened_at_us.store(now_us, Ordering::Relaxed);
                        b.consecutive_failures.store(0, Ordering::Relaxed);
                        self.metrics.breaker_trips.increment();
                        self.publish_state(slot, OPEN);
                    }
                } else if b.consecutive_failures.load(Ordering::Relaxed) != 0 {
                    b.consecutive_failures.store(0, Ordering::Relaxed);
                }
            }
            HALF_OPEN => {
                if failure {
                    // One failed probe re-opens the class and restarts
                    // the cooldown.
                    if b.state
                        .compare_exchange(HALF_OPEN, OPEN, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        b.opened_at_us.store(now_us, Ordering::Relaxed);
                        self.metrics.breaker_trips.increment();
                        self.publish_state(slot, OPEN);
                    }
                } else {
                    let ok = b.probe_successes.fetch_add(1, Ordering::Relaxed) + 1;
                    if ok >= self.config.probes
                        && b.state
                            .compare_exchange(
                                HALF_OPEN,
                                CLOSED,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        b.consecutive_failures.store(0, Ordering::Relaxed);
                        self.metrics.breaker_recoveries.increment();
                        self.publish_state(slot, CLOSED);
                    }
                }
            }
            // OPEN: a straggler response admitted before the trip;
            // nothing to learn from it.
            _ => {}
        }
    }

    #[cfg(test)]
    fn state_of(&self, slot: usize) -> u8 {
        self.classes[slot].state.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Command;
    use proptest::prelude::*;

    const READ: usize = 0;
    const WRITE: usize = 1;

    fn armed(failures: u32, cooldown_ms: u64, probes: u32) -> (BreakerState, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        let state = BreakerState::new(
            BreakerConfig {
                failures,
                cooldown_ms,
                probes,
            },
            Arc::clone(&metrics),
        );
        (state, metrics)
    }

    fn failure() -> Response {
        Response::ok(Reply::Error("DEADLINE SET took 99us budget 1us".into()))
    }

    fn success() -> Response {
        Response::ok(Reply::Status("OK"))
    }

    #[test]
    fn failure_predicate_matches_deadline_and_ack_timeout() {
        assert!(is_breaker_failure(&failure()));
        assert!(is_breaker_failure(&Response {
            reply: Reply::Error("shard ack timeout; closing connection".into()),
            close: true,
        }));
        assert!(!is_breaker_failure(&success()));
        assert!(!is_breaker_failure(&Response::ok(Reply::Error(
            "AUTH SET requires readwrite, session role is readonly".into()
        ))));
        assert!(!is_breaker_failure(&Response::rejection(
            "SHED",
            "shard=0 queue_depth=9 limit=1"
        )));
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let (state, metrics) = armed(0, 10, 1);
        for _ in 0..100 {
            assert!(state.admit(CommandClass::Write).is_none());
            state.observe(CommandClass::Write, &failure());
        }
        assert_eq!(state.state_of(WRITE), CLOSED);
        assert_eq!(metrics.breaker_checked.sum(), 0, "disabled = uncounted");
    }

    #[test]
    fn consecutive_failures_trip_only_their_class() {
        let (state, metrics) = armed(3, 1_000, 1);
        for _ in 0..3 {
            assert!(state.admit_at(WRITE, 0).is_none());
            state.observe_at(WRITE, true, 0);
        }
        assert_eq!(state.state_of(WRITE), OPEN);
        assert_eq!(state.state_of(READ), CLOSED, "reads unaffected");
        assert_eq!(metrics.breaker_trips.sum(), 1);
        match state.admit_at(WRITE, 100).expect("open rejects").reply {
            Reply::Error(e) => {
                assert!(e.starts_with("BREAKER write open retry_us="), "got {e:?}")
            }
            other => panic!("expected breaker error, got {other:?}"),
        }
        assert!(state.admit_at(READ, 100).is_none());
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let (state, _) = armed(3, 1_000, 1);
        for _ in 0..2 {
            assert!(state.admit_at(WRITE, 0).is_none());
            state.observe_at(WRITE, true, 0);
        }
        state.observe_at(WRITE, false, 0); // streak broken
        for _ in 0..2 {
            state.observe_at(WRITE, true, 0);
        }
        assert_eq!(state.state_of(WRITE), CLOSED, "2+2 < a fresh streak of 3");
        state.observe_at(WRITE, true, 0);
        assert_eq!(state.state_of(WRITE), OPEN);
    }

    #[test]
    fn recovers_through_half_open_probes() {
        let (state, metrics) = armed(2, 10, 2);
        state.observe_at(WRITE, true, 0);
        state.observe_at(WRITE, true, 0);
        assert_eq!(state.state_of(WRITE), OPEN);
        // Inside the cooldown: still rejecting.
        assert!(state.admit_at(WRITE, 9_999).is_some());
        // Past the cooldown: exactly two probes, then the quota gate.
        assert!(state.admit_at(WRITE, 10_000).is_none());
        assert_eq!(state.state_of(WRITE), HALF_OPEN);
        assert!(state.admit_at(WRITE, 10_001).is_none());
        match state.admit_at(WRITE, 10_002).expect("quota").reply {
            Reply::Error(e) => assert!(e.contains("probe quota exhausted"), "got {e:?}"),
            other => panic!("expected breaker error, got {other:?}"),
        }
        state.observe_at(WRITE, false, 10_003);
        assert_eq!(state.state_of(WRITE), HALF_OPEN, "one of two probes in");
        state.observe_at(WRITE, false, 10_004);
        assert_eq!(state.state_of(WRITE), CLOSED, "all probes succeeded");
        assert_eq!(metrics.breaker_recoveries.sum(), 1);
        assert!(state.admit_at(WRITE, 10_005).is_none());
    }

    #[test]
    fn a_failed_probe_reopens_and_restarts_the_cooldown() {
        let (state, metrics) = armed(1, 10, 1);
        state.observe_at(WRITE, true, 0);
        assert!(state.admit_at(WRITE, 10_000).is_none(), "probe admitted");
        state.observe_at(WRITE, true, 10_500);
        assert_eq!(state.state_of(WRITE), OPEN);
        assert_eq!(metrics.breaker_trips.sum(), 2);
        // The cooldown restarts from the re-open, not the first trip.
        assert!(state.admit_at(WRITE, 15_000).is_some());
        assert!(state.admit_at(WRITE, 20_500).is_none());
        state.observe_at(WRITE, false, 20_501);
        assert_eq!(state.state_of(WRITE), CLOSED);
    }

    #[test]
    fn control_verbs_bypass_an_open_breaker() {
        let (state, _) = armed(1, 1_000, 1);
        state.observe_at(WRITE, true, 0);
        state.observe_at(READ, true, 0);
        assert!(state.admit(CommandClass::Control).is_none());
    }

    #[test]
    fn service_trips_and_rejects_end_to_end() {
        use crate::config::MiddlewareConfig;
        use crate::fused::tests::one_layer;
        use crate::pipeline::{LayerKind, Request, Service};
        struct Failing;
        impl Service for Failing {
            fn call(&mut self, _req: Request) -> Response {
                Response::ok(Reply::Error("DEADLINE SET took 9us budget 1us".into()))
            }
        }
        let config = MiddlewareConfig {
            breaker: BreakerConfig {
                failures: 2,
                cooldown_ms: 60_000,
                probes: 1,
            },
            ..MiddlewareConfig::none()
        };
        let (mut svc, stack) = one_layer(LayerKind::Breaker, config, Failing);
        let metrics = stack.metrics();
        for _ in 0..2 {
            match svc
                .call(Request::new(Command::Set("k".into(), "v".into())))
                .reply
            {
                Reply::Error(e) => assert!(e.starts_with("DEADLINE "), "got {e:?}"),
                other => panic!("expected inner failure, got {other:?}"),
            }
        }
        match svc
            .call(Request::new(Command::Set("k".into(), "v".into())))
            .reply
        {
            Reply::Error(e) => assert!(e.starts_with("BREAKER write open"), "got {e:?}"),
            other => panic!("expected breaker rejection, got {other:?}"),
        }
        // The inner service never saw the third command.
        assert_eq!(metrics.breaker_rejected.sum(), 1);
        assert_eq!(metrics.breaker_trips.sum(), 1);
        // A batch against the open breaker rejects writes in place but
        // lets control verbs through.
        let resps = svc.call_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping),
        ]);
        assert!(matches!(&resps[0].reply, Reply::Error(e) if e.starts_with("BREAKER ")));
        assert!(matches!(&resps[1].reply, Reply::Error(e) if e.starts_with("DEADLINE ")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The trip law over arbitrary success/failure sequences: the
        /// breaker admits exactly while a shadow model says it is
        /// closed, and `failures` consecutive failures always open it
        /// (the long cooldown keeps it open for the whole run).
        #[test]
        fn arbitrary_sequences_never_admit_while_open(
            outcomes in proptest::collection::vec(any::<bool>(), 1..120),
        ) {
            let (state, _) = armed(3, 3_600_000, 1);
            let mut streak = 0u32;
            let mut model_open = false;
            for (i, &ok) in outcomes.iter().enumerate() {
                let admitted = state.admit_at(WRITE, i as u64).is_none();
                prop_assert_eq!(admitted, !model_open, "step {}", i);
                if !admitted {
                    continue;
                }
                state.observe_at(WRITE, !ok, i as u64);
                if ok {
                    streak = 0;
                } else {
                    streak += 1;
                    if streak >= 3 {
                        model_open = true;
                    }
                }
            }
        }

        /// The probe-quota law: after a trip and the cooldown, exactly
        /// `probes` requests are admitted before observations land —
        /// never more, however many arrive.
        #[test]
        fn half_open_admits_exactly_the_probe_quota(
            probes in 1u32..8,
            attempts in 1usize..24,
        ) {
            let (state, _) = armed(1, 10, probes);
            state.observe_at(WRITE, true, 0);
            let admitted = (0..attempts)
                .filter(|i| state.admit_at(WRITE, 10_000 + *i as u64).is_none())
                .count();
            prop_assert_eq!(admitted, attempts.min(probes as usize));
        }
    }
}
