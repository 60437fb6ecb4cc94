//! The admission driver: one flat pass over the seven layers' phases.
//!
//! [`FusedService`] is one session's admission plane: it holds the
//! [`Stack`]'s shared layer state by one `Arc`, plus the session's own
//! principal, token bucket and span-sampling phase, and runs the phases
//! of the layers that are on, in canonical order.
//!
//! **A burst** ([`Service::call_batch`]) runs each pre-check once over
//! the requests still admitted, answering rejections in place — the
//! trace ring verbs, breaker admission, one summed deadline budget, one
//! auth role lookup, one bulk token take, one pressure read per shard,
//! the TTL plan — then makes exactly **one** inner `call_batch` and
//! runs the post-checks: the burst's deadline check, breaker
//! observation, and trace recording with the `STATS` fold and reset.
//!
//! **The sequential split.** A burst carrying `AUTH` (which changes the
//! session's role mid-stream) or meeting armed TTL timers or `EXPIRE`
//! (which need per-key reap locking) runs the auth-to-TTL phases one
//! request at a time, each through `inner.call` — never a sub-burst
//! through `inner.call_batch`, which the server's store executor would
//! treat as a whole burst and defer its acks past later reads.
//!
//! **Batch 1** ([`FusedService::call_one`]) applies the same phase
//! functions to one request: no `Vec`, one clock pair for the deadline
//! check and the trace histograms, span segments only on a sampled tick
//! (walking seven layer services per singleton instead cost 5.6% of
//! retwis throughput on the wire, on a 2-vCPU host).

use crate::auth::{self, Principal};
use crate::deadline;
use crate::pipeline::{LayerKind, Request, Response, Service, Session, Stack};
use crate::protocol::{Command, CommandClass};
use crate::rate_limit::{self, Bucket};
use crate::span;
use crate::trace::{self, class_name, observability_reply};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One session's admission driver over the store service `S` — the
/// chain every stack runs on — built by
/// [`Stack::fused_service`](crate::pipeline::Stack::fused_service).
pub struct FusedService<S> {
    stack: Arc<Stack>,
    client: Arc<str>,
    /// Per-connection sampling phase: 0 means "sample now", so the
    /// first command of every connection is always covered —
    /// contention-free and deterministic for tests.
    tick: u32,
    /// Who this session authenticated as (`AUTH`).
    principal: Option<Principal>,
    /// The session's token bucket; `None` exactly when the rate-limit
    /// layer is off.
    bucket: Option<Arc<Bucket>>,
    inner: S,
}

/// One request's progress through a burst's phases.
struct Slot {
    class: CommandClass,
    stats: bool,
    /// The answer a pre-check gave in place; `None` while the request
    /// is still admitted.
    answer: Option<Response>,
    /// Admitted by an armed breaker: its response is observed.
    observed: bool,
    /// Counted into the burst's deadline budget.
    timed: bool,
}

/// A burst in admission: its requests, one slot each, and how many are
/// still admitted.
struct Burst {
    reqs: Vec<Request>,
    slots: Vec<Slot>,
    live: usize,
}

impl Burst {
    /// The still-admitted requests, with their slots.
    fn live(&mut self) -> impl Iterator<Item = (&Command, &mut Slot)> {
        self.reqs
            .iter()
            .map(|r| &r.command)
            .zip(self.slots.iter_mut())
            .filter(|(_, slot)| slot.answer.is_none())
    }

    /// One phase of `kind` over the still-admitted requests: `check`
    /// answers a request in place by returning its rejection. The
    /// phase's span segment started at `t`. Returns how many requests it
    /// answered.
    fn phase(
        &mut self,
        kind: LayerKind,
        t: Option<Instant>,
        mut check: impl FnMut(&Command, &mut Slot) -> Option<Response>,
    ) -> usize {
        let mut answered = 0;
        for (cmd, slot) in self.live() {
            if let Some(resp) = check(cmd, slot) {
                slot.answer = Some(resp);
                answered += 1;
            }
        }
        self.live -= answered;
        span::record(kind, t);
        answered
    }
}

impl<S> FusedService<S> {
    pub(crate) fn new(stack: Arc<Stack>, session: &Session, inner: S) -> Self {
        let bucket = stack
            .on(LayerKind::RateLimit)
            .then(|| stack.rate.bucket_for(&session.client));
        FusedService {
            stack,
            client: Arc::from(session.client.as_str()),
            tick: 0,
            principal: None,
            bucket,
            inner,
        }
    }

    /// Advance the sampling phase: whether this command or burst opens
    /// a span. Only the trace layer samples.
    fn tick_sample(&mut self) -> bool {
        let every = self.stack.sample_every;
        if every == 0 || !self.stack.on(LayerKind::Trace) {
            return false;
        }
        let hit = self.tick == 0;
        self.tick += 1;
        if self.tick >= every {
            self.tick = 0;
        }
        hit
    }
}

impl<S> Drop for FusedService<S> {
    fn drop(&mut self) {
        if let Some(bucket) = &self.bucket {
            self.stack.rate.release(&self.client, bucket);
        }
    }
}

impl<S: Service> FusedService<S> {
    /// One request: every phase applied to it, then its one inner
    /// `call`.
    pub fn call_one(&mut self, req: Request) -> Response {
        let stack = &*self.stack;
        let trace_on = stack.on(LayerKind::Trace);
        if trace_on {
            if let Some(reply) = observability_reply(&stack.metrics, &req.command) {
                stack.metrics.traced.increment();
                return Response::ok(reply);
            }
        }
        let breaker_on = stack.on(LayerKind::Breaker);
        let deadline_on = stack.on(LayerKind::Deadline);
        let class = req.command.class();
        let verb = req.command.verb();
        let stats = matches!(req.command, Command::Stats);
        let reset = matches!(req.command, Command::StatsReset);
        let span = self.tick_sample().then(span::enter);
        let sampled = span.is_some();
        // The one clock pair, shared by the deadline check and the
        // trace histograms.
        let start = (trace_on || deadline_on).then(Instant::now);
        // A breaker rejection skips the deadline check and is never
        // observed.
        let (mut admitted, mut budget_us) = (true, 0);
        let mut resp = 'admit: {
            let stack = &*self.stack;
            if breaker_on {
                let t = sampled.then(Instant::now);
                let verdict = stack.breaker.admit(class);
                span::record(LayerKind::Breaker, t);
                if let Some(rejection) = verdict {
                    admitted = false;
                    break 'admit rejection;
                }
            }
            if deadline_on {
                let t = sampled.then(Instant::now);
                budget_us = stack.deadline.budget_us(class);
                span::record(LayerKind::Deadline, t);
            }
            self.admit_one(req, sampled)
        };
        let elapsed_us = start.map_or(0, |t| t.elapsed().as_micros() as u64);
        let stack = &*self.stack;
        let metrics = &stack.metrics;
        if admitted && budget_us != 0 {
            let t = sampled.then(Instant::now);
            metrics.deadline_checked.increment();
            if elapsed_us > budget_us {
                metrics.deadline_missed.increment();
                resp.reply = deadline::overrun(verb, elapsed_us, budget_us);
            }
            span::record(LayerKind::Deadline, t);
        }
        if admitted && breaker_on {
            let t = sampled.then(Instant::now);
            stack.breaker.observe(class, &resp);
            span::record(LayerKind::Breaker, t);
        }
        if trace_on {
            let t = sampled.then(Instant::now);
            // Render before recording, so a `STATS` reply reflects the
            // traffic *before* it, not itself.
            if stats {
                trace::fold_stats(metrics, stack.depth(), &mut resp);
            }
            metrics.traced.increment();
            match class {
                CommandClass::Read => metrics.read_latency.record(elapsed_us),
                CommandClass::Write => metrics.write_latency.record(elapsed_us),
                CommandClass::Control => metrics.control_latency.record(elapsed_us),
            }
            span::record(LayerKind::Trace, t);
            let class = class_name(class);
            trace::finish(metrics, &self.client, span, verb, class, 1, elapsed_us);
            if reset {
                // Zero the middleware plane last, after this command's
                // own recording, so the next STATS starts clean.
                metrics.reset();
            }
        }
        resp
    }

    /// The auth, rate-limit, shed and TTL phases for one request, then
    /// its one inner `call` — the tail of [`FusedService::call_one`],
    /// and of every request of a burst that takes the sequential split.
    fn admit_one(&mut self, req: Request, sampled: bool) -> Response {
        let stack = &*self.stack;
        let cmd = &req.command;
        if stack.on(LayerKind::Auth) {
            let t = sampled.then(Instant::now);
            let verdict = match cmd {
                Command::Auth(token) => Some(stack.auth.login(token, &mut self.principal)),
                _ => {
                    let denied = auth::denial(stack.auth.role_of(self.principal.as_ref()), cmd);
                    let no = denied.is_some() as u64;
                    stack.auth.note(1 - no, no);
                    denied
                }
            };
            span::record(LayerKind::Auth, t);
            if let Some(resp) = verdict {
                return resp;
            }
        }
        if let Some(bucket) = &self.bucket {
            if !rate_limit::exempt(cmd) {
                let t = sampled.then(Instant::now);
                let granted = stack.rate.admit_n(bucket, 1) == 1;
                span::record(LayerKind::RateLimit, t);
                if !granted {
                    return stack.rate.rejection();
                }
            }
        }
        if stack.on(LayerKind::Shed) {
            let t = sampled.then(Instant::now);
            let verdict = stack.shed.admit(cmd, None);
            span::record(LayerKind::Shed, t);
            if let Some(rejection) = verdict {
                return rejection;
            }
        }
        if stack.on(LayerKind::Ttl) {
            let t = sampled.then(Instant::now);
            let plan = stack.ttl.plan(cmd);
            span::record(LayerKind::Ttl, t);
            return stack.ttl.run(plan, req, &mut self.inner);
        }
        self.inner.call(req)
    }
}

impl<S: Service> Service for FusedService<S> {
    fn call(&mut self, req: Request) -> Response {
        self.call_one(req)
    }

    /// The burst driver: each pre-check once over the still-admitted
    /// requests, one inner call, then the post-checks (see the module
    /// doc). Replies match `call` on each request in turn.
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        let n = reqs.len();
        let stack = &*self.stack;
        let trace_on = stack.on(LayerKind::Trace);
        // One pass notes what the burst carries and answers the trace
        // ring verbs in place.
        let (mut reset, mut login, mut arming) = (false, false, false);
        let mut live = n;
        let slots = reqs
            .iter()
            .map(|r| {
                match r.command {
                    Command::StatsReset => reset = true,
                    Command::Auth(_) => login = true,
                    Command::Expire(..) => arming = true,
                    _ => {}
                }
                // The ring verbs are control verbs.
                let class = r.command.class();
                let answer = (trace_on && class == CommandClass::Control)
                    .then(|| observability_reply(&stack.metrics, &r.command))
                    .flatten()
                    .map(Response::ok);
                live -= answer.is_some() as usize;
                Slot {
                    class,
                    stats: matches!(r.command, Command::Stats),
                    answer,
                    observed: false,
                    timed: false,
                }
            })
            .collect();
        let span = self.tick_sample().then(span::enter);
        let sampled = span.is_some();
        let mut burst = Burst { reqs, slots, live };
        let stack = &*self.stack;
        let start = (trace_on || stack.on(LayerKind::Deadline)).then(Instant::now);
        let observing = stack.on(LayerKind::Breaker) && stack.breaker.enabled();
        if observing {
            burst.phase(LayerKind::Breaker, sampled.then(Instant::now), |_, slot| {
                let verdict = stack.breaker.admit(slot.class);
                slot.observed = verdict.is_none();
                verdict
            });
        }
        let (mut budget_us, mut checked) = (0u64, 0u64);
        if stack.on(LayerKind::Deadline) {
            burst.phase(
                LayerKind::Deadline,
                sampled.then(Instant::now),
                |_, slot| {
                    let budget = stack.deadline.budget_us(slot.class);
                    slot.timed = budget != 0;
                    budget_us = budget_us.saturating_add(budget);
                    checked += slot.timed as u64;
                    None
                },
            );
        }
        let split = (login && stack.on(LayerKind::Auth))
            || (stack.on(LayerKind::Ttl) && (arming || stack.ttl.armed()));
        let mut out: Vec<Response> = if split {
            // The sequential split: the remaining phases and the inner
            // call, one request at a time.
            let reqs = std::mem::take(&mut burst.reqs);
            reqs.into_iter()
                .zip(burst.slots.iter_mut())
                .map(|(req, slot)| match slot.answer.take() {
                    Some(answer) => answer,
                    None => self.admit_one(req, sampled),
                })
                .collect()
        } else {
            if stack.on(LayerKind::Auth) && burst.live > 0 {
                let t = sampled.then(Instant::now);
                let role = stack.auth.role_of(self.principal.as_ref());
                let live = burst.live;
                // A read-write role is allowed every class: no per-request
                // check.
                let denied = if role.allows(CommandClass::Write) {
                    span::record(LayerKind::Auth, t);
                    0
                } else {
                    burst.phase(LayerKind::Auth, t, |cmd, _| auth::denial(role, cmd))
                };
                stack.auth.note((live - denied) as u64, denied as u64);
            }
            if let Some(bucket) = self.bucket.as_ref().filter(|_| burst.live > 0) {
                let t = sampled.then(Instant::now);
                let chargeable = burst
                    .live()
                    .filter(|(cmd, _)| !rate_limit::exempt(cmd))
                    .count() as u64;
                let mut granted = stack.rate.admit_n(bucket, chargeable);
                if granted == chargeable {
                    span::record(LayerKind::RateLimit, t);
                } else {
                    burst.phase(LayerKind::RateLimit, t, |cmd, _| {
                        if rate_limit::exempt(cmd) {
                            None
                        } else if granted > 0 {
                            granted -= 1;
                            None
                        } else {
                            Some(stack.rate.rejection())
                        }
                    });
                }
            }
            if stack.on(LayerKind::Shed) && stack.shed.active().is_some() {
                let mut verdicts = HashMap::new();
                burst.phase(LayerKind::Shed, sampled.then(Instant::now), |cmd, _| {
                    stack.shed.admit(cmd, Some(&mut verdicts))
                });
            }
            if stack.on(LayerKind::Ttl) && burst.live > 0 {
                let t = sampled.then(Instant::now);
                stack.ttl.forward_all(burst.live().map(|(cmd, _)| cmd));
                span::record(LayerKind::Ttl, t);
            }
            let reqs = std::mem::take(&mut burst.reqs);
            if burst.live == n {
                self.inner.call_batch(reqs)
            } else {
                let admitted: Vec<Request> = reqs
                    .into_iter()
                    .zip(&burst.slots)
                    .filter(|(_, slot)| slot.answer.is_none())
                    .map(|(req, _)| req)
                    .collect();
                let mut inner = if admitted.is_empty() {
                    Vec::new()
                } else {
                    self.inner.call_batch(admitted)
                }
                .into_iter();
                burst
                    .slots
                    .iter_mut()
                    .map(|slot| match slot.answer.take() {
                        Some(answer) => answer,
                        None => inner
                            .next()
                            .expect("one inner response per admitted request"),
                    })
                    .collect()
            }
        };
        let slots = burst.slots;
        let elapsed_us = start.map_or(0, |t| t.elapsed().as_micros() as u64);
        let stack = &*self.stack;
        let metrics = &stack.metrics;
        if budget_us != 0 {
            let t = sampled.then(Instant::now);
            metrics.deadline_checked.add(checked);
            if elapsed_us > budget_us {
                metrics.deadline_missed.add(checked);
                for (resp, _) in out.iter_mut().zip(&slots).filter(|(_, s)| s.timed) {
                    resp.reply = deadline::overrun("batch", elapsed_us, budget_us);
                }
            }
            span::record(LayerKind::Deadline, t);
        }
        if observing {
            let t = sampled.then(Instant::now);
            for (resp, slot) in out.iter().zip(&slots).filter(|(_, s)| s.observed) {
                stack.breaker.observe(slot.class, resp);
            }
            span::record(LayerKind::Breaker, t);
        }
        if trace_on {
            let t = sampled.then(Instant::now);
            for (resp, _) in out.iter_mut().zip(&slots).filter(|(_, s)| s.stats) {
                trace::fold_stats(metrics, stack.depth(), resp);
            }
            metrics.traced.add(n as u64);
            metrics.batch_commands.add(n as u64);
            metrics.batches.increment();
            metrics.batch_latency.record(elapsed_us);
            span::record(LayerKind::Trace, t);
            trace::finish(metrics, &self.client, span, "BATCH", "batch", n, elapsed_us);
            if reset {
                // Last, so the burst's own recording nets to zero too.
                metrics.reset();
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::auth::{Role, TokenSpec};
    use crate::config::MiddlewareConfig;
    use crate::protocol::Reply;

    /// A deterministic in-memory store (the same shape the shard plane
    /// presents to the admission driver).
    #[derive(Default)]
    pub(crate) struct MapStore {
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
                Command::Del(k) => {
                    self.map.remove(&k);
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
                Command::Quit => Response {
                    reply: Reply::Status("OK"),
                    close: true,
                },
                Command::Stats => Response::ok(Reply::Array(vec!["shards=1".into()])),
                _ => Response::ok(Reply::Status("OK")),
            }
        }
    }

    /// A store that answers `+OK` to everything.
    pub(crate) struct Ok200;

    impl Service for Ok200 {
        fn call(&mut self, _req: Request) -> Response {
            Response::ok(Reply::Status("OK"))
        }
    }

    /// A driver over `inner` (client `t:1`) on a fresh stack built from
    /// `config`, plus the stack, for its metrics and admin calls.
    fn chain_over<S: Service>(
        config: &MiddlewareConfig,
        inner: S,
    ) -> (FusedService<S>, Arc<Stack>) {
        let stack = Stack::build(config);
        let session = Session {
            client: "t:1".into(),
        };
        let svc = stack
            .fused_service(&session, inner)
            .expect("every stack builds the typed chain");
        (svc, stack)
    }

    /// [`chain_over`] a one-layer stack: the config's tuning with only
    /// `kind` on.
    pub(crate) fn one_layer<S: Service>(
        kind: LayerKind,
        config: MiddlewareConfig,
        inner: S,
    ) -> (FusedService<S>, Arc<Stack>) {
        let layers = vec![kind];
        chain_over(&MiddlewareConfig { layers, ..config }, inner)
    }

    fn config() -> MiddlewareConfig {
        let mut config = MiddlewareConfig::full();
        config.auth.tokens.push(TokenSpec {
            name: "writer".into(),
            token: "sekrit".into(),
            role: Role::ReadWrite,
        });
        config
    }

    fn chain(config: &MiddlewareConfig) -> (FusedService<MapStore>, Arc<Stack>) {
        chain_over(config, MapStore::default())
    }

    #[test]
    fn fused_chain_is_a_service() {
        let (mut fused, _) = chain(&config());
        let resp = fused.call(Request::new(Command::Ping));
        assert_eq!(resp.reply, Reply::Status("OK"));
        let resps = fused.call_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Get("k".into())),
        ]);
        assert_eq!(resps[1].reply, Reply::Value("v".into()));
    }

    #[test]
    fn call_one_answers_the_script_reply_for_reply() {
        let (mut fused, _) = chain(&config());
        let script: Vec<(Command, Reply, bool)> = vec![
            (
                Command::Set("a".into(), "1".into()),
                Reply::Status("OK"),
                false,
            ),
            (Command::Get("a".into()), Reply::Value("1".into()), false),
            (Command::Incr("n".into(), 4), Reply::Int(4), false),
            (Command::Ping, Reply::Status("OK"), false),
            (Command::Auth("sekrit".into()), Reply::Status("OK"), false),
            (
                Command::Set("b".into(), "2".into()),
                Reply::Status("OK"),
                false,
            ),
            (Command::Expire("b".into(), 10_000), Reply::Int(1), false),
            (Command::Get("b".into()), Reply::Value("2".into()), false),
            (Command::Del("a".into()), Reply::Status("OK"), false),
            (Command::Get("a".into()), Reply::Nil, false),
            (Command::SlowlogLen, Reply::Int(0), false),
            (Command::Quit, Reply::Status("OK"), true),
        ];
        for (cmd, reply, close) in script {
            let got = fused.call_one(Request::new(cmd.clone()));
            assert_eq!(got.reply, reply, "command {cmd:?}");
            assert_eq!(got.close, close, "command {cmd:?}");
        }
    }

    #[test]
    fn call_one_counts_once_per_layer() {
        let (mut fused, stack) = chain(&config());
        let script: Vec<Command> = vec![
            Command::Set("a".into(), "1".into()),
            Command::Get("a".into()),
            Command::Ping,
            Command::Get("miss".into()),
        ];
        for cmd in &script {
            fused.call_one(Request::new(cmd.clone()));
        }
        let m = stack.metrics();
        assert_eq!(m.traced.sum(), 4);
        assert_eq!(m.read_latency.count(), 2);
        assert_eq!(m.write_latency.count(), 1);
        assert_eq!(m.control_latency.count(), 1);
        assert_eq!(m.auth_admitted.sum(), 4);
        assert_eq!(m.rate_admitted.sum(), 4);
        // PING is exempt from the deadline check and no TTL traffic.
        assert_eq!(m.deadline_checked.sum(), 3);
        assert_eq!(m.ttl_checked.sum(), 3);
        // The default 1-in-64 sampling covers the first command only.
        assert_eq!(m.spans_sampled.sum(), 1);
    }

    #[test]
    fn call_one_samples_the_same_ticks_as_the_onion() {
        // sample_every = 3: commands 1, 4, 7 open span scopes, the rest
        // make no span calls.
        let mut config = config();
        config.trace.sample_every = 3;
        let (mut fused, stack) = chain(&config);
        for _ in 0..7 {
            fused.call_one(Request::new(Command::Get("k".into())));
        }
        assert_eq!(stack.metrics().spans_sampled.sum(), 3);
        assert_eq!(stack.metrics().traced.sum(), 7);
    }

    #[test]
    fn call_one_enforces_auth_and_rate_limits() {
        let mut config = config();
        config.auth.anon_role = Role::ReadOnly;
        config.rate.burst = 2;
        config.rate.refill_per_sec = 1; // no refill mid-test
        config.trace.sample_every = 0; // no span on any call
        let (mut fused, _) = chain(&config);
        match fused
            .call_one(Request::new(Command::Set("k".into(), "v".into())))
            .reply
        {
            Reply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        // The denied write consumed no token (rate-limit runs after
        // auth — denied commands never reach it). Two reads exhaust
        // the bucket...
        fused.call_one(Request::new(Command::Get("k".into())));
        fused.call_one(Request::new(Command::Get("k".into())));
        match fused.call_one(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => assert!(e.starts_with("RATELIMIT "), "got {e:?}"),
            other => panic!("expected RATELIMIT rejection, got {other:?}"),
        }
    }

    #[test]
    fn call_one_respects_armed_ttl_timers() {
        let mut config = config();
        config.trace.sample_every = 0;
        let (mut fused, stack) = chain(&config);
        fused.call_one(Request::new(Command::Set("k".into(), "v".into())));
        assert_eq!(
            fused
                .call_one(Request::new(Command::Expire("k".into(), 20)))
                .reply,
            Reply::Int(1)
        );
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert_eq!(
            fused.call_one(Request::new(Command::Get("k".into()))).reply,
            Reply::Nil,
            "lapsed timer observed by call_one"
        );
        assert_eq!(stack.metrics().ttl_expired.sum(), 1);
    }

    #[test]
    fn call_one_trips_and_recovers_the_breaker() {
        // A slow store blows a 1ms read budget every time: the first
        // read is a DEADLINE overrun, which (failures=1) trips the
        // breaker; the next read is rejected by the breaker without
        // touching the store; after the cooldown a probe is admitted
        // and, still failing, re-opens it.
        struct SlowStore;
        impl Service for SlowStore {
            fn call(&mut self, _req: Request) -> Response {
                std::thread::sleep(std::time::Duration::from_millis(3));
                Response::ok(Reply::Status("OK"))
            }
        }
        let mut config = config();
        config.trace.sample_every = 0;
        config.deadline.read_us = 1_000;
        config.deadline.write_us = 1_000;
        config.breaker.failures = 1;
        config.breaker.cooldown_ms = 60_000; // stays open for the test
        let (mut fused, stack) = chain_over(&config, SlowStore);
        match fused.call_one(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => assert!(e.starts_with("DEADLINE "), "got {e:?}"),
            other => panic!("expected deadline overrun, got {other:?}"),
        }
        match fused.call_one(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => assert!(e.starts_with("BREAKER read open"), "got {e:?}"),
            other => panic!("expected breaker rejection, got {other:?}"),
        }
        let m = stack.metrics();
        assert_eq!(m.breaker_trips.sum(), 1);
        assert_eq!(m.breaker_rejected.sum(), 1);
        // The rejection skipped the deadline check (breaker sits
        // outside it) but was still traced.
        assert_eq!(m.deadline_checked.sum(), 1);
        assert_eq!(m.traced.sum(), 2);
        // Writes are a different class: still admitted.
        match fused
            .call_one(Request::new(Command::Set("k".into(), "v".into())))
            .reply
        {
            Reply::Error(e) => assert!(e.starts_with("DEADLINE "), "got {e:?}"),
            other => panic!("expected deadline overrun, got {other:?}"),
        }
    }

    #[test]
    fn call_one_sheds_writes_on_shard_pressure() {
        use crate::shed::{PressureProbe, ShardPressure};
        struct StressedProbe;
        impl PressureProbe for StressedProbe {
            fn shard_of(&self, cmd: &Command) -> Option<usize> {
                matches!(cmd.class(), CommandClass::Write).then_some(3)
            }
            fn pressure_of(&self, _shard: usize) -> ShardPressure {
                ShardPressure {
                    queue_depth: 4_096,
                    ack_p99_us: 0,
                }
            }
        }
        let mut config = config();
        config.trace.sample_every = 0;
        config.shed.queue_depth = 1_024;
        let (mut fused, stack) = chain(&config);
        assert!(stack.shed_set_probe(Arc::new(StressedProbe)));
        match fused
            .call_one(Request::new(Command::Set("k".into(), "v".into())))
            .reply
        {
            Reply::Error(e) => {
                assert_eq!(e, "SHED shard=3 queue_depth=4096 limit=1024", "got {e:?}")
            }
            other => panic!("expected shed rejection, got {other:?}"),
        }
        // Reads pass untouched; the shed rejection was rate-charged
        // and auth-admitted (both run before shed).
        assert_eq!(
            fused.call_one(Request::new(Command::Get("k".into()))).reply,
            Reply::Nil
        );
        let m = stack.metrics();
        assert_eq!(m.shed_shed.sum(), 1);
        assert_eq!(m.auth_admitted.sum(), 2);
        assert_eq!(m.rate_admitted.sum(), 2);
    }

    #[test]
    fn empty_stack_chain_answers_like_its_inner_service() {
        let (mut chain, stack) = chain(&MiddlewareConfig::none());
        let mut bare = MapStore::default();
        let before = stack.metrics().render_lines(0);
        let script: Vec<Command> = vec![
            Command::Set("a".into(), "1".into()),
            Command::Get("a".into()),
            Command::Incr("n".into(), 4),
            Command::Auth("sekrit".into()),
            Command::Expire("a".into(), 1),
            Command::Stats,
            Command::SlowlogLen,
            Command::Quit,
        ];
        for cmd in &script {
            let want = bare.call(Request::new(cmd.clone()));
            let got = chain.call_one(Request::new(cmd.clone()));
            assert_eq!((got.reply, got.close), (want.reply, want.close), "{cmd:?}");
        }
        let want: Vec<(Reply, bool)> = script
            .iter()
            .map(|c| bare.call(Request::new(c.clone())))
            .map(|r| (r.reply, r.close))
            .collect();
        let got: Vec<(Reply, bool)> = chain
            .call_batch(script.into_iter().map(Request::new).collect())
            .into_iter()
            .map(|r| (r.reply, r.close))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            stack.metrics().render_lines(0),
            before,
            "no mw_* counter moved"
        );
    }

    #[test]
    fn call_one_skips_spans_on_unsampled_ticks() {
        let mut config = config();
        config.trace.sample_every = 0;
        let (mut fused, stack) = chain(&config);
        for _ in 0..5 {
            fused.call_one(Request::new(Command::Ping));
        }
        assert_eq!(stack.metrics().spans_sampled.sum(), 0);
        assert_eq!(stack.metrics().traced.sum(), 5);
    }
}
