//! The typed seven-layer chain and its batch-1 fast path.
//!
//! [`FusedService`] is the canonical pipeline
//! (trace → breaker → deadline → auth → rate-limit → shed → ttl)
//! composed as **one concrete type**: every inter-layer call is a
//! direct, inlinable call. Every stack runs on it — a layer the config
//! leaves out is still in the type but forwards untouched. Bursts of
//! any size run through the layers' own `call`/`call_batch` (the
//! layered onion); on top of that, [`FusedService::call_one`] gives
//! depth-1 bursts (the pipeline-1 workload, the stack's weakest point)
//! a fast path that runs all seven admission checks inline:
//!
//! * **one** clock read pair (shared by the trace histogram and the
//!   deadline check, which in the layered path each pay their own),
//! * no `Vec<Request>` batch construction and no per-layer calls,
//! * no span-scope bookkeeping (the fast path only runs on unsampled
//!   ticks, where every `span::start()` would be a `None` anyway).
//!
//! The fast path **falls back** to the layered `call` when any layer
//! is off (it inlines exactly the seven-layer shape), the moment a
//! command needs a layer's own handling — `AUTH` logins (session state
//! changes inside the auth layer), `QUIT` (rate-limit exemption),
//! `STATS`/`STATS RESET` (the trace layer folds/zeroes the `mw_*`
//! lines), the `SLOWLOG`/`TRACE` ring verbs (answered by the trace
//! layer) — or when the connection's sampling phase says this command
//! opens a span scope (each layer must bracket its own segment, which
//! only the layered path does). Armed TTL timers do **not** force the
//! fallback: the fast path calls into the TTL service, whose
//! lock-serialized reap semantics apply unchanged; only the
//! empty-sidecar probe is short-circuited.
//!
//! Replies are byte-identical to the layered `call` by construction
//! (the proptest suite drives randomized bursts through both), and the
//! metrics are too: every counter and histogram the seven layers would
//! touch for an unsampled singleton is touched here, in the same
//! order. It stays because it pays: on the retwis wire benchmark
//! (pipeline 1, a 2-vCPU host), forwarding `call_one` to the layered
//! `call` cost 5.6% of throughput and 6.5% more CPU per operation.

use crate::auth::{AuthService, Role};
use crate::breaker::BreakerService;
use crate::deadline::DeadlineService;
use crate::pipeline::{Request, Response, Service};
use crate::protocol::{Command, CommandClass, Reply};
use crate::rate_limit::RateLimitService;
use crate::shed::ShedService;
use crate::trace::{class_name, TraceService};
use crate::ttl::TtlService;
use std::time::Instant;

/// The canonical seven-layer chain as one concrete (monomorphized)
/// type — the chain every stack runs on — built by
/// [`Stack::fused_service`](crate::pipeline::Stack::fused_service).
pub type FusedService<S> = TraceService<
    BreakerService<DeadlineService<AuthService<RateLimitService<ShedService<TtlService<S>>>>>>,
>;

/// Commands a specific layer handles itself (session logins, ring
/// verbs, stats folding, the `QUIT`/`HEALTH`/`READY` rate-limit
/// exemption): these take the layered path so that handling runs
/// exactly once, in its layer.
fn needs_layer_dispatch(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Auth(_)
            | Command::Quit
            | Command::Health
            | Command::Ready
            | Command::Stats
            | Command::StatsReset
            | Command::SlowlogGet
            | Command::SlowlogReset
            | Command::SlowlogLen
            | Command::TraceGet
            | Command::TraceReset
            | Command::TraceLen
    )
}

impl<S: Service> FusedService<S> {
    /// Whether all seven layers are on: the only shape the fast path
    /// inlines.
    fn all_layers_on(&self) -> bool {
        let breaker = &self.inner;
        let deadline = &breaker.inner;
        let auth = &deadline.inner;
        let rate = &auth.inner;
        let shed = &rate.inner;
        let ttl = &shed.inner;
        self.on
            && breaker.on
            && deadline.on
            && auth.on
            && rate.bucket.is_some()
            && shed.on
            && ttl.on
    }

    /// The batch-1 fast path: all seven admission checks inline, one
    /// clock read pair, falling back to the layered [`Service::call`]
    /// for partial stacks, for commands a layer owns and for
    /// span-sampled ticks (see the module doc for the exact
    /// conditions).
    pub fn call_one(&mut self, req: Request) -> Response {
        // Peek the sampling phase without consuming it: a sampled tick
        // needs the layered path (each layer brackets its own span
        // segment), and the delegated call advances the phase itself.
        let sampled = self.sample_every != 0 && self.tick == 0;
        if sampled || needs_layer_dispatch(&req.command) || !self.all_layers_on() {
            return self.call(req);
        }
        // Unsampled: advance the phase exactly as tick_sample() would.
        if self.sample_every != 0 {
            self.tick += 1;
            if self.tick >= self.sample_every {
                self.tick = 0;
            }
        }
        let class = req.command.class();
        let verb = req.command.verb();
        // Deadline admission: the class budget (0 = exempt). The
        // deadline layer now sits one level below the breaker.
        let budget_us = match class {
            CommandClass::Read => self.inner.inner.config.read_us,
            CommandClass::Write => self.inner.inner.config.write_us,
            CommandClass::Control => 0,
        };
        // The one clock read pair, shared by the deadline check and
        // the trace histograms.
        let start = Instant::now();
        // Breaker admission, outside the deadline clock in the onion:
        // a breaker rejection skips the deadline check (and is never
        // observed), exactly like the layered path.
        let breaker_verdict = self.inner.state.admit(class);
        let breaker_admitted = breaker_verdict.is_none();
        let resp = match breaker_verdict {
            Some(rejection) => rejection,
            None => {
                // Auth admission: one role resolve (session principal
                // or the RCU-published anon policy), one class check.
                let auth = &mut self.inner.inner.inner;
                let role = match &auth.principal {
                    Some(p) => p.role,
                    None => auth.state.anon_role(),
                };
                if !role.allows(class) {
                    auth.metrics.auth_denied.increment();
                    Response::rejection(
                        "AUTH",
                        format_args!(
                            "{} requires {}, session role is {}",
                            verb,
                            match class {
                                CommandClass::Write => Role::ReadWrite.name(),
                                _ => Role::ReadOnly.name(),
                            },
                            role.name()
                        ),
                    )
                } else {
                    auth.metrics.auth_admitted.increment();
                    // Rate-limit admission: one token take from the
                    // session's bucket (QUIT/HEALTH/READY never reach
                    // here — they are layer-dispatch verbs).
                    let rate = &mut auth.inner;
                    let bucket = rate.bucket.as_ref().expect("all layers on");
                    if !rate.state.admit(bucket) {
                        Response::rejection(
                            "RATELIMIT",
                            format_args!("rejected retry_us={}", rate.state.retry_us()),
                        )
                    } else {
                        // Shed admission: one pressure read for writes
                        // when the layer is armed and a probe seated.
                        let shed = &mut rate.inner;
                        if let Some(rejection) = shed.state.admit(&req.command) {
                            rejection
                        } else {
                            // TTL admission: with no timer armed
                            // anywhere no key can be timed, so kv
                            // commands skip even the sidecar probe;
                            // anything else (armed timers, EXPIRE)
                            // runs the monomorphized TTL service with
                            // its full reap semantics.
                            let ttl = &mut shed.inner;
                            match &req.command {
                                Command::Get(_)
                                | Command::Set(..)
                                | Command::Del(_)
                                | Command::Incr(..)
                                    if ttl.state.sidecar.is_empty() =>
                                {
                                    ttl.state.metrics.ttl_checked.increment();
                                    ttl.inner.call(req)
                                }
                                _ => ttl.call(req),
                            }
                        }
                    }
                }
            }
        };
        let elapsed_us = start.elapsed().as_micros() as u64;
        let metrics = &self.metrics;
        // Deadline check, against the same clock pair — only for
        // responses that passed the breaker (in the onion the deadline
        // layer never sees a breaker rejection).
        let resp = if breaker_admitted && budget_us != 0 {
            metrics.deadline_checked.increment();
            if elapsed_us > budget_us {
                metrics.deadline_missed.increment();
                Response {
                    reply: Reply::Error(format!(
                        "DEADLINE {verb} took {elapsed_us}us budget {budget_us}us"
                    )),
                    close: resp.close,
                }
            } else {
                resp
            }
        } else {
            resp
        };
        // Breaker observation of the post-deadline response: DEADLINE
        // overruns count toward the trip threshold, successes reset
        // the streak — same order as the onion.
        if breaker_admitted {
            self.inner.state.observe(class, &resp);
        }
        // Trace bookkeeping: count, class histogram, slowlog offer —
        // what the trace layer records for an unsampled singleton.
        metrics.traced.increment();
        match class {
            CommandClass::Read => metrics.read_latency.record(elapsed_us),
            CommandClass::Write => metrics.write_latency.record(elapsed_us),
            CommandClass::Control => metrics.control_latency.record(elapsed_us),
        }
        metrics
            .slowlog
            .offer(&self.client, verb, class_name(class), 1, elapsed_us, None);
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::TokenSpec;
    use crate::config::MiddlewareConfig;
    use crate::pipeline::{Session, Stack};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A deterministic in-memory store (the same shape the shard plane
    /// presents to the innermost layer).
    struct MapStore {
        map: HashMap<String, String>,
    }

    impl MapStore {
        fn new() -> Self {
            MapStore {
                map: HashMap::new(),
            }
        }
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

    fn config() -> MiddlewareConfig {
        let mut config = MiddlewareConfig::full();
        config.auth.tokens.push(TokenSpec {
            name: "writer".into(),
            token: "sekrit".into(),
            role: Role::ReadWrite,
        });
        config
    }

    fn session() -> Session {
        Session {
            client: "t:1".into(),
        }
    }

    /// A chain over a fresh stack built from `config`, plus the stack
    /// (for its metrics).
    fn chain(config: &MiddlewareConfig) -> (FusedService<MapStore>, Arc<Stack>) {
        let stack = Stack::build(config);
        let chain = stack
            .fused_service(&session(), MapStore::new())
            .expect("every stack builds the typed chain");
        (chain, stack)
    }

    /// Two chains over identically configured stacks: the first for
    /// `call_one`, the second the layered reference driven by `call`.
    fn pair() -> (FusedService<MapStore>, FusedService<MapStore>) {
        (chain(&config()).0, chain(&config()).0)
    }

    #[test]
    fn fused_chain_is_a_service() {
        let stack = Stack::build(&config());
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
        let resp = fused.call(Request::new(Command::Ping));
        assert_eq!(resp.reply, Reply::Status("OK"));
        let resps = fused.call_batch(vec![
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Get("k".into())),
        ]);
        assert_eq!(resps[1].reply, Reply::Value("v".into()));
    }

    #[test]
    fn call_one_matches_layered_call_reply_for_reply() {
        let (mut fused, mut chain) = pair();
        let script: Vec<Command> = vec![
            Command::Set("a".into(), "1".into()),
            Command::Get("a".into()),
            Command::Incr("n".into(), 4),
            Command::Ping,
            Command::Auth("sekrit".into()),
            Command::Set("b".into(), "2".into()),
            Command::Expire("b".into(), 10_000),
            Command::Get("b".into()),
            Command::Del("a".into()),
            Command::Get("a".into()),
            Command::SlowlogLen,
            Command::Quit,
        ];
        for cmd in script {
            let want = chain.call(Request::new(cmd.clone()));
            let got = fused.call_one(Request::new(cmd.clone()));
            assert_eq!(got.reply, want.reply, "command {cmd:?}");
            assert_eq!(got.close, want.close, "command {cmd:?}");
        }
    }

    #[test]
    fn call_one_matches_the_onion_counters() {
        // The onion here is the layered `call` of the same chain type.
        let (mut fused, fused_stack) = chain(&config());
        let (mut layered, layered_stack) = chain(&config());
        let script: Vec<Command> = vec![
            Command::Set("a".into(), "1".into()),
            Command::Get("a".into()),
            Command::Ping,
            Command::Get("miss".into()),
        ];
        for cmd in &script {
            layered.call(Request::new(cmd.clone()));
            fused.call_one(Request::new(cmd.clone()));
        }
        let (f, d) = (fused_stack.metrics(), layered_stack.metrics());
        assert_eq!(f.traced.sum(), d.traced.sum());
        assert_eq!(f.read_latency.count(), d.read_latency.count());
        assert_eq!(f.write_latency.count(), d.write_latency.count());
        assert_eq!(f.control_latency.count(), d.control_latency.count());
        assert_eq!(f.auth_admitted.sum(), d.auth_admitted.sum());
        assert_eq!(f.rate_admitted.sum(), d.rate_admitted.sum());
        assert_eq!(f.deadline_checked.sum(), d.deadline_checked.sum());
        assert_eq!(f.ttl_checked.sum(), d.ttl_checked.sum());
        assert_eq!(f.spans_sampled.sum(), d.spans_sampled.sum());
    }

    #[test]
    fn call_one_samples_the_same_ticks_as_the_onion() {
        // sample_every = 3: commands 1, 4, 7 open span scopes (the
        // fallback), the rest take the fast path; the sampled count
        // must match the onion exactly.
        let mut config = config();
        config.trace.sample_every = 3;
        let stack = Stack::build(&config);
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
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
        config.trace.sample_every = 0; // keep every call on the fast path
        let stack = Stack::build(&config);
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
        match fused
            .call_one(Request::new(Command::Set("k".into(), "v".into())))
            .reply
        {
            Reply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        // The denied write still consumed a token (exactly like the
        // onion, where rate-limit sits below auth — denied commands
        // never reach it). Two reads exhaust the bucket...
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
        let stack = Stack::build(&config);
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
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
            "lapsed timer observed on the fast path"
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
        let stack = Stack::build(&config);
        let mut fused = stack
            .fused_service(&session(), SlowStore)
            .expect("full stack fuses");
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
        let stack = Stack::build(&config);
        assert!(stack.shed_set_probe(std::sync::Arc::new(StressedProbe)));
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
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
        // and auth-admitted exactly like the onion.
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
        let mut bare = MapStore::new();
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
        let stack = Stack::build(&config);
        let mut fused = stack
            .fused_service(&session(), MapStore::new())
            .expect("full stack fuses");
        for _ in 0..5 {
            fused.call_one(Request::new(Command::Ping));
        }
        assert_eq!(stack.metrics().spans_sampled.sum(), 0);
        assert_eq!(stack.metrics().traced.sum(), 5);
    }
}
