//! The admission pipeline's vocabulary — [`Request`], [`Response`],
//! the [`Service`] trait, [`Session`], the seven [`LayerKind`]s — and
//! the [`Stack`] that owns the layers' shared state.
//!
//! A [`Service`] is one synchronous request handler: the store executor
//! at the bottom, and the per-session admission driver
//! ([`FusedService`]) in front of it. A [`Stack`] owns the *shared*
//! state of all seven layers (token buckets, ACL tables, histograms,
//! TTL sidecar), records which of them are on, and stamps out one
//! driver per session — per-session state (the authenticated
//! principal, the session's token bucket, the sampling phase) lives in
//! the driver, shared state behind one `Arc` in the stack. A layer that
//! is off is simply a phase the driver skips.
//!
//! The phases run in canonical order regardless of configuration
//! order:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! so tracing observes every rejection, the circuit breaker sits
//! outside the deadline check whose `DEADLINE` overruns trip it,
//! deadlines cover the phases after them, authentication gates
//! rate-limit accounting, load shedding consults shard pressure only
//! for writes that survived admission (and runs before TTL so the TTL
//! phase's synthesized reap deletes are never shed), and the TTL
//! rewriter sits immediately in front of the store.

use crate::auth::AuthState;
use crate::breaker::BreakerState;
use crate::config::MiddlewareConfig;
use crate::deadline::DeadlineConfig;
use crate::fused::FusedService;
use crate::metrics::PipelineMetrics;
use crate::protocol::{Command, Reply};
use crate::rate_limit::RateLimitState;
use crate::shed::{PressureProbe, ShedState};
use crate::ttl::TtlState;
use std::sync::Arc;

/// A parsed request travelling down the pipeline.
#[derive(Clone, Debug)]
pub struct Request {
    /// The command (layers may rewrite it before forwarding).
    pub command: Command,
}

impl Request {
    /// Wrap a command.
    pub fn new(command: Command) -> Self {
        Request { command }
    }
}

/// A reply travelling back up the pipeline.
#[derive(Clone, Debug)]
pub struct Response {
    /// The wire reply.
    pub reply: Reply,
    /// Whether the server should close the connection after sending it.
    pub close: bool,
}

impl Response {
    /// A normal (keep-alive) response.
    pub fn ok(reply: Reply) -> Self {
        Response {
            reply,
            close: false,
        }
    }

    /// A structured middleware rejection: `-ERR <layer> <detail>` (see
    /// the error-reply grammar in [`crate::protocol`]).
    pub fn rejection(layer: &str, detail: impl std::fmt::Display) -> Self {
        Response {
            reply: Reply::Error(format!("{layer} {detail}")),
            close: false,
        }
    }
}

/// One synchronous request handler (the innermost one executes against
/// the store; the admission driver in front of it is the other).
pub trait Service {
    /// Handle one request.
    fn call(&mut self, req: Request) -> Response;

    /// Handle a pipelined burst of requests, returning one response per
    /// request **in request order**.
    ///
    /// The default forwards each request through [`Service::call`]. The
    /// admission driver overrides it to run each admission phase once
    /// per burst (see [`crate::fused`]), and the store executor
    /// overrides it to group-acknowledge a whole burst of mutations per
    /// shard.
    ///
    /// Contract: `call_batch(reqs)` must produce the same responses, in
    /// the same order, as calling `call` on each request sequentially
    /// (timing-dependent phases — deadline, rate-limit refill — are
    /// exempt only in how they meter time, never in ordering).
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter().map(|req| self.call(req)).collect()
    }
}

/// Per-connection identity the layers key their session state on.
#[derive(Clone, Debug)]
pub struct Session {
    /// The client's identity: the peer `ip:port` (one bucket per
    /// connection), or any stable name an embedding chooses.
    pub client: String,
}

/// Number of production [`LayerKind`]s — the size of every
/// per-layer metric array (span cost tables, admission histograms).
pub const LAYER_COUNT: usize = 7;

/// The seven production layers, in canonical outer→inner order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LayerKind {
    /// Per-command latency histograms + per-layer counters folded into
    /// `STATS` (outermost, so it observes every rejection).
    Trace,
    /// Per-verb-class circuit breaker (outside deadline, so it observes
    /// the `DEADLINE` overruns that trip it).
    Breaker,
    /// Per-class execution budgets.
    Deadline,
    /// Token-keyed authentication and role ACLs (`AUTH`).
    Auth,
    /// Per-client token-bucket admission control.
    RateLimit,
    /// Shard-pressure load shedding for writes (below rate-limit, so a
    /// shed burst still pays tokens; above TTL, so reap deletes pass).
    Shed,
    /// TTL/expiry sidecar: `EXPIRE` arms timers, `GET` lazily expires
    /// (innermost, immediately in front of the store).
    Ttl,
}

impl LayerKind {
    /// Every production layer in canonical outer→inner order.
    pub const ALL: [LayerKind; LAYER_COUNT] = [
        LayerKind::Trace,
        LayerKind::Breaker,
        LayerKind::Deadline,
        LayerKind::Auth,
        LayerKind::RateLimit,
        LayerKind::Shed,
        LayerKind::Ttl,
    ];

    /// This layer's slot in per-layer metric arrays (canonical order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The lowercase config/display name.
    pub fn name(self) -> &'static str {
        match self {
            LayerKind::Trace => "trace",
            LayerKind::Breaker => "breaker",
            LayerKind::Deadline => "deadline",
            LayerKind::Auth => "auth",
            LayerKind::RateLimit => "ratelimit",
            LayerKind::Shed => "shed",
            LayerKind::Ttl => "ttl",
        }
    }

    /// Parse a config name (`trace`, `breaker`, `deadline`, `auth`,
    /// `ratelimit`, `shed`, `ttl`).
    pub fn parse(name: &str) -> Result<LayerKind, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "trace" | "tracing" => Ok(LayerKind::Trace),
            "breaker" | "circuit-breaker" => Ok(LayerKind::Breaker),
            "deadline" | "timeout" => Ok(LayerKind::Deadline),
            "auth" | "acl" => Ok(LayerKind::Auth),
            "ratelimit" | "rate" | "rate-limit" => Ok(LayerKind::RateLimit),
            "shed" | "load-shed" | "loadshed" => Ok(LayerKind::Shed),
            "ttl" | "expiry" => Ok(LayerKind::Ttl),
            other => Err(format!("unknown middleware layer {other:?}")),
        }
    }
}

/// The configured pipeline: every layer's shared state, built once
/// whatever the config, plus which layers are on.
/// [`Stack::fused_service`] stamps out one session's admission driver,
/// which holds the stack by one `Arc` and runs the phases of the layers
/// that are on.
pub struct Stack {
    /// Whether each layer is on, by [`LayerKind::index`].
    on: [bool; LAYER_COUNT],
    /// Span-sampling period (0 disables sampling).
    pub(crate) sample_every: u32,
    pub(crate) breaker: BreakerState,
    pub(crate) deadline: DeadlineConfig,
    pub(crate) auth: AuthState,
    pub(crate) rate: RateLimitState,
    pub(crate) shed: ShedState,
    pub(crate) ttl: TtlState,
    pub(crate) metrics: Arc<PipelineMetrics>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field(
                "layers",
                &self.kinds().iter().map(|k| k.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Stack {
    /// Build the stack from a config. Layer order in the config is
    /// irrelevant; duplicates collapse.
    pub fn build(config: &MiddlewareConfig) -> Arc<Stack> {
        let metrics = Arc::new(PipelineMetrics::with_trace(&config.trace));
        let on = LayerKind::ALL.map(|k| config.layers.contains(&k));
        Arc::new(Stack {
            on,
            sample_every: config.trace.sample_every,
            breaker: BreakerState::new(config.breaker.clone(), Arc::clone(&metrics)),
            deadline: config.deadline.clone(),
            auth: AuthState::new(&config.auth, Arc::clone(&metrics)),
            rate: RateLimitState::new(config.rate.clone(), Arc::clone(&metrics)),
            shed: ShedState::new(config.shed.clone(), Arc::clone(&metrics)),
            ttl: TtlState::new(Arc::clone(&metrics)),
            metrics,
        })
    }

    /// Whether `kind` is on.
    #[inline]
    pub(crate) fn on(&self, kind: LayerKind) -> bool {
        self.on[kind.index()]
    }

    /// The layers that are on, in canonical outer→inner order.
    pub fn kinds(&self) -> Vec<LayerKind> {
        LayerKind::ALL.into_iter().filter(|&k| self.on(k)).collect()
    }

    /// Number of layers that are on.
    pub fn depth(&self) -> usize {
        self.on.iter().filter(|&&on| on).count()
    }

    /// The shared per-layer counters and histograms.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    /// Build one session's admission driver around `inner`. Always
    /// returns `Some`: every stack, partial or full, runs on the one
    /// driver (the `Option` is kept for source compatibility).
    pub fn fused_service<S: Service>(
        self: &Arc<Self>,
        session: &Session,
        inner: S,
    ) -> Option<FusedService<S>> {
        Some(FusedService::new(Arc::clone(self), session, inner))
    }

    /// Seat the live shard-pressure probe the shed phase consults (the
    /// storage plane does not exist yet when the stack is built, so the
    /// embedding injects it here once the store is up). Returns `false`
    /// when the shed layer is not configured.
    pub fn shed_set_probe(&self, probe: Arc<dyn PressureProbe>) -> bool {
        let on = self.on(LayerKind::Shed);
        if on {
            self.shed.set_probe(probe);
        }
        on
    }

    /// Add (or replace) an auth token at runtime. Returns `false` when
    /// the auth layer is not configured.
    pub fn auth_set_token(&self, name: &str, token: &str, role: crate::auth::Role) -> bool {
        let on = self.on(LayerKind::Auth);
        if on {
            self.auth.set_token(name, token, role);
            self.metrics.auth_reloads.increment();
        }
        on
    }

    /// RCU-publish a new anonymous-session role (a policy reload: every
    /// connection observes it on its next request). Returns `false`
    /// when the auth layer is not configured.
    pub fn auth_set_anon_role(&self, role: crate::auth::Role) -> bool {
        let on = self.on(LayerKind::Auth);
        if on {
            self.auth.publish_anon_role(role);
            self.metrics.auth_reloads.increment();
        }
        on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Service for Echo {
        fn call(&mut self, req: Request) -> Response {
            Response::ok(Reply::Value(req.command.verb().to_string()))
        }
    }

    fn session() -> Session {
        Session {
            client: "t:1".into(),
        }
    }

    fn chain(stack: &Arc<Stack>) -> FusedService<Echo> {
        stack
            .fused_service(&session(), Echo)
            .expect("every stack builds the typed chain")
    }

    #[test]
    fn empty_stack_is_a_passthrough() {
        let stack = Stack::build(&MiddlewareConfig::none());
        assert_eq!(stack.depth(), 0);
        let mut svc = chain(&stack);
        let resp = svc.call(Request::new(Command::Ping));
        assert_eq!(resp.reply, Reply::Value("PING".into()));
        assert!(!resp.close);
    }

    #[test]
    fn full_stack_has_seven_layers_in_canonical_order() {
        let stack = Stack::build(&MiddlewareConfig::full());
        assert_eq!(stack.depth(), 7);
        assert_eq!(stack.kinds(), LayerKind::ALL.to_vec());
    }

    #[test]
    fn partial_stacks_run_on_the_typed_chain() {
        let mut config = MiddlewareConfig::none();
        config.layers = vec![LayerKind::Ttl, LayerKind::Trace];
        let stack = Stack::build(&config);
        assert_eq!(stack.kinds(), vec![LayerKind::Trace, LayerKind::Ttl]);
        let mut svc = chain(&stack);
        // The on layers count the command, the off ones never see it.
        let resp = svc.call_one(Request::new(Command::Get("k".into())));
        assert_eq!(resp.reply, Reply::Value("GET".into()));
        let m = stack.metrics();
        assert_eq!(m.traced.sum(), 1);
        assert_eq!(m.ttl_checked.sum(), 1);
        assert_eq!(m.auth_admitted.sum(), 0);
        assert_eq!(m.rate_admitted.sum(), 0);
        assert_eq!(m.deadline_checked.sum(), 0);
        // No bucket was taken for the off rate-limit layer.
        assert_eq!(stack.rate.bucket_count(), 0);
    }

    #[test]
    fn duplicate_layer_names_collapse() {
        let mut config = MiddlewareConfig::none();
        config.layers = vec![LayerKind::Ttl, LayerKind::Trace, LayerKind::Ttl];
        let stack = Stack::build(&config);
        assert_eq!(stack.depth(), 2);
    }

    #[test]
    fn default_call_batch_loops_over_call() {
        // A service that only implements `call` (a third-party layer)
        // still answers batches, one response per request, in order.
        let mut svc = Echo;
        let resps = svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Get("k".into())),
            Request::new(Command::Stats),
        ]);
        let verbs: Vec<Reply> = resps.into_iter().map(|r| r.reply).collect();
        assert_eq!(
            verbs,
            vec![
                Reply::Value("PING".into()),
                Reply::Value("GET".into()),
                Reply::Value("STATS".into()),
            ]
        );
    }

    #[test]
    fn full_stack_batch_matches_sequential() {
        // Same burst through two identically configured stacks: the
        // batched chain must answer exactly like the sequential one.
        let burst: Vec<Command> = vec![
            Command::Ping,
            Command::Get("a".into()),
            Command::Set("a".into(), "1".into()),
            Command::Incr("n".into(), 4),
            Command::Del("a".into()),
            Command::Timeline(7),
        ];
        let mut seq = chain(&Stack::build(&MiddlewareConfig::full()));
        let mut batched = chain(&Stack::build(&MiddlewareConfig::full()));
        let want: Vec<Reply> = burst
            .iter()
            .map(|c| seq.call(Request::new(c.clone())).reply)
            .collect();
        let got: Vec<Reply> = batched
            .call_batch(burst.into_iter().map(Request::new).collect())
            .into_iter()
            .map(|r| r.reply)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn layer_names_round_trip() {
        for kind in LayerKind::ALL {
            assert_eq!(LayerKind::parse(kind.name()), Ok(kind));
        }
        assert!(LayerKind::parse("blorp").is_err());
    }

    #[test]
    fn probe_injection_requires_the_shed_layer() {
        struct NoPressure;
        impl PressureProbe for NoPressure {
            fn shard_of(&self, _cmd: &Command) -> Option<usize> {
                None
            }
            fn pressure_of(&self, _shard: usize) -> crate::shed::ShardPressure {
                crate::shed::ShardPressure {
                    queue_depth: 0,
                    ack_p99_us: 0,
                }
            }
        }
        let full = Stack::build(&MiddlewareConfig::full());
        assert!(full.shed_set_probe(Arc::new(NoPressure)));
        let none = Stack::build(&MiddlewareConfig::none());
        assert!(!none.shed_set_probe(Arc::new(NoPressure)));
    }
}
