//! The interceptor pipeline: one typed chain of layer services over
//! protocol [`Request`]s and [`Response`]s.
//!
//! A [`Service`] is one synchronous request handler; each layer's
//! service wraps an inner one. A [`Stack`] owns the *shared* state of
//! all seven layers (token buckets, ACL tables, histograms, TTL
//! sidecar), records which of them are on, and stamps out one
//! per-connection chain per session — per-session state (the
//! authenticated principal, the session's token bucket) lives in the
//! chain, shared state behind `Arc`s in the stack. An off layer stays
//! in the chain's type but forwards every call to its inner service
//! untouched.
//!
//! Layer order is canonical regardless of configuration order:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! so tracing observes every rejection, the circuit breaker sits
//! outside the deadline layer whose `DEADLINE` overruns trip it,
//! deadlines cover the layers below them, authentication gates
//! rate-limit accounting, load shedding consults shard pressure only
//! for writes that survived admission (and sits above TTL so the TTL
//! layer's synthesized reap deletes are never shed), and the TTL
//! rewriter sits immediately in front of the store.

use crate::auth::AuthLayer;
use crate::breaker::BreakerLayer;
use crate::config::MiddlewareConfig;
use crate::deadline::DeadlineLayer;
use crate::metrics::PipelineMetrics;
use crate::protocol::{Command, Reply};
use crate::rate_limit::RateLimitLayer;
use crate::shed::{PressureProbe, ShedLayer};
use crate::trace::TraceLayer;
use crate::ttl::TtlLayer;
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
/// the store; every other one is a layer's wrapper).
pub trait Service {
    /// Handle one request.
    fn call(&mut self, req: Request) -> Response;

    /// Handle a pipelined burst of requests, returning one response per
    /// request **in request order**.
    ///
    /// The default forwards each request through [`Service::call`], so
    /// third-party layers keep working unchanged; the seven production
    /// layers override it to pay their per-request costs once per burst
    /// (one clock read and histogram sample in trace, one breaker
    /// admission sweep, one deadline check, one auth lookup, one bulk
    /// token-bucket take, one pressure read per shard in shed, one TTL
    /// sweep) — and the innermost store executor overrides it to
    /// group-acknowledge a whole burst of mutations per shard.
    ///
    /// Contract: `call_batch(reqs)` must produce the same responses, in
    /// the same order, as calling `call` on each request sequentially
    /// (timing-dependent layers — deadline, rate-limit refill — are
    /// exempt only in how they meter time, never in ordering).
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter().map(|req| self.call(req)).collect()
    }
}

/// Drive a burst through `inner` with per-request admission control:
/// requests `admit` rejects are answered in place, the rest travel
/// downstream as **one** inner batch, and the replies are zipped back
/// around the rejections in request order. The shared partial path of
/// the auth and rate-limit layers' `call_batch` — one implementation
/// of the ordering invariant instead of two drifting copies.
pub(crate) fn partition_batch<S: Service>(
    inner: &mut S,
    reqs: Vec<Request>,
    mut admit: impl FnMut(&Request) -> Option<Response>,
) -> Vec<Response> {
    let mut slots: Vec<Option<Response>> = Vec::with_capacity(reqs.len());
    let mut admitted: Vec<Request> = Vec::with_capacity(reqs.len());
    for req in reqs {
        match admit(&req) {
            Some(rejection) => slots.push(Some(rejection)),
            None => {
                slots.push(None);
                admitted.push(req);
            }
        }
    }
    let mut inner_resps = if admitted.is_empty() {
        Vec::new()
    } else {
        inner.call_batch(admitted)
    }
    .into_iter();
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(rejection) => rejection,
            None => inner_resps
                .next()
                .expect("one inner response per admitted request"),
        })
        .collect()
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
        match self {
            LayerKind::Trace => 0,
            LayerKind::Breaker => 1,
            LayerKind::Deadline => 2,
            LayerKind::Auth => 3,
            LayerKind::RateLimit => 4,
            LayerKind::Shed => 5,
            LayerKind::Ttl => 6,
        }
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

/// The configured pipeline: shared layer state + the per-connection
/// chain factory.
///
/// All seven production layers are built once, whatever the config,
/// and each records whether it is on. [`Stack::fused_service`] stamps
/// out the one concrete
/// `Trace<Breaker<Deadline<Auth<RateLimit<Shed<Ttl<S>>>>>>>` chain —
/// direct calls between layers, zero virtual calls — for every stack;
/// off layers in it are passthroughs.
pub struct Stack {
    trace: TraceLayer,
    breaker: BreakerLayer,
    deadline: DeadlineLayer,
    auth: AuthLayer,
    rate: RateLimitLayer,
    shed: ShedLayer,
    ttl: TtlLayer,
    metrics: Arc<PipelineMetrics>,
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
        let on = |kind: LayerKind| config.layers.contains(&kind);
        let depth = LayerKind::ALL.iter().filter(|&&k| on(k)).count();
        let mut stack = Stack {
            trace: TraceLayer::new(Arc::clone(&metrics), depth, config.trace.sample_every),
            breaker: BreakerLayer::new(config.breaker.clone(), Arc::clone(&metrics)),
            deadline: DeadlineLayer::new(config.deadline.clone(), Arc::clone(&metrics)),
            auth: AuthLayer::new(&config.auth, Arc::clone(&metrics)),
            rate: RateLimitLayer::new(config.rate.clone(), Arc::clone(&metrics)),
            shed: ShedLayer::new(config.shed.clone(), Arc::clone(&metrics)),
            ttl: TtlLayer::new(Arc::clone(&metrics)),
            metrics,
        };
        stack.trace.on = on(LayerKind::Trace);
        stack.breaker.on = on(LayerKind::Breaker);
        stack.deadline.on = on(LayerKind::Deadline);
        stack.auth.on = on(LayerKind::Auth);
        stack.rate.on = on(LayerKind::RateLimit);
        stack.shed.on = on(LayerKind::Shed);
        stack.ttl.on = on(LayerKind::Ttl);
        Arc::new(stack)
    }

    /// Whether `kind` is on in this stack.
    fn is_on(&self, kind: LayerKind) -> bool {
        match kind {
            LayerKind::Trace => self.trace.on,
            LayerKind::Breaker => self.breaker.on,
            LayerKind::Deadline => self.deadline.on,
            LayerKind::Auth => self.auth.on,
            LayerKind::RateLimit => self.rate.on,
            LayerKind::Shed => self.shed.on,
            LayerKind::Ttl => self.ttl.on,
        }
    }

    /// The layers that are on, in canonical outer→inner order.
    pub fn kinds(&self) -> Vec<LayerKind> {
        LayerKind::ALL
            .into_iter()
            .filter(|&k| self.is_on(k))
            .collect()
    }

    /// Number of layers that are on.
    pub fn depth(&self) -> usize {
        self.kinds().len()
    }

    /// The shared per-layer counters and histograms.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.metrics
    }

    /// Build one session's chain around `inner`: the seven canonical
    /// layers composed as a single concrete type, so every inter-layer
    /// call is a direct (inlinable) call, and batch-1 traffic can take
    /// [`crate::fused::FusedService::call_one`]. Off layers forward
    /// untouched. Always returns `Some`: every stack, partial or full,
    /// runs on this chain (the `Option` is kept for source
    /// compatibility).
    pub fn fused_service<S: Service>(
        &self,
        session: &Session,
        inner: S,
    ) -> Option<crate::fused::FusedService<S>> {
        let chain = self.ttl.wrap(session, inner);
        let chain = self.shed.wrap(session, chain);
        let chain = self.rate.wrap(session, chain);
        let chain = self.auth.wrap(session, chain);
        let chain = self.deadline.wrap(session, chain);
        let chain = self.breaker.wrap(session, chain);
        Some(self.trace.wrap(session, chain))
    }

    /// Seat the live shard-pressure probe the shed layer consults (the
    /// storage plane does not exist yet when the stack is built, so the
    /// embedding injects it here once the store is up). Returns `false`
    /// when the shed layer is not configured.
    pub fn shed_set_probe(&self, probe: Arc<dyn PressureProbe>) -> bool {
        if self.shed.on {
            self.shed.state.set_probe(probe);
        }
        self.shed.on
    }

    /// Add (or replace) an auth token at runtime. Returns `false` when
    /// the auth layer is not configured.
    pub fn auth_set_token(&self, name: &str, token: &str, role: crate::auth::Role) -> bool {
        if self.auth.on {
            self.auth.state.set_token(name, token, role);
            self.metrics.auth_reloads.increment();
        }
        self.auth.on
    }

    /// RCU-publish a new anonymous-session role (a policy reload: every
    /// connection observes it on its next request). Returns `false`
    /// when the auth layer is not configured.
    pub fn auth_set_anon_role(&self, role: crate::auth::Role) -> bool {
        if self.auth.on {
            self.auth.state.publish_anon_role(role);
            self.metrics.auth_reloads.increment();
        }
        self.auth.on
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

    fn chain(stack: &Stack) -> crate::fused::FusedService<Echo> {
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
        // A partial stack skips the inline fast path: the on layers
        // count the command, the off ones never see it.
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
