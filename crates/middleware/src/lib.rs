//! # dego-middleware — a composable request-interceptor pipeline
//!
//! The paper adjusts shared objects so a middleware's hot paths scale;
//! this crate *is* the middleware: a chain of layer [`Service`]s over
//! the wire protocol's [`protocol::Command`] /
//! [`protocol::Reply`], composed by a [`Stack`] in front of the
//! `dego-server` storage plane. Every layer's shared state is built
//! from the adjusted-object catalogue, so the pipeline itself is a
//! contention workload for the paper's data structures:
//!
//! | Layer | Concern | Shared state |
//! |---|---|---|
//! | [`TraceLayer`] | latency histograms + per-layer counters in `STATS` | relaxed-atomic histograms, `LongAdder`s |
//! | [`BreakerLayer`] | per-class circuit breaker (closed/open/half-open) | lock-free per-class atomics |
//! | [`DeadlineLayer`] | per-class execution budgets | none (config only) |
//! | [`AuthLayer`] | `AUTH` tokens + role ACLs | SWMR hash map, RCU-published policy |
//! | [`RateLimitLayer`] | per-client token buckets | `SegmentedHashMap` of atomic buckets, `LongAdder` refill counters |
//! | [`ShedLayer`] | shard-pressure load shedding for writes | injected [`PressureProbe`] over live shard telemetry |
//! | [`TtlLayer`] | `EXPIRE` timers, lazy expiry on `GET` | `SegmentedHashMap` expiry sidecar, reaps lock-serialized against rewrites |
//!
//! Composition is canonical regardless of configuration order:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! One dispatch plane builds that chain: every stack, partial or
//! full, monomorphizes into one concrete [`FusedService`] (direct
//! calls between layers) in which the layers the config leaves out
//! forward untouched. With all seven on, singletons take an inline
//! batch-1 fast path ([`fused::FusedService::call_one`]) whose replies
//! and metrics are byte-identical to the layered `call` — the
//! `call_one_matches_layered_call` proptest pins it.
//!
//! Rejections are structured (`-ERR RATELIMIT …`, `-ERR AUTH …`,
//! `-ERR DEADLINE …`, `-ERR SHED …`, `-ERR BREAKER …`); see the
//! error-reply grammar in [`protocol`].
//!
//! ## Quickstart
//!
//! ```
//! use dego_middleware::protocol::{Command, Reply};
//! use dego_middleware::{MiddlewareConfig, Request, Response, Service, Session, Stack};
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn call(&mut self, req: Request) -> Response {
//!         Response::ok(Reply::Value(req.command.verb().into()))
//!     }
//! }
//!
//! let stack = Stack::build(&MiddlewareConfig::full());
//! assert_eq!(stack.depth(), 7);
//! let session = Session { client: "10.0.0.7:5501".into() };
//! let mut chain = stack
//!     .fused_service(&session, Echo)
//!     .expect("every stack builds the typed chain");
//! let resp = chain.call_one(Request::new(Command::Ping));
//! assert_eq!(resp.reply, Reply::Value("PING".into()));
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod breaker;
pub mod config;
pub mod deadline;
pub mod flight;
pub mod fused;
pub mod metrics;
pub mod pipeline;
pub mod prom;
pub mod protocol;
pub mod rate_limit;
pub mod shed;
pub mod slowlog;
pub mod span;
pub mod trace;
pub mod ttl;

pub use auth::{AuthConfig, AuthLayer, Principal, Role, TokenSpec};
pub use breaker::{BreakerConfig, BreakerLayer};
pub use config::{MiddlewareConfig, TraceConfig};
pub use deadline::{DeadlineConfig, DeadlineLayer};
pub use flight::{FlightRecorder, StoreSegment, TraceTree};
pub use fused::FusedService;
pub use metrics::{
    LatencyHistogram, PipelineMetrics, RelaxedCounter, StatLines, WindowedHistogram,
};
pub use pipeline::{LayerKind, Request, Response, Service, Session, Stack, LAYER_COUNT};
pub use prom::PromText;
pub use rate_limit::{RateLimitConfig, RateLimitLayer};
pub use shed::{PressureProbe, ShardPressure, ShedConfig, ShedLayer};
pub use slowlog::{SlowLog, SlowLogEntry};
pub use trace::TraceLayer;
pub use ttl::TtlLayer;
