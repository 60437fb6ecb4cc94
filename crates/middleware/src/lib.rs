//! # dego-middleware — a request-admission pipeline
//!
//! The paper adjusts shared objects so a middleware's hot paths scale;
//! this crate *is* the middleware: one admission pass over the wire
//! protocol's [`protocol::Command`] / [`protocol::Reply`], run by a
//! per-session driver ([`FusedService`]) that a [`Stack`] builds in
//! front of the `dego-server` storage plane. Every layer's shared state
//! is built from the adjusted-object catalogue, so the pipeline itself
//! is a contention workload for the paper's data structures:
//!
//! | Layer | Concern | Shared state |
//! |---|---|---|
//! | [`trace`] | latency histograms + per-layer counters in `STATS` | relaxed-atomic histograms, `LongAdder`s |
//! | [`breaker`] | per-class circuit breaker (closed/open/half-open) | lock-free per-class atomics |
//! | [`deadline`] | per-class execution budgets | none (config only) |
//! | [`auth`] | `AUTH` tokens + role ACLs | SWMR hash map, RCU-published policy |
//! | [`rate_limit`] | per-client token buckets | `SegmentedHashMap` of atomic buckets, `LongAdder` refill counters |
//! | [`shed`] | shard-pressure load shedding for writes | injected [`PressureProbe`] over live shard telemetry |
//! | [`ttl`] | `EXPIRE` timers, lazy expiry on `GET` | `SegmentedHashMap` expiry sidecar, reaps lock-serialized against rewrites |
//!
//! The phases run in canonical order regardless of configuration
//! order, and a layer the config leaves out is a phase the driver
//! skips:
//!
//! ```text
//! client → trace → breaker → deadline → auth → rate-limit → shed → ttl → store
//! ```
//!
//! A burst ([`Service::call_batch`]) pays each phase once; a singleton
//! ([`FusedService::call_one`]) applies the same phase functions to one
//! request. The `call_one_matches_sequential_model` proptest pins both
//! against a small sequential model.
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

pub use auth::{AuthConfig, Principal, Role, TokenSpec};
pub use breaker::BreakerConfig;
pub use config::{MiddlewareConfig, TraceConfig};
pub use deadline::DeadlineConfig;
pub use flight::{FlightRecorder, StoreSegment, TraceTree};
pub use fused::FusedService;
pub use metrics::{
    LatencyHistogram, PipelineMetrics, RelaxedCounter, StatLines, WindowedHistogram,
};
pub use pipeline::{LayerKind, Request, Response, Service, Session, Stack, LAYER_COUNT};
pub use prom::PromText;
pub use rate_limit::RateLimitConfig;
pub use shed::{PressureProbe, ShardPressure, ShedConfig};
pub use slowlog::{SlowLog, SlowLogEntry};
