//! Criterion bench: per-request middleware overhead, axum-style.
//!
//! * `layer_overhead` — each of the seven layers alone, as a one-layer
//!   stack over a no-op inner, against the bare inner, so a layer's
//!   per-request cost is one subtraction away.
//! * `stack_scaling` — the admission driver's batch-1 `call_one` at
//!   increasing depth (off layers are skipped phases), showing how
//!   overhead accumulates per layer.
//!
//! Rate limits are tuned effectively off (huge burst) so the numbers
//! compare admission cost, not token exhaustion; span sampling stays
//! at the production default (1-in-64) so the numbers include the
//! real sampling duty cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dego_middleware::protocol::{Command, Reply};
use dego_middleware::{
    FusedService, LayerKind, MiddlewareConfig, Request, Response, Service, Session, Stack,
};
use std::time::Duration;

/// The no-op inner service: the floor every overhead is measured from.
struct Nop;

impl Service for Nop {
    fn call(&mut self, _req: Request) -> Response {
        Response::ok(Reply::Status("OK"))
    }
}

/// A stack running `layers` with the rate limiter effectively off (the
/// bench loop would drain any realistic bucket) and everything else at
/// production defaults.
fn chain(layers: &[LayerKind]) -> FusedService<Nop> {
    let mut config = MiddlewareConfig::full();
    config.layers = layers.to_vec();
    config.rate.burst = 1 << 40;
    config.rate.refill_per_sec = u64::MAX / (1 << 22);
    let session = Session {
        client: "bench:1".into(),
    };
    Stack::build(&config)
        .fused_service(&session, Nop)
        .expect("every stack builds the typed chain")
}

fn get_req() -> Request {
    Request::new(Command::Get("bench-key".into()))
}

/// Each layer alone over [`Nop`], against bare [`Nop`]. The breaker
/// and shed layers stay disarmed, as in the default full stack: the
/// cost measured is the pass-through check every request pays.
fn layer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_overhead/layer_overhead");
    group.measurement_time(Duration::from_secs(1));

    group.bench_function("baseline/nop", |b| {
        let mut svc = Nop;
        b.iter(|| svc.call(get_req()));
    });
    for kind in LayerKind::ALL {
        group.bench_function(kind.name(), |b| {
            let mut svc = chain(&[kind]);
            b.iter(|| svc.call_one(get_req()));
        });
    }
    group.finish();
}

/// The driver at increasing depth: overhead per added layer.
fn stack_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_overhead/stack_scaling");
    group.measurement_time(Duration::from_secs(1));
    let depths: [&[LayerKind]; 3] = [
        &[LayerKind::Trace],
        &[LayerKind::Trace, LayerKind::Deadline, LayerKind::Auth],
        &LayerKind::ALL,
    ];
    for layers in depths {
        group.bench_function(BenchmarkId::new("call_one", layers.len()), |b| {
            let mut chain = chain(layers);
            b.iter(|| chain.call_one(get_req()));
        });
    }
    group.finish();
}

criterion_group!(benches, layer_overhead, stack_scaling);
criterion_main!(benches);
