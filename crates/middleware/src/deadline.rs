//! Deadline/timeout enforcement with per-class budgets.
//!
//! Each request is timed around the layers below (auth, rate-limit,
//! TTL, the store round-trip). A request that overruns its class
//! budget is answered with a structured `DEADLINE` error instead of
//! its reply — the mutation may still have applied (exactly like an
//! HTTP 504 behind a gateway), the client just lost the latency SLO.
//! `Control` verbs are exempt.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{LayerKind, Request, Response, Service, Session};
use crate::protocol::{CommandClass, Reply};
use crate::span;
use std::sync::Arc;
use std::time::Instant;

/// Per-class budgets, microseconds. A zero budget disables the check
/// for that class.
#[derive(Clone, Debug)]
pub struct DeadlineConfig {
    /// Budget for read-class commands.
    pub read_us: u64,
    /// Budget for write-class commands (shard round-trips included).
    pub write_us: u64,
}

impl Default for DeadlineConfig {
    /// Generous defaults (0.5 s reads, 2 s writes): an SLO on
    /// pathological stalls, not a throttle.
    fn default() -> Self {
        DeadlineConfig {
            read_us: 500_000,
            write_us: 2_000_000,
        }
    }
}

/// The deadline layer: per-class budgets plus the per-session factory.
pub struct DeadlineLayer {
    config: DeadlineConfig,
    metrics: Arc<PipelineMetrics>,
    /// Whether the stack runs this layer (off: a passthrough).
    pub(crate) on: bool,
}

impl DeadlineLayer {
    /// Build the layer.
    pub fn new(config: DeadlineConfig, metrics: Arc<PipelineMetrics>) -> Self {
        DeadlineLayer {
            config,
            metrics,
            on: true,
        }
    }

    /// Wrap `inner` in this layer's per-session service.
    pub fn wrap<S: Service>(&self, _session: &Session, inner: S) -> DeadlineService<S> {
        DeadlineService {
            config: self.config.clone(),
            metrics: Arc::clone(&self.metrics),
            on: self.on,
            inner,
        }
    }
}

/// The deadline layer's per-session service, generic over the inner
/// service it wraps.
pub struct DeadlineService<S> {
    pub(crate) config: DeadlineConfig,
    metrics: Arc<PipelineMetrics>,
    pub(crate) on: bool,
    pub(crate) inner: S,
}

impl<S: Service> DeadlineService<S> {
    /// This request's class budget (0 = exempt).
    fn budget_us(&self, req: &Request) -> u64 {
        match req.command.class() {
            CommandClass::Read => self.config.read_us,
            CommandClass::Write => self.config.write_us,
            CommandClass::Control => 0,
        }
    }
}

impl<S: Service> Service for DeadlineService<S> {
    /// Batch path: **one** deadline check for the whole burst. The
    /// budget is the sum of the per-request class budgets (exempt
    /// requests contribute zero), so the SLO scales with the work
    /// admitted; if the burst overruns it, every non-exempt response is
    /// replaced by a structured `DEADLINE` error — the per-request
    /// attribution is gone, which is exactly the cost amortization
    /// buys. Under generous budgets (the production default) the group
    /// check fires in the same pathological stalls the per-request one
    /// would, and replies stay identical to sequential `call`s.
    fn call_batch(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        if !self.on {
            return self.inner.call_batch(reqs);
        }
        let admission_t = span::start();
        let mut budget_us = 0u64;
        let mut checked = 0u64;
        let exempt: Vec<bool> = reqs
            .iter()
            .map(|req| {
                let b = self.budget_us(req);
                if b == 0 {
                    true
                } else {
                    budget_us = budget_us.saturating_add(b);
                    checked += 1;
                    false
                }
            })
            .collect();
        span::record(LayerKind::Deadline, admission_t);
        if budget_us == 0 {
            return self.inner.call_batch(reqs);
        }
        let start = Instant::now();
        let mut resps = self.inner.call_batch(reqs);
        let elapsed_us = start.elapsed().as_micros() as u64;
        let check_t = span::start();
        self.metrics.deadline_checked.add(checked);
        if elapsed_us > budget_us {
            self.metrics.deadline_missed.add(checked);
            for (resp, exempt) in resps.iter_mut().zip(exempt) {
                if !exempt {
                    resp.reply = Reply::Error(format!(
                        "DEADLINE batch took {elapsed_us}us budget {budget_us}us"
                    ));
                }
            }
        }
        span::record(LayerKind::Deadline, check_t);
        resps
    }

    fn call(&mut self, req: Request) -> Response {
        if !self.on {
            return self.inner.call(req);
        }
        let admission_t = span::start();
        let budget_us = self.budget_us(&req);
        if budget_us == 0 {
            span::record(LayerKind::Deadline, admission_t);
            return self.inner.call(req);
        }
        let verb = req.command.verb();
        let start = Instant::now();
        span::record(LayerKind::Deadline, admission_t);
        let resp = self.inner.call(req);
        let elapsed_us = start.elapsed().as_micros() as u64;
        let check_t = span::start();
        self.metrics.deadline_checked.increment();
        let out = if elapsed_us > budget_us {
            self.metrics.deadline_missed.increment();
            Response {
                reply: Reply::Error(format!(
                    "DEADLINE {verb} took {elapsed_us}us budget {budget_us}us"
                )),
                close: resp.close,
            }
        } else {
            resp
        };
        span::record(LayerKind::Deadline, check_t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Command;
    use std::time::Duration;

    struct Slow(Duration);
    impl Service for Slow {
        fn call(&mut self, _req: Request) -> Response {
            std::thread::sleep(self.0);
            Response::ok(Reply::Status("OK"))
        }
    }

    fn wrap(
        config: DeadlineConfig,
        delay: Duration,
    ) -> (DeadlineService<Slow>, Arc<PipelineMetrics>) {
        let metrics = Arc::new(PipelineMetrics::new());
        let layer = DeadlineLayer::new(config, Arc::clone(&metrics));
        let session = Session {
            client: "t:1".into(),
        };
        (layer.wrap(&session, Slow(delay)), metrics)
    }

    #[test]
    fn fast_requests_pass_and_are_counted() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        let resp = svc.call(Request::new(Command::Get("k".into())));
        assert!(matches!(resp.reply, Reply::Status(_)));
        assert_eq!(metrics.deadline_checked.sum(), 1);
        assert_eq!(metrics.deadline_missed.sum(), 0);
    }

    #[test]
    fn overruns_become_structured_deadline_errors() {
        let tight = DeadlineConfig {
            read_us: 1_000,
            write_us: 1_000,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(20));
        match svc.call(Request::new(Command::Get("k".into()))).reply {
            Reply::Error(e) => {
                assert!(e.starts_with("DEADLINE "), "got {e:?}");
                assert!(e.contains("budget 1000us"), "got {e:?}");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(metrics.deadline_missed.sum(), 1);
    }

    #[test]
    fn batch_pays_one_check_against_the_summed_budget() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping), // exempt
        ]);
        assert!(resps.iter().all(|r| matches!(r.reply, Reply::Status(_))));
        assert_eq!(metrics.deadline_checked.sum(), 2, "exempt not counted");
        assert_eq!(metrics.deadline_missed.sum(), 0);
    }

    #[test]
    fn batch_overrun_rejects_every_non_exempt_request() {
        let tight = DeadlineConfig {
            read_us: 500,
            write_us: 500,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(10));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Ping), // exempt: keeps its reply
            Request::new(Command::Set("k".into(), "v".into())),
        ]);
        match &resps[0].reply {
            Reply::Error(e) => assert!(e.starts_with("DEADLINE "), "got {e:?}"),
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(matches!(resps[1].reply, Reply::Status(_)), "exempt passes");
        assert!(matches!(resps[2].reply, Reply::Error(_)));
        assert_eq!(metrics.deadline_missed.sum(), 2);
    }

    #[test]
    fn all_exempt_batch_skips_the_clock() {
        let (mut svc, metrics) = wrap(DeadlineConfig::default(), Duration::ZERO);
        svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Stats),
        ]);
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }

    #[test]
    fn control_verbs_are_exempt() {
        let tight = DeadlineConfig {
            read_us: 1,
            write_us: 1,
        };
        let (mut svc, metrics) = wrap(tight, Duration::from_millis(5));
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }

    #[test]
    fn zero_budget_disables_the_class_check() {
        let off = DeadlineConfig {
            read_us: 0,
            write_us: 0,
        };
        let (mut svc, metrics) = wrap(off, Duration::from_millis(5));
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Status(_)
        ));
        assert_eq!(metrics.deadline_checked.sum(), 0);
    }
}
