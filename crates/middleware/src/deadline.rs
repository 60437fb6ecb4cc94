//! Deadline/timeout enforcement with per-class budgets.
//!
//! Each request is timed around the phases after this one (auth,
//! rate-limit, shed, TTL, the store round-trip). A request that overruns its class
//! budget is answered with a structured `DEADLINE` error instead of
//! its reply — the mutation may still have applied (exactly like an
//! HTTP 504 behind a gateway), the client just lost the latency SLO.
//! `Control` verbs are exempt.
//!
//! A burst pays **one** deadline check: its budget is the sum of the
//! per-request class budgets (exempt requests contribute zero), so the
//! SLO scales with the work admitted; if the burst overruns it, every
//! non-exempt response is replaced by a structured `DEADLINE batch …`
//! error — the per-request attribution is gone, which is exactly the
//! cost amortization buys. Under generous budgets (the production
//! default) the group check fires in the same pathological stalls the
//! per-request one would.

use crate::protocol::{CommandClass, Reply};

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

impl DeadlineConfig {
    /// The budget for one command of `class` (0 = exempt).
    #[inline]
    pub(crate) fn budget_us(&self, class: CommandClass) -> u64 {
        match class {
            CommandClass::Read => self.read_us,
            CommandClass::Write => self.write_us,
            CommandClass::Control => 0,
        }
    }
}

/// The structured overrun reply: `what` is the command's verb, or
/// `batch` for a burst checked as one.
pub(crate) fn overrun(what: &str, elapsed_us: u64, budget_us: u64) -> Reply {
    Reply::Error(format!(
        "DEADLINE {what} took {elapsed_us}us budget {budget_us}us"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiddlewareConfig;
    use crate::fused::tests::one_layer;
    use crate::fused::FusedService;
    use crate::metrics::PipelineMetrics;
    use crate::pipeline::{LayerKind, Request, Response, Service};
    use crate::protocol::Command;
    use std::sync::Arc;
    use std::time::Duration;

    struct Slow(Duration);
    impl Service for Slow {
        fn call(&mut self, _req: Request) -> Response {
            std::thread::sleep(self.0);
            Response::ok(Reply::Status("OK"))
        }
    }

    fn wrap(config: DeadlineConfig, delay: Duration) -> (FusedService<Slow>, Arc<PipelineMetrics>) {
        let config = MiddlewareConfig {
            deadline: config,
            ..MiddlewareConfig::none()
        };
        let (svc, stack) = one_layer(LayerKind::Deadline, config, Slow(delay));
        (svc, Arc::clone(stack.metrics()))
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
