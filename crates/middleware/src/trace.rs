//! Tracing/metrics: the outermost admission phase.
//!
//! Times every command (whatever phase ultimately answers it) into the
//! per-class latency histograms, counts it, and — when the command is
//! `STATS` and the store answered with the usual `name=value` array —
//! folds the whole pipeline's `mw_*` lines into the reply, so one
//! `STATS` round-trip observes both planes.
//!
//! Being outermost also makes it the observability anchor:
//!
//! * **Span sampling**: every `sample_every`-th command (or burst) per
//!   connection opens a [`crate::span`] scope; each admission phase
//!   charges its cost to the scope, and the harvest lands in the
//!   per-layer histograms behind `mw_<layer>_us_p50/p99`.
//! * **Slowlog capture**: commands/bursts whose wall-clock time crosses
//!   the configured threshold are pushed into the lock-free
//!   [`crate::slowlog::SlowLog`] ring, together with the sampled
//!   breakdown when one was taken.
//! * **Flight recording**: every sampled command/burst assembles a
//!   [`crate::flight::TraceTree`] — the per-layer admission segments
//!   from this thread plus the store-side queue-wait/apply segments the
//!   shard owners stamped into the ack envelopes — and offers it to the
//!   lock-free [`crate::flight::FlightRecorder`] ring.
//! * **`SLOWLOG GET|RESET|LEN`** and **`TRACE GET|RESET|LEN`** are
//!   answered here (`observability_reply`) — they never reach a later
//!   phase, so they are immune to deadline/rate/ACL policy and usable
//!   for diagnosis even mid-overload.
//! * **`STATS RESET`** travels down (the server zeroes its own plane)
//!   and, on the way back up, zeroes the middleware counters and
//!   histograms too — after this command's own recording, so the next
//!   `STATS` starts from a clean slate.
//!
//! A burst pays one `Instant::now()` pair and one histogram sample
//! (into `batch_latency`) instead of one per command — the per-class
//! histograms only see singleton traffic — and a slow burst enters the
//! slowlog as one `BATCH` entry.

use crate::metrics::{debug_assert_unique_stat_names, PipelineMetrics};
use crate::pipeline::Response;
use crate::protocol::{Command, CommandClass, Reply};
use crate::span;
use std::sync::Arc;

pub(crate) fn class_name(class: CommandClass) -> &'static str {
    match class {
        CommandClass::Read => "read",
        CommandClass::Write => "write",
        CommandClass::Control => "control",
    }
}

/// Answer a slowlog or flight-recorder verb from its ring, or `None`
/// for anything else.
pub(crate) fn observability_reply(metrics: &PipelineMetrics, cmd: &Command) -> Option<Reply> {
    match cmd {
        Command::SlowlogGet => Some(Reply::Array(
            metrics
                .slowlog
                .entries()
                .iter()
                .map(|e| e.render_line())
                .collect(),
        )),
        Command::SlowlogReset => {
            metrics.slowlog.reset();
            Some(Reply::Status("OK"))
        }
        Command::SlowlogLen => Some(Reply::Int(metrics.slowlog.len() as i64)),
        Command::TraceGet => Some(Reply::Array(
            metrics
                .flight
                .entries()
                .iter()
                .map(|e| e.render_line())
                .collect(),
        )),
        Command::TraceReset => {
            metrics.flight.reset();
            Some(Reply::Status("OK"))
        }
        Command::TraceLen => Some(Reply::Int(metrics.flight.len() as i64)),
        _ => None,
    }
}

/// Grow a `STATS` reply by the pipeline's `mw_*` lines (`depth` is the
/// configured stack depth, reported as `mw_depth`). Anything but an
/// array reply (a rejection, say) is left alone.
pub(crate) fn fold_stats(metrics: &PipelineMetrics, depth: usize, resp: &mut Response) {
    if let Reply::Array(lines) = &mut resp.reply {
        lines.extend(metrics.render_lines(depth));
        debug_assert_unique_stat_names(lines);
    }
}

/// Close out one traced command/burst: harvest the span (if any) into
/// the per-layer histograms, offer the completed trace tree to the
/// flight recorder, and offer the observation to the slowlog ring.
pub(crate) fn finish(
    metrics: &PipelineMetrics,
    client: &Arc<str>,
    span: Option<span::SpanGuard>,
    verb: &'static str,
    class: &'static str,
    burst: usize,
    elapsed_us: u64,
) {
    let costs = span.map(|guard| {
        let harvest = guard.finish();
        metrics.note_span(&harvest.layer_us);
        metrics.flight.offer(
            client,
            verb,
            class,
            burst,
            elapsed_us,
            harvest.layer_us,
            harvest.store,
        );
        harvest.layer_us
    });
    metrics
        .slowlog
        .offer(client, verb, class, burst, elapsed_us, costs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MiddlewareConfig, TraceConfig};
    use crate::fused::tests::one_layer;
    use crate::fused::FusedService;
    use crate::pipeline::{LayerKind, Request, Service};
    use std::sync::Arc;

    struct Store;
    impl Service for Store {
        fn call(&mut self, req: Request) -> Response {
            match req.command {
                Command::Stats => Response::ok(Reply::Array(vec!["shards=2".into()])),
                _ => Response::ok(Reply::Status("OK")),
            }
        }
    }

    /// A trace-only stack over [`Store`], plus its metrics.
    fn traced_with(trace: TraceConfig) -> (FusedService<Store>, Arc<PipelineMetrics>) {
        let config = MiddlewareConfig {
            trace,
            ..MiddlewareConfig::none()
        };
        let (svc, stack) = one_layer(LayerKind::Trace, config, Store);
        (svc, Arc::clone(stack.metrics()))
    }

    fn traced() -> (FusedService<Store>, Arc<PipelineMetrics>) {
        traced_with(TraceConfig::default())
    }
    #[test]
    fn commands_are_counted_into_class_histograms() {
        let (mut svc, metrics) = traced();
        svc.call(Request::new(Command::Get("k".into())));
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        svc.call(Request::new(Command::Ping));
        assert_eq!(metrics.traced.sum(), 3);
        assert_eq!(metrics.read_latency.count(), 1);
        assert_eq!(metrics.write_latency.count(), 1);
        assert_eq!(metrics.control_latency.count(), 1);
    }

    #[test]
    fn batches_pay_one_histogram_sample() {
        let (mut svc, metrics) = traced();
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::Set("k".into(), "v".into())),
            Request::new(Command::Ping),
            Request::new(Command::Stats),
        ]);
        assert_eq!(resps.len(), 4);
        assert_eq!(metrics.traced.sum(), 4, "every command counted");
        assert_eq!(metrics.batches.sum(), 1, "one burst");
        assert_eq!(metrics.batch_commands.sum(), 4);
        assert_eq!(metrics.batch_latency.count(), 1, "one sample per burst");
        // Per-class histograms only meter singleton traffic.
        assert_eq!(metrics.read_latency.count(), 0);
        // STATS inside the burst still grows the mw_* lines in place.
        match &resps[3].reply {
            Reply::Array(lines) => {
                assert!(lines.contains(&"shards=2".to_string()));
                assert!(lines.iter().any(|l| l.starts_with("mw_batches=")));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn stats_replies_grow_the_mw_lines() {
        let (mut svc, _) = traced();
        svc.call(Request::new(Command::Ping));
        let resp = svc.call(Request::new(Command::Stats));
        match resp.reply {
            Reply::Array(lines) => {
                assert!(lines.contains(&"shards=2".to_string()), "store lines kept");
                assert!(lines.contains(&"mw_depth=1".to_string()));
                assert!(lines.contains(&"mw_traced=1".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn spans_sample_one_in_n_per_connection() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 3,
            ..TraceConfig::default()
        });
        for _ in 0..7 {
            svc.call(Request::new(Command::Ping));
        }
        // Commands 1, 4 and 7 are sampled (phase starts at "now").
        assert_eq!(metrics.spans_sampled.sum(), 3);
        assert!(metrics.layer_admission_us[LayerKind::Trace.index()].count() >= 3);
    }

    #[test]
    fn sampling_zero_disables_spans() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        for _ in 0..10 {
            svc.call(Request::new(Command::Ping));
        }
        assert_eq!(metrics.spans_sampled.sum(), 0);
    }

    #[test]
    fn slow_commands_enter_the_slowlog() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0, // everything is "slow"
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        assert_eq!(metrics.slowlog.len(), 1);
        let entry = &metrics.slowlog.entries()[0];
        assert_eq!(entry.verb, "SET");
        assert_eq!(entry.class, "write");
        assert_eq!(entry.burst, 1);
        assert_eq!(&*entry.client, "t:1");
        assert!(entry.layer_us.is_some(), "first command is sampled");
    }

    #[test]
    fn slowlog_verbs_are_answered_by_the_trace_layer() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        match svc.call(Request::new(Command::SlowlogLen)).reply {
            Reply::Int(1) => {}
            other => panic!("expected :1, got {other:?}"),
        }
        match svc.call(Request::new(Command::SlowlogGet)).reply {
            Reply::Array(lines) => {
                assert_eq!(lines.len(), 1);
                assert!(lines[0].contains("verb=SET"), "line: {}", lines[0]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            svc.call(Request::new(Command::SlowlogReset)).reply,
            Reply::Status("OK")
        );
        assert_eq!(metrics.slowlog.len(), 0);
        // The verbs themselves never entered the ring or the class
        // histograms, but were counted as traffic.
        assert_eq!(metrics.traced.sum(), 4);
        assert_eq!(metrics.control_latency.count(), 0);
    }

    #[test]
    fn slowlog_verbs_in_bursts_answer_in_place() {
        let (mut svc, _) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::SlowlogLen),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].reply, Reply::Status("OK"), "inner store reply");
        assert_eq!(resps[1].reply, Reply::Int(1), "answered by trace");
        assert_eq!(resps[2].reply, Reply::Status("OK"));
    }

    #[test]
    fn sampled_commands_enter_the_flight_recorder() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        assert_eq!(metrics.flight.len(), 1, "sampled tree captured");
        let tree = &metrics.flight.entries()[0];
        assert_eq!(tree.verb, "SET");
        assert_eq!(tree.class, "write");
        assert_eq!(&*tree.client, "t:1");
        assert!(
            tree.layers[LayerKind::Trace.index()].is_some(),
            "trace segment present"
        );
    }

    #[test]
    fn unsampled_commands_skip_the_flight_recorder() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 2,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Ping)); // sampled (phase 0)
        svc.call(Request::new(Command::Ping)); // not sampled
        assert_eq!(metrics.flight.total(), 1, "only the sampled command");
    }

    #[test]
    fn trace_verbs_are_answered_by_the_trace_layer() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        match svc.call(Request::new(Command::TraceLen)).reply {
            Reply::Int(1) => {}
            other => panic!("expected :1, got {other:?}"),
        }
        match svc.call(Request::new(Command::TraceGet)).reply {
            Reply::Array(lines) => {
                assert_eq!(lines.len(), 1);
                assert!(lines[0].contains("verb=SET"), "line: {}", lines[0]);
                assert!(lines[0].contains("conn/trace:"), "line: {}", lines[0]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            svc.call(Request::new(Command::TraceReset)).reply,
            Reply::Status("OK")
        );
        assert_eq!(metrics.flight.len(), 0);
        // The verbs themselves never became trees (they return before
        // sampling) but were counted as traffic.
        assert_eq!(metrics.traced.sum(), 4);
    }

    #[test]
    fn trace_verbs_in_bursts_answer_in_place() {
        let (mut svc, _) = traced_with(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("k".into())),
            Request::new(Command::TraceLen),
            Request::new(Command::Ping),
        ]);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].reply, Reply::Status("OK"), "inner store reply");
        assert_eq!(resps[1].reply, Reply::Int(1), "answered by trace");
        assert_eq!(resps[2].reply, Reply::Status("OK"));
    }

    #[test]
    fn stats_reset_zeroes_the_middleware_plane() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call(Request::new(Command::Set("k".into(), "v".into())));
        svc.call(Request::new(Command::Get("k".into())));
        assert!(metrics.traced.sum() > 0);
        let resp = svc.call(Request::new(Command::StatsReset));
        assert_eq!(resp.reply, Reply::Status("OK"), "inner store answered");
        assert_eq!(metrics.traced.sum(), 0, "counters zeroed after reply");
        assert_eq!(metrics.read_latency.count(), 0);
        assert_eq!(metrics.write_latency.count(), 0);
        assert_eq!(metrics.control_latency.count(), 0);
        assert_eq!(metrics.spans_sampled.sum(), 0);
        // The rings are not touched: they have their own RESET verbs.
        assert!(!metrics.slowlog.is_empty(), "slowlog survives STATS RESET");
    }

    #[test]
    fn slow_bursts_enter_as_one_batch_entry() {
        let (mut svc, metrics) = traced_with(TraceConfig {
            slowlog_threshold_us: 0,
            ..TraceConfig::default()
        });
        svc.call_batch(vec![
            Request::new(Command::Ping),
            Request::new(Command::Ping),
        ]);
        let entries = metrics.slowlog.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].verb, "BATCH");
        assert_eq!(entries[0].class, "batch");
        assert_eq!(entries[0].burst, 2);
    }
}
