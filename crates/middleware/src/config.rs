//! Pipeline configuration: which layers run, and their tuning.
//!
//! [`MiddlewareConfig`] is embedded in the server's `ServerConfig` and
//! drives [`Stack::build`](crate::pipeline::Stack::build). The
//! [`MiddlewareConfig::apply_flag`] helper gives every binary the same
//! `--middleware`/`--auth-token`/`--rate-*`/`--deadline-*` CLI surface.

use crate::auth::{AuthConfig, Role, TokenSpec};
use crate::breaker::BreakerConfig;
use crate::deadline::DeadlineConfig;
use crate::pipeline::LayerKind;
use crate::rate_limit::RateLimitConfig;
use crate::shed::ShedConfig;

/// Trace-layer tuning: span sampling and the slowlog ring.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Sample one span per this many commands/bursts per connection
    /// (`--trace-sample`): 1 traces everything, 0 disables span
    /// attribution entirely. The default 64 keeps measured overhead at
    /// full depth well under 2%.
    pub sample_every: u32,
    /// Commands/bursts at or above this wall-clock cost (µs) enter the
    /// slowlog (`--slowlog-threshold-us`).
    pub slowlog_threshold_us: u64,
    /// Slowlog ring capacity (`--slowlog-capacity`); 0 disables it.
    pub slowlog_capacity: usize,
    /// Flight-recorder ring capacity (`--trace-capacity`); sampled
    /// trace trees land here. 0 disables capture.
    pub trace_capacity: usize,
    /// Sampled trees at or above this wall-clock cost (µs) are
    /// retained (`--trace-threshold-us`); the default 0 keeps every
    /// sampled tree.
    pub trace_threshold_us: u64,
    /// Rolling-window width (s) for `STATS`/`STATS SHARDS` percentiles
    /// (`--stats-window-secs`); 0 reports lifetime percentiles only.
    pub window_secs: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            slowlog_threshold_us: 10_000,
            slowlog_capacity: 128,
            trace_capacity: 64,
            trace_threshold_us: 0,
            window_secs: 60,
        }
    }
}

/// The full pipeline configuration.
#[derive(Clone, Debug, Default)]
pub struct MiddlewareConfig {
    /// Which layers run (order-insensitive; composed canonically).
    pub layers: Vec<LayerKind>,
    /// Rate limiter tuning.
    pub rate: RateLimitConfig,
    /// Auth tokens and ambient policy.
    pub auth: AuthConfig,
    /// Deadline budgets.
    pub deadline: DeadlineConfig,
    /// Circuit-breaker thresholds (disabled by default).
    pub breaker: BreakerConfig,
    /// Load-shedding thresholds (disabled by default).
    pub shed: ShedConfig,
    /// Span sampling and slowlog tuning.
    pub trace: TraceConfig,
}

impl MiddlewareConfig {
    /// No layers: requests go straight to the store (the seed
    /// behaviour, and the `Default`).
    pub fn none() -> Self {
        MiddlewareConfig::default()
    }

    /// All seven production layers with default tuning (the breaker
    /// and shed layers are present but disarmed until their thresholds
    /// are set, so `full` stays a behavioural no-op for admitted
    /// traffic).
    pub fn full() -> Self {
        MiddlewareConfig {
            layers: LayerKind::ALL.to_vec(),
            ..MiddlewareConfig::default()
        }
    }

    /// Parse a `--middleware` spec: `none`, `full`, or a comma list of
    /// layer names (`trace,auth,ttl`).
    pub fn parse_layers(spec: &str) -> Result<Vec<LayerKind>, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "none" | "" => Ok(Vec::new()),
            "full" | "all" => Ok(MiddlewareConfig::full().layers),
            list => list.split(',').map(LayerKind::parse).collect(),
        }
    }

    /// Parse a `--auth-token` spec: `NAME:TOKEN:ROLE`.
    pub fn parse_token(spec: &str) -> Result<TokenSpec, String> {
        let mut parts = spec.splitn(3, ':');
        let name = parts.next().filter(|s| !s.is_empty());
        let token = parts.next().filter(|s| !s.is_empty());
        let role = parts.next().filter(|s| !s.is_empty());
        match (name, token, role) {
            (Some(name), Some(token), Some(role)) => Ok(TokenSpec {
                name: name.to_string(),
                token: token.to_string(),
                role: Role::parse(role)?,
            }),
            _ => Err(format!(
                "auth token spec must be NAME:TOKEN:ROLE, got {spec:?}"
            )),
        }
    }

    /// Consume one `--flag value` pair. Returns `Ok(true)` when the
    /// flag belongs to the middleware config, `Ok(false)` when it is
    /// not ours (the caller handles it), `Err` on a bad value.
    pub fn apply_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        let parse_u64 =
            |v: &str| -> Result<u64, String> { v.parse().map_err(|_| format!("bad number {v:?}")) };
        match flag {
            "--middleware" => self.layers = Self::parse_layers(value)?,
            "--auth-token" => self.auth.tokens.push(Self::parse_token(value)?),
            "--anon-role" => self.auth.anon_role = Role::parse(value)?,
            "--rate-burst" => self.rate.burst = parse_u64(value)?,
            "--rate-per-sec" => self.rate.refill_per_sec = parse_u64(value)?.max(1),
            "--deadline-read-us" => self.deadline.read_us = parse_u64(value)?,
            "--deadline-write-us" => self.deadline.write_us = parse_u64(value)?,
            "--breaker-failures" => self.breaker.failures = parse_u64(value)? as u32,
            "--breaker-cooldown-ms" => self.breaker.cooldown_ms = parse_u64(value)?,
            "--breaker-probes" => self.breaker.probes = (parse_u64(value)? as u32).max(1),
            "--shed-queue-depth" => self.shed.queue_depth = parse_u64(value)?,
            "--shed-ack-p99-us" => self.shed.ack_p99_us = parse_u64(value)?,
            "--trace-sample" => self.trace.sample_every = parse_u64(value)? as u32,
            "--slowlog-threshold-us" => self.trace.slowlog_threshold_us = parse_u64(value)?,
            "--slowlog-capacity" => self.trace.slowlog_capacity = parse_u64(value)? as usize,
            "--trace-capacity" => self.trace.trace_capacity = parse_u64(value)? as usize,
            "--trace-threshold-us" => self.trace.trace_threshold_us = parse_u64(value)?,
            "--stats-window-secs" => self.trace.window_secs = parse_u64(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_specs_parse() {
        assert_eq!(MiddlewareConfig::parse_layers("none").unwrap(), vec![]);
        assert_eq!(MiddlewareConfig::parse_layers("full").unwrap().len(), 7);
        assert_eq!(
            MiddlewareConfig::parse_layers("trace, ttl").unwrap(),
            vec![LayerKind::Trace, LayerKind::Ttl]
        );
        assert!(MiddlewareConfig::parse_layers("trace,blorp").is_err());
    }

    #[test]
    fn token_specs_parse() {
        let spec = MiddlewareConfig::parse_token("ops:sekrit:readwrite").unwrap();
        assert_eq!(spec.name, "ops");
        assert_eq!(spec.token, "sekrit");
        assert_eq!(spec.role, Role::ReadWrite);
        assert!(MiddlewareConfig::parse_token("opsonly").is_err());
        assert!(MiddlewareConfig::parse_token("a:b:god").is_err());
    }

    #[test]
    fn flags_apply_or_decline() {
        let mut config = MiddlewareConfig::none();
        assert!(config.apply_flag("--middleware", "full").unwrap());
        assert_eq!(config.layers.len(), 7);
        assert!(config.apply_flag("--rate-burst", "64").unwrap());
        assert_eq!(config.rate.burst, 64);
        assert!(config.apply_flag("--anon-role", "readonly").unwrap());
        assert_eq!(config.auth.anon_role, Role::ReadOnly);
        assert!(config.apply_flag("--deadline-read-us", "1000").unwrap());
        assert_eq!(config.deadline.read_us, 1000);
        assert!(!config.apply_flag("--shards", "4").unwrap(), "not ours");
        assert!(config.apply_flag("--rate-burst", "lots").is_err());
    }

    #[test]
    fn overload_flags_apply() {
        let mut config = MiddlewareConfig::none();
        assert_eq!(config.breaker.failures, 0, "breaker disarmed by default");
        assert!(!config.shed.enabled(), "shed disarmed by default");
        assert!(config.apply_flag("--breaker-failures", "5").unwrap());
        assert!(config.apply_flag("--breaker-cooldown-ms", "250").unwrap());
        assert!(config.apply_flag("--breaker-probes", "0").unwrap());
        assert_eq!(config.breaker.failures, 5);
        assert_eq!(config.breaker.cooldown_ms, 250);
        assert_eq!(config.breaker.probes, 1, "probe quota clamps to >= 1");
        assert!(config.apply_flag("--shed-queue-depth", "1024").unwrap());
        assert!(config.apply_flag("--shed-ack-p99-us", "50000").unwrap());
        assert_eq!(config.shed.queue_depth, 1024);
        assert_eq!(config.shed.ack_p99_us, 50_000);
        assert!(config.shed.enabled());
        assert!(config.apply_flag("--breaker-failures", "many").is_err());
    }

    #[test]
    fn trace_flags_apply() {
        let mut config = MiddlewareConfig::none();
        assert_eq!(config.trace.sample_every, 64, "default 1-in-64");
        assert!(config.apply_flag("--trace-sample", "0").unwrap());
        assert_eq!(config.trace.sample_every, 0);
        assert!(config.apply_flag("--slowlog-threshold-us", "500").unwrap());
        assert_eq!(config.trace.slowlog_threshold_us, 500);
        assert!(config.apply_flag("--slowlog-capacity", "16").unwrap());
        assert_eq!(config.trace.slowlog_capacity, 16);
        assert_eq!(config.trace.trace_capacity, 64, "default flight ring");
        assert!(config.apply_flag("--trace-capacity", "8").unwrap());
        assert_eq!(config.trace.trace_capacity, 8);
        assert!(config.apply_flag("--trace-threshold-us", "250").unwrap());
        assert_eq!(config.trace.trace_threshold_us, 250);
        assert_eq!(config.trace.window_secs, 60, "default ~60s window");
        assert!(config.apply_flag("--stats-window-secs", "0").unwrap());
        assert_eq!(config.trace.window_secs, 0);
        assert!(config.apply_flag("--trace-sample", "sometimes").is_err());
    }
}
