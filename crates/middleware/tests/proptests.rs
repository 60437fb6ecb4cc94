//! Property tests of the wire protocol — for any well-formed command
//! (including the middleware verbs `AUTH`/`EXPIRE`) the request-line
//! encoder and the parser are exact inverses, and malformed input is
//! rejected rather than misparsed — plus the batch-path law: a
//! pipelined burst through `call_batch` answers byte-identically, in
//! order, to the same commands sent through `call_one` one at a time —
//! plus the model law: the admission driver answers byte-identically to
//! [`Model`], a small sequential reference with no spans, no
//! amortisation and no fast path, for any burst, tuning, layer subset
//! and sampling phase —
//! plus Prometheus exposition invariants: metric names survive
//! rendering and label values escape losslessly.

use dego_middleware::protocol::{Command, CommandClass, Reply};
use dego_middleware::{
    AuthConfig, FusedService, LayerKind, MiddlewareConfig, PromText, Request, Response, Role,
    Service, Session, Stack, TokenSpec, WindowedHistogram,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Keys and tokens: non-empty, whitespace-free.
fn key() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.:-]{1,16}".prop_map(|s| s)
}

/// `SET` values: may contain interior spaces, but no surrounding
/// whitespace or newlines (the line protocol cannot carry those).
fn value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-][a-zA-Z0-9_. :-]{0,30}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty trimmed value", |v| !v.is_empty())
}

fn user() -> impl Strategy<Value = u64> {
    0u64..1_000_000
}

fn command() -> impl Strategy<Value = Command> {
    prop_oneof!(
        key().prop_map(Command::Get),
        (key(), value()).prop_map(|(k, v)| Command::Set(k, v)),
        key().prop_map(Command::Del),
        (key(), any::<i64>()).prop_map(|(k, d)| Command::Incr(k, d)),
        user().prop_map(Command::AddUser),
        (user(), user()).prop_map(|(u, m)| Command::Post(u, m)),
        (user(), user()).prop_map(|(a, b)| Command::Follow(a, b)),
        (user(), user()).prop_map(|(a, b)| Command::Unfollow(a, b)),
        user().prop_map(Command::Timeline),
        (user(), user()).prop_map(|(a, b)| Command::IsFollowing(a, b)),
        user().prop_map(Command::Followers),
        user().prop_map(Command::Join),
        user().prop_map(Command::Leave),
        user().prop_map(Command::InGroup),
        user().prop_map(Command::Profile),
        user().prop_map(Command::ProfileVer),
        Just(Command::Stats),
        Just(Command::StatsShards),
        Just(Command::Ping),
        Just(Command::Health),
        Just(Command::Ready),
        Just(Command::Quit),
        key().prop_map(Command::Auth),
        (key(), any::<u64>()).prop_map(|(k, ms)| Command::Expire(k, ms)),
        Just(Command::SlowlogGet),
        Just(Command::SlowlogReset),
        Just(Command::SlowlogLen),
        Just(Command::StatsReset),
        Just(Command::TraceGet),
        Just(Command::TraceReset),
        Just(Command::TraceLen),
    )
}

/// A tiny deterministic in-memory store standing in for the shard
/// plane in the equivalence properties.
#[derive(Default)]
struct MapStore {
    map: HashMap<String, String>,
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
                    .wrapping_add(d);
                self.map.insert(k, next.to_string());
                Response::ok(Reply::Int(next))
            }
            Command::Ping => Response::ok(Reply::Status("PONG")),
            _ => Response::ok(Reply::Error("unsupported".into())),
        }
    }
}

/// The sequential reference for [`equivalence_config`] stacks: what
/// each layer that is on does to one command, applied in canonical
/// order, over its own [`MapStore`]. Under that tuning the trace,
/// breaker, deadline and shed layers never change a reply (no `STATS`
/// or ring verbs, a disarmed breaker, huge budgets, no pressure probe)
/// and no timer lapses, so the model keeps only what does: the session
/// role and `AUTH` logins, the token count with its
/// `QUIT`/`HEALTH`/`READY` exemption, and the `EXPIRE` reply.
struct Model {
    auth: bool,
    rate: bool,
    ttl: bool,
    role: Role,
    tokens: u64,
    store: MapStore,
}

impl Model {
    fn new(config: &MiddlewareConfig) -> Model {
        let on = |kind| config.layers.contains(&kind);
        Model {
            auth: on(LayerKind::Auth),
            rate: on(LayerKind::RateLimit),
            ttl: on(LayerKind::Ttl),
            role: config.auth.anon_role,
            tokens: config.rate.burst,
            store: MapStore::default(),
        }
    }

    fn call(&mut self, cmd: &Command) -> (Reply, bool) {
        let error = |msg: String| (Reply::Error(msg), false);
        if self.auth {
            if let Command::Auth(token) = cmd {
                if token != "sekrit" {
                    return error("AUTH bad token".into());
                }
                self.role = Role::ReadWrite;
                return (Reply::Status("OK"), false);
            }
            if !self.role.allows(cmd.class()) {
                let needs = match cmd.class() {
                    CommandClass::Write => "readwrite",
                    _ => "readonly",
                };
                return error(format!(
                    "AUTH {} requires {needs}, session role is {}",
                    cmd.verb(),
                    self.role.name()
                ));
            }
        }
        if self.rate && !matches!(cmd, Command::Quit | Command::Health | Command::Ready) {
            if self.tokens == 0 {
                // retry_us is one token's refill time at 1 token/s.
                return error("RATELIMIT rejected retry_us=1000000".into());
            }
            self.tokens -= 1;
        }
        if let (true, Command::Expire(key, _)) = (self.ttl, cmd) {
            let live = self.store.map.contains_key(key);
            return (Reply::Int(live as i64), false);
        }
        let resp = self.store.call(Request::new(cmd.clone()));
        (resp.reply, resp.close)
    }
}

/// Commands for the batch-equivalence property: deterministic under
/// repetition (no `STATS`, whose counters legitimately differ between
/// the two paths) and timing-stable (`EXPIRE` only with a deadline far
/// beyond the test's lifetime).
fn stable_command() -> impl Strategy<Value = Command> {
    prop_oneof!(
        key().prop_map(Command::Get),
        (key(), value()).prop_map(|(k, v)| Command::Set(k, v)),
        key().prop_map(Command::Del),
        (key(), -100i64..100).prop_map(|(k, d)| Command::Incr(k, d)),
        Just(Command::Ping),
        // HEALTH/READY ride the rate-limit exemption, singly and in
        // bursts.
        Just(Command::Health),
        Just(Command::Ready),
        // Both a valid and an invalid token: the sequential split a
        // burst takes for AUTH must role-switch identically.
        Just(Command::Auth("sekrit".into())),
        Just(Command::Auth("wrong".into())),
        (key(), 600_000u64..1_000_000).prop_map(|(k, ms)| Command::Expire(k, ms)),
    )
}

/// A stack running the layers picked by the bits of `mask` (bit `i` =
/// `LayerKind::ALL[i]`; `0x7f` is the full seven-layer stack), tuned so
/// no timing-dependent layer can fire within the test (tiny refill,
/// huge budgets) while every decision path (ACLs, bucket exhaustion,
/// armed timers) stays reachable.
fn equivalence_config(burst: u64, mask: u8) -> MiddlewareConfig {
    let mut config = MiddlewareConfig::full();
    config.layers = LayerKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, kind)| kind)
        .collect();
    config.auth = AuthConfig {
        tokens: vec![TokenSpec {
            name: "writer".into(),
            token: "sekrit".into(),
            role: Role::ReadWrite,
        }],
        anon_role: Role::ReadOnly,
    };
    config.rate.burst = burst;
    config.rate.refill_per_sec = 1; // no refill within a µs-scale test
    config.deadline.read_us = 60_000_000;
    config.deadline.write_us = 60_000_000;
    config
}

/// A fresh chain over a fresh [`MapStore`] and its own stack.
fn equivalence_chain(config: &MiddlewareConfig) -> FusedService<MapStore> {
    let session = Session {
        client: "prop:1".into(),
    };
    Stack::build(config)
        .fused_service(&session, MapStore::default())
        .expect("every stack builds the typed chain")
}

/// `cmds` through `call_one`, one at a time.
fn singly(chain: &mut FusedService<MapStore>, cmds: &[Command]) -> Vec<(Reply, bool)> {
    cmds.iter()
        .map(|c| chain.call_one(Request::new(c.clone())))
        .map(|resp| (resp.reply, resp.close))
        .collect()
}

/// `cmds` through `call_batch`, as one burst.
fn burst(chain: &mut FusedService<MapStore>, cmds: &[Command]) -> Vec<(Reply, bool)> {
    chain
        .call_batch(cmds.iter().cloned().map(Request::new).collect())
        .into_iter()
        .map(|resp| (resp.reply, resp.close))
        .collect()
}

/// Layer subsets: any of the 128, with the full stack drawn as often
/// as all others together.
fn layer_mask() -> impl Strategy<Value = u8> {
    prop_oneof!(Just(0x7fu8), 0u8..0x80)
}

/// Metric family names as the exposition format allows them.
fn metric_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,24}".prop_map(|s| s)
}

/// Label values across the full escaping surface: backslashes, double
/// quotes, newlines, and ordinary printable ASCII.
fn label_value() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('\\'),
            Just('"'),
            Just('\n'),
            (32u8..127).prop_map(|b| b as char),
        ],
        0..16,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Inverse of [`dego_middleware::prom::escape_label_value`]: the three
/// escape sequences the exposition format defines, nothing else.
fn unescape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => panic!("dangling escape {other:?} in {s:?}"),
        }
    }
    out
}

const KNOWN_VERBS: &[&str] = &[
    "GET",
    "SET",
    "DEL",
    "INCR",
    "ADDUSER",
    "POST",
    "FOLLOW",
    "UNFOLLOW",
    "TIMELINE",
    "ISFOLLOWING",
    "FOLLOWERS",
    "JOIN",
    "LEAVE",
    "INGROUP",
    "PROFILE",
    "PROFILEVER",
    "STATS",
    "PING",
    "HEALTH",
    "READY",
    "QUIT",
    "AUTH",
    "EXPIRE",
    "SLOWLOG",
    "TRACE",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ render_line = identity over every command frame,
    /// including the new AUTH/EXPIRE ones.
    #[test]
    fn request_lines_round_trip(cmd in command()) {
        let line = cmd.render_line();
        prop_assert_eq!(Command::parse(&line), Ok(cmd.clone()));
        // A trailing \r (telnet-style input) must not change the parse.
        prop_assert_eq!(Command::parse(&format!("{line}\r")), Ok(cmd), "trailing CR tolerated");
    }

    /// Case-insensitivity: lowering the verb never changes the parse.
    #[test]
    fn verbs_are_case_insensitive(cmd in command()) {
        let line = cmd.render_line();
        let verb_len = cmd.verb().len();
        let lowered = format!("{}{}", line[..verb_len].to_ascii_lowercase(), &line[verb_len..]);
        prop_assert_eq!(Command::parse(&lowered), Ok(cmd));
    }

    /// Every command belongs to exactly one class, and the class is
    /// stable across a render/parse cycle.
    #[test]
    fn class_is_parse_stable(cmd in command()) {
        let reparsed = Command::parse(&cmd.render_line()).expect("round trip");
        prop_assert_eq!(reparsed.class(), cmd.class());
        prop_assert!(matches!(
            cmd.class(),
            CommandClass::Read | CommandClass::Write | CommandClass::Control
        ));
    }

    /// Unknown verbs are rejected whatever their arguments look like.
    #[test]
    fn unknown_verbs_are_rejected(
        verb in "[A-Z]{2,12}".prop_filter("not a real verb", |v| !KNOWN_VERBS.contains(&v.as_str())),
        arg in "[a-z0-9 ]{0,20}",
    ) {
        prop_assert!(Command::parse(&format!("{verb} {arg}")).is_err(), "verb {} must be rejected", verb);
    }

    /// Truncated frames (verb present, required arguments missing) are
    /// rejected, never defaulted.
    #[test]
    fn truncated_frames_are_rejected(
        verb in prop_oneof!(
            Just("GET"), Just("SET"), Just("DEL"), Just("AUTH"), Just("EXPIRE"),
            Just("POST"), Just("FOLLOW"), Just("TIMELINE"),
        ),
    ) {
        prop_assert!(Command::parse(verb).is_err(), "truncated {} must be rejected", verb);
    }

    /// Numeric argument positions reject non-numeric junk (and AUTH, a
    /// string position, accepts it — exactly one of the two).
    #[test]
    fn numeric_positions_reject_junk(junk in "[a-z]{1,8}x") {
        prop_assert!(Command::parse(&format!("EXPIRE k {junk}")).is_err(), "bad millis");
        prop_assert!(Command::parse(&format!("ADDUSER {junk}")).is_err(), "bad user");
        prop_assert!(Command::parse(&format!("INCR k {junk}")).is_err(), "bad delta");
        prop_assert!(Command::parse(&format!("AUTH {junk}")).is_ok(), "token is a string position");
    }

    /// The batch law: for any burst and any layer subset, `call_batch`
    /// through the chain produces byte-identical replies, in order, to
    /// the same commands driven through `call_one` one at a time —
    /// across every decision the phases can take (ACL denials, bucket
    /// exhaustion, armed TTL timers, mid-burst logins).
    #[test]
    fn call_batch_matches_sequential_call(
        burst_size in 4u64..200,
        sample_every in 0u32..5,
        mask in layer_mask(),
        cmds in proptest::collection::vec(stable_command(), 1..40),
    ) {
        let mut config = equivalence_config(burst_size, mask);
        config.trace.sample_every = sample_every;
        let want = singly(&mut equivalence_chain(&config), &cmds);
        let got = burst(&mut equivalence_chain(&config), &cmds);
        prop_assert_eq!(got, want);
    }

    /// The model law: for any burst, tuning, layer subset and
    /// span-sampling phase, `call_one` answers byte-identically to the
    /// sequential [`Model`] — singletons first, then the same commands
    /// again as one `call_batch` burst against the advanced model.
    #[test]
    fn call_one_matches_sequential_model(
        burst_size in 4u64..200,
        sample_every in 0u32..5,
        mask in layer_mask(),
        cmds in proptest::collection::vec(stable_command(), 1..40),
    ) {
        let mut config = equivalence_config(burst_size, mask);
        config.trace.sample_every = sample_every;
        let mut chain = equivalence_chain(&config);
        let mut model = Model::new(&config);
        let want: Vec<(Reply, bool)> = cmds.iter().map(|c| model.call(c)).collect();
        prop_assert_eq!(singly(&mut chain, &cmds), want, "singleton stream");
        let want: Vec<(Reply, bool)> = cmds.iter().map(|c| model.call(c)).collect();
        prop_assert_eq!(burst(&mut chain, &cmds), want, "batched burst");
    }

    /// Escaping is lossless: unescape ∘ escape = identity, and the
    /// escaped form never carries a raw newline (which would tear the
    /// line-oriented exposition).
    #[test]
    fn prom_label_escaping_round_trips(v in label_value()) {
        let escaped = dego_middleware::prom::escape_label_value(&v);
        prop_assert!(!escaped.contains('\n'), "no raw newline in {escaped:?}");
        prop_assert_eq!(unescape_label_value(&escaped), v);
    }

    /// Rendered expositions round-trip their family names and values:
    /// the `# TYPE` header, the bare counter sample, and the labelled
    /// gauge sample (label value recovered through unescaping) all
    /// survive a parse of the finished text.
    #[test]
    fn prom_rendering_round_trips(
        name in metric_name(),
        count in any::<u64>(),
        gauge_val in any::<u64>(),
        label in label_value(),
    ) {
        let counter_name = format!("{name}_total");
        let gauge_name = format!("{name}_depth");
        let mut p = PromText::new();
        p.counter(&counter_name, "a counter", count);
        p.gauge_vec(&gauge_name, "a gauge", &[(vec![("l", label.clone())], gauge_val)]);
        let text = p.finish();

        prop_assert!(
            text.lines().any(|l| l == format!("# TYPE {counter_name} counter")),
            "counter TYPE header in {text:?}"
        );
        prop_assert!(
            text.lines().any(|l| l == format!("{counter_name} {count}")),
            "counter sample in {text:?}"
        );
        prop_assert!(
            text.lines().any(|l| l == format!("# TYPE {gauge_name} gauge")),
            "gauge TYPE header in {text:?}"
        );

        // The labelled series: name{l="ESCAPED"} value — recover both.
        let prefix = format!("{gauge_name}{{l=\"");
        let series = text.lines().find(|l| l.starts_with(&prefix));
        prop_assert!(series.is_some(), "labelled gauge series in {text:?}");
        let (sample, value) = series.unwrap().rsplit_once(' ').expect("sample line");
        prop_assert_eq!(value.parse::<u64>().ok(), Some(gauge_val));
        let inner = sample
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix("\"}"))
            .expect("label delimiters");
        prop_assert_eq!(unescape_label_value(inner), label);
    }

    /// The window-merge law: when every sample lands within one window
    /// span (epochs covering fewer than the slot count), merging the
    /// live slots reproduces the cumulative lifetime histogram exactly
    /// — windowing drops only expired samples, never live ones, and
    /// counts nothing twice.
    #[test]
    fn window_merge_matches_cumulative_histogram(
        samples in proptest::collection::vec((0u64..100_000_000, 100u64..106), 1..200),
    ) {
        let h = WindowedHistogram::new(60);
        let mut newest = 0u64;
        for &(micros, epoch) in &samples {
            h.record_at(micros, epoch);
            newest = newest.max(epoch);
        }
        let merged = h.windowed_counts_at(newest);
        prop_assert_eq!(merged, h.lifetime().counts());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Reply rendering always emits exactly one line per element
    /// (header + n for arrays), each newline-terminated.
    #[test]
    fn replies_render_line_disciplined(
        v in value(),
        n in any::<i64>(),
        items in proptest::collection::vec("[a-z0-9=]{1,12}", 0..6),
    ) {
        for (reply, lines) in [
            (Reply::Status("OK"), 1),
            (Reply::Value(v.clone()), 1),
            (Reply::Nil, 1),
            (Reply::Int(n), 1),
            (Reply::Error(v.clone()), 1),
            (Reply::Array(items.clone()), items.len() + 1),
        ] {
            let mut out = String::new();
            reply.render(&mut out);
            prop_assert!(out.ends_with('\n'));
            prop_assert_eq!(out.lines().count(), lines);
        }
    }
}
