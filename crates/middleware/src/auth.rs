//! Key-based authentication and role ACLs.
//!
//! The token table (`token → principal`) is an SWMR hash map from
//! dego-core: every connection thread resolves `AUTH` tokens through
//! the lock-free reader; the unique writer is mutex-serialized behind
//! the runtime admin API (add/revoke tokens). The ambient policy (what
//! an unauthenticated session may do) lives in an [`rcu_cell`]: a
//! reload copy-swaps the whole policy, and every session observes the
//! new version on its next request — no locks on the request path.
//!
//! ACL model: `Control` verbs are always allowed, `Read` verbs need
//! [`Role::ReadOnly`] or better, `Write` verbs need [`Role::ReadWrite`]
//! or better.
//!
//! A burst resolves the session's role **once** and checks every
//! command against it. A burst containing `AUTH` changes the role
//! mid-stream, so the admission driver runs it one request at a time
//! (logins are not hot).

use crate::metrics::PipelineMetrics;
use crate::pipeline::Response;
use crate::protocol::{Command, CommandClass, Reply};
use dego_core::rcu::{rcu_cell, RcuReader, RcuWriter};
use dego_core::swmr_hash::{swmr_hash_map, SwmrHashReader, SwmrHashWriter};
use std::sync::{Arc, Mutex};

/// What a session is allowed to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// No access at all (useful as an anon role to force `AUTH`).
    None,
    /// Read-class verbs only.
    ReadOnly,
    /// Read- and write-class verbs.
    ReadWrite,
}

impl Role {
    /// Whether this role may run a command of `class`.
    pub fn allows(self, class: CommandClass) -> bool {
        match class {
            CommandClass::Control => true,
            CommandClass::Read => self >= Role::ReadOnly,
            CommandClass::Write => self >= Role::ReadWrite,
        }
    }

    /// Parse a config name (`none`, `readonly`, `readwrite`).
    pub fn parse(name: &str) -> Result<Role, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "none" | "deny" => Ok(Role::None),
            "readonly" | "read" | "ro" => Ok(Role::ReadOnly),
            "readwrite" | "write" | "rw" => Ok(Role::ReadWrite),
            other => Err(format!("unknown role {other:?}")),
        }
    }

    /// The lowercase config/display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::None => "none",
            Role::ReadOnly => "readonly",
            Role::ReadWrite => "readwrite",
        }
    }
}

/// An authenticated identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Principal {
    /// Display name (never the token).
    pub name: Arc<str>,
    /// Granted role.
    pub role: Role,
}

/// One configured token.
#[derive(Clone, Debug)]
pub struct TokenSpec {
    /// Principal name the token authenticates as.
    pub name: String,
    /// The secret presented via `AUTH`.
    pub token: String,
    /// Role granted on login.
    pub role: Role,
}

/// Auth layer configuration.
#[derive(Clone, Debug)]
pub struct AuthConfig {
    /// Tokens loaded at boot.
    pub tokens: Vec<TokenSpec>,
    /// Role of sessions that never ran `AUTH`.
    pub anon_role: Role,
}

impl Default for AuthConfig {
    /// Open by default: anonymous sessions keep full access until a
    /// deployment narrows the policy (no token, no lock-out surprises).
    fn default() -> Self {
        AuthConfig {
            tokens: Vec::new(),
            anon_role: Role::ReadWrite,
        }
    }
}

/// RCU-published ambient policy.
#[derive(Clone, Debug)]
struct AclPolicy {
    anon_role: Role,
}

/// Shared auth state: lock-free readers + mutex-serialized admin
/// writers.
pub(crate) struct AuthState {
    tokens: SwmrHashReader<String, Principal>,
    policy: RcuReader<AclPolicy>,
    admin: Mutex<AuthAdmin>,
    metrics: Arc<PipelineMetrics>,
}

struct AuthAdmin {
    tokens: SwmrHashWriter<String, Principal>,
    policy: RcuWriter<AclPolicy>,
}

impl AuthState {
    /// Build the state, loading `config.tokens` into the table.
    pub(crate) fn new(config: &AuthConfig, metrics: Arc<PipelineMetrics>) -> Self {
        let (mut writer, reader) = swmr_hash_map(64);
        for spec in &config.tokens {
            writer.insert(
                spec.token.clone(),
                Principal {
                    name: Arc::from(spec.name.as_str()),
                    role: spec.role,
                },
            );
        }
        let (policy_writer, policy_reader) = rcu_cell(AclPolicy {
            anon_role: config.anon_role,
        });
        AuthState {
            tokens: reader,
            policy: policy_reader,
            admin: Mutex::new(AuthAdmin {
                tokens: writer,
                policy: policy_writer,
            }),
            metrics,
        }
    }

    /// Add or replace a token at runtime.
    pub(crate) fn set_token(&self, name: &str, token: &str, role: Role) {
        let mut admin = self.admin.lock().expect("auth admin");
        admin.tokens.insert(
            token.to_string(),
            Principal {
                name: Arc::from(name),
                role,
            },
        );
    }

    /// RCU-publish a new anonymous role.
    pub(crate) fn publish_anon_role(&self, role: Role) {
        let mut admin = self.admin.lock().expect("auth admin");
        admin.policy.update(|_| AclPolicy { anon_role: role });
    }

    /// The role a session holds: its principal's, or the RCU-published
    /// anonymous policy for a session that never logged in.
    #[inline]
    pub(crate) fn role_of(&self, principal: Option<&Principal>) -> Role {
        match principal {
            Some(p) => p.role,
            None => self.policy.read(|p| p.anon_role),
        }
    }

    /// `AUTH token`: on a known token the session becomes its
    /// principal.
    pub(crate) fn login(&self, token: &String, principal: &mut Option<Principal>) -> Response {
        match self.tokens.get(token) {
            Some(found) => {
                self.metrics.auth_logins.increment();
                *principal = Some(found);
                Response::ok(Reply::Status("OK"))
            }
            None => {
                self.metrics.auth_denied.increment();
                Response::rejection("AUTH", "bad token")
            }
        }
    }

    /// Count `admitted` and `denied` commands in one add each (a
    /// burst's role checks are tallied, then counted once).
    #[inline]
    pub(crate) fn note(&self, admitted: u64, denied: u64) {
        self.metrics.auth_admitted.add(admitted);
        self.metrics.auth_denied.add(denied);
    }
}

/// The structured rejection when `role` may not run `cmd`, or `None`
/// when it may. Uncounted: callers count with [`AuthState::note`].
#[inline]
pub(crate) fn denial(role: Role, cmd: &Command) -> Option<Response> {
    let class = cmd.class();
    if role.allows(class) {
        return None;
    }
    Some(Response::rejection(
        "AUTH",
        format_args!(
            "{} requires {}, session role is {}",
            cmd.verb(),
            match class {
                CommandClass::Write => Role::ReadWrite.name(),
                _ => Role::ReadOnly.name(),
            },
            role.name()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiddlewareConfig;
    use crate::fused::tests::{one_layer, Ok200};
    use crate::fused::FusedService;
    use crate::pipeline::{LayerKind, Request, Service, Stack};

    /// An auth-only stack over [`Ok200`] with one `writer` token.
    fn layer(anon: Role) -> (FusedService<Ok200>, Arc<Stack>) {
        let config = MiddlewareConfig {
            auth: AuthConfig {
                tokens: vec![TokenSpec {
                    name: "writer".into(),
                    token: "sekrit".into(),
                    role: Role::ReadWrite,
                }],
                anon_role: anon,
            },
            ..MiddlewareConfig::none()
        };
        one_layer(LayerKind::Auth, config, Ok200)
    }

    fn set() -> Request {
        Request::new(Command::Set("k".into(), "v".into()))
    }

    #[test]
    fn anon_readonly_rejects_writes_until_auth() {
        let (mut svc, stack) = layer(Role::ReadOnly);
        let metrics = stack.metrics();
        // Reads pass, writes are rejected with the structured tag.
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Status(_)
        ));
        match svc.call(set()).reply {
            Reply::Error(e) => assert!(e.starts_with("AUTH "), "got {e:?}"),
            other => panic!("expected AUTH rejection, got {other:?}"),
        }
        // Login upgrades the session.
        assert!(matches!(
            svc.call(Request::new(Command::Auth("sekrit".into()))).reply,
            Reply::Status(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
        assert_eq!(metrics.auth_logins.sum(), 1);
        assert!(metrics.auth_denied.sum() >= 1);
    }

    #[test]
    fn bad_tokens_are_denied_and_do_not_upgrade() {
        let (mut svc, _) = layer(Role::ReadOnly);
        assert!(matches!(
            svc.call(Request::new(Command::Auth("wrong".into()))).reply,
            Reply::Error(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Error(_)));
    }

    #[test]
    fn control_verbs_pass_even_for_role_none() {
        let (mut svc, _) = layer(Role::None);
        assert!(matches!(
            svc.call(Request::new(Command::Ping)).reply,
            Reply::Status(_)
        ));
        assert!(matches!(
            svc.call(Request::new(Command::Get("k".into()))).reply,
            Reply::Error(_)
        ));
    }

    #[test]
    fn batch_resolves_the_role_once_and_preserves_order() {
        let (mut svc, stack) = layer(Role::ReadOnly);
        let metrics = stack.metrics();
        let resps = svc.call_batch(vec![
            Request::new(Command::Get("a".into())),
            set(), // denied: readonly
            Request::new(Command::Ping),
            set(), // denied again
            Request::new(Command::Get("b".into())),
        ]);
        let ok = |r: &Response| matches!(r.reply, Reply::Status(_));
        assert!(ok(&resps[0]));
        assert!(matches!(&resps[1].reply, Reply::Error(e) if e.starts_with("AUTH ")));
        assert!(ok(&resps[2]));
        assert!(matches!(resps[3].reply, Reply::Error(_)));
        assert!(ok(&resps[4]));
        assert_eq!(metrics.auth_admitted.sum(), 3);
        assert_eq!(metrics.auth_denied.sum(), 2);
    }

    #[test]
    fn batch_with_auth_falls_back_to_sequential_login() {
        let (mut svc, stack) = layer(Role::ReadOnly);
        let metrics = stack.metrics();
        // The login in the middle must upgrade the commands after it —
        // exactly what the sequential path does.
        let resps = svc.call_batch(vec![
            set(), // still anon: denied
            Request::new(Command::Auth("sekrit".into())),
            set(), // now readwrite: admitted
        ]);
        assert!(matches!(resps[0].reply, Reply::Error(_)));
        assert!(matches!(resps[1].reply, Reply::Status(_)));
        assert!(matches!(resps[2].reply, Reply::Status(_)));
        assert_eq!(metrics.auth_logins.sum(), 1);
    }

    #[test]
    fn rcu_policy_reload_is_seen_by_live_sessions() {
        let (mut svc, stack) = layer(Role::ReadOnly);
        assert!(matches!(svc.call(set()).reply, Reply::Error(_)));
        assert!(stack.auth_set_anon_role(Role::ReadWrite));
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
    }

    #[test]
    fn runtime_token_insertion_takes_effect() {
        let (mut svc, stack) = layer(Role::ReadOnly);
        assert!(matches!(
            svc.call(Request::new(Command::Auth("newtok".into()))).reply,
            Reply::Error(_)
        ));
        assert!(stack.auth_set_token("ops", "newtok", Role::ReadWrite));
        assert!(matches!(
            svc.call(Request::new(Command::Auth("newtok".into()))).reply,
            Reply::Status(_)
        ));
        assert!(matches!(svc.call(set()).reply, Reply::Status(_)));
    }
}
