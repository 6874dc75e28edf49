//! Live introspection: read-only views of a running actor.
//!
//! An [`Introspect`] actor can answer `/metrics` (Prometheus text) and
//! `/status` (JSON) while it runs: a mesh spawned with
//! [`crate::TcpMesh::spawn_with_http`] serves both over HTTP per site,
//! and [`crate::Live::inspect`] answers them in process. Both are
//! [`crate::Live::query`]s, run by the site's own event loop between
//! handler invocations (no locking inside the actor, no torn snapshots).

/// A read-only introspection surface an actor exposes while running.
pub trait Introspect {
    /// Prometheus text-format exposition of the actor's metrics.
    fn metrics_text(&self) -> String;
    /// JSON status snapshot (role, tables, in-flight work).
    fn status_json(&self) -> String;
}

/// Routes an introspection path to the matching [`Introspect`] method.
/// `None` means "not found" (the HTTP layer answers 404).
pub fn answer<A: Introspect>(actor: &A, path: &str) -> Option<String> {
    match path {
        "/metrics" => Some(actor.metrics_text()),
        "/status" => Some(actor.status_json()),
        _ => None,
    }
}

/// Content type for a known introspection path.
pub fn content_type(path: &str) -> &'static str {
    match path {
        "/metrics" => "text/plain; version=0.0.4; charset=utf-8",
        "/status" => "application/json",
        _ => "text/plain; charset=utf-8",
    }
}
