//! Live introspection: read-only views of a running actor.
//!
//! An [`Introspect`] actor can answer `/metrics` (Prometheus text) and
//! `/status` (JSON) queries while it runs: a mesh spawned with
//! [`crate::TcpMesh::spawn_with_http`] binds a real HTTP listener per
//! site and also answers in-process queries ([`crate::Live::inspect`]).
//! Both route the query through the site's own event loop, so the actor
//! is only ever read between handler invocations (no locking inside the
//! actor, no torn snapshots).

/// A read-only introspection surface an actor exposes while running.
pub trait Introspect {
    /// Prometheus text-format exposition of the actor's metrics.
    fn metrics_text(&self) -> String;
    /// JSON status snapshot (role, tables, in-flight work).
    fn status_json(&self) -> String;
    /// Actor-specific paths beyond `/metrics` and `/status` (e.g. the
    /// accelerator's `/read/<product>`). `None` means "not found".
    fn answer_path(&self, _path: &str) -> Option<String> {
        None
    }
}

/// Routes an introspection path to the matching [`Introspect`] method.
/// `None` means "not found" (the HTTP layer answers 404).
pub fn answer<A: Introspect>(actor: &A, path: &str) -> Option<String> {
    match path {
        "/metrics" => Some(actor.metrics_text()),
        "/status" => Some(actor.status_json()),
        other => actor.answer_path(other),
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
