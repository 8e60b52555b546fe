#![forbid(unsafe_code)]
//! # er-serve — a long-lived repair service
//!
//! The mining pipeline ends with a rule set; this crate is the deployment
//! half: a server that loads the rule set and the master relation once,
//! warms the master-side group indexes (one per distinct `X_m` list, via
//! [`er_rules::BatchRepairer`]), and then repairs streamed input batches
//! until it is told to shut down.
//!
//! The transport is deliberately std-only: newline-delimited JSON, one
//! request per line, one response line per request, in order. One session
//! loop, [`serve_pipe`], frames lines and answers them for both
//! front-ends:
//!
//! * **pipe mode** — stdin/stdout, for shell pipelines and supervisors that
//!   speak over a pipe pair;
//! * **socket mode** ([`TcpServer`]) — a `std::net::TcpListener` whose
//!   acceptor admits at most `workers + queue_capacity` live connections,
//!   each served by its own blocking thread running the same loop.
//!
//! Operational behaviour is explicit rather than implicit:
//!
//! * **backpressure** — at most `queue_capacity` repair requests are in
//!   flight; excess requests are answered immediately with
//!   `{"ok":false,"error":"overloaded","retry":true}` instead of queueing
//!   without bound.
//! * **deadlines** — an optional per-request deadline aborts a repair
//!   between rule chunks ([`er_rules::BatchError::DeadlineExceeded`]).
//! * **graceful drain** — the `shutdown` op (or [`Server::begin_drain`])
//!   stops the accept loop and lets every request already being handled
//!   finish and receive its response before connections close. The
//!   workspace forbids `unsafe`, so there is no signal handler; supervisors
//!   should close stdin (pipe mode) or send `{"op":"shutdown"}`.
//! * **metrics** — request/repair/error/panic counters, a live-connection
//!   gauge and p50/p99 latency over a sliding window, served by the `stats`
//!   op and an optional periodic stderr log line.
//! * **analysis gate** — by default, `reload` and `append` are gated on a
//!   clean static analysis of the resulting rule-set/master combination
//!   (`er-analyze`: no ER008 dependency cycle, no ER009 conflicting
//!   repairs). A gated rejection answers with the analysis findings and
//!   leaves the live engine untouched; disable with
//!   [`ServeConfig::analysis_gate`] (CLI: `--no-analysis-gate`).
//! * **versioned, diff-gated promotion** — with the gate on, `reload` also
//!   runs the edit-scope diff (`er-analyze` ER011/ER012) between the live
//!   and candidate rule sets; a reload carrying a `scope` is rejected when
//!   any verdict change leaks outside it. Promotions are committed to a
//!   hash-chained [`er_rules::RuleStore`] (the `versions` op dumps the
//!   lineage), and the read-only `diff` op previews a candidate without
//!   promoting it.

pub mod engine;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod tcp;

pub use engine::{CodeFix, EngineError, RepairEngine, RepairOutcome, RepairedCell};
pub use metrics::{Metrics, Snapshot};
pub use proto::{parse_request, Request, RowBatch};
pub use server::{serve_pipe, ReloadError, Reloader, ServeConfig, Server};
pub use tcp::TcpServer;

/// Lock a std mutex, recovering the data from a poisoned lock: the guarded
/// state here (latency ring, connection registry, rule store) stays
/// consistent under every partial update, so a panicking holder never
/// leaves it corrupt.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
