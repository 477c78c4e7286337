//! `nsky-server`: a fault-hardened TCP query daemon for neighborhood
//! skylines.
//!
//! The daemon loads a graph once and answers skyline / dominance /
//! clique / group-centrality queries over a newline-delimited JSON
//! protocol (one request line in, one response line out, pipelining
//! allowed). The published epoch holds what depends on its graph alone:
//! the exact skyline rendered once, which answers a default `skyline`
//! read, and the prepared inputs that leave `clique` and `group` only
//! their search. Every kernel run happens under the request's own
//! `ExecutionContext`:
//!
//! - a deadline budget turns timeouts into *anytime partial answers*
//!   tagged `"partial": true` — never an error;
//! - a per-request [`nsky_skyline::budget::CancelToken`] child is
//!   raised when the client disconnects, cancelling the kernel mid-run;
//! - a bounded accept queue sheds overload with an `overloaded`
//!   response carrying a `retry_after_ms` backoff hint;
//! - malformed / oversized / stalled frames get typed protocol errors
//!   and a connection teardown that cannot affect other connections;
//! - a `shutdown` frame drains in-flight requests under a drain
//!   deadline, then forces stragglers to partial answers;
//! - every response embeds the request's `RunReport` (v1 schema):
//!   counters, phase timeline, completion cause.
//!
//! See DESIGN.md §7 "Serving" for the protocol grammar and the
//! shedding/drain contracts.

#![forbid(unsafe_code)]

pub mod engine;
pub mod json;
pub mod protocol;
pub mod server;

pub use engine::{
    budget_for, execute_query, execute_read, execute_update, parse_update_deltas, EpochCache,
    QueryOutcome,
};
pub use protocol::ProtocolError;
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
