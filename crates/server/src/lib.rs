//! `edna-server`: the fault-hardened, multi-tenant disguise server.
//!
//! The paper frames Edna as an *external tool* applications call into
//! (Figure 1). This crate gives that tool a network face: one process
//! holds the workspace (and its `.lock`), and many clients — the
//! application, operators, users' own agents — speak a small framed
//! protocol to it. The design goals are the robustness ones:
//!
//! - **No trust in the network**: every message is a checksummed frame
//!   ([`wire`]); corrupt, truncated, oversized, or dribbled input gets a
//!   structured error, never a panic or a hung worker.
//! - **No tenant starves another**: a bounded worker pool with explicit
//!   `busy` backpressure ([`server`]), absolute per-frame deadlines, and
//!   liveness probes that take no lock, so a long disguise application
//!   never blocks them ([`service`]).
//! - **The operator is not omnipotent**: reversible applications mint
//!   per-user capability tokens; reveal over the wire requires the
//!   token, and the server stores only its hash ([`caps`]). Wire SQL
//!   cannot reach the reserved `_edna_*` tables that back the gate
//!   ([`guard`]).
//! - **Kill it anytime**: graceful drain (the `shutdown` op,
//!   authenticated with the operator token minted at startup)
//!   checkpoints on the way out, and SIGKILL at any instant is
//!   recoverable because the WAL made every committed statement durable
//!   first (`edna recover`).
//!
//! Entry points: [`service::Service::new`] wraps an open
//! [`edna_core::Workspace`], [`server::start`] serves it, and
//! [`client::Client`] talks to it.

#![warn(missing_docs)]

pub mod caps;
pub mod client;
pub mod guard;
pub mod proto;
pub mod repl;
pub mod replica;
pub mod server;
pub mod service;
pub mod wire;

pub use client::Client;
pub use proto::{code, Request, Response};
pub use repl::ReplHub;
pub use replica::ReplicaShared;
pub use server::{start, ServerConfig, ServerHandle};
pub use service::Service;
