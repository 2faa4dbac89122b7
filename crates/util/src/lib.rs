//! `edna-util`: zero-dependency utilities shared across the workspace.
//!
//! The workspace must build and test with no network access (no crates.io
//! registry), so the handful of external crates the seed depended on are
//! replaced by small in-repo implementations:
//!
//! - [`rng`] — a deterministic, seedable PRNG (SplitMix64 seeding feeding
//!   xoshiro256++) behind a minimal [`rng::Rng`] trait, used by the data
//!   generators, placeholder synthesis, and retry jitter;
//! - [`buf`] — cursor-style byte buffers ([`buf::Bytes`] / [`buf::BytesMut`])
//!   for the vault wire formats;
//! - [`frame`] — checksummed `[len][body][sha256]` record framing with
//!   torn-tail detection, shared by the vault files, the relational
//!   write-ahead log, and `edna serve`'s wire and replication streams;
//! - [`sha256`] — SHA-256 (FIPS 180-4), shared by the vault crypto and the
//!   crash-consistency checksums in snapshots and vault files;
//! - [`sync`] — poison-tolerant lock acquisition, so a panic in one
//!   statement cannot wedge shared caches for every later caller;
//! - [`hex`] — lowercase hex encode/decode for capability tokens and
//!   digest rendering;
//! - [`lockfile`] — advisory PID lock files with stale-holder
//!   reclamation, so two processes cannot open the same workspace.

#![warn(missing_docs)]

pub mod buf;
pub mod frame;
pub mod hex;
pub mod lockfile;
pub mod rng;
pub mod sha256;
pub mod sync;
