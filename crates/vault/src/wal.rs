//! Checksummed record framing, shared with the relational WAL.
//!
//! The codec lives in [`edna_util::frame`] so the vault files and
//! `edna-relational`'s write-ahead log speak the same
//! `[len][body][sha256]` wire format; this module
//! re-exports it under the vault crate's historical path.

pub use edna_util::frame::{append_record, encode_record, scan_records, ScanOutcome};
