//! WAL-shipping replication: the follower side.
//!
//! `edna serve --replica-of <addr>` runs this module's two halves:
//!
//! 1. [`bootstrap`] — dial the primary, hand it our epoch, and receive a
//!    complete copy of the state (snapshot, WAL file, vault-side files)
//!    written to the local state paths **before** the workspace is
//!    opened. The connection stays up; the live tail follows on it.
//! 2. [`run`] — the apply loop: read stream records, apply each WAL
//!    frame in one engine transaction (preserving the primary's LSNs,
//!    fsync per frame), mirror vault-side file mutations, and
//!    acknowledge applied LSNs back on the same socket.
//!
//! The replica's service rejects writes (`read-only`), its decay daemon
//! and background checkpointer stay off (a local checkpoint would burn
//! an LSN the primary is about to use), and it does not auto-reconnect:
//! when the stream breaks it keeps serving reads from the last applied
//! state until an operator promotes it (`edna promote`) or restarts it
//! as a replica (which re-bootstraps from scratch).
//!
//! Fencing: a record whose epoch is *behind* ours comes from a deposed
//! primary and kills the stream; the primary symmetrically refuses a
//! handshake from a follower whose epoch is ahead of its own
//! (`stale-epoch`), which is exactly what a promoted node pointed at
//! its old primary sees.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use edna_core::workspace::sidecar;
use edna_util::frame;
use edna_vault::ShipKind;

use crate::proto::{code, Request, Response};
use crate::repl::{StreamRecord, REPL_MAX_FRAME};
use crate::service::Service;
use crate::wire::{self, ReadOutcome};

/// Shared, observable state of a running replica (for `repl status`
/// and the serve banner).
#[derive(Debug)]
pub struct ReplicaShared {
    /// The primary's address as given on the command line.
    pub source: String,
    epoch: AtomicU64,
    applied_lsn: AtomicU64,
    connected: AtomicBool,
}

impl ReplicaShared {
    /// Fresh state for a replica of `source`.
    pub fn new(source: String, epoch: u64, applied_lsn: u64) -> Arc<ReplicaShared> {
        Arc::new(ReplicaShared {
            source,
            epoch: AtomicU64::new(epoch),
            applied_lsn: AtomicU64::new(applied_lsn),
            connected: AtomicBool::new(true),
        })
    }

    /// The replication epoch this replica is at.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Highest LSN durably applied.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::SeqCst)
    }

    /// Whether the stream to the primary is still up.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }
}

/// A bootstrap or stream failure.
#[derive(Debug)]
pub enum ReplicaError {
    /// The primary refused the handshake because our epoch is ahead of
    /// its own: it is deposed, not us. Joining it would rewind history.
    StaleEpoch(String),
    /// Everything else: socket, protocol, filesystem.
    Other(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::StaleEpoch(msg) => write!(f, "stale-epoch: {msg}"),
            ReplicaError::Other(msg) => f.write_str(msg),
        }
    }
}

fn other(msg: impl Into<String>) -> ReplicaError {
    ReplicaError::Other(msg.into())
}

/// What [`bootstrap`] hands back: the still-open stream (live tail
/// follows on it) and the shipped state's coordinates.
pub struct Bootstrap {
    /// The connection to the primary, positioned after `SNAP_END`.
    pub stream: TcpStream,
    /// Highest LSN in the shipped WAL file.
    pub last_lsn: u64,
    /// The primary's epoch.
    pub epoch: u64,
}

/// Validates a shipped vault-side file name and resolves it under the
/// replica's `<state>.vault/` directory. The name must be
/// `global/<file>` or `user/<file>` with a plain single-component file
/// name — anything else is hostile.
pub fn resolve_vault_name(state: &Path, name: &str) -> Result<PathBuf, String> {
    let (prefix, file) = name
        .split_once('/')
        .ok_or_else(|| format!("vault file name {name:?} has no tier prefix"))?;
    if file.is_empty()
        || file.contains('/')
        || file.contains('\\')
        || file.contains("..")
        || file.starts_with('.')
        || file.contains('\0')
    {
        return Err(format!("vault file name {name:?} is not a plain file name"));
    }
    let vault_root = sidecar(state, ".vault");
    match prefix {
        "global" => Ok(vault_root.join("global").join(file)),
        "user" => Ok(vault_root.join("user").join(file)),
        other => Err(format!("unknown vault tier prefix {other:?} in {name:?}")),
    }
}

/// Applies one shipped vault-side mutation to the file at `path`.
pub fn apply_vault_file(path: &Path, kind: ShipKind, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    match kind {
        ShipKind::Append => {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            f.write_all(bytes)?;
            f.sync_all()
        }
        ShipKind::Replace if bytes.is_empty() => match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        },
        ShipKind::Replace => {
            let tmp = path.with_extension("shiptmp");
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(bytes)?;
                f.sync_all()?;
            }
            std::fs::rename(&tmp, path)
        }
    }
}

fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Reads the replication epoch a state directory was last at, without
/// opening the workspace: the highest epoch record in its WAL. A
/// missing WAL (or state) is epoch 0.
pub fn local_epoch(state: &Path) -> u64 {
    let Ok(data) = std::fs::read(sidecar(state, ".wal")) else {
        return 0;
    };
    let mut epoch = 0u64;
    for body in frame::scan_records(&data).records {
        if let Ok((_, edna_relational::WalRecord::Epoch { epoch: e })) =
            edna_relational::wal::decode_frame_body(&body)
        {
            epoch = epoch.max(e);
        }
    }
    epoch
}

/// Dials the primary, performs the `repl stream` handshake, and writes
/// the shipped state (snapshot, WAL, vault files) to `state`'s paths.
/// **Destructive**: existing state files at `state` are replaced — a
/// replica's local state is always a copy of its primary's.
pub fn bootstrap(
    addr: SocketAddr,
    state: &Path,
    timeout: Duration,
) -> Result<Bootstrap, ReplicaError> {
    let epoch = local_epoch(state);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| other(format!("cannot reach primary {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| other(e.to_string()))?;
    let req = Request::new("repl")
        .arg("stream")
        .header("epoch", epoch.to_string());
    wire::write_frame(&mut stream, &req.encode())
        .map_err(|e| other(format!("handshake send failed: {e}")))?;
    let resp = read_response(&mut stream, timeout)?;
    if !resp.ok {
        let msg = format!(
            "primary {addr} refused replication: {}",
            resp.body.trim_end()
        );
        return match resp.code.as_deref() {
            Some(code::STALE_EPOCH) => Err(ReplicaError::StaleEpoch(msg)),
            _ => Err(ReplicaError::Other(msg)),
        };
    }

    // Sweep local vault state so the shipped copy is exact, not merged
    // over leftovers from a previous life.
    let vault_root = sidecar(state, ".vault");
    if vault_root.exists() {
        std::fs::remove_dir_all(&vault_root)
            .map_err(|e| other(format!("cannot clear {}: {e}", vault_root.display())))?;
    }

    let mut got_snapshot = false;
    let mut got_wal = false;
    loop {
        let record = read_stream_record(&mut stream, timeout)
            .map_err(|e| other(format!("bootstrap stream: {e}")))?;
        match record {
            StreamRecord::Snapshot(bytes) => {
                write_durable(state, &bytes)
                    .map_err(|e| other(format!("cannot write snapshot: {e}")))?;
                got_snapshot = true;
            }
            StreamRecord::WalFile(bytes) => {
                write_durable(&sidecar(state, ".wal"), &bytes)
                    .map_err(|e| other(format!("cannot write WAL: {e}")))?;
                got_wal = true;
            }
            StreamRecord::VaultFile(name, bytes) => {
                let path = resolve_vault_name(state, &name).map_err(other)?;
                write_durable(&path, &bytes)
                    .map_err(|e| other(format!("cannot write vault file {name:?}: {e}")))?;
            }
            StreamRecord::SnapEnd { last_lsn, epoch } => {
                if !got_snapshot || !got_wal {
                    return Err(other("bootstrap ended before snapshot and WAL arrived"));
                }
                return Ok(Bootstrap {
                    stream,
                    last_lsn,
                    epoch,
                });
            }
            StreamRecord::Heartbeat { .. } => {}
            unexpected => {
                return Err(other(format!(
                    "unexpected record during bootstrap: {unexpected:?}"
                )))
            }
        }
    }
}

fn read_response(stream: &mut TcpStream, timeout: Duration) -> Result<Response, ReplicaError> {
    match wire::read_frame(stream, REPL_MAX_FRAME, timeout, timeout) {
        Ok(ReadOutcome::Frame(body)) => {
            let text =
                std::str::from_utf8(&body).map_err(|_| other("handshake response is not UTF-8"))?;
            Response::parse(text).map_err(other)
        }
        Ok(ReadOutcome::Eof) => Err(other("primary closed during handshake")),
        Ok(ReadOutcome::IdleTimeout) => Err(other("handshake timed out")),
        Err(e) => Err(other(e.to_string())),
    }
}

fn read_stream_record(stream: &mut TcpStream, budget: Duration) -> Result<StreamRecord, String> {
    match wire::read_frame(stream, REPL_MAX_FRAME, budget, budget) {
        Ok(ReadOutcome::Frame(body)) => StreamRecord::decode(&body),
        Ok(ReadOutcome::Eof) => Err("stream closed".to_string()),
        Ok(ReadOutcome::IdleTimeout) => Err("stream idle past deadline".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// The live apply loop. Runs until the stream breaks, a record fails to
/// apply, or `stop` turns true; marks `shared` disconnected on exit.
/// Each WAL frame is applied in one engine transaction and acknowledged
/// only after it is durable locally, so an LSN this replica acked
/// genuinely survives losing the primary.
pub fn run(
    mut stream: TcpStream,
    svc: &Arc<Service>,
    shared: &Arc<ReplicaShared>,
    stop: &Arc<AtomicBool>,
) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    loop {
        if stop.load(Ordering::SeqCst) || svc.draining() {
            break;
        }
        let outcome = wire::read_frame(
            &mut stream,
            REPL_MAX_FRAME,
            Duration::from_millis(500),
            Duration::from_secs(30),
        );
        let body = match outcome {
            Ok(ReadOutcome::Frame(body)) => body,
            Ok(ReadOutcome::IdleTimeout) => continue,
            Ok(ReadOutcome::Eof) => {
                eprintln!("edna serve: primary closed the replication stream");
                break;
            }
            Err(e) => {
                eprintln!("edna serve: replication stream error: {e}");
                break;
            }
        };
        let record = match StreamRecord::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("edna serve: malformed stream record ({e}); dropping stream");
                break;
            }
        };
        match record {
            StreamRecord::Wal { epoch, framed } => {
                if epoch < shared.epoch() {
                    eprintln!(
                        "edna serve: frame from deposed primary (epoch {epoch} < {}); \
                         dropping stream",
                        shared.epoch()
                    );
                    break;
                }
                let lsn = match svc.apply_shipped_wal(&framed) {
                    Ok(lsn) => lsn,
                    Err(e) => {
                        eprintln!("edna serve: cannot apply shipped frame: {e}");
                        break;
                    }
                };
                shared.epoch.fetch_max(epoch, Ordering::SeqCst);
                shared.applied_lsn.store(lsn, Ordering::SeqCst);
                let ack = StreamRecord::Ack {
                    epoch: shared.epoch(),
                    lsn,
                }
                .to_frame();
                if wire::write_frame(&mut stream, &ack).is_err() {
                    break;
                }
            }
            StreamRecord::Vault {
                epoch,
                kind,
                name,
                bytes,
            } => {
                if epoch < shared.epoch() {
                    eprintln!(
                        "edna serve: vault event from deposed primary (epoch {epoch}); \
                         dropping stream"
                    );
                    break;
                }
                if let Err(e) = svc.apply_shipped_vault(kind, &name, &bytes) {
                    eprintln!("edna serve: cannot mirror vault file {name:?}: {e}");
                    break;
                }
            }
            StreamRecord::Heartbeat { epoch } => {
                if epoch < shared.epoch() {
                    eprintln!("edna serve: heartbeat from deposed primary; dropping stream");
                    break;
                }
            }
            unexpected => {
                eprintln!("edna serve: unexpected stream record {unexpected:?}; dropping");
                break;
            }
        }
    }
    shared.connected.store(false, Ordering::SeqCst);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vault_names_are_validated_structurally() {
        let state = Path::new("/tmp/edna_state");
        assert!(resolve_vault_name(state, "global/a.bin").is_ok());
        assert!(resolve_vault_name(state, "user/vault_19.bin").is_ok());
        for hostile in [
            "",
            "noprefix",
            "global/",
            "global/../../etc/passwd",
            "global/a/b",
            "global/..",
            "global/.hidden",
            "elsewhere/a.bin",
            "journal/pending.journal",
            "global/a\\b",
            "global/a\0b",
        ] {
            assert!(
                resolve_vault_name(state, hostile).is_err(),
                "should refuse {hostile:?}"
            );
        }
    }

    #[test]
    fn apply_vault_file_append_replace_remove() {
        let dir = std::env::temp_dir().join(format!("edna_shipfile_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("f.bin");
        apply_vault_file(&path, ShipKind::Append, b"ab").unwrap();
        apply_vault_file(&path, ShipKind::Append, b"cd").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        apply_vault_file(&path, ShipKind::Replace, b"xyz").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz");
        apply_vault_file(&path, ShipKind::Replace, b"").unwrap();
        assert!(!path.exists());
        // Removing an already-missing file is idempotent.
        apply_vault_file(&path, ShipKind::Replace, b"").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_epoch_of_missing_state_is_zero() {
        assert_eq!(local_epoch(Path::new("/tmp/edna_no_such_state")), 0);
    }
}
