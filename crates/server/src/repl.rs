//! WAL-shipping replication: the stream codec and the primary-side hub.
//!
//! A follower (`edna serve --replica-of <addr>`) dials the primary and
//! sends a `repl stream` request carrying its own epoch. The primary
//! answers `ok`, then — on the same connection — ships a bootstrap
//! (snapshot, WAL file, vault files) followed by a live tail of every
//! durable mutation: WAL frames as the group-commit leader flushes them,
//! and vault-side file mutations (entry puts, removal and purge
//! rewrites) as raw bytes below the encryption layer, so sealed
//! payloads ship sealed and the follower needs no key material.
//!
//! Stream records ride inside the same checksummed wire frames as
//! requests ([`crate::wire`]); the follower acknowledges applied WAL
//! LSNs on the same socket. With `--sync-replicas N`, the primary's
//! group-commit gate holds every waiter of a flushed batch until `N`
//! followers have acknowledged the batch's last LSN — an acknowledged
//! commit (and every vault entry and capability minted before it)
//! then survives losing the primary.
//!
//! Degradation is never allowed to wedge the foreground commit path: a
//! follower whose send queue overflows is dropped (it can re-bootstrap),
//! and a sync follower that stalls past the gate timeout is demoted to
//! async with a warning metric.
//!
//! Fencing: every stream record carries the shipper's epoch. `edna
//! promote` durably bumps the follower's epoch; a deposed primary
//! (lower epoch) is refused by the promoted node, and a promoted node's
//! handshake against a stale primary is refused with `stale-epoch`.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use edna_core::Workspace;
use edna_obs::{Counter, Gauge, Histogram};
use edna_util::buf::{Bytes, BytesMut};
use edna_util::sync::lock_unpoisoned;
use edna_vault::ShipKind;

use crate::wire;

/// Stream record type tags (first byte of each record body).
pub mod rec {
    /// Bootstrap: the database snapshot file, verbatim.
    pub const SNAPSHOT: u8 = 0;
    /// Live tail: `[u64 epoch][framed WAL record]`.
    pub const WAL: u8 = 1;
    /// Live tail: `[u64 epoch][u8 kind][u32 len][name][bytes]`.
    pub const VAULT: u8 = 2;
    /// Keepalive: `[u64 epoch]`.
    pub const HEARTBEAT: u8 = 3;
    /// Follower → primary: `[u64 epoch][u64 lsn]` durably applied.
    pub const ACK: u8 = 4;
    /// Bootstrap: `[u32 len][name][bytes]` — one vault-side file.
    pub const VAULT_FILE: u8 = 5;
    /// Bootstrap end: `[u64 last_lsn][u64 epoch]`.
    pub const SNAP_END: u8 = 6;
    /// Bootstrap: the WAL file, verbatim.
    pub const WAL_FILE: u8 = 7;
}

/// Replication frames carry whole snapshots and vault files, so their
/// size cap is far above the request cap.
pub const REPL_MAX_FRAME: usize = 256 << 20;

/// One decoded stream record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamRecord {
    /// The snapshot file (bootstrap).
    Snapshot(Vec<u8>),
    /// The WAL file (bootstrap).
    WalFile(Vec<u8>),
    /// One vault-side file (bootstrap): `(relative name, bytes)`.
    VaultFile(String, Vec<u8>),
    /// End of bootstrap: the shipped state's last LSN and epoch.
    SnapEnd {
        /// Highest LSN present in the shipped WAL file.
        last_lsn: u64,
        /// The primary's replication epoch.
        epoch: u64,
    },
    /// A live WAL frame: the framed record bytes, ready to append.
    Wal {
        /// Shipper's epoch at flush time.
        epoch: u64,
        /// The framed record (`[u32 len][body][digest]`).
        framed: Vec<u8>,
    },
    /// A live vault-side mutation.
    Vault {
        /// Shipper's epoch.
        epoch: u64,
        /// Append or wholesale replace.
        kind: ShipKind,
        /// Relative name (`global/...` or `user/...`).
        name: String,
        /// The raw (possibly sealed) bytes.
        bytes: Vec<u8>,
    },
    /// Keepalive.
    Heartbeat {
        /// Shipper's epoch.
        epoch: u64,
    },
    /// Follower acknowledgment of a durably applied LSN.
    Ack {
        /// Follower's epoch.
        epoch: u64,
        /// Highest LSN applied and fsynced.
        lsn: u64,
    },
}

impl StreamRecord {
    /// Encodes the record body (not yet wire-framed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BytesMut::new();
        match self {
            StreamRecord::Snapshot(bytes) => {
                w.put_u8(rec::SNAPSHOT);
                w.put_slice(bytes);
            }
            StreamRecord::WalFile(bytes) => {
                w.put_u8(rec::WAL_FILE);
                w.put_slice(bytes);
            }
            StreamRecord::VaultFile(name, bytes) => {
                w.put_u8(rec::VAULT_FILE);
                w.put_u32_le(name.len() as u32);
                w.put_slice(name.as_bytes());
                w.put_slice(bytes);
            }
            StreamRecord::SnapEnd { last_lsn, epoch } => {
                w.put_u8(rec::SNAP_END);
                w.put_u64_le(*last_lsn);
                w.put_u64_le(*epoch);
            }
            StreamRecord::Wal { epoch, framed } => {
                w.put_u8(rec::WAL);
                w.put_u64_le(*epoch);
                w.put_slice(framed);
            }
            StreamRecord::Vault {
                epoch,
                kind,
                name,
                bytes,
            } => {
                w.put_u8(rec::VAULT);
                w.put_u64_le(*epoch);
                w.put_u8(match kind {
                    ShipKind::Append => 0,
                    ShipKind::Replace => 1,
                });
                w.put_u32_le(name.len() as u32);
                w.put_slice(name.as_bytes());
                w.put_slice(bytes);
            }
            StreamRecord::Heartbeat { epoch } => {
                w.put_u8(rec::HEARTBEAT);
                w.put_u64_le(*epoch);
            }
            StreamRecord::Ack { epoch, lsn } => {
                w.put_u8(rec::ACK);
                w.put_u64_le(*epoch);
                w.put_u64_le(*lsn);
            }
        }
        w.to_vec()
    }

    /// Decodes a record body. Every malformed shape is a clean error —
    /// a hostile peer gets disconnected, not a panic.
    pub fn decode(body: &[u8]) -> Result<StreamRecord, String> {
        if body.is_empty() {
            return Err("empty stream record".to_string());
        }
        let tag = body[0];
        let mut r = Bytes::copy_from_slice(&body[1..]);
        let need = |r: &Bytes, n: usize| -> Result<(), String> {
            if r.remaining() < n {
                Err(format!("stream record {tag} truncated"))
            } else {
                Ok(())
            }
        };
        match tag {
            rec::SNAPSHOT => Ok(StreamRecord::Snapshot(body[1..].to_vec())),
            rec::WAL_FILE => Ok(StreamRecord::WalFile(body[1..].to_vec())),
            rec::VAULT_FILE => {
                need(&r, 4)?;
                let len = r.get_u32_le() as usize;
                need(&r, len)?;
                let rest = &body[1 + 4..];
                let name = std::str::from_utf8(&rest[..len])
                    .map_err(|_| "vault file name is not UTF-8".to_string())?
                    .to_string();
                Ok(StreamRecord::VaultFile(name, rest[len..].to_vec()))
            }
            rec::SNAP_END => {
                need(&r, 16)?;
                Ok(StreamRecord::SnapEnd {
                    last_lsn: r.get_u64_le(),
                    epoch: r.get_u64_le(),
                })
            }
            rec::WAL => {
                need(&r, 8)?;
                let epoch = r.get_u64_le();
                Ok(StreamRecord::Wal {
                    epoch,
                    framed: body[1 + 8..].to_vec(),
                })
            }
            rec::VAULT => {
                need(&r, 8 + 1 + 4)?;
                let epoch = r.get_u64_le();
                let kind = match r.get_u8() {
                    0 => ShipKind::Append,
                    1 => ShipKind::Replace,
                    k => return Err(format!("unknown vault mutation kind {k}")),
                };
                let len = r.get_u32_le() as usize;
                need(&r, len)?;
                let rest = &body[1 + 8 + 1 + 4..];
                let name = std::str::from_utf8(&rest[..len])
                    .map_err(|_| "vault mutation name is not UTF-8".to_string())?
                    .to_string();
                Ok(StreamRecord::Vault {
                    epoch,
                    kind,
                    name,
                    bytes: rest[len..].to_vec(),
                })
            }
            rec::HEARTBEAT => {
                need(&r, 8)?;
                Ok(StreamRecord::Heartbeat {
                    epoch: r.get_u64_le(),
                })
            }
            rec::ACK => {
                need(&r, 16)?;
                Ok(StreamRecord::Ack {
                    epoch: r.get_u64_le(),
                    lsn: r.get_u64_le(),
                })
            }
            other => Err(format!("unknown stream record tag {other}")),
        }
    }

    /// Encodes and wire-frames the record in one go.
    pub fn to_frame(&self) -> Vec<u8> {
        edna_util::frame::encode_record(&self.encode())
    }
}

/// One connected follower, as the primary sees it.
pub struct Follower {
    /// Peer address, for `repl status`.
    pub peer: String,
    queue: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
    acked: AtomicU64,
    alive: AtomicBool,
    /// Counted toward the `--sync-replicas` quorum. Starts true;
    /// cleared when the follower stalls past the gate timeout.
    sync: AtomicBool,
}

impl Follower {
    fn new(peer: String) -> Follower {
        Follower {
            peer,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            acked: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            sync: AtomicBool::new(true),
        }
    }

    /// Highest LSN this follower has durably applied.
    pub fn acked_lsn(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Whether the stream is still up.
    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether this follower still counts toward the sync quorum.
    pub fn is_sync(&self) -> bool {
        self.sync.load(Ordering::SeqCst)
    }

    fn push(&self, framed: Vec<u8>, cap: usize) -> bool {
        let mut q = lock_unpoisoned(&self.queue);
        if q.len() >= cap {
            return false;
        }
        q.push_back(framed);
        drop(q);
        self.ready.notify_all();
        true
    }

    fn drop_stream(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.sync.store(false, Ordering::SeqCst);
        lock_unpoisoned(&self.queue).clear();
        self.ready.notify_all();
    }
}

/// Per-follower status row for `repl status`.
#[derive(Debug, Clone)]
pub struct FollowerStatus {
    /// Peer address.
    pub peer: String,
    /// Highest acknowledged LSN.
    pub acked_lsn: u64,
    /// Shipped-but-unacknowledged LSN distance.
    pub lag: u64,
    /// Counted toward the sync quorum.
    pub sync: bool,
    /// Stream still connected.
    pub alive: bool,
}

/// The primary-side replication hub: fan-out queues, the sync-commit
/// gate, and the replication metrics.
pub struct ReplHub {
    epoch: AtomicU64,
    sync_target: usize,
    gate_timeout: Duration,
    queue_cap: usize,
    followers: Mutex<Vec<Arc<Follower>>>,
    ack_lock: Mutex<()>,
    ack_cond: Condvar,
    last_lsn: AtomicU64,
    lag_gauge: Arc<Gauge>,
    ack_us: Arc<Histogram>,
    frames_shipped_total: Arc<Counter>,
    followers_dropped_total: Arc<Counter>,
    sync_demotions_total: Arc<Counter>,
    gate_degraded_total: Arc<Counter>,
}

impl ReplHub {
    /// Builds the hub for `ws`'s server, registering the replication
    /// metrics in the workspace registry. `sync_target` is the
    /// `--sync-replicas` quorum (0 = fully asynchronous).
    pub fn new(ws: &Workspace, sync_target: usize, gate_timeout: Duration) -> Arc<ReplHub> {
        let m = ws.db.metrics();
        let epoch = ws.epoch();
        // The epoch only moves via `edna promote` (a separate process on
        // a closed workspace), so setting the gauge once at hub build is
        // exact for the server's whole lifetime.
        m.gauge(
            "edna_replication_epoch",
            "Replication epoch of this node (bumped by `edna promote`)",
        )
        .set(epoch as i64);
        let hub = ReplHub {
            epoch: AtomicU64::new(epoch),
            sync_target,
            gate_timeout,
            queue_cap: 4096,
            followers: Mutex::new(Vec::new()),
            ack_lock: Mutex::new(()),
            ack_cond: Condvar::new(),
            last_lsn: AtomicU64::new(ws.db.wal_last_lsn()),
            lag_gauge: m.gauge(
                "edna_replica_lag_frames",
                "Largest shipped-but-unacknowledged LSN distance across connected followers",
            ),
            ack_us: m.histogram(
                "edna_repl_ack_us",
                "Group-commit gate wait for the sync-replica quorum",
                &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            ),
            frames_shipped_total: m.counter(
                "edna_repl_frames_shipped_total",
                "WAL frames offered to the replication stream",
            ),
            followers_dropped_total: m.counter(
                "edna_repl_followers_dropped_total",
                "Followers dropped for send-queue overflow or stream errors",
            ),
            sync_demotions_total: m.counter(
                "edna_repl_sync_demotions_total",
                "Sync followers demoted to async for stalling past the gate timeout",
            ),
            gate_degraded_total: m.counter(
                "edna_repl_gate_degraded_total",
                "Commit batches released without the full sync-replica quorum",
            ),
        };
        Arc::new(hub)
    }

    /// This node's replication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The configured sync-replica quorum.
    pub fn sync_target(&self) -> usize {
        self.sync_target
    }

    /// Registers a follower slot. Must be called inside the bootstrap
    /// handshake's engine transaction, so no commit can slip between the
    /// shipped snapshot and the live tail.
    pub fn register(&self, peer: String) -> Arc<Follower> {
        let f = Arc::new(Follower::new(peer));
        lock_unpoisoned(&self.followers).push(f.clone());
        f
    }

    /// Drops a follower from the fan-out (stream error, drain, or queue
    /// overflow) and wakes any gate waiting on it.
    pub fn drop_follower(&self, f: &Arc<Follower>) {
        if f.alive() {
            self.followers_dropped_total.inc();
        }
        f.drop_stream();
        lock_unpoisoned(&self.followers).retain(|g| !Arc::ptr_eq(g, f));
        let _g = lock_unpoisoned(&self.ack_lock);
        self.ack_cond.notify_all();
        self.update_lag();
    }

    /// The WAL frame sink: called by the group-commit leader after the
    /// batch fsync, before waiters are released. Enqueue-only.
    pub fn offer_wal(&self, lsn: u64, epoch: u64, framed: &[u8]) {
        self.last_lsn.store(lsn, Ordering::SeqCst);
        self.frames_shipped_total.inc();
        let record = StreamRecord::Wal {
            epoch,
            framed: framed.to_vec(),
        }
        .to_frame();
        self.fan_out(record);
        self.update_lag();
    }

    /// The vault ship hook: a durable vault-side file mutation. Called
    /// on the mutating thread, inside the store's lock. Enqueue-only.
    pub fn offer_vault(&self, kind: ShipKind, name: &str, bytes: &[u8]) {
        let record = StreamRecord::Vault {
            epoch: self.epoch(),
            kind,
            name: name.to_string(),
            bytes: bytes.to_vec(),
        }
        .to_frame();
        self.fan_out(record);
    }

    fn fan_out(&self, framed: Vec<u8>) {
        let followers: Vec<Arc<Follower>> = lock_unpoisoned(&self.followers).clone();
        for f in followers {
            if !f.alive() {
                continue;
            }
            if !f.push(framed.clone(), self.queue_cap) {
                // A bounded queue that overflows means the follower
                // cannot keep up; dropping it (to re-bootstrap later)
                // is the degradation that never blocks this thread.
                eprintln!(
                    "edna serve: follower {} send queue overflow; dropping to async",
                    f.peer
                );
                self.drop_follower(&f);
            }
        }
    }

    /// The group-commit gate: holds the calling (leader) thread until
    /// `sync_target` followers acknowledged `lsn`, the timeout demotes
    /// the stragglers, or too few sync followers are connected to ever
    /// reach quorum (degrade to async immediately).
    pub fn gate(&self, lsn: u64) {
        if self.sync_target == 0 {
            return;
        }
        let start = Instant::now();
        let deadline = start + self.gate_timeout;
        let mut guard = lock_unpoisoned(&self.ack_lock);
        loop {
            let followers: Vec<Arc<Follower>> = lock_unpoisoned(&self.followers).clone();
            let candidates = followers
                .iter()
                .filter(|f| f.alive() && f.is_sync())
                .count();
            let acked = followers
                .iter()
                .filter(|f| f.alive() && f.is_sync() && f.acked_lsn() >= lsn)
                .count();
            if acked >= self.sync_target {
                self.ack_us.observe(start.elapsed());
                return;
            }
            if candidates < self.sync_target {
                // Not enough sync followers to ever reach quorum:
                // degrade to async rather than wedge every commit.
                self.gate_degraded_total.inc();
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                // Demote the stragglers so subsequent commits do not
                // pay the timeout again; they rejoin the quorum only by
                // reconnecting.
                for f in followers
                    .iter()
                    .filter(|f| f.alive() && f.is_sync() && f.acked_lsn() < lsn)
                {
                    f.sync.store(false, Ordering::SeqCst);
                    self.sync_demotions_total.inc();
                    eprintln!(
                        "edna serve: sync follower {} stalled past {:?}; demoted to async",
                        f.peer, self.gate_timeout
                    );
                }
                self.gate_degraded_total.inc();
                return;
            }
            let (g, _) = self
                .ack_cond
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
    }

    /// Records a follower acknowledgment and wakes gate waiters.
    pub fn note_ack(&self, f: &Follower, lsn: u64) {
        f.acked.fetch_max(lsn, Ordering::SeqCst);
        let _g = lock_unpoisoned(&self.ack_lock);
        self.ack_cond.notify_all();
        self.update_lag();
    }

    fn update_lag(&self) {
        let last = self.last_lsn.load(Ordering::SeqCst);
        let lag = lock_unpoisoned(&self.followers)
            .iter()
            .filter(|f| f.alive())
            .map(|f| last.saturating_sub(f.acked_lsn()))
            .max()
            .unwrap_or(0);
        self.lag_gauge.set(lag as i64);
    }

    /// Status rows for `repl status`.
    pub fn follower_status(&self) -> Vec<FollowerStatus> {
        let last = self.last_lsn.load(Ordering::SeqCst);
        lock_unpoisoned(&self.followers)
            .iter()
            .map(|f| FollowerStatus {
                peer: f.peer.clone(),
                acked_lsn: f.acked_lsn(),
                lag: last.saturating_sub(f.acked_lsn()),
                sync: f.is_sync(),
                alive: f.alive(),
            })
            .collect()
    }

    /// Highest LSN offered to the stream.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::SeqCst)
    }
}

/// Installs the hub's WAL taps on a primary workspace: the frame sink
/// and the group-commit gate. The vault tap follows with the first
/// follower (see [`tap_vault`]).
pub fn install(hub: &Arc<ReplHub>, ws: &Workspace) {
    if let Some(wal) = ws.db.wal() {
        let sink = hub.clone();
        wal.set_frame_sink(Some(Arc::new(move |lsn, epoch, framed: &[u8]| {
            sink.offer_wal(lsn, epoch, framed);
        })));
        let gate = hub.clone();
        wal.set_commit_gate(Some(Arc::new(move |lsn| gate.gate(lsn))));
    }
}

/// Installs the hub's vault ship hook. A bootstrap calls this inside its
/// freeze, before it registers its follower, so no vault mutation falls
/// between the copied files and the hook. Until a follower exists no one
/// needs the vault's bytes, and a compaction need not read the whole log
/// back to ship it.
pub fn tap_vault(hub: &Arc<ReplHub>, ws: &Workspace) {
    let vault = hub.clone();
    ws.set_vault_ship_hook(Some(Arc::new(move |kind, name, bytes: &[u8]| {
        vault.offer_vault(kind, name, bytes);
    })));
}

/// The sender loop the primary worker thread runs after a successful
/// handshake: drains the follower's queue onto the socket, heartbeating
/// when idle, until the stream breaks, the follower is dropped, or
/// `draining()` turns true.
pub fn sender_loop(
    hub: &Arc<ReplHub>,
    follower: &Arc<Follower>,
    stream: &mut TcpStream,
    draining: impl Fn() -> bool,
) {
    let heartbeat = StreamRecord::Heartbeat { epoch: hub.epoch() }.to_frame();
    loop {
        if !follower.alive() || draining() {
            break;
        }
        let frame = {
            let mut q = lock_unpoisoned(&follower.queue);
            loop {
                if let Some(frame) = q.pop_front() {
                    break Some(frame);
                }
                if !follower.alive() || draining() {
                    break None;
                }
                let (g, timeout) = follower
                    .ready
                    .wait_timeout(q, Duration::from_millis(500))
                    .unwrap_or_else(|p| p.into_inner());
                q = g;
                if timeout.timed_out() {
                    break None; // fall through to heartbeat
                }
            }
        };
        let framed = match frame {
            Some(f) => f,
            None => {
                if !follower.alive() || draining() {
                    break;
                }
                if wire::write_frame(stream, &heartbeat).is_err() {
                    break;
                }
                continue;
            }
        };
        if wire::write_frame(stream, &framed).is_err() {
            break;
        }
    }
    hub.drop_follower(follower);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The acknowledgment reader: runs on its own thread over a clone of
/// the stream, feeding ACKs into the gate. Hostile input — torn frames,
/// oversize lengths, checksum mismatches, garbage records, stale
/// epochs — drops the follower; nothing here can wedge the sender or
/// the commit path, which only ever *waits with a timeout* on acks.
pub fn ack_reader_loop(hub: Arc<ReplHub>, follower: Arc<Follower>, mut stream: TcpStream) {
    loop {
        if !follower.alive() {
            break;
        }
        let outcome = wire::read_frame(
            &mut stream,
            1 << 16, // acks are tiny; anything bigger is hostile
            Duration::from_millis(500),
            Duration::from_secs(5),
        );
        let body = match outcome {
            Ok(wire::ReadOutcome::Frame(body)) => body,
            Ok(wire::ReadOutcome::IdleTimeout) => continue,
            Ok(wire::ReadOutcome::Eof) | Err(_) => break,
        };
        match StreamRecord::decode(&body) {
            Ok(StreamRecord::Ack { epoch, lsn }) => {
                if epoch < hub.epoch() {
                    eprintln!(
                        "edna serve: follower {} acked with stale epoch {epoch}; dropping",
                        follower.peer
                    );
                    break;
                }
                hub.note_ack(&follower, lsn);
            }
            Ok(_) | Err(_) => {
                eprintln!(
                    "edna serve: follower {} sent a malformed ack; dropping",
                    follower.peer
                );
                break;
            }
        }
    }
    hub.drop_follower(&follower);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_records_round_trip() {
        for record in [
            StreamRecord::Snapshot(vec![1, 2, 3]),
            StreamRecord::WalFile(vec![9; 64]),
            StreamRecord::VaultFile("global/a.bin".to_string(), vec![7; 9]),
            StreamRecord::SnapEnd {
                last_lsn: 42,
                epoch: 3,
            },
            StreamRecord::Wal {
                epoch: 1,
                framed: vec![0xAB; 17],
            },
            StreamRecord::Vault {
                epoch: 2,
                kind: ShipKind::Append,
                name: "global/g.bin".to_string(),
                bytes: vec![5; 5],
            },
            StreamRecord::Vault {
                epoch: 2,
                kind: ShipKind::Replace,
                name: "user/u.bin".to_string(),
                bytes: Vec::new(),
            },
            StreamRecord::Heartbeat { epoch: 7 },
            StreamRecord::Ack { epoch: 7, lsn: 99 },
        ] {
            let decoded = StreamRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn hostile_record_bodies_are_clean_errors() {
        assert!(StreamRecord::decode(&[]).is_err());
        assert!(StreamRecord::decode(&[200]).is_err(), "unknown tag");
        assert!(
            StreamRecord::decode(&[rec::ACK, 1, 2, 3]).is_err(),
            "truncated ack"
        );
        assert!(
            StreamRecord::decode(&[rec::SNAP_END, 0]).is_err(),
            "truncated snap end"
        );
        // A vault record whose declared name length overruns the body.
        let mut w = BytesMut::new();
        w.put_u8(rec::VAULT);
        w.put_u64_le(0);
        w.put_u8(0);
        w.put_u32_le(1 << 30);
        assert!(StreamRecord::decode(w.as_ref()).is_err());
        // Bad vault kind byte.
        let mut w = BytesMut::new();
        w.put_u8(rec::VAULT);
        w.put_u64_le(0);
        w.put_u8(9);
        w.put_u32_le(0);
        assert!(StreamRecord::decode(w.as_ref()).is_err());
        // Non-UTF-8 name.
        let mut w = BytesMut::new();
        w.put_u8(rec::VAULT_FILE);
        w.put_u32_le(2);
        w.put_slice(&[0xFF, 0xFE]);
        assert!(StreamRecord::decode(w.as_ref()).is_err());
    }
}
