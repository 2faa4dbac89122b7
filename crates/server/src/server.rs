//! The threaded TCP server: bounded pool, admission control, drain.
//!
//! Shape:
//!
//! ```text
//! acceptor ──try_send──▶ admission queue (bounded) ──▶ N workers
//!    │ full?                                             │
//!    └── err busy + close                                └── frame loop
//! ```
//!
//! - The **acceptor** never blocks on a client: a full admission queue
//!   answers `err busy` immediately and closes — explicit backpressure
//!   instead of an unbounded thread-per-connection pile-up.
//! - **Workers** own a connection until EOF, idle timeout, a framing
//!   violation, or drain. Well-formed-but-wrong requests (bad op, bad
//!   SQL) get an error response and the connection lives on; framing
//!   violations (checksum, truncation, oversize, deadline) get a final
//!   structured error and the connection is closed, because nothing
//!   after a corrupt frame can be trusted.
//! - **Graceful drain**: the `shutdown` op stops the acceptor, lets
//!   in-flight requests finish, joins every worker, then checkpoints
//!   the workspace so the WAL is folded into the snapshot. Drain is an
//!   operator action, not a tenant one: the wire op must present the
//!   operator token minted at startup ([`ServerHandle::shutdown_token`],
//!   printed by `edna serve`), or any client could stop the server for
//!   everyone. A SIGKILL at any instant is still safe — not because of
//!   anything here, but because every committed statement was already
//!   fsynced to the WAL (see `edna recover`).
//! - A **background checkpointer** (optional) periodically snapshots to
//!   bound WAL growth during long serving runs.
//! - A **decay daemon** (optional) ticks registered expiration/decay
//!   policies on a wall clock; each disguise a tick applies is one engine
//!   transaction, like a foreground apply, so foreground work never sees
//!   one half done.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use edna_util::hex;
use edna_util::sha256::sha256;
use edna_util::sync::lock_unpoisoned;

use crate::caps;
use crate::proto::{code, Request, Response};
use crate::service::Service;
use crate::wire;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker pool size = connections served concurrently.
    pub max_conns: usize,
    /// Admission queue depth beyond the in-service connections; a
    /// connection arriving past this gets `err busy`.
    pub queue_depth: usize,
    /// Idle timeout *and* per-frame arrival budget.
    pub conn_timeout: Duration,
    /// Largest accepted frame body.
    pub max_frame_bytes: usize,
    /// Checkpoint the workspace this often while serving (bounds WAL
    /// growth); `None` disables background checkpointing.
    pub checkpoint_every: Option<Duration>,
    /// Drive registered expiration/decay policies this often via the
    /// decay daemon; `None` disables background policy runs.
    pub policy_tick: Option<Duration>,
    /// Row budget per policy tick: a tick transforms at most roughly
    /// this many rows, then yields to foreground traffic and resumes
    /// where it left off on the next tick.
    pub decay_rows: usize,
    /// `--sync-replicas N`: hold each group-commit batch's waiters until
    /// `N` followers acknowledged the batch. 0 = fully asynchronous.
    pub sync_replicas: usize,
    /// How long the commit gate waits for the sync quorum before
    /// demoting stragglers to async and releasing the batch.
    pub repl_gate_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 8,
            queue_depth: 8,
            conn_timeout: Duration::from_secs(10),
            max_frame_bytes: 1 << 20,
            checkpoint_every: Some(Duration::from_secs(30)),
            policy_tick: Some(Duration::from_secs(1)),
            decay_rows: 512,
            sync_replicas: 0,
            repl_gate_timeout: Duration::from_secs(2),
        }
    }
}

/// Shutdown coordination shared by the acceptor, workers, and handle.
/// The wire `shutdown` op is authenticated against `token_hash`: only a
/// caller holding the operator token minted at startup may drain the
/// server, so one tenant cannot deny service to the rest.
struct ShutdownCtl {
    flag: AtomicBool,
    addr: SocketAddr,
    token_hash: [u8; 32],
}

impl ShutdownCtl {
    /// Constant-size comparison: both sides are hashed before the
    /// equality check, so the compare never walks a secret prefix.
    fn token_matches(&self, presented: &str) -> bool {
        sha256(presented.trim().as_bytes()) == self.token_hash
    }
}

/// A running server. Dropping the handle does not stop the server; call
/// [`ServerHandle::stop`] (or send the `shutdown` op with the operator
/// token) and then [`ServerHandle::wait`].
pub struct ServerHandle {
    svc: Arc<Service>,
    ctl: Arc<ShutdownCtl>,
    token: String,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.ctl.addr
    }

    /// The operator token the wire `shutdown` op must present (`token`
    /// header). Minted fresh per server start; `edna serve` prints it to
    /// stdout for the supervisor.
    pub fn shutdown_token(&self) -> &str {
        &self.token
    }

    /// Begins a drain from inside the process, as the authenticated
    /// `shutdown` op does from the wire.
    pub fn stop(&self) {
        trigger_shutdown(&self.svc, &self.ctl);
    }

    /// Waits for the drain to complete (workers joined, workspace
    /// checkpointed).
    pub fn wait(self) -> std::thread::Result<()> {
        self.thread.join()
    }

    /// [`ServerHandle::stop`] + [`ServerHandle::wait`].
    pub fn stop_and_wait(self) -> std::thread::Result<()> {
        self.stop();
        self.wait()
    }
}

fn trigger_shutdown(svc: &Service, ctl: &ShutdownCtl) {
    svc.begin_drain();
    ctl.flag.store(true, Ordering::SeqCst);
    // Wake the acceptor out of its blocking accept; the connection is
    // dropped on arrival.
    let _ = TcpStream::connect_timeout(&ctl.addr, Duration::from_secs(1));
}

/// Binds and serves in background threads, returning a handle.
pub fn start(svc: Arc<Service>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Every non-replica server is follower-capable: attach the hub and
    // tap the WAL so `repl stream` handshakes have a live feed (the vault
    // tap goes in with the first follower). A replica (attached before
    // `start`) accepts no followers.
    if !svc.is_replica() && svc.hub().is_none() {
        let hub = crate::repl::ReplHub::new(
            svc.workspace(),
            config.sync_replicas,
            config.repl_gate_timeout,
        );
        crate::repl::install(&hub, svc.workspace());
        svc.attach_primary(hub);
    }
    let token = hex::to_hex(&caps::mint().map_err(std::io::Error::other)?);
    let ctl = Arc::new(ShutdownCtl {
        flag: AtomicBool::new(false),
        addr,
        token_hash: sha256(token.as_bytes()),
    });
    let thread = {
        let svc = svc.clone();
        let ctl = ctl.clone();
        std::thread::Builder::new()
            .name("edna-acceptor".to_string())
            .spawn(move || run(listener, svc, config, ctl))?
    };
    Ok(ServerHandle {
        svc,
        ctl,
        token,
        thread,
    })
}

fn run(listener: TcpListener, svc: Arc<Service>, config: ServerConfig, ctl: Arc<ShutdownCtl>) {
    let metrics = svc.workspace().db.metrics();
    let connections_total = metrics.counter(
        "edna_server_connections_total",
        "Connections admitted to the worker pool",
    );
    let busy_total = metrics.counter(
        "edna_server_busy_rejections_total",
        "Connections refused with `err busy` by admission control",
    );
    let frame_errors_total = metrics.counter(
        "edna_server_frame_errors_total",
        "Connections closed for framing violations",
    );
    let timeouts_total = metrics.counter(
        "edna_server_timeouts_total",
        "Connections closed for missing a frame deadline",
    );

    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::new();
    for i in 0..config.max_conns.max(1) {
        let rx = rx.clone();
        let svc = svc.clone();
        let config = config.clone();
        let ctl = ctl.clone();
        let frame_errors_total = frame_errors_total.clone();
        let timeouts_total = timeouts_total.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("edna-worker-{i}"))
                .spawn(move || {
                    worker_loop(
                        &rx,
                        &svc,
                        &config,
                        &ctl,
                        &frame_errors_total,
                        &timeouts_total,
                    )
                })
                .expect("spawn worker"),
        );
    }

    // Optional background checkpointer, bounding WAL growth.
    let checkpointer = config.checkpoint_every.map(|every| {
        let svc = svc.clone();
        let ctl = ctl.clone();
        std::thread::Builder::new()
            .name("edna-checkpointer".to_string())
            .spawn(move || {
                let tick = Duration::from_millis(50);
                'outer: loop {
                    let mut waited = Duration::ZERO;
                    while waited < every {
                        if ctl.flag.load(Ordering::SeqCst) {
                            break 'outer;
                        }
                        std::thread::sleep(tick);
                        waited += tick;
                    }
                    if ctl.flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Err(e) = svc.checkpoint() {
                        eprintln!("edna serve: background checkpoint failed: {e}");
                    }
                }
            })
            .expect("spawn checkpointer")
    });

    // The decay daemon: drives registered policies on a wall clock while
    // the server runs. Each wakeup computes a logical `now` anchored at
    // the durable clock observed at startup plus real elapsed seconds —
    // monotonic across ticks, and never behind what a restarted server
    // already persisted. Each disguise the tick applies runs in its own
    // engine transaction (inside `Service::policy_tick_at`), so foreground
    // statements, applies, reveals and checkpoints wait for it and never
    // see it half done.
    let decayer = config
        .policy_tick
        .filter(|_| svc.has_policies() && !svc.is_replica())
        .map(|every| {
            let svc = svc.clone();
            let ctl = ctl.clone();
            let budget = config.decay_rows.max(1);
            std::thread::Builder::new()
                .name("edna-decay".to_string())
                .spawn(move || {
                    let base = svc.workspace().db.global_now();
                    let started = std::time::Instant::now();
                    let tick = Duration::from_millis(50).min(every);
                    'outer: loop {
                        let mut waited = Duration::ZERO;
                        while waited < every {
                            if ctl.flag.load(Ordering::SeqCst) {
                                break 'outer;
                            }
                            std::thread::sleep(tick);
                            waited += tick;
                        }
                        if ctl.flag.load(Ordering::SeqCst) {
                            break;
                        }
                        let now = base + started.elapsed().as_secs() as i64;
                        if let Err(e) = svc.policy_tick_at(now, Some(budget)) {
                            eprintln!("edna serve: policy tick failed: {e}");
                        }
                    }
                })
                .expect("spawn decay daemon")
        });

    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if ctl.flag.load(Ordering::SeqCst) {
                    // Either the wake connection or a late client; if it
                    // speaks, it finds out we are draining.
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = wire::write_frame(
                        &mut stream,
                        &Response::err(code::SHUTTING_DOWN, "server is draining").encode(),
                    );
                    break;
                }
                match tx.try_send(stream) {
                    Ok(()) => connections_total.inc(),
                    Err(TrySendError::Full(mut stream)) => {
                        busy_total.inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let _ = wire::write_frame(
                            &mut stream,
                            &Response::err(
                                code::BUSY,
                                "admission queue is full; retry with backoff",
                            )
                            .encode(),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) => {
                if ctl.flag.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }

    // Drain: close the queue, let workers finish their connections.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    if let Some(c) = checkpointer {
        let _ = c.join();
    }
    if let Some(d) = decayer {
        let _ = d.join();
    }
    // Final checkpoint: fold the WAL into the snapshot so a clean
    // shutdown leaves a clean state.
    if let Err(e) = svc.checkpoint() {
        eprintln!("edna serve: shutdown checkpoint failed: {e}");
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    svc: &Arc<Service>,
    config: &ServerConfig,
    ctl: &Arc<ShutdownCtl>,
    frame_errors_total: &edna_obs::Counter,
    timeouts_total: &edna_obs::Counter,
) {
    loop {
        let stream = {
            let guard = lock_unpoisoned(rx);
            match guard.recv() {
                Ok(s) => s,
                Err(_) => break, // acceptor dropped the sender: drain.
            }
        };
        serve_connection(stream, svc, config, ctl, frame_errors_total, timeouts_total);
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    wire::write_frame(stream, &resp.encode()).is_ok()
}

/// Every vault-side file of `state`, as `(relative name, bytes)` pairs
/// in the stream's naming scheme: `global/vault.log` and `user/vault.log`,
/// each present once its tier holds an entry.
fn vault_bootstrap_files(state: &std::path::Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let root = edna_core::workspace::sidecar(state, ".vault");
    let mut out = Vec::new();
    for tier in ["global", "user"] {
        let Ok(entries) = std::fs::read_dir(root.join(tier)) else {
            continue;
        };
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((format!("{tier}/{name}"), std::fs::read(entry.path())?));
        }
    }
    Ok(out)
}

/// Handles a `repl stream` handshake: fences by epoch, ships a bootstrap
/// (checkpoint + state files, copied and registered inside one engine
/// transaction so no commit or vault write slips between snapshot and
/// live tail), then runs the sender loop on this worker thread until the
/// stream dies.
fn repl_stream_connection(mut stream: TcpStream, svc: &Arc<Service>, req: &Request) {
    use crate::repl::{self, StreamRecord};

    let Some(hub) = svc.hub() else {
        send(
            &mut stream,
            &Response::err(code::USAGE, "this node does not accept followers"),
        );
        return;
    };
    let follower_epoch: u64 = match req.header_value("epoch").unwrap_or("0").trim().parse() {
        Ok(e) => e,
        Err(_) => {
            send(
                &mut stream,
                &Response::err(code::USAGE, "bad `epoch` header on repl stream"),
            );
            return;
        }
    };
    if follower_epoch > hub.epoch() {
        // The would-be follower has lived through a promotion this node
        // never saw: this node is the deposed primary. Feeding the
        // promoted one would rewind acknowledged history.
        send(
            &mut stream,
            &Response::err(
                code::STALE_EPOCH,
                format!(
                    "follower is at epoch {follower_epoch}, this node at {}; a deposed \
                     primary cannot feed a promoted node",
                    hub.epoch()
                ),
            ),
        );
        return;
    }
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    type Staged = (
        Vec<u8>,
        Vec<u8>,
        Vec<(String, Vec<u8>)>,
        u64,
        Arc<repl::Follower>,
    );
    let ws = svc.workspace();
    let fail = edna_core::Error::Workspace;
    let staged = ws.db.transaction(|_| -> edna_core::Result<Staged> {
        ws.save()
            .map_err(|e| fail(format!("bootstrap checkpoint failed: {e}")))?;
        let snapshot =
            std::fs::read(&ws.path).map_err(|e| fail(format!("cannot read snapshot: {e}")))?;
        let wal =
            std::fs::read(edna_core::workspace::sidecar(&ws.path, ".wal")).unwrap_or_default();
        let vault = vault_bootstrap_files(&ws.path)
            .map_err(|e| fail(format!("cannot read vault files: {e}")))?;
        let last_lsn = ws.db.wal_last_lsn();
        crate::repl::tap_vault(&hub, ws);
        let follower = hub.register(peer.clone());
        Ok((snapshot, wal, vault, last_lsn, follower))
    });
    let (snapshot, wal, vault, last_lsn, follower) = match staged {
        Ok(t) => t,
        Err(e) => {
            send(&mut stream, &Response::err(code::RUNTIME, e.to_string()));
            return;
        }
    };
    // Bootstrap ships whole files; give it a generous write budget.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
    let epoch = hub.epoch();
    let shipped = (|| -> std::io::Result<()> {
        wire::write_frame(
            &mut stream,
            &Response::ok("streaming\n")
                .header("epoch", epoch.to_string())
                .encode(),
        )?;
        wire::write_frame(&mut stream, &StreamRecord::Snapshot(snapshot).to_frame())?;
        wire::write_frame(&mut stream, &StreamRecord::WalFile(wal).to_frame())?;
        for (name, bytes) in vault {
            wire::write_frame(
                &mut stream,
                &StreamRecord::VaultFile(name, bytes).to_frame(),
            )?;
        }
        wire::write_frame(
            &mut stream,
            &StreamRecord::SnapEnd { last_lsn, epoch }.to_frame(),
        )
    })();
    if shipped.is_err() {
        hub.drop_follower(&follower);
        return;
    }
    eprintln!("edna serve: follower {peer} attached (epoch {epoch}, bootstrap lsn {last_lsn})");
    // Acks come back on a clone of the socket; the worker thread itself
    // becomes the sender until drain or stream death.
    match stream.try_clone() {
        Ok(ack_stream) => {
            let hub_for_acks = hub.clone();
            let follower_for_acks = follower.clone();
            let spawned = std::thread::Builder::new()
                .name("edna-repl-acks".to_string())
                .spawn(move || repl::ack_reader_loop(hub_for_acks, follower_for_acks, ack_stream));
            if spawned.is_err() {
                hub.drop_follower(&follower);
                return;
            }
        }
        Err(_) => {
            hub.drop_follower(&follower);
            return;
        }
    }
    let svc_drain = svc.clone();
    repl::sender_loop(&hub, &follower, &mut stream, move || svc_drain.draining());
    eprintln!("edna serve: follower {peer} detached");
}

fn serve_connection(
    mut stream: TcpStream,
    svc: &Arc<Service>,
    config: &ServerConfig,
    ctl: &Arc<ShutdownCtl>,
    frame_errors_total: &edna_obs::Counter,
    timeouts_total: &edna_obs::Counter,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(config.conn_timeout));
    loop {
        if svc.draining() {
            send(
                &mut stream,
                &Response::err(code::SHUTTING_DOWN, "server is draining"),
            );
            return;
        }
        let outcome = wire::read_frame(
            &mut stream,
            config.max_frame_bytes,
            config.conn_timeout,
            config.conn_timeout,
        );
        let body = match outcome {
            Ok(wire::ReadOutcome::Frame(body)) => body,
            Ok(wire::ReadOutcome::Eof) | Ok(wire::ReadOutcome::IdleTimeout) => return,
            Err(wire::WireError::TooLarge(n)) => {
                frame_errors_total.inc();
                send(
                    &mut stream,
                    &Response::err(
                        code::TOO_LARGE,
                        format!(
                            "frame of {n} bytes exceeds the {} byte limit",
                            config.max_frame_bytes
                        ),
                    ),
                );
                return;
            }
            Err(wire::WireError::DeadlineExpired) => {
                timeouts_total.inc();
                send(
                    &mut stream,
                    &Response::err(code::TIMEOUT, "frame did not arrive within the deadline"),
                );
                return;
            }
            Err(e @ (wire::WireError::Torn | wire::WireError::BadChecksum)) => {
                frame_errors_total.inc();
                send(&mut stream, &Response::err(code::FRAME, e.to_string()));
                return;
            }
            Err(wire::WireError::Io(_)) => return,
        };
        // From here on the frame is intact; request-level problems keep
        // the connection alive.
        let resp = match std::str::from_utf8(&body) {
            Err(_) => {
                frame_errors_total.inc();
                send(
                    &mut stream,
                    &Response::err(code::FRAME, "request body is not UTF-8"),
                );
                return;
            }
            Ok(text) => match Request::parse(text) {
                Err(e) => Response::err(code::USAGE, e),
                // A follower attaching: the connection stops speaking
                // request/response and becomes a replication stream; this
                // worker thread is the sender until the stream dies.
                Ok(req) if req.op == "repl" && req.arg.as_deref() == Some("stream") => {
                    repl_stream_connection(stream, svc, &req);
                    return;
                }
                Ok(req) if req.op == "shutdown" => {
                    // Draining stops the whole server, so it is operator
                    // business: the request must carry the token minted
                    // at startup, or any tenant could deny service to
                    // every other one.
                    let authorized = req
                        .header_value("token")
                        .is_some_and(|t| ctl.token_matches(t));
                    if authorized {
                        // Flip the drain flag before acknowledging, so by
                        // the time the caller sees `ok` no new work is
                        // accepted.
                        trigger_shutdown(svc, ctl);
                        send(&mut stream, &Response::ok("draining\n"));
                        return;
                    }
                    svc.note_denied();
                    Response::err(
                        code::DENIED,
                        "shutdown requires the operator token minted at server start \
                         (`token` header)",
                    )
                }
                // A frame that arrives after drain began is new work,
                // not in-flight work: refuse it and close.
                Ok(_) if svc.draining() => {
                    send(
                        &mut stream,
                        &Response::err(code::SHUTTING_DOWN, "server is draining"),
                    );
                    return;
                }
                Ok(req) => svc.handle(&req),
            },
        };
        if !send(&mut stream, &resp) {
            return;
        }
    }
}
