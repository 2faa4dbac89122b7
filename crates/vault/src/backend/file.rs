//! File-backed vault store: the offline-storage deployment model.
//!
//! Paper §4.2: "the records required to reverse account deletion might be
//! in offline storage". A store keeps one append-only log, [`LOG_FILE`],
//! under its root directory: a sequence of checksummed
//! `[len][body][sha256]` frames (see [`crate::wal`]), one record each:
//!
//! - a **put** holds one entry, tagged with its user key;
//! - a **remove** tombstone drops every earlier entry of one
//!   `(user, disguise_id)`;
//! - a **purge** tombstone drops every earlier entry expired at its `now`.
//!
//! An in-memory index maps each user to the offsets, disguise ids and
//! expiries of its live put records, so a put is one append to an
//! existing file and a read touches only the reader's own records. The
//! index is built by walking the frames through one reused buffer. Dead
//! records (removed or purged puts, and the tombstones themselves) stay in
//! the log until [`VaultStore::compact`] streams the live ones into a
//! fsynced temp file and renames it over the log; the workspace does this
//! at every checkpoint.
//!
//! Crash consistency: [`FileStore::open`] truncates a torn tail — the
//! partial record a crash mid-append leaves behind — back to the last
//! complete record, sweeps the temp file of an interrupted compaction,
//! and folds in, once, the per-user `vault_<hex>.bin` files earlier
//! versions wrote (a record already in the log is not appended again, so
//! a crash mid-migration is harmless). Appends are not fsynced: an OS
//! crash can lose the newest records, a process crash cannot.
//!
//! Every operation first compares the log's identity and length with what
//! the index covers, so a store sees records another handle appended and
//! re-indexes a log another handle replaced (a replica's mirror writes
//! behind its store).

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use edna_obs::Tracer;
use edna_util::buf::{Bytes, BytesMut};
use edna_util::sha256::{sha256, DIGEST_LEN};
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

use crate::entry::{EntryMeta, StoredEntry};
use crate::error::{Error, Result};
use crate::retry::RetryPolicy;
use crate::serialize::{read_bytes, read_string, write_bytes, write_string};
use crate::ship::{ShipKind, ShipSlot};
use crate::wal;

use super::{StoreStats, VaultStore};

/// The log's file name within a store's root directory.
pub const LOG_FILE: &str = "vault.log";

/// Record kinds: the first byte of every log record body.
const PUT: u8 = 0;
const REMOVE: u8 = 1;
const PURGE: u8 = 2;

/// Bytes a frame adds around its body.
const FRAME_OVERHEAD: u64 = 4 + DIGEST_LEN as u64;

/// One decoded log record, as the index applies it.
enum Record {
    Put {
        user: String,
        disguise_id: u64,
        expires_at: Option<i64>,
        /// Metadata plus payload bytes, as `storage_bytes` counts them.
        bytes: usize,
    },
    Remove {
        user: String,
        disguise_id: u64,
    },
    Purge {
        now: i64,
    },
}

impl Record {
    /// The put record for `entry` and its framed bytes.
    fn put(user: &str, entry: &StoredEntry) -> (Vec<u8>, Record) {
        let meta = entry.meta.encode();
        let mut body = BytesMut::new();
        body.put_u8(PUT);
        write_string(&mut body, user);
        write_bytes(&mut body, &meta);
        write_bytes(&mut body, &entry.payload);
        let record = Record::Put {
            user: user.to_string(),
            disguise_id: entry.meta.disguise_id,
            expires_at: entry.meta.expires_at,
            bytes: meta.len() + entry.payload.len(),
        };
        (wal::encode_record(body.as_ref()), record)
    }

    fn remove(user: &str, disguise_id: u64) -> (Vec<u8>, Record) {
        let mut body = BytesMut::new();
        body.put_u8(REMOVE);
        write_string(&mut body, user);
        body.put_u64_le(disguise_id);
        let record = Record::Remove {
            user: user.to_string(),
            disguise_id,
        };
        (wal::encode_record(body.as_ref()), record)
    }

    fn purge(now: i64) -> (Vec<u8>, Record) {
        let mut body = BytesMut::new();
        body.put_u8(PURGE);
        body.put_i64_le(now);
        (wal::encode_record(body.as_ref()), Record::Purge { now })
    }

    /// Decodes a record body, reading a put's payload length but not its
    /// payload.
    fn decode(body: &[u8]) -> Result<Record> {
        let mut buf = Bytes::copy_from_slice(body);
        match take_kind(&mut buf)? {
            PUT => {
                let user = read_string(&mut buf)?;
                let meta_bytes = read_bytes(&mut buf)?;
                let meta_len = meta_bytes.len();
                let meta = EntryMeta::decode(&mut Bytes::from(meta_bytes))?;
                if buf.remaining() < 4 {
                    return Err(Error::Codec("truncated vault log payload".to_string()));
                }
                let payload_len = buf.get_u32_le() as usize;
                if buf.remaining() < payload_len {
                    return Err(Error::Codec("truncated vault log payload".to_string()));
                }
                Ok(Record::Put {
                    user,
                    disguise_id: meta.disguise_id,
                    expires_at: meta.expires_at,
                    bytes: meta_len + payload_len,
                })
            }
            REMOVE => {
                let user = read_string(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(Error::Codec("truncated vault log tombstone".to_string()));
                }
                Ok(Record::Remove {
                    user,
                    disguise_id: buf.get_u64_le(),
                })
            }
            PURGE => {
                if buf.remaining() < 8 {
                    return Err(Error::Codec("truncated vault log tombstone".to_string()));
                }
                Ok(Record::Purge {
                    now: buf.get_i64_le(),
                })
            }
            kind => Err(Error::Codec(format!(
                "unknown vault log record kind {kind}"
            ))),
        }
    }
}

fn take_kind(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("empty vault log record".to_string()));
    }
    Ok(buf.get_u8())
}

/// The entry a put record body holds.
fn decode_put(body: &[u8]) -> Result<StoredEntry> {
    let mut buf = Bytes::copy_from_slice(body);
    if take_kind(&mut buf)? != PUT {
        return Err(Error::Codec(
            "vault log index points at a tombstone".to_string(),
        ));
    }
    read_string(&mut buf)?;
    decode_entry(&mut buf)
}

/// An entry as `[bytes meta][bytes payload]`: a put record's tail, and the
/// whole record body of the per-user files earlier versions wrote.
fn decode_entry(buf: &mut Bytes) -> Result<StoredEntry> {
    let meta = EntryMeta::decode(&mut Bytes::from(read_bytes(buf)?))?;
    let payload = read_bytes(buf)?;
    Ok(StoredEntry { meta, payload })
}

/// Where one live put record sits in the log.
#[derive(Debug, Clone, Copy)]
struct Live {
    offset: u64,
    /// The whole frame's length.
    len: u64,
    disguise_id: u64,
    expires_at: Option<i64>,
    bytes: usize,
}

impl Live {
    /// Whether a purge at `now` drops this record (see
    /// [`EntryMeta::is_expired`]).
    fn expired(&self, now: i64) -> bool {
        self.expires_at.is_some_and(|e| e <= now)
    }
}

/// The live records of the indexed prefix of the log.
#[derive(Default)]
struct Index {
    /// Records in the indexed prefix, live or dead.
    records: u64,
    /// Each user's live put records, in log order; no list is empty.
    users: BTreeMap<String, Vec<Live>>,
}

impl Index {
    fn add(&mut self, offset: u64, len: u64, body: &[u8]) -> Result<()> {
        self.apply(offset, len, Record::decode(body)?);
        Ok(())
    }

    fn apply(&mut self, offset: u64, len: u64, record: Record) {
        self.records += 1;
        match record {
            Record::Put {
                user,
                disguise_id,
                expires_at,
                bytes,
            } => self.users.entry(user).or_default().push(Live {
                offset,
                len,
                disguise_id,
                expires_at,
                bytes,
            }),
            Record::Remove { user, disguise_id } => {
                if let Some(list) = self.users.get_mut(&user) {
                    list.retain(|l| l.disguise_id != disguise_id);
                    if list.is_empty() {
                        self.users.remove(&user);
                    }
                }
            }
            Record::Purge { now } => self.users.retain(|_, list| {
                list.retain(|l| !l.expired(now));
                !list.is_empty()
            }),
        }
    }

    fn live(&self) -> impl Iterator<Item = &Live> {
        self.users.values().flatten()
    }
}

/// The log file as the store last indexed it.
#[derive(Default)]
struct Log {
    /// Read + append handle; `None` while no log exists.
    file: Option<File>,
    /// `(device, inode)` of `file`: another one at the path means the
    /// log was replaced behind the store.
    ident: Option<(u64, u64)>,
    /// Length of the indexed prefix, which ends at a record boundary.
    end: u64,
    /// The file's length when last seen. Past `end` lies a torn tail, or
    /// an append another handle has not finished.
    disk_len: u64,
    index: Index,
}

fn ident(meta: &fs::Metadata) -> (u64, u64) {
    (meta.dev(), meta.ino())
}

fn open_log(path: &Path, create: bool) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(create)
        .open(path)
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` at end of file.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Walks the complete, checksum-valid frames of `file` from `start` up to
/// `len`, handing each frame's offset, length and body to `visit` through
/// one reused buffer. Returns where the walk stopped: `len`, or the start
/// of the first incomplete or corrupt frame.
fn walk(
    file: &File,
    start: u64,
    len: u64,
    mut visit: impl FnMut(u64, u64, &[u8]) -> Result<()>,
) -> Result<u64> {
    let mut reader = BufReader::with_capacity(64 << 10, file);
    reader.seek(SeekFrom::Start(start))?;
    let mut offset = start;
    let mut head = [0u8; 4];
    let mut sum = [0u8; DIGEST_LEN];
    let mut body = Vec::new();
    while len.saturating_sub(offset) >= FRAME_OVERHEAD {
        if !fill(&mut reader, &mut head)? {
            break;
        }
        let frame = u32::from_le_bytes(head) as u64 + FRAME_OVERHEAD;
        if frame > len - offset {
            break;
        }
        body.resize((frame - FRAME_OVERHEAD) as usize, 0);
        if !fill(&mut reader, &mut body)? || !fill(&mut reader, &mut sum)? {
            break;
        }
        if sha256(&body) != sum {
            break;
        }
        visit(offset, frame, &body)?;
        offset += frame;
    }
    Ok(offset)
}

/// Fsyncs `dir` so a rename or removal in it is durable. Best-effort: not
/// every filesystem supports opening directories.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A vault store persisting every user's entries to one log file.
pub struct FileStore {
    root: PathBuf,
    path: PathBuf,
    log: Mutex<Log>,
    retry: RetryPolicy,
    retries: AtomicU64,
    recovered_records: AtomicU64,
    truncated_bytes: AtomicU64,
    tracer: RwLock<Option<Tracer>>,
    /// Replication tap: every durable append to or replacement of the
    /// log is emitted here (as raw file bytes — sealed payloads ship
    /// sealed).
    ship: ShipSlot,
}

impl FileStore {
    /// Opens (creating the directory if needed) a store rooted at `root`:
    /// sweeps temp files a crashed compaction left behind, indexes the
    /// log, truncates its torn tail, and folds in any per-user files an
    /// earlier version wrote.
    pub fn open(root: impl AsRef<Path>) -> Result<FileStore> {
        Self::open_with_retry(root, RetryPolicy::NONE)
    }

    /// Like [`FileStore::open`], with transient I/O errors retried per
    /// `retry`.
    pub fn open_with_retry(root: impl AsRef<Path>, retry: RetryPolicy) -> Result<FileStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let mut legacy = Vec::new();
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("tmp") => fs::remove_file(&path)?,
                Some("bin") => {
                    if let Some(user) = Self::legacy_user(&path) {
                        legacy.push((path, user));
                    }
                }
                _ => {}
            }
        }
        legacy.sort();
        let store = FileStore {
            path: root.join(LOG_FILE),
            root,
            log: Mutex::new(Log::default()),
            retry,
            retries: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            truncated_bytes: AtomicU64::new(0),
            tracer: RwLock::new(None),
            ship: ShipSlot::new(),
        };
        {
            let mut log = lock_unpoisoned(&store.log);
            *log = store.load()?;
            store.drop_torn_tail(&mut log)?;
            store.fold_legacy(&mut log, legacy)?;
        }
        Ok(store)
    }

    /// A clone of this store's replication tap slot: installing a hook
    /// into it (even after the store has been boxed behind a
    /// [`VaultStore`]) observes every durable file mutation. See
    /// [`crate::ship`].
    pub fn ship_slot(&self) -> ShipSlot {
        self.ship.clone()
    }

    /// The user a legacy `vault_<hex>.bin` file name encodes.
    fn legacy_user(path: &Path) -> Option<String> {
        let stem = path.file_stem()?.to_str()?;
        let hex = stem.strip_prefix("vault_")?;
        if hex.len() % 2 != 0 {
            return None;
        }
        let bytes: Option<Vec<u8>> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
            .collect();
        String::from_utf8(bytes?).ok()
    }

    fn with_retry<T>(&self, label: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        let tracer = read_unpoisoned(&self.tracer).clone();
        self.retry
            .run_traced(&self.retries, tracer.as_ref(), label, op)
    }

    /// Indexes the log at `self.path` from scratch (an empty index if it
    /// does not exist). Leaves any torn tail in place.
    fn load(&self) -> Result<Log> {
        let file = match open_log(&self.path, false) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Log::default()),
            Err(e) => return Err(e.into()),
        };
        let meta = file.metadata()?;
        let mut index = Index::default();
        let end = walk(&file, 0, meta.len(), |offset, len, body| {
            index.add(offset, len, body)
        })?;
        Ok(Log {
            file: Some(file),
            ident: Some(ident(&meta)),
            end,
            disk_len: meta.len(),
            index,
        })
    }

    /// Brings the index up to date with the file: records another handle
    /// appended are indexed, and a log replaced, removed or shrunk behind
    /// the store is indexed from scratch. An incomplete frame at the end
    /// is left alone — it may be an append still in flight.
    fn refresh(&self, log: &mut Log) -> Result<()> {
        let meta = match fs::metadata(&self.path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if log.file.is_some() {
                    *log = Log::default();
                }
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        let same = log.ident == Some(ident(&meta));
        if same && meta.len() == log.disk_len {
            return Ok(());
        }
        if !same || meta.len() < log.end {
            *log = self.load()?;
            return Ok(());
        }
        let Log {
            file, end, index, ..
        } = log;
        let file = file.as_ref().expect("a known identity has a handle");
        *end = walk(file, *end, meta.len(), |offset, len, body| {
            index.add(offset, len, body)
        })?;
        log.disk_len = meta.len();
        Ok(())
    }

    /// Creates the log if the store has none yet.
    fn create_if_missing(&self, log: &mut Log) -> Result<()> {
        if log.file.is_none() {
            let file = open_log(&self.path, true)?;
            let meta = file.metadata()?;
            log.ident = Some(ident(&meta));
            log.disk_len = meta.len();
            log.file = Some(file);
        }
        Ok(())
    }

    /// Truncates whatever lies past the indexed prefix (counted in
    /// [`StoreStats`]), so the next append starts at a record boundary.
    fn drop_torn_tail(&self, log: &mut Log) -> Result<()> {
        if log.disk_len <= log.end {
            return Ok(());
        }
        let file = log.file.as_ref().expect("a non-empty log has a handle");
        self.with_retry("file_truncate", || {
            file.set_len(log.end)?;
            file.sync_all()?;
            Ok(())
        })?;
        self.truncated_bytes
            .fetch_add(log.disk_len - log.end, Ordering::SeqCst);
        self.recovered_records
            .fetch_add(log.index.records, Ordering::SeqCst);
        log.disk_len = log.end;
        Ok(())
    }

    /// Appends `records` in one write and indexes them. The caller has
    /// refreshed `log`.
    fn append(&self, log: &mut Log, records: Vec<(Vec<u8>, Record)>) -> Result<()> {
        self.create_if_missing(log)?;
        self.drop_torn_tail(log)?;
        let mut buf = BytesMut::new();
        for (frame, _) in &records {
            buf.put_slice(frame);
        }
        let file = log.file.as_ref().expect("created above");
        let start = log.end;
        let mut first = true;
        self.with_retry("file_append", || {
            // A failed attempt may have left part of the write behind.
            if !std::mem::take(&mut first) {
                file.set_len(start)?;
            }
            (&*file).write_all(buf.as_ref())?;
            Ok(())
        })?;
        for (frame, record) in records {
            let len = frame.len() as u64;
            log.index.apply(log.end, len, record);
            log.end += len;
        }
        log.disk_len = log.end;
        self.ship.emit(ShipKind::Append, LOG_FILE, buf.as_ref());
        Ok(())
    }

    /// The entries of `user`'s live records, oldest first.
    fn entries(&self, log: &Log, user: &str) -> Result<Vec<StoredEntry>> {
        let (Some(file), Some(live)) = (log.file.as_ref(), log.index.users.get(user)) else {
            return Ok(Vec::new());
        };
        self.with_retry("file_read", || {
            let mut frame = Vec::new();
            live.iter()
                .map(|l| {
                    frame.resize(l.len as usize, 0);
                    file.read_exact_at(&mut frame, l.offset)?;
                    let (body, sum) = frame[4..].split_at(frame.len() - FRAME_OVERHEAD as usize);
                    if frame[..4] != (body.len() as u32).to_le_bytes() || sha256(body) != sum {
                        return Err(Error::Codec(format!(
                            "vault log record at offset {} fails its checksum",
                            l.offset
                        )));
                    }
                    decode_put(body)
                })
                .collect()
        })
    }

    /// Appends the records of each legacy per-user file the log does not
    /// already hold, makes them durable, then deletes the file.
    fn fold_legacy(&self, log: &mut Log, legacy: Vec<(PathBuf, String)>) -> Result<()> {
        if legacy.is_empty() {
            return Ok(());
        }
        for (path, user) in legacy {
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            let mut held = self.entries(log, &user)?;
            let mut records = Vec::new();
            walk(&file, 0, len, |_, _, body| {
                let entry = decode_entry(&mut Bytes::copy_from_slice(body))?;
                match held.iter().position(|e| *e == entry) {
                    Some(i) => {
                        held.swap_remove(i);
                    }
                    None => records.push(Record::put(&user, &entry)),
                }
                Ok(())
            })?;
            if !records.is_empty() {
                self.append(log, records)?;
                log.file.as_ref().expect("just appended").sync_all()?;
            }
            fs::remove_file(&path)?;
        }
        sync_dir(&self.root);
        Ok(())
    }

    /// Rewrites the log with only its live records when it holds dead
    /// ones; returns whether it did.
    fn compact_log(&self, log: &mut Log) -> Result<bool> {
        if log.index.records == log.index.live().count() as u64 {
            return Ok(false);
        }
        let mut order: Vec<(u64, u64)> = log.index.live().map(|l| (l.offset, l.len)).collect();
        order.sort_unstable();
        if order.is_empty() {
            self.with_retry("file_remove", || Ok(fs::remove_file(&self.path)?))?;
            sync_dir(&self.root);
            *log = Log::default();
            self.ship.emit(ShipKind::Replace, LOG_FILE, &[]);
            return Ok(true);
        }
        let old = log.file.as_ref().expect("a log with records has a handle");
        let tmp = self.path.with_extension("tmp");
        self.with_retry("file_compact", || {
            let mut out = BufWriter::with_capacity(64 << 10, File::create(&tmp)?);
            let mut frame = Vec::new();
            for &(offset, len) in &order {
                frame.resize(len as usize, 0);
                old.read_exact_at(&mut frame, offset)?;
                out.write_all(&frame)?;
            }
            out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            fs::rename(&tmp, &self.path)?;
            Ok(())
        })?;
        sync_dir(&self.root);
        let mut moved = HashMap::with_capacity(order.len());
        let mut end = 0;
        for (offset, len) in order {
            moved.insert(offset, end);
            end += len;
        }
        for list in log.index.users.values_mut() {
            for l in list {
                l.offset = moved[&l.offset];
            }
        }
        let file = open_log(&self.path, false)?;
        log.ident = Some(ident(&file.metadata()?));
        log.file = Some(file);
        log.end = end;
        log.disk_len = end;
        log.index.records = moved.len() as u64;
        if self.ship.is_installed() {
            self.ship
                .emit(ShipKind::Replace, LOG_FILE, &fs::read(&self.path)?);
        }
        Ok(true)
    }

    /// Runs `op` on the refreshed log under the store's lock.
    fn locked<T>(&self, op: impl FnOnce(&mut Log) -> Result<T>) -> Result<T> {
        let mut log = lock_unpoisoned(&self.log);
        self.refresh(&mut log)?;
        op(&mut log)
    }
}

impl VaultStore for FileStore {
    fn put(&self, user: &str, entry: StoredEntry) -> Result<()> {
        self.locked(|log| self.append(log, vec![Record::put(user, &entry)]))
    }

    fn put_many(&self, items: Vec<(String, StoredEntry)>) -> Result<()> {
        // The whole batch is one write.
        let records = items
            .iter()
            .map(|(user, entry)| Record::put(user, entry))
            .collect();
        self.locked(|log| self.append(log, records))
    }

    fn list(&self, user: &str) -> Result<Vec<StoredEntry>> {
        self.locked(|log| self.entries(log, user))
    }

    fn users(&self) -> Result<Vec<String>> {
        self.locked(|log| Ok(log.index.users.keys().cloned().collect()))
    }

    fn remove(&self, user: &str, disguise_id: u64) -> Result<usize> {
        self.locked(|log| {
            let removed = log.index.users.get(user).map_or(0, |list| {
                list.iter().filter(|l| l.disguise_id == disguise_id).count()
            });
            if removed > 0 {
                self.append(log, vec![Record::remove(user, disguise_id)])?;
            }
            Ok(removed)
        })
    }

    fn purge_expired(&self, now: i64) -> Result<usize> {
        self.locked(|log| {
            let purged = log.index.live().filter(|l| l.expired(now)).count();
            if purged > 0 {
                self.append(log, vec![Record::purge(now)])?;
            }
            Ok(purged)
        })
    }

    fn entry_count(&self) -> Result<usize> {
        self.locked(|log| Ok(log.index.live().count()))
    }

    fn storage_bytes(&self) -> Result<usize> {
        self.locked(|log| Ok(log.index.live().map(|l| l.bytes).sum()))
    }

    fn compact(&self) -> Result<bool> {
        self.locked(|log| self.compact_log(log))
    }

    fn put_torn(&self, user: &str, entry: StoredEntry, keep: f64) -> Result<()> {
        self.locked(|log| {
            let (frame, _) = Record::put(user, &entry);
            // Keep at least nothing and strictly less than the whole
            // record, so the write is really torn.
            let cut = ((frame.len() as f64 * keep) as usize).min(frame.len() - 1);
            self.create_if_missing(log)?;
            let file = log.file.as_ref().expect("created above");
            (&*file).write_all(&frame[..cut])?;
            log.disk_len = file.metadata()?.len();
            Ok(())
        })
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            retries: self.retries.load(Ordering::SeqCst),
            recovered_records: self.recovered_records.load(Ordering::SeqCst),
            truncated_bytes: self.truncated_bytes.load(Ordering::SeqCst),
        }
    }

    fn set_tracer(&self, tracer: Option<Tracer>) {
        *write_unpoisoned(&self.tracer) = tracer;
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryMeta;
    use std::sync::Arc;

    fn entry(id: u64, expires_at: Option<i64>) -> StoredEntry {
        StoredEntry {
            meta: EntryMeta {
                disguise_id: id,
                disguise_name: format!("d{id}"),
                created_at: 7,
                expires_at,
            },
            payload: vec![1, 2, 3, id as u8],
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edna_vault_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every file in `dir`, sorted by name.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Writes a per-user file as earlier versions did: `[meta][payload]`
    /// record bodies, framed, in `vault_<hex>.bin`.
    fn write_legacy(dir: &Path, user: &str, entries: &[StoredEntry]) -> PathBuf {
        let hex: String = user.bytes().map(|b| format!("{b:02x}")).collect();
        let mut buf = BytesMut::new();
        for e in entries {
            let mut body = BytesMut::new();
            write_bytes(&mut body, &e.meta.encode());
            write_bytes(&mut body, &e.payload);
            wal::append_record(&mut buf, body.as_ref());
        }
        let path = dir.join(format!("vault_{hex}.bin"));
        fs::write(&path, buf.as_ref()).unwrap();
        path
    }

    type Shipped = Arc<Mutex<Vec<(ShipKind, String, Vec<u8>)>>>;

    fn record_shipping(s: &FileStore) -> Shipped {
        let seen: Shipped = Arc::default();
        let sink = Arc::clone(&seen);
        s.ship_slot()
            .install(Some(Arc::new(move |kind, name, bytes: &[u8]| {
                sink.lock()
                    .unwrap()
                    .push((kind, name.to_string(), bytes.to_vec()));
            })));
        seen
    }

    #[test]
    fn persist_and_reload() {
        let dir = tempdir("persist");
        {
            let s = FileStore::open(&dir).unwrap();
            s.put("19", entry(1, None)).unwrap();
            s.put("19", entry(2, None)).unwrap();
            s.put("user'weird\"id", entry(3, None)).unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.list("19").unwrap().len(), 2);
        assert_eq!(s.list("19").unwrap()[0], entry(1, None));
        assert_eq!(s.list("user'weird\"id").unwrap().len(), 1);
        assert_eq!(
            s.users().unwrap().len(),
            2,
            "both users are indexed from the log"
        );
        assert_eq!(files(&dir), [LOG_FILE], "one file for every user");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_many_appends_the_batch_in_one_write() {
        let dir = tempdir("put_many");
        let s = FileStore::open(&dir).unwrap();
        s.put("a", entry(1, None)).unwrap();
        let shipped = record_shipping(&s);
        s.put_many(vec![
            ("a".to_string(), entry(2, None)),
            ("b".to_string(), entry(3, None)),
            ("a".to_string(), entry(4, None)),
        ])
        .unwrap();
        // Per-user order is preserved and everything round-trips.
        assert_eq!(
            s.list("a").unwrap(),
            vec![entry(1, None), entry(2, None), entry(4, None)]
        );
        assert_eq!(s.list("b").unwrap(), vec![entry(3, None)]);
        let shipped = shipped.lock().unwrap();
        assert_eq!(shipped.len(), 1, "one append for the whole batch");
        assert_eq!(shipped[0].0, ShipKind::Append);
        assert_eq!(shipped[0].1, LOG_FILE);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_appends_a_tombstone() {
        let dir = tempdir("remove");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("u", entry(2, None)).unwrap();
        let before = fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        assert_eq!(s.remove("u", 1).unwrap(), 1);
        assert!(fs::metadata(dir.join(LOG_FILE)).unwrap().len() > before);
        assert_eq!(s.list("u").unwrap(), vec![entry(2, None)]);
        // Removing nothing writes nothing.
        let before = fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        assert_eq!(s.remove("u", 1).unwrap(), 0);
        assert_eq!(fs::metadata(dir.join(LOG_FILE)).unwrap().len(), before);
        // Removing the last entry drops the user.
        assert_eq!(s.remove("u", 2).unwrap(), 1);
        assert!(s.users().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_expired_on_disk() {
        let dir = tempdir("purge");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, Some(10))).unwrap();
        s.put("v", entry(2, Some(5))).unwrap();
        s.put("u", entry(3, None)).unwrap();
        assert_eq!(s.purge_expired(10).unwrap(), 2);
        assert_eq!(s.entry_count().unwrap(), 1);
        assert_eq!(s.users().unwrap(), ["u"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstones_and_purges_replay_after_reopen() {
        let dir = tempdir("replay");
        {
            let s = FileStore::open(&dir).unwrap();
            s.put("u", entry(1, None)).unwrap();
            s.put("u", entry(2, Some(10))).unwrap();
            s.put("v", entry(3, Some(20))).unwrap();
            s.put("v", entry(4, None)).unwrap();
            assert_eq!(s.remove("u", 1).unwrap(), 1);
            assert_eq!(s.purge_expired(10).unwrap(), 1);
            // Written after the purge, already expired at its `now`: the
            // purge must not drop it on replay.
            s.put("v", entry(5, Some(10))).unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.users().unwrap(), ["v"]);
        assert_eq!(
            s.list("v").unwrap(),
            vec![entry(3, Some(20)), entry(4, None), entry(5, Some(10))]
        );
        assert_eq!(s.entry_count().unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_live_entries_and_ships_one_replace() {
        let dir = tempdir("compact");
        let s = FileStore::open(&dir).unwrap();
        for id in 1..=6 {
            let user = if id % 2 == 0 { "even" } else { "odd" };
            s.put(user, entry(id, (id == 3).then_some(10))).unwrap();
        }
        assert!(!s.compact().unwrap(), "nothing dead, nothing to do");
        s.remove("even", 2).unwrap();
        s.purge_expired(10).unwrap();
        let bytes = s.storage_bytes().unwrap();
        let before = fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        let shipped = record_shipping(&s);
        assert!(s.compact().unwrap());
        let after = fs::read(dir.join(LOG_FILE)).unwrap();
        assert!((after.len() as u64) < before);
        // Exactly the four live put records remain.
        assert_eq!(wal::scan_records(&after).records.len(), 4);
        assert_eq!(
            s.list("even").unwrap(),
            vec![entry(4, None), entry(6, None)]
        );
        assert_eq!(s.list("odd").unwrap(), vec![entry(1, None), entry(5, None)]);
        assert_eq!(s.storage_bytes().unwrap(), bytes);
        assert_eq!(
            *shipped.lock().unwrap(),
            vec![(ShipKind::Replace, LOG_FILE.to_string(), after.clone())]
        );
        assert!(!s.compact().unwrap(), "a compacted log has no dead records");
        // Appends continue on the compacted log, and it reopens intact.
        s.put("odd", entry(7, None)).unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.entry_count().unwrap(), 5);
        assert_eq!(s.list("odd").unwrap().last(), Some(&entry(7, None)));
        // Compacting away the last live record removes the log.
        for (user, id) in [("even", 4), ("even", 6), ("odd", 1), ("odd", 5), ("odd", 7)] {
            s.remove(user, id).unwrap();
        }
        assert!(s.compact().unwrap());
        assert!(files(&dir).is_empty());
        s.put("u", entry(8, None)).unwrap();
        assert_eq!(s.list("u").unwrap(), vec![entry(8, None)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tempdir("torn");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("v", entry(2, None)).unwrap();
        drop(s);
        let path = dir.join(LOG_FILE);
        let full = fs::read(&path).unwrap();
        // Tear the file at every point inside the second record: the first
        // record must always survive, and a reopen must settle the file.
        let first_record_len = {
            let scan = wal::scan_records(&full);
            assert_eq!(scan.records.len(), 2);
            wal::encode_record(&scan.records[0]).len()
        };
        // Strictly inside the second record: a cut at the boundary is a
        // complete file, not a torn one.
        for cut in first_record_len + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let s = FileStore::open(&dir).unwrap();
            assert_eq!(s.list("u").unwrap(), vec![entry(1, None)], "cut at {cut}");
            assert!(s.list("v").unwrap().is_empty(), "cut at {cut}");
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                first_record_len as u64,
                "file truncated back to the last complete record at cut {cut}"
            );
            let stats = s.stats();
            assert_eq!(stats.recovered_records, 1);
            assert_eq!(stats.truncated_bytes as usize, cut - first_record_len);
            // After recovery, appends resume cleanly.
            s.put("u", entry(3, None)).unwrap();
            assert_eq!(s.list("u").unwrap().len(), 2);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_torn_leaves_recoverable_tail() {
        let dir = tempdir("put_torn");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        for keep in [0.0, 0.33, 0.5, 0.9, 1.0] {
            s.put_torn("u", entry(2, None), keep).unwrap();
            // The torn record is invisible, and the next write starts at
            // a record boundary.
            assert_eq!(s.list("u").unwrap(), vec![entry(1, None)], "keep {keep}");
        }
        s.put("u", entry(3, None)).unwrap();
        assert!(s.stats().truncated_bytes > 0);
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.list("u").unwrap(), vec![entry(1, None), entry(3, None)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_a_torn_tail_once() {
        let dir = tempdir("recover");
        let s = FileStore::open(&dir).unwrap();
        s.put("a", entry(1, None)).unwrap();
        s.put("b", entry(3, None)).unwrap();
        s.put_torn("a", entry(2, None), 0.5).unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert!(s.stats().truncated_bytes > 0);
        assert_eq!(s.stats().recovered_records, 2);
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(
            s.stats(),
            StoreStats::default(),
            "second open finds nothing"
        );
        assert_eq!(s.entry_count().unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = tempdir("tmp_sweep");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        let tmp = dir.join(LOG_FILE).with_extension("tmp");
        fs::write(&tmp, b"half a compaction").unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert!(!tmp.exists(), "crashed compaction's temp file is removed");
        assert_eq!(s.list("u").unwrap(), vec![entry(1, None)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_file_stops_at_first_bad_record() {
        let dir = tempdir("bitflip");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("u", entry(2, None)).unwrap();
        drop(s);
        let path = dir.join(LOG_FILE);
        let mut data = fs::read(&path).unwrap();
        // Flip a byte in the first record's body: nothing can be trusted.
        data[6] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let s = FileStore::open(&dir).unwrap();
        assert!(s.list("u").unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_per_user_files_fold_in_once() {
        let dir = tempdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        write_legacy(&dir, "19", &[entry(1, None), entry(2, Some(9))]);
        write_legacy(&dir, "bea", &[entry(3, None)]);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(files(&dir), [LOG_FILE], "legacy files are gone");
        assert_eq!(
            s.list("19").unwrap(),
            vec![entry(1, None), entry(2, Some(9))]
        );
        assert_eq!(s.list("bea").unwrap(), vec![entry(3, None)]);
        drop(s);

        // A crash mid-migration: the log holds a legacy file's records,
        // but the file was not deleted yet. Reopening folds in only what
        // the log lacks.
        let log_before = fs::read(dir.join(LOG_FILE)).unwrap();
        write_legacy(
            &dir,
            "19",
            &[entry(1, None), entry(2, Some(9)), entry(4, None)],
        );
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(files(&dir), [LOG_FILE]);
        assert_eq!(
            s.list("19").unwrap(),
            vec![entry(1, None), entry(2, Some(9)), entry(4, None)]
        );
        assert_eq!(s.entry_count().unwrap(), 4);
        drop(s);
        let log_after = fs::read(dir.join(LOG_FILE)).unwrap();
        assert_eq!(
            wal::scan_records(&log_after).records.len(),
            wal::scan_records(&log_before).records.len() + 1
        );
        // A second open has nothing left to fold.
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.entry_count().unwrap(), 4);
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), log_after);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_sees_what_another_handle_appended_or_replaced() {
        let dir = tempdir("behind");
        let reader = FileStore::open(&dir).unwrap();
        assert!(reader.users().unwrap().is_empty());
        let writer = FileStore::open(&dir).unwrap();
        writer.put("u", entry(1, None)).unwrap();
        assert_eq!(
            reader.list("u").unwrap(),
            vec![entry(1, None)],
            "created behind"
        );
        writer.put("u", entry(2, None)).unwrap();
        writer.put("v", entry(3, Some(4))).unwrap();
        assert_eq!(reader.entry_count().unwrap(), 3, "appended behind");
        writer.remove("u", 1).unwrap();
        writer.purge_expired(4).unwrap();
        assert_eq!(
            reader.list("u").unwrap(),
            vec![entry(2, None)],
            "tombstoned behind"
        );
        assert_eq!(reader.users().unwrap(), ["u"]);
        // A replica's mirror replaces the log wholesale when the primary
        // compacts; the reader re-indexes the new file.
        assert!(writer.compact().unwrap());
        writer.put("w", entry(5, None)).unwrap();
        assert_eq!(
            reader.list("u").unwrap(),
            vec![entry(2, None)],
            "replaced behind"
        );
        assert_eq!(reader.list("w").unwrap(), vec![entry(5, None)]);
        // An append still in flight (an incomplete frame) stays invisible
        // and is not truncated by a reader.
        let (frame, _) = Record::put("w", &entry(6, None));
        let path = dir.join(LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        assert_eq!(reader.list("w").unwrap(), vec![entry(5, None)]);
        f.write_all(&frame[frame.len() / 2..]).unwrap();
        assert_eq!(
            reader.list("w").unwrap(),
            vec![entry(5, None), entry(6, None)]
        );
        // Removed behind: nothing left.
        fs::remove_file(&path).unwrap();
        assert!(reader.users().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
