//! Database snapshots: saving and loading the full database to/from disk.
//!
//! The engine is in-process; snapshots give it durability across runs
//! (used by the `edna` CLI). The format is a self-contained binary
//! encoding: magic + version, then per table the schema, AUTO_INCREMENT
//! counter, explicitly created indexes, and all live rows. Implicit
//! PK/UNIQUE/FOREIGN KEY indexes are rebuilt on load.
//!
//! Format v3 additionally records each row's slot id and the table's slot
//! count, so row ids survive a save/load cycle — the write-ahead log
//! ([`crate::wal`]) addresses rows by id, and replaying its tail over a
//! reloaded snapshot only works if ids mean the same thing afterwards. The
//! header also carries the WAL watermark: the LSN of the last frame whose
//! effects the snapshot contains (the checkpoint position). v2 snapshots
//! (no ids, no watermark) still load, with ids assigned sequentially.
//!
//! Neither direction holds the image whole. A save encodes the live
//! tables into a 64 KiB buffer and hands it to the temp file, hashing it,
//! each time it fills. A load checks the checksum trailer in one pass
//! through a buffer of the same size, seeks back, and decodes each table
//! straight into its [`Table`] from one reused chunk. Beyond the database
//! itself, either holds a chunk or two.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use edna_util::sha256::{Sha256, DIGEST_LEN};

use crate::database::Database;
use crate::error::{Error, Result};
use crate::exec::Inner;
use crate::schema::{ColumnDef, ForeignKey, ReferentialAction, TableSchema};
use crate::storage::{RowId, Table};
use crate::value::{DataType, Row, Value};

const MAGIC: &[u8; 8] = b"EDNADB\x03\x00";
const MAGIC_PREFIX: &[u8; 6] = b"EDNADB";

/// The size of the buffers a save or a load streams an image through.
const CHUNK: usize = 64 * 1024;

fn io_err(e: io::Error) -> Error {
    Error::Eval(format!("snapshot I/O: {e}"))
}

// ---- little byte helpers (self-contained; no external serializer) ---------

/// Writes little-endian fields into `buf`. A writer made by
/// [`Writer::new`] keeps the whole image there, for [`encode`] and WAL
/// records. One made by [`Writer::to`] hands `buf` on to its sink each
/// time [`Writer::spill`] finds a chunk in it, so a save holds one chunk
/// of the image, never all of it. No method fails: the first error
/// writing to the sink is kept, and [`Writer::finish`] returns it.
pub(crate) struct Writer<W = io::Sink> {
    pub(crate) buf: Vec<u8>,
    sink: W,
    /// How full `buf` gets before a spill empties it.
    spill_at: usize,
    err: Option<io::Error>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer {
            buf: Vec::new(),
            sink: io::sink(),
            spill_at: usize::MAX,
            err: None,
        }
    }
}

impl<W: Write> Writer<W> {
    fn to(sink: W) -> Writer<W> {
        Writer {
            buf: Vec::with_capacity(CHUNK),
            sink,
            spill_at: CHUNK,
            err: None,
        }
    }

    /// Hands `buf` to the sink once it holds a chunk.
    fn spill(&mut self) {
        if self.buf.len() >= self.spill_at {
            if self.err.is_none() {
                self.err = self.sink.write_all(&self.buf).err();
            }
            self.buf.clear();
        }
    }

    /// Hands the rest of `buf` to the sink and returns the sink, or the
    /// first error writing to it.
    fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.sink.write_all(&self.buf)?;
        Ok(self.sink)
    }
}

impl<W> Writer<W> {
    pub(crate) fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    pub(crate) fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(x) => {
                self.u8(2);
                self.f64(*x);
            }
            Value::Text(s) => {
                self.u8(3);
                self.string(s);
            }
            Value::Bool(false) => self.u8(4),
            Value::Bool(true) => self.u8(5),
            Value::Bytes(b) => {
                self.u8(6);
                self.bytes(b);
            }
        }
    }
}

/// Passes writes on to `inner` and hashes the bytes it accepted.
struct Hashing<W> {
    inner: W,
    sha: Sha256,
}

impl<W: Write> Write for Hashing<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sha.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reads little-endian fields of an image `len` bytes long from `src`
/// through one reused chunk buffer. Every count and length is checked
/// against the bytes left before anything is allocated for it, so a
/// corrupt or hostile image fails instead of asking for gigabytes.
pub(crate) struct Reader<R> {
    src: R,
    chunk: Vec<u8>,
    /// Next unread byte of `chunk`.
    pos: usize,
    /// End of the bytes read into `chunk`.
    end: usize,
    /// Image bytes not yet read from `src`.
    unread: u64,
    len: u64,
}

impl<'a> Reader<&'a [u8]> {
    /// A reader over a whole image in memory.
    pub(crate) fn of(data: &'a [u8]) -> Reader<&'a [u8]> {
        Reader::new(data, data.len() as u64)
    }
}

impl<R: Read> Reader<R> {
    fn new(src: R, len: u64) -> Reader<R> {
        Reader {
            src,
            chunk: vec![0; len.min(CHUNK as u64) as usize],
            pos: 0,
            end: 0,
            unread: len,
            len,
        }
    }

    pub(crate) fn err(&self, what: &str) -> Error {
        let at = self.len - self.remaining();
        Error::Eval(format!("corrupt snapshot at byte {at}: {what}"))
    }

    pub(crate) fn remaining(&self) -> u64 {
        (self.end - self.pos) as u64 + self.unread
    }

    /// Makes at least `n` (at most the chunk size) unread bytes available
    /// in the chunk.
    fn fill(&mut self, n: usize) -> Result<()> {
        if self.remaining() < n as u64 {
            return Err(self.err("truncated"));
        }
        self.chunk.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < n {
            let want = self.unread.min((self.chunk.len() - self.end) as u64) as usize;
            match self.src.read(&mut self.chunk[self.end..self.end + want]) {
                Ok(0) => return Err(self.err("truncated")),
                Ok(got) => {
                    self.end += got;
                    self.unread -= got as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        if self.end - self.pos < N {
            self.fill(N)?;
        }
        let b = self.chunk[self.pos..self.pos + N]
            .try_into()
            .expect("N bytes");
        self.pos += N;
        Ok(b)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` count of items, each taking at least `min_len` bytes
    /// of what is left.
    pub(crate) fn count(&mut self, min_len: usize) -> Result<usize> {
        let n = self.u32()?;
        if u64::from(n).saturating_mul(min_len.max(1) as u64) > self.remaining() {
            return Err(self.err(&format!("count {n} exceeds the bytes left")));
        }
        Ok(n as usize)
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()?;
        if u64::from(n) > self.remaining() {
            return Err(self.err(&format!("length {n} exceeds the bytes left")));
        }
        let n = n as usize;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.pos == self.end {
                self.fill(1)?;
            }
            let k = (n - out.len()).min(self.end - self.pos);
            out.extend_from_slice(&self.chunk[self.pos..self.pos + k]);
            self.pos += k;
        }
        Ok(out)
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| self.err("invalid UTF-8"))
    }

    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Text(self.string()?),
            4 => Value::Bool(false),
            5 => Value::Bool(true),
            6 => Value::Bytes(self.bytes()?),
            t => return Err(self.err(&format!("unknown value tag {t}"))),
        })
    }
}

// ---- snapshot format --------------------------------------------------------

/// A copied image of one table, for inspecting what a snapshot holds.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Table schema.
    pub schema: TableSchema,
    /// Next AUTO_INCREMENT value.
    pub next_auto: i64,
    /// Explicitly created indexes: `(name, column name, unique)`.
    pub indexes: Vec<(String, String, bool)>,
    /// All live rows with their slot ids, in slot order.
    pub rows: Vec<(RowId, Row)>,
    /// Total slot count (live + free); free slots stay free after reload
    /// so future inserts never collide with ids the WAL may reference.
    pub slots: usize,
}

/// The explicitly created indexes of `t` as `(name, column name, unique)`:
/// the implicit `_auto_` PK/UNIQUE/FOREIGN KEY indexes are rebuilt from the
/// schema by [`Table::new`], so images never carry them.
fn explicit_indexes(t: &Table) -> Vec<(String, String, bool)> {
    t.indexes
        .iter()
        .filter(|ix| !ix.name.starts_with("_auto_"))
        .map(|ix| {
            (
                ix.name.clone(),
                t.schema.columns[ix.column].name.clone(),
                ix.unique,
            )
        })
        .collect()
}

impl TableSnapshot {
    /// The image of a live [`Table`], explicit indexes only.
    pub(crate) fn of(t: &Table) -> TableSnapshot {
        TableSnapshot {
            schema: t.schema.clone(),
            next_auto: t.next_auto,
            indexes: explicit_indexes(t),
            rows: t.iter().map(|(id, r)| (id, r.clone())).collect(),
            slots: t.slot_count(),
        }
    }

    /// Writes this image as [`encode_table`] writes the live table it was
    /// copied from; tests compare the two.
    #[cfg(test)]
    pub(crate) fn encode<W: Write>(&self, w: &mut Writer<W>) {
        write_table(
            w,
            &self.schema,
            self.next_auto,
            &self.indexes,
            self.slots,
            self.rows.len(),
            self.rows.iter().map(|(id, row)| (*id, row)),
        );
    }
}

/// Writes the image of live table `t` (v3 layout), reading its rows in
/// place. The one table encoder: a snapshot body and a WAL DDL redo
/// record are both written by it, and [`decode_table`] reads both.
pub(crate) fn encode_table<W: Write>(w: &mut Writer<W>, t: &Table) {
    write_table(
        w,
        &t.schema,
        t.next_auto,
        &explicit_indexes(t),
        t.slot_count(),
        t.len(),
        t.iter(),
    );
}

/// Writes one table image from its parts. The row count goes first, so
/// it is `count`, the number of rows `rows` yields.
fn write_table<'r, W: Write>(
    w: &mut Writer<W>,
    schema: &TableSchema,
    next_auto: i64,
    indexes: &[(String, String, bool)],
    slots: usize,
    count: usize,
    rows: impl Iterator<Item = (RowId, &'r Row)>,
) {
    w.string(&schema.name);
    // Columns.
    w.u32(schema.columns.len() as u32);
    for c in &schema.columns {
        w.string(&c.name);
        w.string(c.ty.sql_name());
        w.u8(u8::from(c.not_null));
        w.u8(u8::from(c.unique));
        w.u8(u8::from(c.auto_increment));
        w.u8(u8::from(c.pii));
        match &c.default {
            Some(v) => {
                w.u8(1);
                w.value(v);
            }
            None => w.u8(0),
        }
    }
    w.u32(schema.primary_key.map(|i| i as u32).unwrap_or(u32::MAX));
    // Foreign keys.
    w.u32(schema.foreign_keys.len() as u32);
    for fk in &schema.foreign_keys {
        w.string(&fk.column);
        w.string(&fk.parent_table);
        w.string(&fk.parent_column);
        w.u8(match fk.on_delete {
            ReferentialAction::Restrict => 0,
            ReferentialAction::Cascade => 1,
            ReferentialAction::SetNull => 2,
        });
    }
    w.i64(next_auto);
    // Explicit indexes.
    w.u32(indexes.len() as u32);
    for (name, column, unique) in indexes {
        w.string(name);
        w.string(column);
        w.u8(u8::from(*unique));
    }
    // Rows, addressed by slot id.
    w.u64(slots as u64);
    w.u32(count as u32);
    w.spill();
    let mut written = 0;
    for (id, row) in rows {
        w.u64(id as u64);
        for v in row {
            w.value(v);
        }
        w.spill();
        written += 1;
    }
    debug_assert_eq!(written, count, "row count written before the rows");
}

/// Reads one table image straight into a [`Table`]: schema, explicit
/// indexes, then each row into its slot, ascending, with the free list
/// built once the rows are in. `version` selects the row layout: v2 rows
/// carry no slot ids (they are assigned sequentially), v3 rows do.
pub(crate) fn decode_table<R: Read>(r: &mut Reader<R>, version: u8) -> Result<Table> {
    let name = r.string()?;
    let mut schema = TableSchema::new(name);
    // A column takes at least two length prefixes and five flag bytes.
    let n_cols = r.count(13)?;
    for _ in 0..n_cols {
        let col_name = r.string()?;
        let ty_name = r.string()?;
        let ty = DataType::from_sql_name(&ty_name)
            .ok_or_else(|| r.err(&format!("unknown type {ty_name}")))?;
        let mut col = ColumnDef::new(col_name, ty);
        col.not_null = r.u8()? != 0;
        col.unique = r.u8()? != 0;
        col.auto_increment = r.u8()? != 0;
        col.pii = r.u8()? != 0;
        if r.u8()? != 0 {
            col.default = Some(r.value()?);
        }
        schema.columns.push(col);
    }
    let pk = r.u32()?;
    schema.primary_key = if pk == u32::MAX {
        None
    } else {
        Some(pk as usize)
    };
    // A foreign key takes three length prefixes and an action byte.
    let n_fks = r.count(13)?;
    for _ in 0..n_fks {
        let column = r.string()?;
        let parent_table = r.string()?;
        let parent_column = r.string()?;
        let on_delete = match r.u8()? {
            0 => ReferentialAction::Restrict,
            1 => ReferentialAction::Cascade,
            2 => ReferentialAction::SetNull,
            t => return Err(r.err(&format!("unknown referential action {t}"))),
        };
        schema.foreign_keys.push(ForeignKey {
            column,
            parent_table,
            parent_column,
            on_delete,
        });
    }
    schema.validate()?;
    let next_auto = r.i64()?;
    let mut table = Table::new(schema);
    let n_indexes = r.count(9)?;
    for _ in 0..n_indexes {
        let idx_name = r.string()?;
        let column = r.string()?;
        let unique = r.u8()? != 0;
        let pos = table.schema.require_column(&column)?;
        table.add_index(idx_name, pos, unique)?;
    }
    let slots = if version >= 3 { r.u64()? as usize } else { 0 };
    let arity = table.schema.arity();
    let id_len = if version >= 3 { 8 } else { 0 };
    // A value takes at least its tag byte.
    let n_rows = r.count(id_len + arity)?;
    let slots = slots.max(n_rows);
    for i in 0..n_rows {
        let id = if version >= 3 {
            r.u64()? as RowId
        } else {
            i as RowId
        };
        if id < table.slot_count() || id >= slots {
            return Err(r.err(&format!("row id {id} out of order")));
        }
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(r.value()?);
        }
        table.load_row(id, row);
    }
    table.finish_load(slots);
    table.next_auto = next_auto;
    Ok(table)
}

/// Writes the image of the engine state the caller holds locked, reading
/// every table in place, with `watermark` as its WAL checkpoint position.
fn write_image<W: Write>(w: &mut Writer<W>, inner: &Inner, watermark: u64) {
    w.raw(MAGIC);
    w.i64(inner.now);
    w.u64(watermark);
    w.u32(inner.table_order.len() as u32);
    for key in &inner.table_order {
        encode_table(w, &inner.tables[key]);
    }
}

/// Serializes the whole database to bytes. The header's WAL watermark is
/// the attached WAL's last assigned LSN (0 without one), captured *before*
/// the tables are read: a frame appended mid-encode may then be replayed
/// over state that already contains it, which idempotent replay tolerates,
/// whereas a too-high watermark would silently skip a frame.
pub fn encode(db: &Database) -> Result<Vec<u8>> {
    let watermark = db.wal_last_lsn();
    let mut w = Writer::new();
    write_image(&mut w, &db.inner_read(), watermark);
    Ok(w.buf)
}

/// Reconstructs a database from bytes produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Database> {
    Ok(decode_with_watermark(data)?.0)
}

/// Like [`decode`], but also returns the WAL watermark the snapshot was
/// checkpointed at (0 for v2 snapshots, which predate the WAL).
pub fn decode_with_watermark(data: &[u8]) -> Result<(Database, u64)> {
    read_image(Reader::of(data))
}

/// Decodes a whole image, each table straight into the engine.
fn read_image<R: Read>(mut r: Reader<R>) -> Result<(Database, u64)> {
    let head: [u8; 8] = r.array()?;
    if &head[..6] != MAGIC_PREFIX || head[7] != 0 {
        return Err(Error::Eval("not an edna database snapshot".to_string()));
    }
    let version = head[6];
    if !(2..=3).contains(&version) {
        return Err(Error::Eval(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let now = r.i64()?;
    let watermark = if version >= 3 { r.u64()? } else { 0 };
    let n_tables = r.count(1)?;
    let db = Database::from_tables((0..n_tables).map(|_| decode_table(&mut r, version)))?;
    if r.remaining() != 0 {
        return Err(r.err("trailing bytes"));
    }
    db.set_now(now);
    Ok((db, watermark))
}

/// Saves the database to `path`: the [`encode`]d image plus a SHA-256
/// checksum trailer, written to a temp file, fsynced, and atomically
/// renamed into place — a crash mid-save leaves the old snapshot intact,
/// and any other partial write is caught by the checksum at load. The
/// parent directory is fsynced after the rename so the new name is durable
/// before the caller truncates a WAL checkpointed by this snapshot.
pub fn save(db: &Database, path: impl AsRef<Path>) -> Result<()> {
    let watermark = db.wal_last_lsn();
    write_file(&db.inner_read(), watermark, path.as_ref())
}

/// Durably writes the image of the engine state the caller holds locked
/// to `path` (see [`save`]): streamed into the temp file, checksum trailer
/// appended, temp file fsynced, atomic rename, parent directory fsynced.
pub(crate) fn write_file(inner: &Inner, watermark: u64, path: &Path) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(io_err)?;
    let (mut f, sum) = stream_image(inner, watermark, file).map_err(io_err)?;
    f.write_all(&sum).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Streams the image of the engine state the caller holds locked into
/// `sink` a chunk at a time, hashing each chunk it hands on. Returns the
/// sink and the SHA-256 of the image.
fn stream_image<W: Write>(
    inner: &Inner,
    watermark: u64,
    sink: W,
) -> io::Result<(W, [u8; DIGEST_LEN])> {
    let mut w = Writer::to(Hashing {
        inner: sink,
        sha: Sha256::new(),
    });
    write_image(&mut w, inner, watermark);
    let Hashing { inner, sha } = w.finish()?;
    Ok((inner, sha.finalize()))
}

/// Loads a database from `path`, verifying the checksum trailer [`save`]
/// wrote. Truncation and bitflips are reported as corruption, never
/// decoded into a wrong database.
pub fn load(path: impl AsRef<Path>) -> Result<Database> {
    Ok(load_with_watermark(path)?.0)
}

/// Like [`load`], but also returns the snapshot's WAL watermark. Recovery
/// also vets a stray `.tmp` file with it before promoting it to the
/// authoritative snapshot.
pub fn load_with_watermark(path: impl AsRef<Path>) -> Result<(Database, u64)> {
    read_checked(File::open(path.as_ref()).map_err(io_err)?)
}

/// Verifies the checksum trailer of a snapshot file in `src` with one pass
/// through a [`CHUNK`]-sized buffer, then seeks back and decodes the body.
fn read_checked<R: Read + Seek>(mut src: R) -> Result<(Database, u64)> {
    let len = src.seek(SeekFrom::End(0)).map_err(io_err)?;
    let Some(body) = len.checked_sub(DIGEST_LEN as u64) else {
        return Err(Error::Eval(
            "corrupt snapshot: too short for a checksum trailer".to_string(),
        ));
    };
    src.seek(SeekFrom::Start(0)).map_err(io_err)?;
    let mut sha = Sha256::new();
    let mut buf = vec![0; body.min(CHUNK as u64) as usize];
    let mut left = body;
    while left > 0 {
        let want = left.min(buf.len() as u64) as usize;
        src.read_exact(&mut buf[..want]).map_err(io_err)?;
        sha.update(&buf[..want]);
        left -= want as u64;
    }
    let mut sum = [0; DIGEST_LEN];
    src.read_exact(&mut sum).map_err(io_err)?;
    if sha.finalize() != sum {
        return Err(Error::Eval(
            "corrupt snapshot: checksum mismatch (truncated or bit-flipped)".to_string(),
        ));
    }
    drop(buf);
    src.seek(SeekFrom::Start(0)).map_err(io_err)?;
    read_image(Reader::new(src, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edna_util::sha256::sha256;

    /// The largest single write or read a save or a load may hand the
    /// file: a few chunks, never the image.
    const BOUND: usize = 128 * 1024;

    /// Passes reads, writes and seeks to `inner`, recording the largest
    /// buffer it is handed.
    struct Recorder<T> {
        inner: T,
        largest: usize,
    }

    impl<T> Recorder<T> {
        fn new(inner: T) -> Recorder<T> {
            Recorder { inner, largest: 0 }
        }
    }

    impl<T: Write> Write for Recorder<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl<T: Read> Read for Recorder<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    impl<T: Seek> Seek for Recorder<T> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    /// A database whose image runs to several megabytes, with free slots.
    fn big() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, owner INT, body TEXT);
             CREATE INDEX t_by_owner ON t (owner);",
        )
        .unwrap();
        let body = "x".repeat(200);
        for batch in 0..40 {
            let values: Vec<String> = (0..500)
                .map(|i| {
                    let id = batch * 500 + i;
                    format!("({id}, {}, '{body}{id}')", id % 97)
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE id % 5 = 0").unwrap();
        db
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("edna_snapshot_{name}_{}.edna", std::process::id()))
    }

    #[test]
    fn a_save_writes_the_image_in_bounded_pieces() {
        let db = big();
        let image = encode(&db).unwrap();
        assert!(image.len() > 3 << 20, "image is {} bytes", image.len());
        let (sink, sum) = stream_image(&db.inner_read(), 0, Recorder::new(Vec::new())).unwrap();
        assert_eq!(sink.inner, image);
        assert_eq!(sum, sha256(&image));
        assert!(
            sink.largest <= BOUND,
            "largest write {} bytes",
            sink.largest
        );
    }

    #[test]
    fn a_load_reads_the_file_in_bounded_pieces() {
        let db = big();
        let path = temp_path("bounded_load");
        save(&db, &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut src = Recorder::new(io::Cursor::new(file));
        let (back, watermark) = read_checked(&mut src).unwrap();
        assert_eq!(watermark, 0);
        assert!(src.largest <= BOUND, "largest read {} bytes", src.largest);
        assert_eq!(back.dump(), db.dump());
        let (before, after) = (
            db.snapshot_tables().unwrap(),
            back.snapshot_tables().unwrap(),
        );
        assert_eq!(before[0].rows, after[0].rows);
        assert_eq!(before[0].slots, after[0].slots);
    }

    #[test]
    fn a_saved_file_is_the_encoded_image_and_its_checksum() {
        let dir = temp_path("save_bytes");
        std::fs::create_dir_all(&dir).unwrap();
        let (db, _) = Database::open_durable(None, &dir.join("db.wal")).unwrap();
        db.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT);
             INSERT INTO t (v) VALUES ('a'), ('b'), ('c');
             DELETE FROM t WHERE id = 2;",
        )
        .unwrap();
        for (db, name) in [(&db, "durable"), (&sample(), "plain")] {
            let path = dir.join(name);
            db.save(&path).unwrap();
            let image = encode(db).unwrap();
            let file = std::fs::read(&path).unwrap();
            let (body, sum) = file.split_at(file.len() - DIGEST_LEN);
            assert_eq!(body, image, "{name}");
            assert_eq!(sum, sha256(&image), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_length_is_corrupt_not_allocated() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, body TEXT);
             INSERT INTO t VALUES (1, 'abc');",
        )
        .unwrap();
        let mut image = encode(&db).unwrap();
        // The image ends with the row's text: a length, then 'abc'.
        let n = image.len();
        assert_eq!(&image[n - 7..], b"\x03\x00\x00\x00abc");
        image[n - 7..n - 3].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        let err = decode(&image).err().unwrap().to_string();
        assert!(err.contains("corrupt snapshot"), "got: {err}");
        // A row count far past the bytes left fails the same way.
        let t = Table::new(db.snapshot_tables().unwrap()[0].schema.clone());
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.i64(0);
        w.u64(0);
        w.u32(1);
        encode_table(&mut w, &t);
        let n = w.buf.len();
        w.buf[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&w.buf).err().unwrap().to_string();
        assert!(err.contains("corrupt snapshot"), "got: {err}");
    }

    fn sample() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
             karma INT DEFAULT 0);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id) ON DELETE CASCADE);
             CREATE INDEX posts_by_user ON posts (user_id);",
        )
        .unwrap();
        db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
            .unwrap();
        db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'x''y'), (2, NULL)")
            .unwrap();
        db.set_now(777);
        db
    }

    #[test]
    fn encode_decode_round_trips() {
        let db = sample();
        let data = encode(&db).unwrap();
        let back = decode(&data).unwrap();
        assert_eq!(back.dump(), db.dump());
        assert_eq!(back.now(), 777);
        // Schema survived: constraints still enforced.
        assert!(back
            .execute("INSERT INTO users (id, name) VALUES (1, 'dup')")
            .is_err());
        assert!(back
            .execute("INSERT INTO posts (user_id, body) VALUES (99, 'z')")
            .is_err());
        // AUTO_INCREMENT continues where it left off.
        let r = back
            .execute("INSERT INTO users (name) VALUES ('zoe')")
            .unwrap();
        assert_eq!(r.last_insert_id, Some(3));
        // Cascade action survived.
        back.execute("DELETE FROM users WHERE id = 1").unwrap();
        assert_eq!(
            back.execute("SELECT COUNT(*) FROM posts")
                .unwrap()
                .scalar()
                .unwrap(),
            &crate::Value::Int(1)
        );
    }

    #[test]
    fn row_ids_survive_a_round_trip() {
        let db = sample();
        // Punch a hole: delete the first post so a free slot exists.
        db.execute("DELETE FROM posts WHERE id = 1").unwrap();
        let before = db.snapshot_tables().unwrap();
        let back = decode(&encode(&db).unwrap()).unwrap();
        let after = back.snapshot_tables().unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.rows, a.rows, "row ids drifted in {}", b.schema.name);
            assert_eq!(b.slots, a.slots, "slot count drifted in {}", b.schema.name);
        }
        // The freed slot is reused, not appended past it.
        back.execute("INSERT INTO posts (user_id, body) VALUES (2, 'new')")
            .unwrap();
        assert_eq!(
            back.snapshot_tables().unwrap()[1].slots,
            before[1].slots,
            "insert should reuse the free slot"
        );
    }

    #[test]
    fn live_tables_encode_like_copied_images() {
        // A checkpoint reads the live tables in place; a WAL DDL record
        // encodes a copied image. Both must write the same bytes.
        let db = sample();
        db.execute("DELETE FROM posts WHERE id = 1").unwrap();
        let mut w = Writer::new();
        w.buf.extend_from_slice(MAGIC);
        w.i64(db.global_now());
        w.u64(db.wal_last_lsn());
        let images = db.snapshot_tables().unwrap();
        w.u32(images.len() as u32);
        for image in &images {
            image.encode(&mut w);
        }
        assert_eq!(encode(&db).unwrap(), w.buf);
    }

    #[test]
    fn v2_snapshots_still_load() {
        // A hand-built v2 image: one table, two columns, one row, encoded
        // with the pre-WAL layout (no slot ids, no watermark).
        let mut w = Writer::new();
        w.buf.extend_from_slice(b"EDNADB\x02\x00");
        w.i64(42); // now
        w.u32(1); // one table
        w.string("t");
        w.u32(2); // columns
        for (name, ty) in [("id", "INT"), ("name", "TEXT")] {
            w.string(name);
            w.string(ty);
            w.u8(0); // not_null
            w.u8(0); // unique
            w.u8(u8::from(name == "id")); // auto_increment
            w.u8(0); // pii
            w.u8(0); // no default
        }
        w.u32(0); // primary key = column 0
        w.u32(0); // no foreign keys
        w.i64(2); // next_auto
        w.u32(0); // no explicit indexes
        w.u32(1); // one row (v2: no slot header, no row id)
        w.value(&Value::Int(1));
        w.value(&Value::Text("bea".into()));
        let (db, watermark) = decode_with_watermark(&w.buf).unwrap();
        assert_eq!(watermark, 0);
        assert_eq!(db.now(), 42);
        assert_eq!(
            db.execute("SELECT name FROM t WHERE id = 1")
                .unwrap()
                .scalar()
                .unwrap(),
            &Value::Text("bea".into())
        );
    }

    #[test]
    fn explicit_indexes_survive() {
        let db = sample();
        let back = decode(&encode(&db).unwrap()).unwrap();
        // The explicit index exists: creating it again collides.
        assert!(back
            .execute("CREATE INDEX posts_by_user ON posts (user_id)")
            .is_err());
    }

    #[test]
    fn save_load_file_round_trip() {
        let db = sample();
        let path =
            std::env::temp_dir().join(format!("edna_snapshot_test_{}.edna", std::process::id()));
        save(&db, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.dump(), db.dump());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn saved_file_corruption_is_caught_by_checksum() {
        let db = sample();
        let path =
            std::env::temp_dir().join(format!("edna_snapshot_corrupt_{}.edna", std::process::id()));
        save(&db, &path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncation (a crash mid-write that somehow bypassed the rename).
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let err = load(&path).err().unwrap().to_string();
        assert!(err.contains("checksum"), "got: {err}");

        // A single flipped bit mid-body.
        let mut flipped = full.clone();
        flipped[full.len() / 2] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load(&path).is_err());

        // Intact bytes still load.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(load(&path).unwrap().dump(), db.dump());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let db = sample();
        let data = encode(&db).unwrap();
        assert!(decode(&data[..data.len() - 1]).is_err(), "truncated");
        let mut wrong_magic = data.clone();
        wrong_magic[0] = b'X';
        assert!(decode(&wrong_magic).is_err(), "bad magic");
        let mut bad_version = data.clone();
        bad_version[6] = 9;
        assert!(decode(&bad_version).is_err(), "unknown version");
        let mut trailing = data;
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing bytes");
    }
}
