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

use std::io::Write;
use std::path::Path;

use edna_util::sha256::{sha256, DIGEST_LEN};

use crate::database::Database;
use crate::error::{Error, Result};
use crate::exec::Inner;
use crate::schema::{ColumnDef, ForeignKey, ReferentialAction, TableSchema};
use crate::storage::{RowId, Table};
use crate::value::{DataType, Row, Value};

const MAGIC: &[u8; 8] = b"EDNADB\x03\x00";
const MAGIC_PREFIX: &[u8; 6] = b"EDNADB";

// ---- little byte helpers (self-contained; no external serializer) ---------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
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

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn err(&self, what: &str) -> Error {
        Error::Eval(format!("corrupt snapshot at byte {}: {what}", self.pos))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(self.err("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
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

/// The serializable image of one table.
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

    /// Writes this image (the payload of a WAL DDL redo record).
    pub(crate) fn encode(&self, w: &mut Writer) {
        encode_table(
            w,
            &self.schema,
            self.next_auto,
            &self.indexes,
            self.slots,
            self.rows.iter().map(|(id, row)| (*id, row)),
        );
    }

    /// Materializes the image back into a [`Table`], preserving row ids.
    pub(crate) fn into_table(self) -> Result<Table> {
        let mut table = Table::new(self.schema);
        for (name, column, unique) in self.indexes {
            let pos = table.schema.require_column(&column)?;
            table.add_index(name, pos, unique)?;
        }
        for (id, row) in self.rows {
            if row.len() != table.schema.arity() {
                return Err(Error::Eval(format!(
                    "snapshot row arity mismatch in {}",
                    table.schema.name
                )));
            }
            table.restore_at(id, row);
        }
        table.reserve_slots(self.slots);
        table.next_auto = self.next_auto;
        Ok(table)
    }
}

/// Writes one table image (v3 layout). The one encoder behind the snapshot
/// body, which reads each live [`Table`] in place so a checkpoint copies no
/// rows, and the WAL's DDL redo records, which carry a [`TableSnapshot`];
/// [`decode_table`] reads both.
fn encode_table<'r>(
    w: &mut Writer,
    schema: &TableSchema,
    next_auto: i64,
    indexes: &[(String, String, bool)],
    slots: usize,
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
    // Rows, addressed by slot id; the count precedes them, so it is
    // patched in once they are written.
    w.u64(slots as u64);
    let count_at = w.buf.len();
    w.u32(0);
    let mut count: u32 = 0;
    for (id, row) in rows {
        w.u64(id as u64);
        for v in row {
            w.value(v);
        }
        count += 1;
    }
    w.buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// Reads one table image. `version` selects the row layout: v2 rows carry
/// no slot ids (they are assigned sequentially), v3 rows do.
pub(crate) fn decode_table(r: &mut Reader<'_>, version: u8) -> Result<TableSnapshot> {
    let name = r.string()?;
    let mut schema = TableSchema::new(name);
    let n_cols = r.u32()? as usize;
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
    let n_fks = r.u32()? as usize;
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
    let next_auto = r.i64()?;
    let n_indexes = r.u32()? as usize;
    let mut indexes = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        let idx_name = r.string()?;
        let column = r.string()?;
        let unique = r.u8()? != 0;
        indexes.push((idx_name, column, unique));
    }
    let slots = if version >= 3 { r.u64()? as usize } else { 0 };
    let n_rows = r.u32()? as usize;
    let arity = schema.arity();
    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let id = if version >= 3 {
            r.u64()? as usize
        } else {
            i as RowId
        };
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(r.value()?);
        }
        rows.push((id, row));
    }
    Ok(TableSnapshot {
        schema,
        next_auto,
        indexes,
        rows,
        slots: slots.max(n_rows),
    })
}

/// Serializes the whole database to bytes. The header's WAL watermark is
/// the attached WAL's last assigned LSN (0 without one), captured *before*
/// the tables are read: a frame appended mid-encode may then be replayed
/// over state that already contains it, which idempotent replay tolerates,
/// whereas a too-high watermark would silently skip a frame.
pub fn encode(db: &Database) -> Result<Vec<u8>> {
    let watermark = db.wal_last_lsn();
    Ok(db.encode_snapshot(watermark))
}

/// Serializes the engine state the caller holds locked, reading every table
/// in place. Split out of [`encode`] so `Database::save` can build the
/// image while holding the engine lock (checkpoint atomicity) without
/// re-entering it.
pub(crate) fn encode_inner(inner: &Inner, watermark: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.i64(inner.now);
    w.u64(watermark);
    w.u32(inner.table_order.len() as u32);
    for key in &inner.table_order {
        let t = &inner.tables[key];
        encode_table(
            &mut w,
            &t.schema,
            t.next_auto,
            &explicit_indexes(t),
            t.slot_count(),
            t.iter(),
        );
    }
    w.buf
}

/// Reconstructs a database from bytes produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Database> {
    Ok(decode_with_watermark(data)?.0)
}

/// Like [`decode`], but also returns the WAL watermark the snapshot was
/// checkpointed at (0 for v2 snapshots, which predate the WAL).
pub fn decode_with_watermark(data: &[u8]) -> Result<(Database, u64)> {
    let mut r = Reader::new(data);
    let head = r.take(8)?;
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
    let n_tables = r.u32()? as usize;
    let mut snapshots = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        snapshots.push(decode_table(&mut r, version)?);
    }
    if r.remaining() != 0 {
        return Err(r.err("trailing bytes"));
    }
    let db = Database::from_snapshots(snapshots)?;
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
    let data = encode(db)?;
    write_atomic(&data, path.as_ref())
}

/// Durably writes an encoded snapshot image to `path`: checksum trailer
/// appended, temp file fsynced, atomic rename, parent directory fsynced.
pub(crate) fn write_atomic(data: &[u8], path: &Path) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| Error::Eval(format!("snapshot I/O: {e}"));
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(data).map_err(io)?;
    f.write_all(&sha256(data)).map_err(io)?;
    f.sync_all().map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads a database from `path`, verifying the checksum trailer [`save`]
/// wrote. Truncation and bitflips are reported as corruption, never
/// decoded into a wrong database.
pub fn load(path: impl AsRef<Path>) -> Result<Database> {
    Ok(load_with_watermark(path)?.0)
}

/// Like [`load`], but also returns the snapshot's WAL watermark.
pub fn load_with_watermark(path: impl AsRef<Path>) -> Result<(Database, u64)> {
    let data =
        std::fs::read(path.as_ref()).map_err(|e| Error::Eval(format!("snapshot I/O: {e}")))?;
    decode_checked(&data)
}

/// Verifies the checksum trailer over a full snapshot *file image* and
/// decodes the body. Exposed so recovery can vet a stray `.tmp` file
/// before promoting it to the authoritative snapshot.
pub fn decode_checked(data: &[u8]) -> Result<(Database, u64)> {
    if data.len() < DIGEST_LEN {
        return Err(Error::Eval(
            "corrupt snapshot: too short for a checksum trailer".to_string(),
        ));
    }
    let (body, sum) = data.split_at(data.len() - DIGEST_LEN);
    if sha256(body) != sum {
        return Err(Error::Eval(
            "corrupt snapshot: checksum mismatch (truncated or bit-flipped)".to_string(),
        ));
    }
    decode_with_watermark(body)
}

#[cfg(test)]
mod tests {
    use super::*;

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
