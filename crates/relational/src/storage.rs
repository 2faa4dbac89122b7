//! Row storage and secondary indexes.
//!
//! A [`Table`] is a slot map of rows: deleting a row frees its slot for
//! reuse, and row ids ([`RowId`]) are slot indexes that stay stable for the
//! lifetime of the row. Indexes ([`Index`]) map a column value (under the
//! total order of [`Value::total_cmp`]) to the row ids holding it, in slot
//! order: a probe yields rows in the order a scan would visit them.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::value::{Row, Value};

/// Identifies a row slot within one table.
pub type RowId = usize;

/// A [`Value`] wrapper with a total order, usable as a BTreeMap key.
#[derive(Debug, Clone, PartialEq)]
#[repr(transparent)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A single-column secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within the database).
    pub name: String,
    /// Indexed column position in the table schema.
    pub column: usize,
    /// Whether the index enforces uniqueness (NULLs exempt, as in SQL).
    pub unique: bool,
    /// Key → row ids holding that key, ascending.
    pub map: BTreeMap<IndexKey, Vec<RowId>>,
}

impl Index {
    /// Creates an empty index.
    pub fn new(name: impl Into<String>, column: usize, unique: bool) -> Index {
        Index {
            name: name.into(),
            column,
            unique,
            map: BTreeMap::new(),
        }
    }

    /// An index over `column` of `table`'s live rows.
    pub fn over(table: &Table, column: usize) -> Index {
        let mut ix = Index::new("", column, false);
        for (id, row) in table.iter() {
            ix.insert(row[column].clone(), id);
        }
        ix
    }

    /// Row ids whose indexed column equals `key`, in slot order.
    pub fn lookup(&self, key: &Value) -> &[RowId] {
        self.map
            .get(&IndexKey(key.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row ids whose non-NULL key lies between `lo` and `hi`, in slot
    /// order. An empty or inverted range yields nothing.
    pub fn range(&self, lo: Bound<Value>, hi: Bound<Value>) -> Vec<RowId> {
        let lo = match lo {
            Bound::Unbounded => Bound::Excluded(IndexKey(Value::Null)),
            bound => bound.map(IndexKey),
        };
        let hi = hi.map(IndexKey);
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (&lo, &hi)
        {
            let both_included = matches!((&lo, &hi), (Bound::Included(_), Bound::Included(_)));
            match a.cmp(b) {
                Ordering::Greater => return Vec::new(),
                Ordering::Equal if !both_included => return Vec::new(),
                _ => {}
            }
        }
        let mut ids: Vec<RowId> = self
            .map
            .range((lo, hi))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    fn insert(&mut self, key: Value, row_id: RowId) {
        let ids = self.map.entry(IndexKey(key)).or_default();
        let at = ids.partition_point(|&id| id < row_id);
        ids.insert(at, row_id);
    }

    fn remove(&mut self, key: &Value, row_id: RowId) {
        let k = IndexKey(key.clone());
        if let Some(ids) = self.map.get_mut(&k) {
            if let Ok(at) = ids.binary_search(&row_id) {
                ids.remove(at);
            }
            if ids.is_empty() {
                self.map.remove(&k);
            }
        }
    }
}

/// One table: schema, row slots, and indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    /// Row slots; `None` marks a free slot.
    rows: Vec<Option<Row>>,
    /// Free slot list for reuse.
    free: Vec<RowId>,
    /// Next AUTO_INCREMENT value.
    pub next_auto: i64,
    /// Secondary indexes (including the implicit PK/UNIQUE/FOREIGN KEY ones).
    pub indexes: Vec<Index>,
    /// Number of live rows.
    live: usize,
}

impl Table {
    /// Creates an empty table, building implicit indexes for the primary key
    /// and every UNIQUE column, then a non-unique one for every FOREIGN KEY
    /// column those leave unindexed (InnoDB's rule: a referencing column
    /// always has an access path, so child lookups and `fk = $X`
    /// predicates probe rather than scan). Implicit indexes are named
    /// `_auto_<table>_<column>`; snapshots skip them and rebuild them here.
    pub fn new(schema: TableSchema) -> Table {
        let auto = |col: &str| format!("_auto_{}_{col}", schema.name);
        let mut indexes = Vec::new();
        for (i, col) in schema.columns.iter().enumerate() {
            if col.unique || schema.primary_key == Some(i) {
                indexes.push(Index::new(auto(&col.name), i, true));
            }
        }
        for fk in &schema.foreign_keys {
            let Some(i) = schema.column_index(&fk.column) else {
                continue;
            };
            if !indexes.iter().any(|ix| ix.column == i) {
                indexes.push(Index::new(auto(&schema.columns[i].name), i, false));
            }
        }
        Table {
            schema,
            rows: Vec::new(),
            free: Vec::new(),
            next_auto: 1,
            indexes,
            live: 0,
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot count, live and free. Slot ids below this bound may be
    /// referenced by snapshots or WAL records.
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Extends the slot array with free slots up to `total` (no-op if the
    /// table already has that many). Used when rebuilding from a snapshot
    /// so the freed tail keeps its ids instead of being compacted away.
    pub fn reserve_slots(&mut self, total: usize) {
        while self.rows.len() < total {
            self.free.push(self.rows.len());
            self.rows.push(None);
        }
    }

    /// Returns the row stored at `id`, if live.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id).and_then(|r| r.as_ref())
    }

    /// Iterates `(RowId, &Row)` over live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }

    /// All live row ids, in slot order.
    pub fn row_ids(&self) -> Vec<RowId> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    /// The index over `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.column == column)
    }

    /// Checks unique constraints for a candidate row (optionally ignoring
    /// one row id, for updates of the same row).
    pub fn check_unique(&self, row: &Row, ignore: Option<RowId>) -> Result<()> {
        for ix in &self.indexes {
            if !ix.unique {
                continue;
            }
            let v = &row[ix.column];
            if v.is_null() {
                continue;
            }
            let hits = ix.lookup(v);
            if hits.iter().any(|&id| Some(id) != ignore) {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    column: self.schema.columns[ix.column].name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Inserts a fully materialized row (constraints already checked),
    /// returning its new row id. Updates all indexes.
    pub fn insert_unchecked(&mut self, row: Row) -> RowId {
        let id = match self.free.pop() {
            Some(slot) => {
                self.rows[slot] = Some(row);
                slot
            }
            None => {
                self.rows.push(Some(row));
                self.rows.len() - 1
            }
        };
        self.live += 1;
        let row_ref = self.rows[id].as_ref().expect("just inserted");
        let keys: Vec<(usize, Value)> = self
            .indexes
            .iter()
            .map(|ix| (ix.column, row_ref[ix.column].clone()))
            .collect();
        for (i, (_, key)) in keys.into_iter().enumerate() {
            self.indexes[i].insert(key, id);
        }
        id
    }

    /// Re-inserts a row at a specific slot (used by transaction undo),
    /// panicking in debug builds if the slot is occupied.
    pub fn restore_at(&mut self, id: RowId, row: Row) {
        while self.rows.len() <= id {
            self.free.push(self.rows.len());
            self.rows.push(None);
        }
        debug_assert!(self.rows[id].is_none(), "restore into occupied slot");
        self.free.retain(|&f| f != id);
        for ix in &mut self.indexes {
            ix.insert(row[ix.column].clone(), id);
        }
        self.rows[id] = Some(row);
        self.live += 1;
    }

    /// Removes the row at `id`, returning it. Updates all indexes.
    pub fn remove(&mut self, id: RowId) -> Option<Row> {
        let row = self.rows.get_mut(id)?.take()?;
        for ix in &mut self.indexes {
            ix.remove(&row[ix.column], id);
        }
        self.free.push(id);
        self.live -= 1;
        Some(row)
    }

    /// Replaces the row at `id` with `new_row` (constraints already
    /// checked), returning the old row. Updates indexes for changed keys.
    pub fn replace(&mut self, id: RowId, new_row: Row) -> Option<Row> {
        let slot = self.rows.get_mut(id)?;
        let old = slot.take()?;
        for ix in &mut self.indexes {
            if old[ix.column] != new_row[ix.column] {
                ix.remove(&old[ix.column], id);
                ix.insert(new_row[ix.column].clone(), id);
            }
        }
        self.rows[id] = Some(new_row);
        Some(old)
    }

    /// Appends `fill` to every live row after a new column was pushed onto
    /// the schema (the caller has already extended `schema.columns`).
    pub fn fill_new_column(&mut self, fill: Value) {
        let arity = self.schema.arity();
        for slot in self.rows.iter_mut().flatten() {
            debug_assert_eq!(slot.len() + 1, arity, "schema/row arity drift");
            slot.push(fill.clone());
        }
    }

    /// Removes column `pos` from the schema, every row, and all indexes
    /// (indexes over later columns are re-pointed; indexes over `pos`
    /// itself are dropped). The caller has validated that `pos` is not the
    /// primary key and carries no foreign keys.
    pub fn drop_column(&mut self, pos: usize) {
        self.schema.columns.remove(pos);
        if let Some(pk) = self.schema.primary_key {
            debug_assert_ne!(pk, pos, "caller must protect the primary key");
            if pk > pos {
                self.schema.primary_key = Some(pk - 1);
            }
        }
        for slot in self.rows.iter_mut().flatten() {
            slot.remove(pos);
        }
        self.indexes.retain(|ix| ix.column != pos);
        for ix in &mut self.indexes {
            if ix.column > pos {
                ix.column -= 1;
            }
        }
    }

    /// Adds a new secondary index over `column`, populating it from live
    /// rows; errors if `unique` is requested but existing data collides.
    pub fn add_index(&mut self, name: String, column: usize, unique: bool) -> Result<()> {
        let mut ix = Index::new(name, column, unique);
        for (id, row) in self.iter() {
            let v = &row[column];
            if unique && !v.is_null() && !ix.lookup(v).is_empty() {
                return Err(Error::UniqueViolation {
                    table: self.schema.name.clone(),
                    column: self.schema.columns[column].name.clone(),
                    value: v.to_string(),
                });
            }
            ix.insert(v.clone(), id);
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// Drops the named index; errors if it does not exist or is implicit.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let pos = self
            .indexes
            .iter()
            .position(|ix| ix.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchIndex(name.to_string()))?;
        self.indexes.remove(pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn table() -> Table {
        let mut s = TableSchema::new("t");
        s.columns
            .push(ColumnDef::new("id", DataType::Int).not_null().unique());
        s.columns.push(ColumnDef::new("name", DataType::Text));
        s.primary_key = Some(0);
        Table::new(s)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = table();
        let a = t.insert_unchecked(vec![Value::Int(1), Value::Text("a".into())]);
        let b = t.insert_unchecked(vec![Value::Int(2), Value::Text("b".into())]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(2)), &[b]);
        let gone = t.remove(a).unwrap();
        assert_eq!(gone[1], Value::Text("a".into()));
        assert_eq!(t.len(), 1);
        assert!(t.index_on(0).unwrap().lookup(&Value::Int(1)).is_empty());
    }

    #[test]
    fn slot_reuse_and_restore() {
        let mut t = table();
        let a = t.insert_unchecked(vec![Value::Int(1), Value::Null]);
        t.remove(a);
        t.restore_at(a, vec![Value::Int(1), Value::Null]);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        // A fresh insert must not collide with the restored slot.
        let b = t.insert_unchecked(vec![Value::Int(2), Value::Null]);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unique_check() {
        let mut t = table();
        let a = t.insert_unchecked(vec![Value::Int(1), Value::Null]);
        assert!(t
            .check_unique(&vec![Value::Int(1), Value::Null], None)
            .is_err());
        assert!(t
            .check_unique(&vec![Value::Int(1), Value::Null], Some(a))
            .is_ok());
        // NULL never collides.
        assert!(t
            .check_unique(&vec![Value::Null, Value::Null], None)
            .is_ok());
    }

    #[test]
    fn replace_maintains_indexes() {
        let mut t = table();
        let a = t.insert_unchecked(vec![Value::Int(1), Value::Null]);
        t.replace(a, vec![Value::Int(5), Value::Null]);
        assert!(t.index_on(0).unwrap().lookup(&Value::Int(1)).is_empty());
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(5)), &[a]);
    }

    #[test]
    fn foreign_key_columns_get_one_implicit_index() {
        let mut s = TableSchema::new("c");
        s.columns
            .push(ColumnDef::new("id", DataType::Int).not_null().unique());
        s.columns.push(ColumnDef::new("owner", DataType::Int));
        s.columns.push(ColumnDef::new("parent", DataType::Int));
        s.primary_key = Some(0);
        for (column, parent) in [("owner", "u"), ("parent", "c"), ("id", "u")] {
            s.foreign_keys.push(crate::schema::ForeignKey {
                column: column.into(),
                parent_table: parent.into(),
                parent_column: "id".into(),
                on_delete: crate::schema::ReferentialAction::Restrict,
            });
        }
        let mut t = Table::new(s);
        // The PK already indexes `id`; `owner` and `parent` gain one each.
        let names: Vec<&str> = t.indexes.iter().map(|ix| ix.name.as_str()).collect();
        assert_eq!(names, ["_auto_c_id", "_auto_c_owner", "_auto_c_parent"]);
        assert!(!t.index_on(1).unwrap().unique);
        let a = t.insert_unchecked(vec![Value::Int(1), Value::Int(7), Value::Null]);
        let b = t.insert_unchecked(vec![Value::Int(2), Value::Int(7), Value::Int(1)]);
        assert_eq!(t.index_on(1).unwrap().lookup(&Value::Int(7)), &[a, b]);
        // NULL keys are stored, so `IS NULL` can probe.
        assert_eq!(t.index_on(2).unwrap().lookup(&Value::Null), &[a]);
    }

    #[test]
    fn add_index_rejects_duplicates_for_unique() {
        let mut t = table();
        t.insert_unchecked(vec![Value::Int(1), Value::Text("x".into())]);
        t.insert_unchecked(vec![Value::Int(2), Value::Text("x".into())]);
        assert!(t.add_index("by_name_u".into(), 1, true).is_err());
        assert!(t.add_index("by_name".into(), 1, false).is_ok());
        assert_eq!(
            t.index_on(1)
                .unwrap()
                .lookup(&Value::Text("x".into()))
                .len(),
            2
        );
    }
}
