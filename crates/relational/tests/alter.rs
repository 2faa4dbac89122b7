//! Integration tests for `ALTER TABLE` (schema evolution substrate).

use edna_relational::{Database, Error, Value};

fn db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL);
         CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
         body TEXT, FOREIGN KEY (user_id) REFERENCES users(id));",
    )
    .unwrap();
    db.execute("INSERT INTO users (name) VALUES ('bea'), ('mel')")
        .unwrap();
    db.execute("INSERT INTO posts (user_id, body) VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    db
}

/// The error a test transaction returns to roll itself back.
fn roll_back() -> Error {
    Error::Txn("rolled back by the test".to_string())
}

#[test]
fn add_column_fills_default() {
    let db = db();
    db.execute("ALTER TABLE users ADD COLUMN karma INT NOT NULL DEFAULT 5")
        .unwrap();
    let r = db
        .execute("SELECT name, karma FROM users ORDER BY id")
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Text("bea".into()), Value::Int(5)]);
    // New inserts see the column too.
    db.execute("INSERT INTO users (name, karma) VALUES ('zoe', 9)")
        .unwrap();
    assert_eq!(
        db.execute("SELECT karma FROM users WHERE name = 'zoe'")
            .unwrap()
            .rows[0][0],
        Value::Int(9)
    );
}

#[test]
fn add_column_nullable_fills_null() {
    let db = db();
    db.execute("ALTER TABLE users ADD COLUMN bio TEXT").unwrap();
    let r = db.execute("SELECT bio FROM users").unwrap();
    assert!(r.rows.iter().all(|row| row[0].is_null()));
}

#[test]
fn add_column_rejections() {
    let db = db();
    // NOT NULL without default is rejected (existing rows can't comply).
    assert!(db
        .execute("ALTER TABLE users ADD COLUMN x INT NOT NULL")
        .is_err());
    // Duplicate name.
    assert!(db
        .execute("ALTER TABLE users ADD COLUMN name TEXT")
        .is_err());
    // AUTO_INCREMENT.
    assert!(db
        .execute("ALTER TABLE users ADD COLUMN n INT AUTO_INCREMENT")
        .is_err());
    // PRIMARY KEY in ADD COLUMN.
    assert!(db
        .execute("ALTER TABLE users ADD COLUMN p INT PRIMARY KEY")
        .is_err());
}

#[test]
fn add_unique_column_enforces_uniqueness() {
    let db = db();
    db.execute("ALTER TABLE users ADD COLUMN email TEXT UNIQUE")
        .unwrap();
    db.execute("UPDATE users SET email = 'a@x' WHERE id = 1")
        .unwrap();
    assert!(matches!(
        db.execute("UPDATE users SET email = 'a@x' WHERE id = 2"),
        Err(Error::UniqueViolation { .. })
    ));
}

#[test]
fn drop_column_shifts_and_reindexes() {
    let db = db();
    db.execute("ALTER TABLE posts ADD COLUMN score INT DEFAULT 1")
        .unwrap();
    db.execute("CREATE INDEX posts_by_score ON posts (score)")
        .unwrap();
    db.execute("ALTER TABLE posts DROP COLUMN body").unwrap();
    // Columns after the dropped one keep working (including their index).
    let r = db
        .execute("SELECT id, user_id, score FROM posts WHERE score = 1")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert!(db.execute("SELECT body FROM posts").is_err());
    // The PK survives and is still enforced.
    assert!(db
        .execute("INSERT INTO posts (id, user_id, score) VALUES (1, 1, 2)")
        .is_err());
}

#[test]
fn drop_column_protections() {
    let db = db();
    assert!(
        db.execute("ALTER TABLE posts DROP COLUMN id").is_err(),
        "primary key"
    );
    assert!(
        db.execute("ALTER TABLE posts DROP COLUMN user_id").is_err(),
        "fk column"
    );
    assert!(
        db.execute("ALTER TABLE users DROP COLUMN id").is_err(),
        "referenced parent"
    );
    assert!(
        db.execute("ALTER TABLE users DROP COLUMN ghost").is_err(),
        "missing"
    );
}

#[test]
fn rename_column_updates_fk_metadata() {
    let db = db();
    db.execute("ALTER TABLE users RENAME COLUMN id TO userId")
        .unwrap();
    // Child FK metadata followed the rename: parent deletes still restrict.
    assert!(db.execute("DELETE FROM users WHERE userId = 1").is_err());
    // And inserts still validate against the renamed parent column.
    assert!(db
        .execute("INSERT INTO posts (user_id, body) VALUES (99, 'z')")
        .is_err());
    db.execute("INSERT INTO posts (user_id, body) VALUES (2, 'z')")
        .unwrap();
    // Old name is gone.
    assert!(db.execute("SELECT id FROM users").is_err());
}

#[test]
fn rename_rejections() {
    let db = db();
    assert!(db
        .execute("ALTER TABLE users RENAME COLUMN ghost TO x")
        .is_err());
    assert!(db
        .execute("ALTER TABLE users RENAME COLUMN id TO name")
        .is_err());
}

#[test]
fn alter_rolls_back() {
    let db = db();
    let before = db.dump();
    let r: Result<(), Error> = db.transaction(|db| {
        db.execute("ALTER TABLE users ADD COLUMN karma INT DEFAULT 0")?;
        db.execute("ALTER TABLE posts DROP COLUMN body")?;
        db.execute("ALTER TABLE users RENAME COLUMN name TO display_name")?;
        db.execute("UPDATE users SET karma = 3 WHERE id = 1")?;
        Err(roll_back())
    });
    assert_eq!(r.unwrap_err(), roll_back());
    assert_eq!(db.dump(), before);
    // Schema fully restored, including FK behavior.
    db.execute("SELECT name, id FROM users").unwrap();
    db.execute("SELECT body FROM posts").unwrap();
    assert!(db.execute("SELECT karma FROM users").is_err());
}

#[test]
fn rename_rolls_back_child_fk_metadata() {
    let db = db();
    let r: Result<(), Error> = db.transaction(|db| {
        db.execute("ALTER TABLE users RENAME COLUMN id TO userId")?;
        Err(roll_back())
    });
    assert_eq!(r.unwrap_err(), roll_back());
    // Child FK must point at `id` again.
    let schema = db.schema("posts").unwrap();
    assert_eq!(schema.foreign_keys[0].parent_column, "id");
    assert!(db
        .execute("INSERT INTO posts (user_id, body) VALUES (99, 'z')")
        .is_err());
}
