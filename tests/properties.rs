//! Randomized property tests for the core invariants listed in
//! DESIGN.md §7: codec round-trips, crypto round-trips, parser
//! round-trips, transactional atomicity, and disguise/reveal round-trips.
//!
//! Formerly proptest-based; now driven by the in-repo deterministic PRNG
//! so the suite runs fully offline. Every test uses a fixed seed, so
//! failures reproduce exactly.

use edna::core::spec::{DisguiseSpecBuilder, Generator, Modifier};
use edna::core::Disguiser;
use edna::relational::{parse_expr, Database, Error as RelError, Expr, Value};
use edna::util::buf::BytesMut;
use edna::util::rng::{Prng, Rng};
use edna::vault::{recover, split, VaultKey};

// ---- generators -----------------------------------------------------------

fn arb_text(rng: &mut impl Rng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '%_";
    let len = rng.gen_range(0usize..24);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

fn arb_bytes(rng: &mut impl Rng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn arb_value(rng: &mut impl Rng) -> Value {
    match rng.gen_range(0usize..6) {
        0 => Value::Null,
        1 => Value::Int(rng.gen::<i64>()),
        // Finite floats only: NaN breaks Eq-based comparisons by design.
        2 => Value::Float(rng.gen_range(-1e12..1e12)),
        3 => Value::Text(arb_text(rng)),
        4 => Value::Bool(rng.gen::<bool>()),
        _ => Value::Bytes(arb_bytes(rng, 32)),
    }
}

/// Small expression trees over two column names and literals.
fn arb_expr(rng: &mut impl Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0usize..4) {
            0 => Expr::Literal(arb_value(rng)),
            1 => Expr::col("a"),
            2 => Expr::col("b"),
            _ => Expr::Param("UID".to_string()),
        };
    }
    match rng.gen_range(0usize..4) {
        0 => Expr::eq(arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)),
        1 => Expr::and(arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)),
        2 => {
            let n = rng.gen_range(0usize..3);
            Expr::InList {
                expr: Box::new(arb_expr(rng, depth - 1)),
                list: (0..n).map(|_| arb_expr(rng, depth - 1)).collect(),
                negated: rng.gen::<bool>(),
            }
        }
        _ => Expr::IsNull {
            expr: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.gen::<bool>(),
        },
    }
}

// ---- codec and crypto properties -------------------------------------------

#[test]
fn value_codec_round_trips() {
    let mut rng = Prng::seed_from_u64(0x01);
    for _ in 0..256 {
        let v = arb_value(&mut rng);
        let mut buf = BytesMut::new();
        edna::vault::serialize::write_value(&mut buf, &v);
        let mut bytes = buf.freeze();
        let back = edna::vault::serialize::read_value(&mut bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(bytes.len(), 0, "no trailing bytes");
    }
}

#[test]
fn sql_literal_round_trips() {
    // Rendering a value as a SQL literal and re-parsing yields the
    // same value (floats compare exactly; ints stay ints).
    let mut rng = Prng::seed_from_u64(0x02);
    for _ in 0..256 {
        let v = arb_value(&mut rng);
        let lit = v.to_sql_literal();
        let expr = parse_expr(&lit).unwrap();
        let parsed = match expr {
            Expr::Literal(x) => x,
            Expr::Unary {
                op: edna::relational::UnOp::Neg,
                expr,
            } => match *expr {
                Expr::Literal(Value::Int(i)) => Value::Int(-i),
                Expr::Literal(Value::Float(f)) => Value::Float(-f),
                other => panic!("unexpected negated literal {other:?}"),
            },
            other => panic!("expected literal for {lit}, got {other:?}"),
        };
        match (&v, &parsed) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() <= a.abs() * 1e-12),
            // Whole floats render as "x.0" and may re-parse as Float: ok.
            _ => assert_eq!(&parsed, &v),
        }
    }
}

#[test]
fn expr_display_parse_round_trips() {
    let mut rng = Prng::seed_from_u64(0x03);
    for _ in 0..128 {
        let e = arb_expr(&mut rng, 3);
        let rendered = e.to_string();
        let reparsed = parse_expr(&rendered);
        assert!(reparsed.is_ok(), "failed to reparse {rendered}");
        // Displaying again is a fixpoint.
        assert_eq!(reparsed.unwrap().to_string(), rendered);
    }
}

#[test]
fn shamir_round_trips() {
    let mut rng = Prng::seed_from_u64(0x04);
    for _ in 0..64 {
        let secret = {
            let len = rng.gen_range(1usize..64);
            (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>()
        };
        let threshold = rng.gen_range(1u8..5);
        let extra = rng.gen_range(0u8..3);
        let shares_n = threshold + extra;
        let shares = split(&secret, shares_n, threshold, &mut rng).unwrap();
        // Any `threshold`-sized prefix recovers.
        let rec = recover(&shares[..threshold as usize]).unwrap();
        assert_eq!(rec, secret);
        // All shares recover too.
        assert_eq!(recover(&shares).unwrap(), secret);
    }
}

#[test]
fn seal_open_round_trips() {
    let mut rng = Prng::seed_from_u64(0x05);
    for _ in 0..64 {
        let payload = arb_bytes(&mut rng, 256);
        let key = VaultKey::generate(&mut rng);
        let sealed = edna::vault::crypto::seal(&key, &payload, &mut rng);
        assert_eq!(edna::vault::crypto::open(&key, &sealed).unwrap(), payload);
        // Any single-bit corruption is detected.
        let flip = rng.gen::<u64>() as u16;
        let mut tampered = sealed.clone();
        let pos = (flip as usize) % tampered.len();
        tampered[pos] ^= 1 << (flip % 8) as u8;
        assert!(edna::vault::crypto::open(&key, &tampered).is_err());
    }
}

// ---- engine properties ------------------------------------------------------

#[test]
fn transaction_rollback_restores_state() {
    let mut rng = Prng::seed_from_u64(0x06);
    for _ in 0..32 {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, karma INT)")
            .unwrap();
        db.execute("INSERT INTO t (name, karma) VALUES ('base', 0)")
            .unwrap();
        let before = db.dump();
        let rolled_back: Result<(), RelError> = db.transaction(|db| {
            let n = rng.gen_range(1usize..12);
            for _ in 0..n {
                let name: String = (0..rng.gen_range(1usize..=8))
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect();
                let karma = rng.gen_range(-100i64..100);
                db.execute(&format!(
                    "INSERT INTO t (name, karma) VALUES ('{name}', {karma})"
                ))?;
            }
            db.execute("UPDATE t SET karma = karma + 1")?;
            db.execute("DELETE FROM t WHERE karma > 50")?;
            Err(RelError::Txn("roll back".to_string()))
        });
        assert_eq!(rolled_back, Err(RelError::Txn("roll back".to_string())));
        assert_eq!(db.dump(), before);
    }
}

#[test]
fn disguise_reveal_round_trips() {
    let mut rng = Prng::seed_from_u64(0x07);
    for _ in 0..32 {
        let n_users = rng.gen_range(2usize..6);
        let n_posts = rng.gen_range(1usize..15);
        let target = rng.gen_range(0usize..2);
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
             disabled BOOL NOT NULL DEFAULT FALSE);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id));",
        )
        .unwrap();
        for i in 0..n_users {
            db.execute(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
                .unwrap();
        }
        for i in 0..n_posts {
            let owner = rng.gen_range(1..=n_users);
            db.execute(&format!(
                "INSERT INTO posts (user_id, body) VALUES ({owner}, 'p{i}')"
            ))
            .unwrap();
        }
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("Scrub")
                .user_scoped()
                .modify("posts", Some("user_id = $UID"), "body", Modifier::Redact)
                .decorrelate("posts", Some("user_id = $UID"), "user_id", "users")
                .remove("users", Some("id = $UID"))
                .placeholder("users", "name", Generator::Random)
                .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
                .build()
                .unwrap(),
        )
        .unwrap();

        let before = db.dump();
        let user = (target % n_users + 1) as i64;
        let report = edna.apply("Scrub", Some(&Value::Int(user))).unwrap();
        // Privacy goal: nothing attributed to the user, account gone.
        let attributed = db
            .execute(&format!(
                "SELECT COUNT(*) FROM posts WHERE user_id = {user}"
            ))
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(attributed, 0);

        // Round trip: reveal restores the exact logical state.
        edna.reveal(report.disguise_id).unwrap();
        let mut after = db.dump();
        let mut expected = before;
        after.remove(edna::core::HISTORY_TABLE);
        expected.remove(edna::core::HISTORY_TABLE);
        assert_eq!(after, expected);
    }
}

#[test]
fn modifiers_never_panic() {
    let mut rng = Prng::seed_from_u64(0x08);
    for _ in 0..64 {
        let v = arb_value(&mut rng);
        let n = rng.gen_range(0usize..64);
        let w = rng.gen_range(1i64..10_000);
        for m in [
            Modifier::SetNull,
            Modifier::Redact,
            Modifier::HashText,
            Modifier::Truncate(n),
            Modifier::Bucket(w),
            Modifier::RandomInt { lo: -5, hi: 5 },
            Modifier::RandomText(n),
            Modifier::Fixed(v.clone()),
        ] {
            let _ = m.apply(&v, &mut rng);
        }
    }
}

// ---- like-match property -----------------------------------------------------

fn arb_lower(rng: &mut impl Rng, lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

#[test]
fn like_percent_always_matches_suffix() {
    let mut rng = Prng::seed_from_u64(0x09);
    for _ in 0..256 {
        // `p%` matches any string starting with p.
        let s = arb_lower(&mut rng, 0, 16);
        let p = arb_lower(&mut rng, 0, 4);
        let text = format!("{p}{s}");
        let r = edna::relational::expr::like_match(&text, &format!("{p}%"));
        assert!(r);
    }
}

#[test]
fn like_underscore_counts_characters() {
    let mut rng = Prng::seed_from_u64(0x0A);
    for _ in 0..256 {
        let s = arb_lower(&mut rng, 1, 16);
        let pattern: String = "_".repeat(s.chars().count());
        assert!(edna::relational::expr::like_match(&s, &pattern));
        let longer = format!("{pattern}_");
        assert!(!edna::relational::expr::like_match(&s, &longer));
    }
}

// ---- random disguise interleavings -------------------------------------------

/// Apply scrubs and reveals in a random interleaving, then reveal
/// whatever is left: the database must return to its exact original
/// logical state, and referential integrity must hold at every step.
#[test]
fn random_interleavings_restore_exact_state() {
    let mut rng = Prng::seed_from_u64(0x0B);
    for round in 0..16 {
        let steps: Vec<(u8, u8)> = (0..rng.gen_range(1usize..12))
            .map(|_| (rng.gen::<u8>(), rng.gen::<u8>()))
            .collect();
        let include_global = round % 2 == 0;
        let n_users = 4usize;
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
             disabled BOOL NOT NULL DEFAULT FALSE);
             CREATE TABLE posts (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id));",
        )
        .unwrap();
        for i in 0..n_users {
            db.execute(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
                .unwrap();
        }
        for i in 0..12 {
            let owner = rng.gen_range(1..=n_users);
            db.execute(&format!(
                "INSERT INTO posts (user_id, body) VALUES ({owner}, 'post {i}')"
            ))
            .unwrap();
        }
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("Scrub")
                .user_scoped()
                .decorrelate("posts", Some("user_id = $UID"), "user_id", "users")
                .remove("users", Some("id = $UID"))
                .placeholder("users", "name", Generator::Random)
                .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
                .build()
                .unwrap(),
        )
        .unwrap();
        edna.register(
            DisguiseSpecBuilder::new("RedactAll")
                .modify("posts", None, "body", Modifier::Redact)
                .build()
                .unwrap(),
        )
        .unwrap();

        let original = db.dump();
        let check_fk_integrity = || {
            // Every post's user_id must reference an existing user.
            let orphans = db
                .execute(
                    "SELECT COUNT(*) FROM posts p LEFT JOIN users u ON u.id = p.user_id \
                     WHERE u.id IS NULL",
                )
                .unwrap();
            orphans.scalar().unwrap().as_int().unwrap()
        };

        // scrubbed user -> active application id; plus optional global id.
        let mut active: Vec<(i64, u64)> = Vec::new();
        let mut global_active: Option<u64> = None;
        let mut global_used = false;
        for (a, b) in steps {
            let do_apply = a % 2 == 0;
            if do_apply {
                if include_global && !global_used && a % 4 == 0 {
                    let r = edna.apply("RedactAll", None).unwrap();
                    global_active = Some(r.disguise_id);
                    global_used = true;
                } else {
                    let candidates: Vec<i64> = (1..=n_users as i64)
                        .filter(|u| !active.iter().any(|(au, _)| au == u))
                        .collect();
                    if let Some(&user) = candidates.get(b as usize % candidates.len().max(1)) {
                        let r = edna.apply("Scrub", Some(&Value::Int(user))).unwrap();
                        active.push((user, r.disguise_id));
                    }
                }
            } else if !active.is_empty() {
                let idx = b as usize % active.len();
                let (_, id) = active.remove(idx);
                edna.reveal(id).unwrap();
            }
            assert_eq!(check_fk_integrity(), 0, "dangling FK mid-sequence");
        }
        // Reveal everything still active, in random-ish order.
        while let Some((_, id)) = active.pop() {
            edna.reveal(id).unwrap();
        }
        if let Some(id) = global_active {
            edna.reveal(id).unwrap();
        }

        let mut final_state = db.dump();
        let mut expected = original;
        final_state.remove(edna::core::HISTORY_TABLE);
        expected.remove(edna::core::HISTORY_TABLE);
        assert_eq!(final_state, expected);
    }
}

// ---- snapshot round-trip ------------------------------------------------------

/// Databases with random content survive encode → decode exactly
/// (schema, rows, AUTO_INCREMENT counters, and the logical clock).
#[test]
fn snapshot_round_trips_random_databases() {
    let mut rng = Prng::seed_from_u64(0x0C);
    for _ in 0..16 {
        let db = Database::new();
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, payload TEXT, n INT, \
             b BLOB, flag BOOL)",
        )
        .unwrap();
        let n_rows = rng.gen_range(0usize..20);
        for _ in 0..n_rows {
            // Store an arbitrary value's SQL literal as payload text and
            // exercise every column type.
            let v = arb_value(&mut rng);
            let n = rng.gen_range(i32::MIN..=i32::MAX);
            db.execute(&format!(
                "INSERT INTO t (payload, n, b, flag) VALUES ({}, {n}, X'AB', TRUE)",
                Value::Text(v.to_sql_literal()).to_sql_literal()
            ))
            .unwrap();
        }
        let now = rng.gen::<i64>();
        db.set_now(now);
        let encoded = edna::relational::snapshot::encode(&db).unwrap();
        let back = edna::relational::snapshot::decode(&encoded).unwrap();
        assert_eq!(back.dump(), db.dump());
        assert_eq!(back.now(), now);
        // AUTO_INCREMENT continues correctly.
        let a = db
            .execute("INSERT INTO t (n) VALUES (0)")
            .unwrap()
            .last_insert_id;
        let b = back
            .execute("INSERT INTO t (n) VALUES (0)")
            .unwrap()
            .last_insert_id;
        assert_eq!(a, b);
    }
}
