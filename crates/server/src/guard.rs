//! Reserved-table enforcement for wire SQL.
//!
//! The engine's reserved `_edna_*` tables hold the server's own trust
//! anchors: capability hashes (`_edna_caps`), the spec registry, the
//! policy registry that drives the decay daemon, and the disguise
//! history. A wire client that can read or write them can forge or
//! destroy another tenant's reveal capability — or schedule arbitrary
//! disguises against everyone's data — so the `sql` op must
//! refuse any statement that references them — structurally, not by
//! substring, so `SELECT '_edna_caps' FROM t` stays legal while
//! `... WHERE id IN (SELECT disguise_id FROM _edna_caps)` does not.
//!
//! The CLI and the engine itself are trusted and do not go through this
//! gate (core writes history and specs through the same `execute` path).

use edna_relational::parser::{SelectStmt, Statement};
use edna_relational::{parse_statement, Expr};

/// Name prefix of tables the wire may not touch.
pub const RESERVED_PREFIX: &str = "_edna";

fn is_reserved(name: &str) -> bool {
    // The engine resolves table names case-insensitively (lowercased),
    // so the gate must too.
    name.trim()
        .to_ascii_lowercase()
        .starts_with(RESERVED_PREFIX)
}

/// Returns the first reserved table referenced by `sql`, or `None` if
/// the statement touches none (or does not parse — the engine will then
/// report the parse error itself, and an unparsable statement executes
/// nothing).
pub fn reserved_table_in(sql: &str) -> Option<String> {
    // `EXPLAIN ANALYZE <select>` is intercepted before the parser by the
    // engine; strip the same prefix so the inner SELECT is still vetted.
    let stmt_text = strip_explain_analyze(sql).unwrap_or(sql);
    let stmt = parse_statement(stmt_text).ok()?;
    let mut tables = Vec::new();
    collect_statement(&stmt, &mut tables);
    tables.into_iter().find(|t| is_reserved(t))
}

/// Whether `sql` is safe on a read-only replica: a `SELECT` (optionally
/// under `EXPLAIN ANALYZE`). Unparsable statements pass — they execute
/// nothing, and the engine's own parse error beats a misleading
/// read-only refusal.
pub fn is_read_only(sql: &str) -> bool {
    let stmt_text = strip_explain_analyze(sql).unwrap_or(sql);
    match parse_statement(stmt_text) {
        Ok(Statement::Select(_)) => true,
        Ok(_) => false,
        Err(_) => true,
    }
}

fn strip_explain_analyze(sql: &str) -> Option<&str> {
    let rest = strip_keyword(sql.trim_start(), "EXPLAIN")?;
    strip_keyword(rest.trim_start(), "ANALYZE")
}

fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let head = s.get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    rest.starts_with(char::is_whitespace).then_some(rest)
}

fn collect_statement(stmt: &Statement, out: &mut Vec<String>) {
    match stmt {
        Statement::CreateTable(schema) => {
            out.push(schema.name.clone());
            for fk in &schema.foreign_keys {
                out.push(fk.parent_table.clone());
            }
        }
        Statement::CreateIndex { table, .. } => out.push(table.clone()),
        Statement::DropTable { name, .. } => out.push(name.clone()),
        Statement::AlterTable { table, .. } => out.push(table.clone()),
        Statement::Insert { table, rows, .. } => {
            out.push(table.clone());
            for row in rows {
                for e in row {
                    collect_expr(e, out);
                }
            }
        }
        Statement::Select(select) => collect_select(select, out),
        Statement::Update {
            table,
            sets,
            where_,
        } => {
            out.push(table.clone());
            for (_, e) in sets {
                collect_expr(e, out);
            }
            if let Some(e) = where_ {
                collect_expr(e, out);
            }
        }
        Statement::Delete { table, where_ } => {
            out.push(table.clone());
            if let Some(e) = where_ {
                collect_expr(e, out);
            }
        }
    }
}

fn collect_select(select: &SelectStmt, out: &mut Vec<String>) {
    out.push(select.from.clone());
    for join in &select.joins {
        out.push(join.table.clone());
        collect_expr(&join.on, out);
    }
    for p in &select.projections {
        match p {
            edna_relational::parser::Projection::Expr { expr, .. } => collect_expr(expr, out),
            edna_relational::parser::Projection::Aggregate { arg: Some(e), .. } => {
                collect_expr(e, out)
            }
            _ => {}
        }
    }
    for e in select
        .where_
        .iter()
        .chain(&select.group_by)
        .chain(&select.having)
    {
        collect_expr(e, out);
    }
    for k in &select.order_by {
        collect_expr(&k.expr, out);
    }
}

fn collect_expr(expr: &Expr, out: &mut Vec<String>) {
    // `walk` visits every node but deliberately does not descend into
    // subquery SELECTs; recurse into those here so a reserved table
    // cannot hide inside `IN (SELECT ...)`.
    expr.walk(&mut |e| {
        if let Expr::InSelect { select, .. } = e {
            collect_select(select, out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_references_are_caught() {
        for sql in [
            "SELECT cap_hash FROM _edna_caps",
            "select * from _EDNA_CAPS",
            "UPDATE _edna_caps SET cap_hash = 'mine'",
            "DELETE FROM _edna_caps",
            "INSERT INTO _edna_spec_registry (name) VALUES ('x')",
            "DROP TABLE _edna_disguise_history",
            "DROP TABLE IF EXISTS _edna_caps",
            // The policy registry drives the decay daemon: a tenant who
            // can write it schedules arbitrary disguises against other
            // tenants' data; one who can read it learns the retention
            // schedule. Both directions must be refused.
            "SELECT dsl, last_run FROM _edna_policy_registry",
            "UPDATE _edna_policy_registry SET last_run = 0",
            "UPDATE _edna_policy_registry SET dsl = 'decay evil ...'",
            "DELETE FROM _edna_policy_registry",
            "INSERT INTO _edna_policy_registry (name, dsl) VALUES ('x', 'y')",
            "DROP TABLE _edna_policy_registry",
            "ALTER TABLE _edna_caps DROP COLUMN cap_hash",
            "CREATE INDEX i ON _edna_caps (cap_hash)",
            "CREATE TABLE _edna_caps (id INT PRIMARY KEY)",
            "EXPLAIN ANALYZE SELECT * FROM _edna_caps",
        ] {
            assert!(reserved_table_in(sql).is_some(), "should refuse: {sql}");
        }
    }

    #[test]
    fn indirect_references_are_caught() {
        for sql in [
            "SELECT u.name FROM users u JOIN _edna_caps c ON u.id = c.disguise_id",
            "SELECT * FROM users WHERE id IN (SELECT disguise_id FROM _edna_caps)",
            "DELETE FROM users WHERE id IN (SELECT disguise_id FROM _edna_caps)",
            "SELECT * FROM users WHERE id NOT IN \
             (SELECT id FROM t WHERE x IN (SELECT disguise_id FROM _edna_caps))",
            "CREATE TABLE leak (id INT PRIMARY KEY, d INT, \
             FOREIGN KEY (d) REFERENCES _edna_caps(disguise_id))",
        ] {
            assert!(reserved_table_in(sql).is_some(), "should refuse: {sql}");
        }
    }

    #[test]
    fn escape_attempts_are_caught() {
        // Audit of the gate against the full statement grammar: quoting
        // and case games on the identifier, the EXPLAIN ANALYZE prefix,
        // and a subquery smuggled into every expression position the
        // parser has (`Expr::InSelect` is the only subquery form; `walk`
        // reaches it inside CASE/BETWEEN/function arguments).
        let mut caught = 0usize;
        for sql in [
            // Quoted identifiers lex to the same Ident the engine
            // resolves, so quoting must not bypass the prefix check.
            "SELECT cap_hash FROM `_edna_caps`",
            "SELECT cap_hash FROM \"_edna_caps\"",
            "SELECT cap_hash FROM `_EDNA_Caps`",
            "DROP TABLE \"_edna_disguise_history\"",
            "ExPlAiN aNaLyZe SELECT * FROM `_EDNA_CAPS`",
            // An alias does not hide the underlying table.
            "SELECT c.cap_hash FROM _edna_caps c",
            "SELECT c.cap_hash FROM _edna_caps AS c",
            // Subqueries in every DML expression position.
            "UPDATE users SET flagged = id IN (SELECT disguise_id FROM _edna_caps) \
             WHERE id = 1",
            "UPDATE users SET name = 'x' \
             WHERE id IN (SELECT disguise_id FROM `_edna_caps`)",
            "INSERT INTO t (a) VALUES (1 IN (SELECT disguise_id FROM _edna_caps))",
            "DELETE FROM users WHERE id BETWEEN 0 AND \
             (CASE WHEN 1 IN (SELECT disguise_id FROM _edna_caps) THEN 10 ELSE 0 END)",
            "SELECT user_id FROM posts GROUP BY user_id \
             HAVING user_id IN (SELECT disguise_id FROM _edna_caps)",
            "SELECT * FROM users ORDER BY id IN (SELECT disguise_id FROM _edna_caps)",
            "SELECT CASE WHEN id IN (SELECT disguise_id FROM _edna_caps) \
             THEN 1 ELSE 0 END FROM users",
            "SELECT * FROM users u JOIN posts p \
             ON u.id IN (SELECT disguise_id FROM _edna_caps)",
            "SELECT COUNT(id IN (SELECT disguise_id FROM _edna_caps)) FROM users",
            "SELECT * FROM users WHERE name LIKE \
             (SELECT cap_hash FROM _edna_caps LIMIT 1)",
            // Same games against the policy registry: quoting, case,
            // aliases, and a smuggled subquery. Resetting `last_run`
            // would re-fire every policy on the next tick.
            "SELECT dsl FROM `_EDNA_Policy_Registry`",
            "UPDATE \"_edna_policy_registry\" SET last_run = 0",
            "SELECT p.dsl FROM _edna_policy_registry AS p",
            "SELECT * FROM users WHERE id IN (SELECT id FROM _edna_policy_registry)",
            // The idempotency ledger stores rendered replies verbatim —
            // including minted reveal capabilities. Reading it steals
            // caps; writing it forges a cached reply for someone else's
            // retry key.
            "SELECT reply FROM _edna_requests",
            "SELECT r.reply FROM `_EDNA_Requests` AS r",
            "UPDATE _edna_requests SET reply = 'forged'",
            "DELETE FROM \"_edna_requests\"",
            "SELECT * FROM users WHERE id IN (SELECT id FROM _edna_requests)",
        ] {
            match reserved_table_in(sql) {
                Some(_) => caught += 1,
                // A refused-by-the-parser statement executes nothing, so
                // the gate may pass it — but then the engine must indeed
                // refuse it, or the escape is real.
                None => assert!(
                    parse_statement(sql).is_err(),
                    "guard passed a parsable statement: {sql}"
                ),
            }
        }
        // The unparsable fallback must stay the exception: if grammar
        // changes make most of these stop parsing, the audit below loses
        // its teeth and needs new phrasings.
        assert!(caught >= 23, "only {caught} attempts reached the guard");
    }

    #[test]
    fn insert_select_is_unparsable_and_therefore_inert() {
        // The grammar has no `INSERT INTO ... SELECT`; the gate returns
        // None but the engine cannot execute the statement either. If
        // this form ever starts parsing, `collect_statement` must learn
        // to descend into the source SELECT — this test is the tripwire.
        let sql = "INSERT INTO t SELECT * FROM _edna_caps";
        assert!(
            parse_statement(sql).is_err(),
            "INSERT..SELECT now parses: teach the guard to vet its source SELECT"
        );
        assert!(reserved_table_in(sql).is_none());
    }

    #[test]
    fn read_only_classification_for_replicas() {
        for sql in [
            "SELECT 1 FROM users",
            "select * from users where id = 1",
            "EXPLAIN ANALYZE SELECT * FROM users",
            "this does not parse at all",
        ] {
            assert!(is_read_only(sql), "should pass on a replica: {sql}");
        }
        for sql in [
            "INSERT INTO t (a) VALUES (1)",
            "UPDATE t SET a = 1",
            "DELETE FROM t",
            "DROP TABLE t",
            "ALTER TABLE t ADD COLUMN b INT",
            "CREATE TABLE t (id INT PRIMARY KEY)",
            "CREATE INDEX i ON t (a)",
        ] {
            assert!(!is_read_only(sql), "should refuse on a replica: {sql}");
        }
    }

    #[test]
    fn ordinary_statements_pass() {
        for sql in [
            "SELECT * FROM users",
            "INSERT INTO users (name) VALUES ('bea')",
            "UPDATE users SET name = 'x' WHERE id = 1",
            "DELETE FROM users WHERE id IN (SELECT id FROM orphans)",
            // A string literal mentioning the prefix is data, not a
            // table reference.
            "INSERT INTO notes (body) VALUES ('_edna_caps is reserved')",
            "SELECT '_edna_caps' FROM users",
            "this does not parse at all",
        ] {
            assert!(reserved_table_in(sql).is_none(), "should allow: {sql}");
        }
    }
}
