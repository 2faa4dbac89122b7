//! Process-level tests: drive the compiled `edna` binary end to end, the
//! way a user would.

use std::path::PathBuf;
use std::process::Command;

fn edna(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_edna"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_bin_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let mut v = p.as_os_str().to_os_string();
    v.push(".vault");
    let _ = std::fs::remove_dir_all(PathBuf::from(v));
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let mut v = p.as_os_str().to_os_string();
    v.push(".vault");
    let _ = std::fs::remove_dir_all(PathBuf::from(v));
}

#[test]
fn demo_apply_reveal_lifecycle_through_the_binary() {
    let state = temp_state("lifecycle");
    let s = state.to_str().unwrap();

    let (ok, stdout, stderr) =
        edna(&["demo", s, "hotcrp", "--scale", "0.05", "--passphrase", "pw"]);
    assert!(ok, "demo failed: {stderr}");
    assert!(stdout.contains("created HotCRP demo"), "{stdout}");

    let (ok, stdout, _) = edna(&["specs", s, "--passphrase", "pw"]);
    assert!(ok);
    assert!(stdout.contains("HotCRP-GDPR+"), "{stdout}");

    let (ok, stdout, stderr) = edna(&[
        "apply",
        s,
        "HotCRP-GDPR+",
        "--user",
        "1",
        "--passphrase",
        "pw",
    ]);
    assert!(ok, "apply failed: {stderr}");
    assert!(stdout.contains("applied HotCRP-GDPR+"), "{stdout}");

    let (ok, stdout, _) = edna(&[
        "sql",
        s,
        "SELECT COUNT(*) FROM Review WHERE contactId = 1",
        "--passphrase",
        "pw",
    ]);
    assert!(ok);
    assert!(
        stdout.contains('0'),
        "no reviews attributed after scrub: {stdout}"
    );

    let (ok, stdout, _) = edna(&["history", s, "--passphrase", "pw"]);
    assert!(ok);
    assert!(stdout.contains("HotCRP-GDPR+"), "{stdout}");

    let (ok, stdout, _) = edna(&["disguised", s, "--passphrase", "pw"]);
    assert!(ok);
    assert!(stdout.contains("review"), "disguised rows listed: {stdout}");

    let (ok, stdout, stderr) = edna(&[
        "reveal",
        s,
        "--latest",
        "HotCRP-GDPR+",
        "--user",
        "1",
        "--passphrase",
        "pw",
    ]);
    assert!(ok, "reveal failed: {stderr}");
    assert!(stdout.contains("revealed HotCRP-GDPR+"), "{stdout}");

    let (ok, stdout, _) = edna(&["explain", s, "SELECT * FROM Review WHERE contactId = 1"]);
    assert!(ok);
    assert!(stdout.contains("index probe"), "{stdout}");

    cleanup(&state);
}

#[test]
fn binary_reports_errors_cleanly() {
    let state = temp_state("errors");
    let s = state.to_str().unwrap();

    let (ok, _, stderr) = edna(&["bogus-command", s]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = edna(&["sql", s, "SELECT 1 FROM nope"]);
    assert!(!ok, "opening a missing workspace fails");
    assert!(stderr.contains("error"), "{stderr}");

    let (ok, _, _) = edna(&["init", s]);
    assert!(ok);
    let (ok, _, stderr) = edna(&["init", s]);
    assert!(!ok, "re-init refuses to clobber");
    assert!(stderr.contains("already exists"), "{stderr}");

    let (ok, _, stderr) = edna(&["apply", s, "NoSuchDisguise"]);
    assert!(!ok);
    assert!(stderr.contains("no such disguise"), "{stderr}");

    cleanup(&state);
}

#[test]
fn load_sql_of_an_uncommitted_transaction_fails_and_persists_nothing() {
    let state = temp_state("load_txn");
    let s = state.to_str().unwrap();
    let (ok, _, stderr) = edna(&["init", s]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = edna(&["sql", s, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"]);
    assert!(ok, "{stderr}");
    // The script opens a transaction and never commits it.
    let script = state.with_extension("sql");
    std::fs::write(&script, "BEGIN; INSERT INTO t VALUES (1, 'uncommitted');").unwrap();
    let (ok, _, stderr) = edna(&["load-sql", s, script.to_str().unwrap()]);
    assert!(!ok, "load-sql must refuse the script");
    assert!(stderr.contains("BEGIN"), "{stderr}");
    let (ok, stdout, stderr) = edna(&["sql", s, "SELECT name FROM t"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("(0 row(s))"), "{stdout}");
    let _ = std::fs::remove_file(&script);
    cleanup(&state);
}

#[test]
fn check_flags_flawed_spec_and_passes_bundled_ones() {
    let state = temp_state("check");
    let s = state.to_str().unwrap();

    let (ok, _, stderr) = edna(&["demo", s, "hotcrp", "--scale", "0.05"]);
    assert!(ok, "demo failed: {stderr}");

    // Every bundled spec is clean, even with warnings denied.
    let (ok, stdout, stderr) = edna(&["check", s, "--all", "--deny-warnings"]);
    assert!(ok, "bundled specs should pass: {stdout}{stderr}");
    assert!(stdout.contains("HotCRP-GDPR: ok"), "{stdout}");

    // A single registered spec can be named.
    let (ok, stdout, _) = edna(&["check", s, "HotCRP-ConfAnon"]);
    assert!(ok);
    assert!(stdout.contains("HotCRP-ConfAnon: ok"), "{stdout}");

    // The intentionally flawed example spec is rejected with the
    // documented diagnostics, without being registered.
    let flawed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/flawed_scrub.edna"
    );
    let (ok, stdout, stderr) = edna(&["check", s, flawed]);
    assert!(!ok, "flawed spec must fail: {stdout}");
    assert!(stdout.contains("error[E010]"), "orphaning Remove: {stdout}");
    assert!(stdout.contains("error[E001]"), "type mismatch: {stdout}");
    assert!(stderr.contains("check failed"), "{stderr}");

    // Checking a file does not register it.
    let (ok, stdout, _) = edna(&["specs", s]);
    assert!(ok);
    assert!(!stdout.contains("Flawed-Scrub"), "{stdout}");

    // A target that is neither a spec nor a file is a clean error.
    let (ok, _, stderr) = edna(&["check", s, "NoSuchThing"]);
    assert!(!ok);
    assert!(stderr.contains("neither a registered disguise"), "{stderr}");

    cleanup(&state);
}

/// Like `edna`, but returns the raw exit code for assertions on the
/// documented failure classes (usage=2, runtime=1, recovery=3).
fn edna_exit_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_edna"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn exit_codes_distinguish_usage_runtime_and_recovery() {
    let state = temp_state("exitcodes");
    let s = state.to_str().unwrap();

    // Usage errors: unknown command, bad flag value, missing argument.
    let (code, _, _) = edna_exit_code(&["bogus-command", s]);
    assert_eq!(code, Some(2));
    let (code, _, _) = edna_exit_code(&["reveal", s, "--id", "not-a-number"]);
    assert_eq!(code, Some(2));

    // Runtime failure: operating on a workspace that does not exist.
    let (code, _, _) = edna_exit_code(&["sql", s, "SELECT 1 FROM t"]);
    assert_eq!(code, Some(1));

    let (code, _, _) = edna_exit_code(&["init", s]);
    assert_eq!(code, Some(0));
    let (code, _, _) = edna_exit_code(&["sql", s, "CREATE TABLE t (id INT PRIMARY KEY)"]);
    assert_eq!(code, Some(0));

    // Runtime failure on a live workspace: engine error.
    let (code, _, stderr) = edna_exit_code(&["sql", s, "SELECT * FROM no_such_table"]);
    assert_eq!(code, Some(1), "{stderr}");

    // Recovery needed: the snapshot itself is corrupt — open-time
    // recovery cannot repair a flipped byte in the authoritative copy.
    let mut bytes = std::fs::read(&state).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&state, &bytes).unwrap();
    let (code, _, stderr) = edna_exit_code(&["sql", s, "SELECT 1 FROM t"]);
    assert_eq!(
        code,
        Some(3),
        "corrupt snapshot is the recovery class: {stderr}"
    );
    assert!(stderr.contains("corrupt snapshot"), "{stderr}");
    let (code, _, _) = edna_exit_code(&["recover", s, "--verify"]);
    assert_eq!(code, Some(3));

    cleanup(&state);
    let mut wal = state.as_os_str().to_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

#[test]
fn stats_gives_actionable_errors_for_missing_or_damaged_sidecar() {
    let state = temp_state("statserr");
    let s = state.to_str().unwrap();
    let sidecar = |suffix: &str| {
        let mut p = state.as_os_str().to_os_string();
        p.push(suffix);
        PathBuf::from(p)
    };

    let (ok, _, _) = edna(&["init", s]);
    assert!(ok);
    // First open may checkpoint init leftovers and regenerate the
    // sidecar; settle the state, then remove the sidecar for real.
    let _ = edna(&["stats", s]);

    // A workspace without a sidecar: the error says how to make one,
    // and it is the runtime class.
    let _ = std::fs::remove_file(sidecar(".metrics"));
    let (code, _, stderr) = edna_exit_code(&["stats", s]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no metrics sidecar"), "{stderr}");
    assert!(stderr.contains("state-mutating command"), "{stderr}");

    // A truncated sidecar (or one from a pre-observability build) is
    // diagnosed, not dumped as garbage.
    std::fs::write(
        sidecar(".metrics"),
        "# TYPE edna_statements_total counter\nedna_sta",
    )
    .unwrap();
    let (code, _, stderr) = edna_exit_code(&["stats", s]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("truncated or written by an older edna"),
        "{stderr}"
    );

    std::fs::write(sidecar(".metrics"), "# TYPE up gauge\nup 1\n").unwrap();
    let (_, _, stderr) = edna_exit_code(&["stats", s]);
    assert!(stderr.contains("older edna"), "{stderr}");

    // After any state-mutating command the sidecar is healthy again.
    let (ok, _, _) = edna(&["sql", s, "CREATE TABLE t (id INT PRIMARY KEY)"]);
    assert!(ok);
    let (code, stdout, stderr) = edna_exit_code(&["stats", s]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("edna_statements_total"), "{stdout}");

    cleanup(&state);
    for suffix in [".metrics", ".wal", ".lock"] {
        let _ = std::fs::remove_file(sidecar(suffix));
    }
}

fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Builds a workspace from the audit-demo schema with the given example
/// specs/policies registered, returning the state path.
fn counterexample_state(tag: &str, files: &[&str]) -> PathBuf {
    let state = temp_state(tag);
    let s = state.to_str().unwrap();
    let (ok, _, stderr) = edna(&["init", s]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = edna(&["load-sql", s, &example("audit_demo.sql")]);
    assert!(ok, "{stderr}");
    for f in files {
        let (ok, stdout, stderr) = edna(&["register", s, &example(f)]);
        assert!(ok, "registering {f}: {stderr}");
        // `register` routes on content: policy files go to the policy
        // registry, everything else is a disguise spec.
        if f.contains("policy") {
            assert!(stdout.contains("registered policy"), "{stdout}");
        } else {
            assert!(stdout.contains("registered disguise"), "{stdout}");
        }
    }
    state
}

#[test]
fn audit_is_green_on_demos() {
    let state = temp_state("audit_green");
    let s = state.to_str().unwrap();
    let (ok, _, stderr) = edna(&["demo", s, "hotcrp", "--scale", "0.05"]);
    assert!(ok, "{stderr}");

    // The bundled demo composes cleanly: reveal-reachability proven,
    // even with warnings denied.
    let (code, stdout, stderr) = edna_exit_code(&["audit", s, "--deny-warnings"]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("workspace: ok"), "{stdout}");

    // Machine-readable output is one JSON document on stdout.
    let (code, stdout, _) = edna_exit_code(&["audit", s, "--format", "json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"tool\":\"edna audit\""), "{stdout}");
    assert!(stdout.contains("\"summary\":{\"errors\":0"), "{stdout}");

    // A bad --format value is the usage class, not a runtime failure.
    let (code, _, stderr) = edna_exit_code(&["audit", s, "--format", "yaml"]);
    assert_eq!(code, Some(2), "{stderr}");

    cleanup(&state);
}

/// The first cell of `sql`'s first result row, as the binary prints it.
fn first_cell(s: &str, sql: &str) -> String {
    let (ok, stdout, stderr) = edna(&["sql", s, sql]);
    assert!(ok, "{sql}: {stderr}");
    // Line 0 is the header and line 1 its rule.
    stdout
        .lines()
        .nth(2)
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or_default()
        .to_string()
}

#[test]
fn a_reveal_survives_a_later_disguise_of_its_inviter() {
    // User 3 was invited by user 1. Disguising 3, then 1, then revealing
    // 3 re-inserts an account whose inviter is gone; re-applying user 1's
    // disguise sets that key to NULL, and revealing user 1 restores it
    // from the addendum that re-application wrote.
    let state = temp_state("cross_user_reveal");
    let s = state.to_str().unwrap();
    let (ok, _, stderr) = edna(&["demo", s, "lobsters"]);
    assert!(ok, "demo failed: {stderr}");
    let inviter = "SELECT invited_by_user_id FROM users WHERE id = 3";
    assert_eq!(first_cell(s, inviter), "1");

    for (user, id) in [("3", "(id 1)"), ("1", "(id 2)")] {
        let (ok, stdout, stderr) = edna(&["apply", s, "Lobsters-GDPR", "--user", user]);
        assert!(ok, "apply --user {user}: {stderr}");
        assert!(stdout.contains(id), "{stdout}");
    }
    let (ok, stdout, stderr) = edna(&["reveal", s, "--id", "1"]);
    assert!(ok, "reveal --id 1: {stderr}");
    assert!(stdout.contains("re-applied [(2,"), "{stdout}");
    assert_eq!(first_cell(s, inviter), "NULL", "user 3 is back, uninvited");

    let (ok, _, stderr) = edna(&["reveal", s, "--id", "2"]);
    assert!(ok, "reveal --id 2: {stderr}");
    assert_eq!(first_cell(s, inviter), "1", "the inviter is restored");

    let (ok, stdout, stderr) = edna(&["recover", s, "--verify"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("integrity: ok"), "{stdout}");
    cleanup(&state);
}

#[test]
fn audit_rejects_vault_orphaning_counterexample() {
    let state = counterexample_state(
        "audit_trap",
        &["vault_trap_keep.edna", "vault_trap_purge.edna"],
    );
    let s = state.to_str().unwrap();

    // Findings are the runtime class (exit 1), with the specific codes.
    let (code, stdout, stderr) = edna_exit_code(&["audit", s]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("error[E050]"), "{stdout}");
    assert!(stdout.contains("error[E051]"), "{stdout}");
    assert!(stdout.contains("Vault-Trap-Purge"), "{stdout}");
    assert!(stderr.contains("audit failed: 2 error(s)"), "{stderr}");

    // JSON carries the same codes and a non-zero summary.
    let (code, stdout, _) = edna_exit_code(&["audit", s, "--format", "json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"code\":\"E050\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"E051\""), "{stdout}");
    assert!(stdout.contains("\"summary\":{\"errors\":2"), "{stdout}");

    cleanup(&state);
}

#[test]
fn audit_rejects_diverging_decay_counterexample() {
    let state = counterexample_state(
        "audit_decay",
        &["endless_decay.edna", "endless_decay_policy.edna"],
    );
    let s = state.to_str().unwrap();

    let (code, stdout, stderr) = edna_exit_code(&["audit", s]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("error[E052]"), "{stdout}");
    assert!(stdout.contains("never converges"), "{stdout}");
    assert!(stdout.contains("HashText"), "{stdout}");

    cleanup(&state);
}

/// A supervisor may close the server's stdout once it has parsed the
/// banner; the server must keep serving instead of dying on the next
/// status line.
#[test]
fn serve_keeps_running_when_its_stdout_is_closed() {
    let state = temp_state("serve_closed_stdout");
    let s = state.to_str().unwrap();
    assert!(edna(&["init", s]).0);
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_edna"))
        .args(["serve", s, "--addr", "127.0.0.1:0"])
        .stdout(writer)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    std::thread::sleep(std::time::Duration::from_secs(1));
    let exited = child.try_wait().unwrap();
    let _ = child.kill();
    let _ = child.wait();
    for suffix in [".wal", ".lock", ".metrics", ".metrics.tmp"] {
        let mut p = state.as_os_str().to_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
    cleanup(&state);
    assert!(
        exited.is_none(),
        "serve exited ({exited:?}) once stdout closed"
    );
}

#[test]
fn serve_refuses_audit_errors_unless_skipped() {
    let state = counterexample_state(
        "serve_audit",
        &["vault_trap_keep.edna", "vault_trap_purge.edna"],
    );
    let s = state.to_str().unwrap();

    // Startup is refused while the disguise graph has audit errors.
    let (code, _, stderr) = edna_exit_code(&["serve", s]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("refusing to serve"), "{stderr}");
    assert!(
        stderr.contains("error[E051]"),
        "audit report shown: {stderr}"
    );

    // The operator escape hatch really starts the server.
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_edna"))
        .args(["serve", s, "--skip-audit"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("serve prints its address");
    assert!(
        first_line.starts_with("listening on "),
        "skip-audit server came up: {first_line}"
    );
    child.kill().expect("server stops");
    let _ = child.wait();

    cleanup(&state);
}
