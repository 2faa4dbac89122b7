//! The diagnostic model: structured findings rendered rustc-style.
//!
//! Every analysis pass reports [`Diagnostic`]s rather than printing or
//! erroring directly, so callers can decide policy: `Disguiser::register`
//! hard-fails on errors and records warnings; `edna check` renders the
//! full report and maps severities to exit codes (optionally promoting
//! warnings with `--deny-warnings`).

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The disguise would misbehave or fail mid-transaction if applied;
    /// registration is refused.
    Error,
    /// The disguise is applicable but likely not what the author meant
    /// (dead predicate, lossy composition, uncovered PII).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Where in the spec a finding points (span-ish: specs have no byte
/// offsets once parsed, so locations name the table section, column, and
/// transformation instead).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Table section the finding is about, if any.
    pub table: Option<String>,
    /// Column within that table, if the finding is column-precise.
    pub column: Option<String>,
    /// Extra context: the transformation (`Remove`, `Modify(...)`) or the
    /// predicate text the finding anchors to.
    pub context: Option<String>,
}

impl Location {
    /// A location naming just a table section.
    pub fn table(table: impl Into<String>) -> Location {
        Location {
            table: Some(table.into()),
            ..Location::default()
        }
    }

    /// A location naming a table and column.
    pub fn column(table: impl Into<String>, column: impl Into<String>) -> Location {
        Location {
            table: Some(table.into()),
            column: Some(column.into()),
            ..Location::default()
        }
    }

    /// Attaches transformation/predicate context.
    pub fn with_context(mut self, context: impl Into<String>) -> Location {
        self.context = Some(context.into());
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.table, &self.column) {
            (Some(t), Some(c)) => write!(f, "{t}.{c}")?,
            (Some(t), None) => write!(f, "{t}")?,
            _ => write!(f, "<spec>")?,
        }
        if let Some(ctx) = &self.context {
            write!(f, ", {ctx}")?;
        }
        Ok(())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable code (`E0xx` for errors, `W0xx` for warnings); see the
    /// constants on [`codes`].
    pub code: &'static str,
    /// The disguise the finding is about.
    pub disguise: String,
    /// Where in the spec it points.
    pub location: Location,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the pass can suggest something concrete.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(
        code: &'static str,
        disguise: impl Into<String>,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            disguise: disguise.into(),
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(
        code: &'static str,
        disguise: impl Into<String>,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            disguise: disguise.into(),
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Renders one finding rustc-style:
    ///
    /// ```text
    /// error[E001]: predicate compares INT column `age` with TEXT 'abc'
    ///   --> FlawedScrub / users.age, predicate `age = 'abc'`
    ///   = help: change the literal to an INT
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        out.push_str(&format!("  --> {} / {}\n", self.disguise, self.location));
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// The stable diagnostic codes, one per defect class.
pub mod codes {
    /// Predicate compares/combines incompatible types.
    pub const TYPE_MISMATCH: &str = "E001";
    /// Spec references a table the schema does not have.
    pub const UNKNOWN_TABLE: &str = "E002";
    /// Spec references a column the table does not have.
    pub const UNKNOWN_COLUMN: &str = "E003";
    /// A constant predicate failed to evaluate (e.g. division by zero).
    pub const PREDICATE_EVAL: &str = "E004";
    /// Constant predicate is always false: the transform is dead.
    pub const ALWAYS_FALSE: &str = "W001";
    /// Constant predicate is always true: the guard is vacuous.
    pub const ALWAYS_TRUE: &str = "W002";
    /// A `Remove` would orphan child rows no other transform handles.
    pub const ORPHANING_REMOVE: &str = "E010";
    /// A placeholder generator produces NULL for a NOT NULL column.
    pub const PLACEHOLDER_NULL_GAP: &str = "E011";
    /// A placeholder generator's fixed value has the wrong type.
    pub const GENERATOR_TYPE: &str = "E012";
    /// Composition pair: Remove after Decorrelate is lossy on reveal.
    pub const LOSSY_REMOVE_AFTER_DECORRELATE: &str = "W020";
    /// Composition pair: double Modify of one column is lossy on reveal.
    pub const LOSSY_DOUBLE_MODIFY: &str = "W021";
    /// A PII-annotated column is left untouched by a spec that transforms
    /// its table.
    pub const PII_GAP: &str = "W040";
    /// Audit: in some interleaving no reveal of a reversible disguise
    /// brings its data back.
    pub const REVEAL_UNREACHABLE: &str = "E050";
    /// Audit: some interleaving strands a vault entry whose rows no
    /// reveal can bring back.
    pub const VAULT_ORPHANED: &str = "E051";
    /// Audit: a decay ladder provably rewrites a column on every run.
    pub const POLICY_DIVERGES: &str = "E052";
    /// Audit: a policy references a missing or wrongly-scoped disguise.
    pub const POLICY_BAD_REF: &str = "E053";
    /// Audit: a reveal works only until another disguise's entries expire.
    pub const EXPIRY_STRANDS_REVEAL: &str = "W050";
    /// Audit: the interleaving search hit its world bound.
    pub const AUDIT_TRUNCATED: &str = "W051";
    /// Audit: decay convergence could not be proved either way.
    pub const CONVERGENCE_UNPROVEN: &str = "W052";
    /// Audit: an expiration policy applies an irreversible disguise.
    pub const IRREVERSIBLE_EXPIRATION: &str = "W053";

    /// Resolves a code string back to its interned constant (used when
    /// deserializing diagnostics from JSON).
    pub fn lookup(code: &str) -> Option<&'static str> {
        const ALL: &[&str] = &[
            TYPE_MISMATCH,
            UNKNOWN_TABLE,
            UNKNOWN_COLUMN,
            PREDICATE_EVAL,
            ALWAYS_FALSE,
            ALWAYS_TRUE,
            ORPHANING_REMOVE,
            PLACEHOLDER_NULL_GAP,
            GENERATOR_TYPE,
            LOSSY_REMOVE_AFTER_DECORRELATE,
            LOSSY_DOUBLE_MODIFY,
            PII_GAP,
            REVEAL_UNREACHABLE,
            VAULT_ORPHANED,
            POLICY_DIVERGES,
            POLICY_BAD_REF,
            EXPIRY_STRANDS_REVEAL,
            AUDIT_TRUNCATED,
            CONVERGENCE_UNPROVEN,
            IRREVERSIBLE_EXPIRATION,
        ];
        ALL.iter().find(|c| **c == code).copied()
    }
}

/// Sorts findings deterministically: errors before warnings, then by
/// location (table, column, context), then code, then message. CI
/// assertions and golden files rely on this order being independent of
/// hash-map iteration.
pub fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (
            a.severity,
            &a.location.table,
            &a.location.column,
            &a.location.context,
            a.code,
            &a.message,
            &a.disguise,
        )
            .cmp(&(
                b.severity,
                &b.location.table,
                &b.location.column,
                &b.location.context,
                b.code,
                &b.message,
                &b.disguise,
            ))
    });
}

/// Quotes and escapes `s` as a JSON string literal.
fn jstr(s: &str) -> String {
    format!("\"{}\"", edna_obs::json::escape(s))
}

impl Diagnostic {
    /// Serializes one finding as a JSON object (the `--format json`
    /// machine format).
    pub fn to_json(&self) -> String {
        let opt = |v: &Option<String>| match v {
            Some(s) => jstr(s),
            None => "null".to_string(),
        };
        format!(
            "{{\"severity\":{},\"code\":{},\"disguise\":{},\"table\":{},\"column\":{},\
             \"context\":{},\"message\":{},\"help\":{}}}",
            jstr(&self.severity.to_string()),
            jstr(self.code),
            jstr(&self.disguise),
            opt(&self.location.table),
            opt(&self.location.column),
            opt(&self.location.context),
            jstr(&self.message),
            opt(&self.help),
        )
    }

    /// Deserializes a finding from a parsed JSON object, the inverse of
    /// [`Diagnostic::to_json`]. Returns `None` on missing fields or an
    /// unknown code.
    pub fn from_json(v: &edna_obs::json::Json) -> Option<Diagnostic> {
        let obj = v.as_obj()?;
        let get_str = |k: &str| obj.get(k).and_then(|v| v.as_str());
        let get_opt = |k: &str| get_str(k).map(|s| s.to_string());
        let severity = match get_str("severity")? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            _ => return None,
        };
        Some(Diagnostic {
            severity,
            code: codes::lookup(get_str("code")?)?,
            disguise: get_str("disguise")?.to_string(),
            location: Location {
                table: get_opt("table"),
                column: get_opt("column"),
                context: get_opt("context"),
            },
            message: get_str("message")?.to_string(),
            help: get_opt("help"),
        })
    }
}

/// Renders a full machine-readable report:
///
/// ```json
/// {"tool":"edna audit",
///  "reports":[{"subject":"...","diagnostics":[...]}],
///  "summary":{"errors":1,"warnings":2}}
/// ```
///
/// `reports` holds one entry per audited subject (a spec name for
/// `edna check`, the workspace for `edna audit`).
pub fn render_json_report(tool: &str, reports: &[(String, Vec<Diagnostic>)]) -> String {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut parts = Vec::new();
    for (subject, diags) in reports {
        for d in diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        let body: Vec<String> = diags.iter().map(|d| d.to_json()).collect();
        parts.push(format!(
            "{{\"subject\":{},\"diagnostics\":[{}]}}",
            jstr(subject),
            body.join(",")
        ));
    }
    format!(
        "{{\"tool\":{},\"reports\":[{}],\"summary\":{{\"errors\":{errors},\"warnings\":{warnings}}}}}",
        jstr(tool),
        parts.join(",")
    )
}

/// Renders a full report: findings in order, then a rustc-style summary
/// line (`N errors, M warnings` or `no findings`).
pub fn render_report(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.render());
        out.push('\n');
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    if errors == 0 && warnings == 0 {
        out.push_str("no findings\n");
    } else {
        out.push_str(&format!(
            "{errors} error{}, {warnings} warning{}\n",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
    }
    out
}

/// Whether any finding is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_code_location_and_help() {
        let d = Diagnostic::error(
            codes::TYPE_MISMATCH,
            "Scrub",
            Location::column("users", "age").with_context("predicate `age = 'x'`"),
            "type mismatch",
        )
        .with_help("fix the literal");
        let r = d.render();
        assert!(r.contains("error[E001]: type mismatch"), "got: {r}");
        assert!(r.contains("--> Scrub / users.age, predicate"), "got: {r}");
        assert!(r.contains("= help: fix the literal"), "got: {r}");
    }

    #[test]
    fn sort_is_severity_then_location_then_code() {
        let mk = |code, sev: Severity, t: &str, c: Option<&str>| Diagnostic {
            severity: sev,
            code,
            disguise: "S".to_string(),
            location: Location {
                table: Some(t.to_string()),
                column: c.map(str::to_string),
                context: None,
            },
            message: "m".to_string(),
            help: None,
        };
        let mut diags = vec![
            mk(codes::PII_GAP, Severity::Warning, "a", None),
            mk(codes::UNKNOWN_COLUMN, Severity::Error, "b", Some("x")),
            mk(codes::UNKNOWN_TABLE, Severity::Error, "b", Some("x")),
            mk(codes::TYPE_MISMATCH, Severity::Error, "a", Some("y")),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            order,
            vec![
                codes::TYPE_MISMATCH,  // error, table a
                codes::UNKNOWN_TABLE,  // error, table b, E002 < E003
                codes::UNKNOWN_COLUMN, // error, table b
                codes::PII_GAP,        // warnings last
            ]
        );
    }

    #[test]
    fn json_round_trips_one_diagnostic() {
        let d = Diagnostic::error(
            codes::REVEAL_UNREACHABLE,
            "Shelf",
            Location::table("comments").with_context("after applying \"Purge\""),
            "no reveal of `Shelf` can reach `Present`",
        )
        .with_help("make `Purge` reversible");
        let parsed = edna_obs::json::parse(&d.to_json()).expect("valid json");
        let back = Diagnostic::from_json(&parsed).expect("round trip");
        assert_eq!(back.severity, d.severity);
        assert_eq!(back.code, d.code);
        assert_eq!(back.disguise, d.disguise);
        assert_eq!(back.location, d.location);
        assert_eq!(back.message, d.message);
        assert_eq!(back.help, d.help);
    }

    #[test]
    fn json_report_has_tool_reports_and_summary() {
        let e = Diagnostic::error(codes::VAULT_ORPHANED, "S", Location::table("t"), "x");
        let w = Diagnostic::warning(codes::AUDIT_TRUNCATED, "S", Location::default(), "y");
        let out = render_json_report("edna audit", &[("workspace".to_string(), vec![e, w])]);
        let parsed = edna_obs::json::parse(&out).expect("valid json");
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["tool"].as_str(), Some("edna audit"));
        let summary = obj["summary"].as_obj().unwrap();
        assert_eq!(summary["errors"].as_num(), Some(1.0));
        assert_eq!(summary["warnings"].as_num(), Some(1.0));
        match &obj["reports"] {
            edna_obs::json::Json::Arr(reports) => {
                let r0 = reports[0].as_obj().unwrap();
                assert_eq!(r0["subject"].as_str(), Some("workspace"));
                match &r0["diagnostics"] {
                    edna_obs::json::Json::Arr(ds) => assert_eq!(ds.len(), 2),
                    other => panic!("diagnostics not an array: {other:?}"),
                }
            }
            other => panic!("reports not an array: {other:?}"),
        }
    }

    #[test]
    fn code_lookup_interns_known_codes_only() {
        assert_eq!(codes::lookup("E050"), Some(codes::REVEAL_UNREACHABLE));
        assert_eq!(codes::lookup("W053"), Some(codes::IRREVERSIBLE_EXPIRATION));
        assert_eq!(codes::lookup("E999"), None);
    }

    #[test]
    fn report_summarizes_counts() {
        let e = Diagnostic::error(codes::UNKNOWN_TABLE, "S", Location::table("t"), "x");
        let w = Diagnostic::warning(codes::PII_GAP, "S", Location::table("t"), "y");
        let r = render_report(&[e.clone(), w.clone(), w.clone()]);
        assert!(r.contains("1 error, 2 warnings"), "got: {r}");
        assert!(has_errors(&[e]));
        assert!(!has_errors(&[w]));
        assert!(render_report(&[]).contains("no findings"));
    }
}
