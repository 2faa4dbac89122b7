//! SQL expression AST and evaluation.
//!
//! Expressions implement SQL three-valued logic: comparisons involving NULL
//! yield NULL, `AND`/`OR` use Kleene logic, and a WHERE clause accepts a row
//! only when the predicate evaluates to *true* (not NULL).

use std::collections::HashMap;
use std::fmt;

use crate::error::{Error, Result};
use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||` string concatenation
    Concat,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `NOT`
    Not,
    /// Unary `-`
    Neg,
}

/// A SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference, optionally qualified (`table.column`).
    Column { table: Option<String>, name: String },
    /// A named `$param` placeholder bound at evaluation time.
    Param(String),
    /// Unary operation.
    Unary { op: UnOp, expr: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — an uncorrelated subquery, resolved
    /// to an [`Expr::InList`] by the executor before row evaluation
    /// (evaluating it directly is an error).
    InSelect {
        expr: Box<Expr>,
        select: Box<crate::parser::SelectStmt>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (SQL `%`/`_` wildcards).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// Scalar function call (`LOWER`, `COALESCE`, ...).
    Func { name: String, args: Vec<Expr> },
    /// `CASE WHEN c THEN v [WHEN...] [ELSE e] END`.
    Case {
        arms: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Shorthand for a column reference without table qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand for `lhs = rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Shorthand for `lhs AND rhs`.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Collects the names of all columns this expression references.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { name, .. } = e {
                if !out.iter().any(|o: &String| o.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Collects the names of all `$param` placeholders.
    pub fn referenced_params(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Param(p) = e {
                if !out.contains(p) {
                    out.push(p.clone());
                }
            }
        });
        out
    }

    /// Depth-first traversal applying `f` to every node.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSelect { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case { arms, else_ } => {
                for (c, v) in arms {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
        }
    }

    /// Returns a copy of this expression with every `$param` replaced by the
    /// bound literal from `params`.
    pub fn bind_params(&self, params: &HashMap<String, Value>) -> Result<Expr> {
        Ok(match self {
            Expr::Param(p) => {
                let v = params
                    .get(p)
                    .ok_or_else(|| Error::UnboundParam(p.clone()))?;
                Expr::Literal(v.clone())
            }
            Expr::Literal(_) | Expr::Column { .. } => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind_params(params)?),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.bind_params(params)?),
                rhs: Box::new(rhs.bind_params(params)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.bind_params(params)?),
                list: list
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSelect {
                expr,
                select,
                negated,
            } => Expr::InSelect {
                expr: Box::new(expr.bind_params(params)?),
                select: select.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.bind_params(params)?),
                low: Box::new(low.bind_params(params)?),
                high: Box::new(high.bind_params(params)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.bind_params(params)?),
                pattern: Box::new(pattern.bind_params(params)?),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.bind_params(params)?),
                negated: *negated,
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<Result<_>>()?,
            },
            Expr::Case { arms, else_ } => Expr::Case {
                arms: arms
                    .iter()
                    .map(|(c, v)| Ok((c.bind_params(params)?, v.bind_params(params)?)))
                    .collect::<Result<_>>()?,
                else_: match else_ {
                    Some(e) => Some(Box::new(e.bind_params(params)?)),
                    None => None,
                },
            },
        })
    }
}

/// The context an expression is evaluated against: column-name → value plus
/// bound parameters.
pub struct EvalContext<'a> {
    /// Column names, aligned with `row`. Names may be qualified lookups.
    pub columns: &'a [String],
    /// Current row values.
    pub row: &'a [Value],
    /// Bound `$param` values.
    pub params: &'a HashMap<String, Value>,
    /// Value returned by `NOW()`: the engine's logical clock.
    pub now: i64,
}

impl<'a> EvalContext<'a> {
    fn lookup(&self, table: Option<&str>, name: &str) -> Result<Value> {
        match column_position(self.columns, table, name) {
            Some(i) => Ok(self.row[i].clone()),
            None => Err(Error::NoSuchColumn {
                table: table.unwrap_or("<row>").to_string(),
                column: name.to_string(),
            }),
        }
    }
}

/// The position a column reference resolves to in `columns`, the rule
/// every row evaluation uses: the first column named `table.name`, or for
/// an unqualified `name` the first whose last dotted part is `name`
/// (ASCII case-insensitive). A join's columns list the FROM table first,
/// so an unqualified name that table has resolves to it.
pub(crate) fn column_position(
    columns: &[String],
    table: Option<&str>,
    name: &str,
) -> Option<usize> {
    columns.iter().position(|c| {
        let (prefix, column) = match c.rsplit_once('.') {
            Some((prefix, column)) => (Some(prefix), column),
            None => (None, c.as_str()),
        };
        column.eq_ignore_ascii_case(name)
            && table.is_none_or(|t| prefix.is_some_and(|p| p.eq_ignore_ascii_case(t)))
    })
}

/// Evaluates `expr` against `ctx`, producing a [`Value`] (possibly NULL).
pub fn eval(expr: &Expr, ctx: &EvalContext<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => ctx.lookup(table.as_deref(), name),
        Expr::Param(p) => ctx
            .params
            .get(p)
            .cloned()
            .ok_or_else(|| Error::UnboundParam(p.clone())),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            match op {
                UnOp::Not => match truth(&v) {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
                UnOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(Error::Eval(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::InSelect { .. } => Err(Error::Eval(
            "unresolved IN (SELECT ...) subquery; it must run through the engine".to_string(),
        )),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, ctx)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let within = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(within != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(v.as_text()?, p.as_text()?);
            Ok(Value::Bool(matched != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Func { name, args } => eval_func(name, args, ctx),
        Expr::Case { arms, else_ } => {
            for (cond, val) in arms {
                if truth(&eval(cond, ctx)?) == Some(true) {
                    return eval(val, ctx);
                }
            }
            match else_ {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates `expr` as a WHERE predicate: true only if the result is
/// SQL-true (NULL counts as false).
pub fn eval_predicate(expr: &Expr, ctx: &EvalContext<'_>) -> Result<bool> {
    Ok(truth(&eval(expr, ctx)?) == Some(true))
}

/// SQL truthiness: NULL → None, 0/FALSE → false, otherwise true.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Float(x) => Some(*x != 0.0),
        _ => Some(true),
    }
}

fn eval_binary(op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &EvalContext<'_>) -> Result<Value> {
    // Kleene AND/OR short-circuit around NULL.
    if op == BinOp::And {
        let l = truth(&eval(lhs, ctx)?);
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truth(&eval(rhs, ctx)?);
        return Ok(match (l, r) {
            (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }
    if op == BinOp::Or {
        let l = truth(&eval(lhs, ctx)?);
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truth(&eval(rhs, ctx)?);
        return Ok(match (l, r) {
            (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    let a = eval(lhs, ctx)?;
    let b = eval(rhs, ctx)?;
    match op {
        BinOp::Eq => Ok(a.sql_eq(&b).map(Value::Bool).unwrap_or(Value::Null)),
        BinOp::Ne => Ok(a.sql_eq(&b).map(|e| Value::Bool(!e)).unwrap_or(Value::Null)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            use std::cmp::Ordering::*;
            Ok(match a.sql_cmp(&b) {
                None => Value::Null,
                Some(ord) => Value::Bool(match op {
                    BinOp::Lt => ord == Less,
                    BinOp::Le => ord != Greater,
                    BinOp::Gt => ord == Greater,
                    BinOp::Ge => ord != Less,
                    _ => unreachable!(),
                }),
            })
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &a, &b),
        BinOp::Concat => {
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{a}{b}")))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Err(Error::Eval("division by zero".to_string()))
                } else {
                    Ok(Value::Int(x / y))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(Error::Eval("modulo by zero".to_string()))
                } else {
                    Ok(Value::Int(x % y))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let x = match a {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                other => return Err(Error::Eval(format!("non-numeric operand {other}"))),
            };
            let y = match b {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                other => return Err(Error::Eval(format!("non-numeric operand {other}"))),
            };
            match op {
                BinOp::Add => Ok(Value::Float(x + y)),
                BinOp::Sub => Ok(Value::Float(x - y)),
                BinOp::Mul => Ok(Value::Float(x * y)),
                BinOp::Div => Ok(Value::Float(x / y)),
                BinOp::Mod => Ok(Value::Float(x % y)),
                _ => unreachable!(),
            }
        }
    }
}

fn eval_func(name: &str, args: &[Expr], ctx: &EvalContext<'_>) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Eval(format!(
                "{upper} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match upper.as_str() {
        "NOW" | "UNIX_TIMESTAMP" => {
            arity(0)?;
            Ok(Value::Int(ctx.now))
        }
        "COALESCE" => {
            for a in args {
                let v = eval(a, ctx)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "LOWER" => {
            arity(1)?;
            match eval(&args[0], ctx)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Text(v.as_text()?.to_lowercase())),
            }
        }
        "UPPER" => {
            arity(1)?;
            match eval(&args[0], ctx)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Text(v.as_text()?.to_uppercase())),
            }
        }
        "LENGTH" => {
            arity(1)?;
            match eval(&args[0], ctx)? {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
                other => Err(Error::Eval(format!("LENGTH of {other}"))),
            }
        }
        "ABS" => {
            arity(1)?;
            match eval(&args[0], ctx)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => Err(Error::Eval(format!("ABS of {other}"))),
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(Error::Eval("SUBSTR expects 2 or 3 arguments".to_string()));
            }
            let s = match eval(&args[0], ctx)? {
                Value::Null => return Ok(Value::Null),
                v => v.as_text()?.to_string(),
            };
            // SQL SUBSTR is 1-based.
            let start = (eval(&args[1], ctx)?.as_int()?.max(1) - 1) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = if args.len() == 3 {
                (start + eval(&args[2], ctx)?.as_int()?.max(0) as usize).min(chars.len())
            } else {
                chars.len()
            };
            if start >= chars.len() {
                return Ok(Value::Text(String::new()));
            }
            Ok(Value::Text(chars[start..end].iter().collect()))
        }
        "CONCAT" => {
            let mut out = String::new();
            for a in args {
                let v = eval(a, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                out.push_str(&v.to_string());
            }
            Ok(Value::Text(out))
        }
        "IFNULL" => {
            arity(2)?;
            let v = eval(&args[0], ctx)?;
            if v.is_null() {
                eval(&args[1], ctx)
            } else {
                Ok(v)
            }
        }
        _ => Err(Error::Eval(format!("unknown function {upper}"))),
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches exactly one
/// character; both are case-insensitive (MySQL's default collation).
///
/// Iterative two-pointer algorithm, O(|text| · |pattern|) worst case: on a
/// mismatch after a `%`, backtrack to the most recent `%` and retry it one
/// text character later. Only the *latest* `%` ever needs retrying, which
/// is what keeps patterns like `%a%a%a%a%b` linear-ish instead of the
/// exponential blowup of naive recursive backtracking (a DoS vector, since
/// patterns arrive in user-supplied predicates).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut ti = 0; // next text char
    let mut pi = 0; // next pattern char
                    // After seeing `%` at p[star_pi - 1]: the retry point (pattern index
                    // just past the `%`, text index the `%` currently absorbs up to).
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || (p[pi] != '%' && like_chars_eq(t[ti], p[pi]))) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((star_pi, star_ti)) = star {
            // Mismatch past a `%`: let the `%` absorb one more character.
            pi = star_pi;
            ti = star_ti + 1;
            star = Some((star_pi, star_ti + 1));
        } else {
            return false;
        }
    }
    // Text exhausted: only trailing `%`s may remain.
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Case-insensitive single-character comparison (full Unicode lowercase
/// expansion, matching the previous recursive implementation).
fn like_chars_eq(a: char, b: char) -> bool {
    a == b || a.to_lowercase().eq(b.to_lowercase())
}

impl fmt::Display for Expr {
    /// Renders re-parsable SQL.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&v.to_sql_literal()),
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => f.write_str(name),
            },
            Expr::Param(p) => write!(f, "${p}"),
            Expr::Unary { op, expr } => match op {
                UnOp::Not => write!(f, "(NOT {expr})"),
                UnOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::InSelect { expr, negated, .. } => {
                write!(
                    f,
                    "({expr} {}IN (SELECT ...))",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "({expr} {}LIKE {pattern})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Func { name, args } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "{name}({})", items.join(", "))
            }
            Expr::Case { arms, else_ } => {
                f.write_str("CASE")?;
                for (c, v) in arms {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        columns: &'a [String],
        row: &'a [Value],
        params: &'a HashMap<String, Value>,
    ) -> EvalContext<'a> {
        EvalContext {
            columns,
            row,
            params,
            now: 1_000_000,
        }
    }

    fn eval_str(src: &str) -> Result<Value> {
        let expr = crate::parser::parse_expr(src).unwrap();
        let cols: Vec<String> = vec![];
        let row: Vec<Value> = vec![];
        let params = HashMap::new();
        eval(&expr, &ctx(&cols, &row, &params))
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3").unwrap(), Value::Int(9));
        assert_eq!(eval_str("7 % 4").unwrap(), Value::Int(3));
        assert_eq!(eval_str("1.0 / 2").unwrap(), Value::Float(0.5));
        assert!(eval_str("1 / 0").is_err());
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("NULL = 1").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_with_null_semantics() {
        assert_eq!(eval_str("2 IN (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("4 IN (1, 2, 3)").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("4 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("4 NOT IN (4, NULL)").unwrap(), Value::Bool(false));
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval_str("5 BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("5 NOT BETWEEN 6 AND 10").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("'hello' LIKE 'he%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'hello' LIKE 'h_llo'").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("'hello' NOT LIKE '%z%'").unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_adversarial_pattern_is_fast() {
        // The old recursive matcher was exponential in the number of `%`
        // wildcards; this pattern against a non-matching 200-char string
        // took effectively forever. The iterative matcher must finish
        // (well) under a second.
        let text = "a".repeat(200);
        let start = std::time::Instant::now();
        assert!(!like_match(&text, "%a%a%a%a%a%a%a%b"));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "adversarial LIKE took {:?}",
            start.elapsed()
        );
        // And the same pattern still matches when it should.
        let mut matching = "a".repeat(100);
        matching.push('b');
        assert!(like_match(&matching, "%a%a%a%a%a%a%a%b"));
    }

    #[test]
    fn like_semantics_matrix() {
        // MySQL LIKE is case-insensitive (default collation); `=` on text
        // in this engine is case-sensitive.
        assert_eq!(eval_str("'HELLO' LIKE 'hello'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'HELLO' = 'hello'").unwrap(), Value::Bool(false));

        // `_` matches exactly one character, including multi-byte ones.
        assert_eq!(eval_str("'café' LIKE 'caf_'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'café' LIKE 'ca_'").unwrap(), Value::Bool(false));
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));

        // Empty pattern matches only the empty string.
        assert_eq!(eval_str("'' LIKE ''").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'a' LIKE ''").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("'' LIKE '%'").unwrap(), Value::Bool(true));

        // Trailing/leading `%` runs collapse.
        assert!(like_match("abc", "%%%abc%%%"));
        assert!(like_match("abc", "a%%c"));

        // NULL on either side of (NOT) LIKE yields NULL, not FALSE.
        assert_eq!(eval_str("NULL LIKE '%'").unwrap(), Value::Null);
        assert_eq!(eval_str("'a' LIKE NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL NOT LIKE '%z%'").unwrap(), Value::Null);
        // ... so NOT LIKE over NULL does not satisfy a WHERE predicate.
        assert_eq!(
            eval_str("COALESCE(NULL NOT LIKE '%z%', FALSE)").unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn functions() {
        assert_eq!(eval_str("LOWER('ABC')").unwrap(), Value::Text("abc".into()));
        assert_eq!(eval_str("LENGTH('abcd')").unwrap(), Value::Int(4));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 3)").unwrap(), Value::Int(3));
        assert_eq!(
            eval_str("SUBSTR('abcdef', 2, 3)").unwrap(),
            Value::Text("bcd".into())
        );
        assert_eq!(
            eval_str("CONCAT('a', 1, 'b')").unwrap(),
            Value::Text("a1b".into())
        );
        assert_eq!(eval_str("IFNULL(NULL, 9)").unwrap(), Value::Int(9));
        assert!(eval_str("NO_SUCH_FN(1)").is_err());
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            eval_str("CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END").unwrap(),
            Value::Text("b".into())
        );
        assert_eq!(eval_str("CASE WHEN FALSE THEN 1 END").unwrap(), Value::Null);
    }

    #[test]
    fn column_lookup_and_params() {
        let cols = vec!["t.a".to_string(), "b".to_string()];
        let row = vec![Value::Int(10), Value::Int(20)];
        let mut params = HashMap::new();
        params.insert("UID".to_string(), Value::Int(10));
        let c = ctx(&cols, &row, &params);
        let e = crate::parser::parse_expr("a = $UID AND b = 20").unwrap();
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(true));
        let missing = crate::parser::parse_expr("$NOPE").unwrap();
        assert!(matches!(eval(&missing, &c), Err(Error::UnboundParam(_))));
    }

    #[test]
    fn display_round_trip() {
        for src in [
            "a = 1 AND b != 'x'",
            "c IN (1, 2, 3)",
            "d BETWEEN 1 AND 9",
            "name LIKE '%bea%'",
            "e IS NOT NULL",
            "LOWER(name) = 'bea'",
        ] {
            let e1 = crate::parser::parse_expr(src).unwrap();
            let e2 = crate::parser::parse_expr(&e1.to_string()).unwrap();
            assert_eq!(e1, e2, "round trip failed for {src}");
        }
    }
}
