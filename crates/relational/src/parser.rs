//! Recursive-descent parser for the engine's SQL subset.
//!
//! Supported statements: `CREATE TABLE`, `CREATE [UNIQUE] INDEX`,
//! `DROP TABLE [IF EXISTS]`, `INSERT INTO`, `SELECT` (projections,
//! `INNER`/`LEFT JOIN`, `WHERE`, `GROUP BY`, `ORDER BY`, `LIMIT`,
//! aggregates), `UPDATE` and `DELETE`. There is no transaction control:
//! a transaction is [`crate::Database::transaction`]'s closure.
//! Expressions use a precedence-climbing parser; see [`parse_expr`].

use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::schema::{ColumnDef, ForeignKey, ReferentialAction, TableSchema};
use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(TableSchema),
    /// `CREATE [UNIQUE] INDEX name ON table (col)`.
    CreateIndex {
        name: String,
        table: String,
        column: String,
        unique: bool,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable { name: String, if_exists: bool },
    /// `ALTER TABLE name ADD COLUMN <coldef>` / `DROP COLUMN col` /
    /// `RENAME COLUMN old TO new`.
    AlterTable { table: String, action: AlterAction },
    /// `INSERT INTO table [(cols)] VALUES (...), (...)`.
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT ...`.
    Select(SelectStmt),
    /// `UPDATE table SET col = expr [, ...] [WHERE ...]`.
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE ...]`.
    Delete { table: String, where_: Option<Expr> },
}

/// The action of an `ALTER TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum AlterAction {
    /// Add a column (filled with its DEFAULT, or NULL, in existing rows).
    AddColumn(ColumnDef),
    /// Drop a column (rejected for primary keys and foreign-key columns).
    DropColumn(String),
    /// Rename a column.
    RenameColumn {
        /// Existing column name.
        from: String,
        /// New column name.
        to: String,
    },
}

/// One SELECT projection item.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // Field names are self-describing.
pub enum Projection {
    /// `*`.
    Wildcard,
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
    /// Aggregate call: `COUNT(*)`, `COUNT([DISTINCT] expr)`, `SUM(expr)`, ...
    Aggregate {
        func: AggFunc,
        arg: Option<Expr>,
        distinct: bool,
        alias: Option<String>,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `INNER JOIN` (also bare `JOIN`).
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Inner or left.
    pub kind: JoinKind,
    /// Joined table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// `ON` predicate.
    pub on: Expr,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending if true.
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub projections: Vec<Projection>,
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Base table.
    pub from: String,
    /// Base-table alias.
    pub from_alias: Option<String>,
    /// JOIN clauses, in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate, evaluated over the projected (post-aggregate)
    /// row, so aggregate aliases are visible.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: Option<usize>,
}

/// Parses a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a `;`-separated script into statements.
pub fn parse_script(src: &str) -> Result<Vec<Statement>> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.statement()?);
        if !p.eat_sym(";") {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parses a standalone scalar expression (e.g. a WHERE clause body).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    /// Accepts an identifier; also accepts keywords usable as names in
    /// non-ambiguous positions (e.g. a column named `key`).
    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err(format!("expected identifier, found {:?}", self.peek()))),
        }
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(TokenKind::Keyword(k)) => match k.as_str() {
                "CREATE" => self.create(),
                "DROP" => self.drop_table(),
                "ALTER" => self.alter_table(),
                "INSERT" => self.insert(),
                "SELECT" => Ok(Statement::Select(self.select()?)),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                other => Err(self.err(format!("unexpected keyword {other}"))),
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        let unique = self.eat_keyword("UNIQUE");
        if self.eat_keyword("INDEX") {
            let name = self.ident()?;
            self.expect_keyword("ON")?;
            let table = self.ident()?;
            self.expect_sym("(")?;
            let column = self.ident()?;
            self.expect_sym(")")?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            });
        }
        if unique {
            return Err(self.err("expected INDEX after CREATE UNIQUE"));
        }
        self.expect_keyword("TABLE")?;
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut schema = TableSchema::new(name);
        loop {
            if self.eat_keyword("PRIMARY") {
                // Table-level PRIMARY KEY (col).
                self.expect_keyword("KEY")?;
                self.expect_sym("(")?;
                let col = self.ident()?;
                self.expect_sym(")")?;
                let idx = schema.require_column(&col)?;
                schema.primary_key = Some(idx);
                schema.columns[idx].not_null = true;
                schema.columns[idx].unique = true;
            } else if self.eat_keyword("FOREIGN") {
                self.expect_keyword("KEY")?;
                self.expect_sym("(")?;
                let column = self.ident()?;
                self.expect_sym(")")?;
                self.expect_keyword("REFERENCES")?;
                let parent_table = self.ident()?;
                self.expect_sym("(")?;
                let parent_column = self.ident()?;
                self.expect_sym(")")?;
                let mut on_delete = ReferentialAction::Restrict;
                if self.eat_keyword("ON") {
                    self.expect_keyword("DELETE")?;
                    on_delete = self.referential_action()?;
                }
                schema.foreign_keys.push(ForeignKey {
                    column,
                    parent_table,
                    parent_column,
                    on_delete,
                });
            } else {
                let col = self.column_def(&mut schema)?;
                schema.columns.push(col);
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        schema.validate()?;
        Ok(Statement::CreateTable(schema))
    }

    fn referential_action(&mut self) -> Result<ReferentialAction> {
        if self.eat_keyword("CASCADE") {
            Ok(ReferentialAction::Cascade)
        } else if self.eat_keyword("RESTRICT") {
            Ok(ReferentialAction::Restrict)
        } else if self.eat_keyword("SET") {
            self.expect_keyword("NULL")?;
            Ok(ReferentialAction::SetNull)
        } else {
            Err(self.err("expected CASCADE, RESTRICT, or SET NULL"))
        }
    }

    fn column_def(&mut self, schema: &mut TableSchema) -> Result<ColumnDef> {
        let name = self.ident()?;
        let ty_name = match self.advance() {
            Some(TokenKind::Ident(s)) => s,
            other => return Err(self.err(format!("expected type name, found {other:?}"))),
        };
        // Swallow a length suffix like (255) or (10,2).
        let mut full_ty = ty_name.clone();
        if self.eat_sym("(") {
            full_ty.push('(');
            loop {
                match self.advance() {
                    Some(TokenKind::Int(_)) | Some(TokenKind::Sym(",")) => {}
                    Some(TokenKind::Sym(")")) => break,
                    other => return Err(self.err(format!("bad type suffix: {other:?}"))),
                }
            }
        }
        let ty = DataType::from_sql_name(&full_ty)
            .ok_or_else(|| self.err(format!("unknown type {ty_name}")))?;
        let mut col = ColumnDef::new(name, ty);
        let mut is_pk = false;
        loop {
            if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                is_pk = true;
                col.not_null = true;
                col.unique = true;
            } else if self.eat_keyword("NOT") {
                self.expect_keyword("NULL")?;
                col.not_null = true;
            } else if self.eat_keyword("NULL") {
                // Explicit nullable; no-op.
            } else if self.eat_keyword("UNIQUE") {
                col.unique = true;
            } else if self.eat_keyword("AUTO_INCREMENT") {
                col.auto_increment = true;
            } else if self.eat_keyword("DEFAULT") {
                col.default = Some(self.literal_value()?);
            } else if self.eat_keyword("PII") {
                col.pii = true;
            } else {
                break;
            }
        }
        if is_pk {
            schema.primary_key = Some(schema.columns.len());
        }
        Ok(col)
    }

    fn literal_value(&mut self) -> Result<Value> {
        let negative = self.eat_sym("-");
        let v = match self.advance() {
            Some(TokenKind::Int(i)) => Value::Int(i),
            Some(TokenKind::Float(x)) => Value::Float(x),
            Some(TokenKind::Str(s)) => Value::Text(s),
            Some(TokenKind::Blob(b)) => Value::Bytes(b),
            Some(TokenKind::Keyword(k)) if k == "NULL" => Value::Null,
            Some(TokenKind::Keyword(k)) if k == "TRUE" => Value::Bool(true),
            Some(TokenKind::Keyword(k)) if k == "FALSE" => Value::Bool(false),
            other => return Err(self.err(format!("expected literal, found {other:?}"))),
        };
        if negative {
            match v {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(x) => Ok(Value::Float(-x)),
                other => Err(self.err(format!("cannot negate literal {other}"))),
            }
        } else {
            Ok(v)
        }
    }

    fn alter_table(&mut self) -> Result<Statement> {
        self.expect_keyword("ALTER")?;
        self.expect_keyword("TABLE")?;
        let table = self.ident()?;
        let action = if self.eat_keyword("ADD") {
            self.eat_keyword("COLUMN");
            // Reuse column_def; table-level attributes (PRIMARY KEY) are
            // rejected afterwards by execution.
            let mut scratch = TableSchema::new(table.clone());
            let col = self.column_def(&mut scratch)?;
            if scratch.primary_key.is_some() {
                return Err(self.err("cannot ADD COLUMN ... PRIMARY KEY".to_string()));
            }
            AlterAction::AddColumn(col)
        } else if self.eat_keyword("DROP") {
            self.eat_keyword("COLUMN");
            AlterAction::DropColumn(self.ident()?)
        } else if self.eat_keyword("RENAME") {
            self.eat_keyword("COLUMN");
            let from = self.ident()?;
            self.expect_keyword("TO")?;
            let to = self.ident()?;
            AlterAction::RenameColumn { from, to }
        } else {
            return Err(self.err("expected ADD, DROP, or RENAME after ALTER TABLE".to_string()));
        };
        Ok(Statement::AlterTable { table, action })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = Vec::new();
        loop {
            projections.push(self.projection()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.ident()?;
        let from_alias = self.optional_alias()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                JoinKind::Inner
            } else if self.eat_keyword("LEFT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else if self.eat_keyword("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            let table = self.ident()?;
            let alias = self.optional_alias()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            joins.push(Join {
                kind,
                table,
                alias,
                on,
            });
        }
        let where_ = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                Some(TokenKind::Int(i)) if i >= 0 => Some(i as usize),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        let offset = if self.eat_keyword("OFFSET") {
            match self.advance() {
                Some(TokenKind::Int(i)) if i >= 0 => Some(i as usize),
                other => return Err(self.err(format!("expected OFFSET count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projections,
            distinct,
            from,
            from_alias,
            joins,
            where_,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("AS") {
            return Ok(Some(self.ident()?));
        }
        if let Some(TokenKind::Ident(_)) = self.peek() {
            // Bare alias, but avoid consuming the next clause's first token.
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.eat_sym("*") {
            return Ok(Projection::Wildcard);
        }
        // Aggregate?
        if let Some(TokenKind::Keyword(k)) = self.peek() {
            let func = match k.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "AVG" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = func {
                if self.peek2() == Some(&TokenKind::Sym("(")) {
                    self.pos += 2;
                    let distinct = self.eat_keyword("DISTINCT");
                    let arg = if self.eat_sym("*") {
                        if func != AggFunc::Count || distinct {
                            return Err(self.err("only COUNT accepts * (and not DISTINCT *)"));
                        }
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_sym(")")?;
                    let alias = if self.eat_keyword("AS") {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    return Ok(Projection::Aggregate {
                        func,
                        arg,
                        distinct,
                        alias,
                    });
                }
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            let expr = self.expr()?;
            sets.push((col, expr));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_ = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let where_ = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, where_ })
    }

    // ---- expressions ------------------------------------------------------

    /// Entry point: lowest-precedence (OR).
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] IN/BETWEEN/LIKE.
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_sym("(")?;
            if matches!(self.peek(), Some(TokenKind::Keyword(k)) if k == "SELECT") {
                let select = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::InSelect {
                    expr: Box::new(lhs),
                    select: Box::new(select),
                    negated,
                });
            }
            let mut list = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    list.push(self.expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            }
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN, BETWEEN, or LIKE after NOT"));
        }
        let op = match self.peek() {
            Some(TokenKind::Sym("=")) => Some(BinOp::Eq),
            Some(TokenKind::Sym("!=")) => Some(BinOp::Ne),
            Some(TokenKind::Sym("<")) => Some(BinOp::Lt),
            Some(TokenKind::Sym("<=")) => Some(BinOp::Le),
            Some(TokenKind::Sym(">")) => Some(BinOp::Gt),
            Some(TokenKind::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Sym("+")) => BinOp::Add,
                Some(TokenKind::Sym("-")) => BinOp::Sub,
                Some(TokenKind::Sym("||")) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Sym("*")) => BinOp::Mul,
                Some(TokenKind::Sym("/")) => BinOp::Div,
                Some(TokenKind::Sym("%")) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_sym("-") {
            let inner = self.unary()?;
            // Fold negated number literals so that display round-trips
            // (`-5` stays `Literal(-5)`, not `Neg(Literal(5))`).
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(TokenKind::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(TokenKind::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(x)))
            }
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(TokenKind::Blob(b)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bytes(b)))
            }
            Some(TokenKind::Param(p)) => {
                self.pos += 1;
                Ok(Expr::Param(p))
            }
            Some(TokenKind::Keyword(k)) => match k.as_str() {
                "NULL" => {
                    self.pos += 1;
                    Ok(Expr::Literal(Value::Null))
                }
                "TRUE" => {
                    self.pos += 1;
                    Ok(Expr::Literal(Value::Bool(true)))
                }
                "FALSE" => {
                    self.pos += 1;
                    Ok(Expr::Literal(Value::Bool(false)))
                }
                "CASE" => {
                    self.pos += 1;
                    let mut arms = Vec::new();
                    while self.eat_keyword("WHEN") {
                        let cond = self.expr()?;
                        self.expect_keyword("THEN")?;
                        let val = self.expr()?;
                        arms.push((cond, val));
                    }
                    let else_ = if self.eat_keyword("ELSE") {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    self.expect_keyword("END")?;
                    if arms.is_empty() {
                        return Err(self.err("CASE requires at least one WHEN arm"));
                    }
                    Ok(Expr::Case { arms, else_ })
                }
                // Aggregate keywords used as scalar functions inside
                // expressions are not supported; report clearly.
                "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" => Err(self.err(format!(
                    "aggregate {k} is only allowed in a SELECT projection"
                ))),
                other => Err(self.err(format!("unexpected keyword {other} in expression"))),
            },
            Some(TokenKind::Sym("(")) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                // Function call?
                if self.peek() == Some(&TokenKind::Sym("(")) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    return Ok(Expr::Func { name, args });
                }
                // Qualified column?
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_full() {
        let sql = "CREATE TABLE ContactInfo (
            contactId INT PRIMARY KEY AUTO_INCREMENT,
            name VARCHAR(255) NOT NULL,
            email TEXT UNIQUE,
            disabled BOOL NOT NULL DEFAULT FALSE,
            affiliation TEXT DEFAULT NULL,
            FOREIGN KEY (contactId) REFERENCES Other(id) ON DELETE CASCADE
        )";
        let stmt = parse_statement(sql).unwrap();
        let Statement::CreateTable(t) = stmt else {
            panic!("not a create")
        };
        assert_eq!(t.name, "ContactInfo");
        assert_eq!(t.primary_key, Some(0));
        assert!(t.columns[0].auto_increment);
        assert!(t.columns[1].not_null);
        assert!(t.columns[2].unique);
        assert_eq!(t.columns[3].default, Some(Value::Bool(false)));
        assert_eq!(t.foreign_keys[0].on_delete, ReferentialAction::Cascade);
    }

    #[test]
    fn table_level_primary_key() {
        let stmt = parse_statement("CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a))").unwrap();
        let Statement::CreateTable(t) = stmt else {
            panic!()
        };
        assert_eq!(t.primary_key, Some(0));
        assert!(t.columns[0].unique);
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert {
            table,
            columns,
            rows,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn select_with_everything() {
        let sql = "SELECT DISTINCT u.name AS n, COUNT(*) AS c FROM users u \
                   INNER JOIN posts p ON p.user_id = u.id \
                   LEFT JOIN votes v ON v.post_id = p.id \
                   WHERE u.active = TRUE AND p.score > 2 \
                   GROUP BY u.name ORDER BY c DESC, n LIMIT 10";
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert!(s.distinct);
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn update_and_delete() {
        let Statement::Update {
            table,
            sets,
            where_,
        } = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = $UID").unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(sets.len(), 2);
        assert!(where_.is_some());

        let Statement::Delete { table, where_ } = parse_statement("DELETE FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(table, "t");
        assert!(where_.is_none());
    }

    #[test]
    fn transaction_control_is_not_sql() {
        for sql in ["BEGIN", "BEGIN TRANSACTION", "COMMIT;", "ROLLBACK"] {
            assert!(parse_statement(sql).is_err(), "{sql} parsed");
        }
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script("INSERT INTO t VALUES (1); DELETE FROM t;").unwrap();
        assert_eq!(stmts.len(), 2);
        // One unparsable statement fails the whole script.
        assert!(parse_script("BEGIN; INSERT INTO t VALUES (1);").is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(parse_statement("SELEC * FROM t").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("CREATE TABLE t (a NOTATYPE)").is_err());
        assert!(parse_statement("INSERT INTO t VALUES").is_err());
        assert!(parse_expr("a NOT 5").is_err());
        assert!(parse_expr("COUNT(x)").is_err());
    }

    #[test]
    fn drop_if_exists() {
        let Statement::DropTable { name, if_exists } =
            parse_statement("DROP TABLE IF EXISTS t").unwrap()
        else {
            panic!()
        };
        assert_eq!(name, "t");
        assert!(if_exists);
    }

    #[test]
    fn not_precedence() {
        // NOT binds tighter than AND: NOT a = 1 AND b = 2 is (NOT (a=1)) AND (b=2).
        let e = parse_expr("NOT a = 1 AND b = 2").unwrap();
        let Expr::Binary {
            op: BinOp::And,
            lhs,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(*lhs, Expr::Unary { op: UnOp::Not, .. }));
    }
}
