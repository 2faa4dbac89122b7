//! SQL tokenizer.
//!
//! Produces a flat [`Token`] stream consumed by [`crate::parser`]. Keywords
//! are recognized case-insensitively; identifiers may be back-quoted or
//! double-quoted to escape keywords.

use crate::error::{Error, Result};

/// One lexical token, with its byte offset for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// Byte offset in the source where the token starts.
    pub offset: usize,
}

/// Token payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Unquoted word that is not a known keyword, or quoted identifier.
    Ident(String),
    /// Recognized SQL keyword (stored uppercased).
    Keyword(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes removed, `''` unescaped).
    Str(String),
    /// Hex blob literal `X'AB'` (decoded).
    Blob(Vec<u8>),
    /// `$name` parameter reference.
    Param(String),
    /// Punctuation or operator: `( ) , . ; * = != <> < <= > >= + - / %  ||`.
    Sym(&'static str),
}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "INDEX",
    "UNIQUE",
    "PRIMARY",
    "KEY",
    "FOREIGN",
    "REFERENCES",
    "NOT",
    "NULL",
    "AND",
    "OR",
    "IN",
    "IS",
    "LIKE",
    "BETWEEN",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "DEFAULT",
    "AUTO_INCREMENT",
    "ON",
    "CASCADE",
    "RESTRICT",
    "DROP",
    "IF",
    "EXISTS",
    "TRUE",
    "FALSE",
    "JOIN",
    "INNER",
    "LEFT",
    "OUTER",
    "AS",
    "DISTINCT",
    "GROUP",
    "HAVING",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "ALTER",
    "ADD",
    "COLUMN",
    "RENAME",
    "TO",
    "PII",
];

/// Tokenizes `src` into a vector of [`Token`]s.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment.
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(Error::Lex {
                        position: start,
                        message: "unterminated block comment".to_string(),
                    });
                }
                i += 2;
            }
            '\'' => {
                let (s, next) = lex_quoted(src, i, '\'')?;
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
                i = next;
            }
            '`' | '"' => {
                let (s, next) = lex_quoted(src, i, c)?;
                tokens.push(Token {
                    kind: TokenKind::Ident(s),
                    offset: start,
                });
                i = next;
            }
            '$' => {
                i += 1;
                let mut name = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    name.push(bytes[i] as char);
                    i += 1;
                }
                if name.is_empty() {
                    return Err(Error::Lex {
                        position: start,
                        message: "empty parameter name after '$'".to_string(),
                    });
                }
                tokens.push(Token {
                    kind: TokenKind::Param(name),
                    offset: start,
                });
            }
            '0'..='9' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() {
                    match bytes[end] {
                        b'0'..=b'9' => end += 1,
                        b'.' if !is_float
                            && end + 1 < bytes.len()
                            && bytes[end + 1].is_ascii_digit() =>
                        {
                            is_float = true;
                            end += 1;
                        }
                        b'e' | b'E'
                            if end + 1 < bytes.len()
                                && (bytes[end + 1].is_ascii_digit()
                                    || bytes[end + 1] == b'-'
                                    || bytes[end + 1] == b'+') =>
                        {
                            is_float = true;
                            end += 2;
                        }
                        _ => break,
                    }
                }
                let text = &src[i..end];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| Error::Lex {
                        position: start,
                        message: format!("bad float literal: {text}"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| Error::Lex {
                        position: start,
                        message: format!("bad int literal: {text}"),
                    })?)
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = end;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let word = &src[i..end];
                // `X'AB'` hex blob literal.
                if (word == "X" || word == "x") && bytes.get(end) == Some(&b'\'') {
                    let (hex, next) = lex_quoted(src, end, '\'')?;
                    let blob = decode_hex(&hex).ok_or(Error::Lex {
                        position: start,
                        message: format!("bad hex blob literal: X'{hex}'"),
                    })?;
                    tokens.push(Token {
                        kind: TokenKind::Blob(blob),
                        offset: start,
                    });
                    i = next;
                    continue;
                }
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_string())
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = end;
            }
            _ => {
                let two = if i + 1 < bytes.len() {
                    &src[i..i + 2]
                } else {
                    ""
                };
                let sym: Option<(&'static str, usize)> = match two {
                    "!=" => Some(("!=", 2)),
                    "<>" => Some(("!=", 2)),
                    "<=" => Some(("<=", 2)),
                    ">=" => Some((">=", 2)),
                    "||" => Some(("||", 2)),
                    _ => match c {
                        '(' => Some(("(", 1)),
                        ')' => Some((")", 1)),
                        ',' => Some((",", 1)),
                        '.' => Some((".", 1)),
                        ';' => Some((";", 1)),
                        '*' => Some(("*", 1)),
                        '=' => Some(("=", 1)),
                        '<' => Some(("<", 1)),
                        '>' => Some((">", 1)),
                        '+' => Some(("+", 1)),
                        '-' => Some(("-", 1)),
                        '/' => Some(("/", 1)),
                        '%' => Some(("%", 1)),
                        _ => None,
                    },
                };
                match sym {
                    Some((s, len)) => {
                        tokens.push(Token {
                            kind: TokenKind::Sym(s),
                            offset: start,
                        });
                        i += len;
                    }
                    None => {
                        return Err(Error::Lex {
                            position: start,
                            message: format!("unexpected character {c:?}"),
                        })
                    }
                }
            }
        }
    }
    Ok(tokens)
}

/// Lexes a quoted run starting at the opening quote; returns the unescaped
/// contents and the index just past the closing quote. A doubled quote
/// escapes itself.
fn lex_quoted(src: &str, start: usize, quote: char) -> Result<(String, usize)> {
    let bytes = src.as_bytes();
    let q = quote as u8;
    debug_assert_eq!(bytes[start], q);
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == q {
            if bytes.get(i + 1) == Some(&q) {
                out.push(quote);
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Copy one UTF-8 scalar.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&src[i..i + ch_len]);
            i += ch_len;
        }
    }
    Err(Error::Lex {
        position: start,
        message: format!("unterminated {quote} quote"),
    })
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let k = kinds("SELECT * FROM t WHERE a = 1");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Sym("*"),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Keyword("WHERE".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Sym("="),
                TokenKind::Int(1),
            ]
        );
    }

    #[test]
    fn string_escaping_and_params() {
        let k = kinds("'O''Brien' $UID");
        assert_eq!(
            k,
            vec![
                TokenKind::Str("O'Brien".into()),
                TokenKind::Param("UID".into())
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a -- comment\n /* block */ b");
        assert_eq!(
            k,
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into())]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 4.5 1e3"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(4.5),
                TokenKind::Float(1000.0),
            ]
        );
    }

    #[test]
    fn hex_blob() {
        assert_eq!(kinds("X'DEAD'"), vec![TokenKind::Blob(vec![0xde, 0xad])]);
        assert!(lex("X'BAD'").is_err());
    }

    #[test]
    fn neq_aliases() {
        assert_eq!(kinds("a <> b"), kinds("a != b"));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn quoted_identifiers_escape_keywords() {
        assert_eq!(kinds("`select`"), vec![TokenKind::Ident("select".into())]);
        assert_eq!(kinds("\"from\""), vec![TokenKind::Ident("from".into())]);
    }
}
