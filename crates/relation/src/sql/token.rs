//! SQL lexer.

use crate::error::{Error, Result};

/// A lexical token with its byte position (for error messages).
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Keyword or identifier (keywords are recognised case-insensitively
    /// by the parser; the lexer just produces words).
    Word(String),
    /// String literal (single-quoted, `''` escape).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Punctuation / operators.
    Symbol(&'static str),
}

/// Token + source byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    pub tok: Tok,
    pub pos: usize,
}

/// Punctuation and operators, two-character ones first.
const SYMBOLS: &[&str] = &["<=", ">=", "<>", "!=", "<", ">", "=", "(", ")", ",", ".", "-", ";"];

/// Tokenise a SQL string.
pub fn lex(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(Error::SqlParse {
                            position: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        let ch = input[i..].chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                toks.push(Spanned { tok: Tok::Str(s), pos: start });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| Error::SqlParse {
                        position: start,
                        message: format!("bad float `{text}`"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| Error::SqlParse {
                        position: start,
                        message: format!("bad integer `{text}`"),
                    })?)
                };
                toks.push(Spanned { tok, pos: start });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'#')
                {
                    i += 1;
                }
                toks.push(Spanned { tok: Tok::Word(input[start..i].to_string()), pos: start });
            }
            _ => match SYMBOLS.iter().find(|s| input[i..].starts_with(**s)) {
                // `!=` is `<>`.
                Some(&sym) => {
                    toks.push(Spanned {
                        tok: Tok::Symbol(if sym == "!=" { "<>" } else { sym }),
                        pos: i,
                    });
                    i += sym.len();
                }
                None => {
                    return Err(Error::SqlParse {
                        position: i,
                        message: format!(
                            "unexpected character `{}`",
                            input[i..].chars().next().unwrap()
                        ),
                    })
                }
            },
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_symbols() {
        let toks = lex("SELECT a, b FROM r WHERE a = 'x'").unwrap();
        assert_eq!(toks[0].tok, Tok::Word("SELECT".into()));
        assert_eq!(toks[2].tok, Tok::Symbol(","));
        assert_eq!(*toks.last().unwrap(), Spanned { tok: Tok::Str("x".into()), pos: 29 });
    }

    #[test]
    fn numbers() {
        let toks = lex("1 2.5 300").unwrap();
        assert_eq!(toks[0].tok, Tok::Int(1));
        assert_eq!(toks[1].tok, Tok::Float(2.5));
        assert_eq!(toks[2].tok, Tok::Int(300));
    }

    #[test]
    fn string_escape() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks[0].tok, Tok::Str("it's".into()));
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("<= >= <> != < > =").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .map(|t| match &t.tok {
                Tok::Symbol(s) => *s,
                _ => panic!(),
            })
            .collect();
        assert_eq!(syms, vec!["<=", ">=", "<>", "<>", "<", ">", "="]);
    }

    #[test]
    fn unterminated_string() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn lone_bang_rejected() {
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn dotted_identifier_tokens() {
        let toks = lex("t.a").unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].tok, Tok::Symbol("."));
    }
}
