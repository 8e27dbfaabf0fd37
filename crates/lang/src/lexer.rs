//! Tokenizer shared by the TriggerMan command language and the SQL subset.
//!
//! Tokens borrow from the input: an identifier or keyword is a slice of
//! it, and so is a string literal unless it holds a `''` escape. The
//! parser copies only the names and literals its AST keeps.

use std::borrow::Cow;
use std::fmt;
use tman_common::{Result, TmanError};

/// One lexical token, borrowing from the text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// Identifier or keyword (keywords are recognized case-insensitively by
    /// the parser, not the lexer, since TriggerMan identifiers may collide
    /// with keywords in other positions). A quoted identifier (`"..."`)
    /// is the text between its quotes.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (`'...'`, with `''` escaping a quote): borrowed, or
    /// owned when an escape had to be undone.
    Str(Cow<'a, str>),
    /// `:NEW` / `:OLD` sigil (the following `.source.column` path is parsed
    /// by the parser).
    Colon,
    /// Punctuation / operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semi,
}

impl Token<'_> {
    /// Is this an identifier equal (case-insensitively) to `kw`?
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Colon => write!(f, ":"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semi => write!(f, ";"),
        }
    }
}

/// Tokenize `input`. Errors carry the byte offset of the offending char.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let b = input.as_bytes();
    // A token is at least one byte and most are two or more plus a
    // separator: one allocation covers a command.
    let mut out = Vec::with_capacity(input.len() / 2 + 1);
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                // SQL-style line comment.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'.' if !(i + 1 < b.len() && b[i + 1].is_ascii_digit()) => {
                out.push(Token::Dot);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                i += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                i += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                i += 1;
            }
            b';' => {
                out.push(Token::Semi);
                i += 1;
            }
            b':' => {
                out.push(Token::Colon);
                i += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                i += 1;
            }
            b'!' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Token::Ne);
                i += 2;
            }
            b'<' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else if i + 1 < b.len() && b[i + 1] == b'>' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'\'' => {
                let (literal, end) = string_literal(input, i)?;
                out.push(Token::Str(literal));
                i = end;
            }
            b'"' => {
                // A quoted identifier: any characters but `"`, kept as
                // written, so a name may be non-ASCII.
                let start = i + 1;
                let Some(len) = input[start..].find('"') else {
                    return Err(TmanError::Parse(format!(
                        "unterminated quoted identifier at offset {}",
                        b.len()
                    )));
                };
                if len == 0 {
                    return Err(TmanError::Parse(format!(
                        "empty quoted identifier at offset {i}"
                    )));
                }
                out.push(Token::Ident(&input[start..start + len]));
                i = start + len + 1;
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                let mut saw_dot = false;
                let mut saw_exp = false;
                while i < b.len() {
                    match b[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !saw_dot && !saw_exp => {
                            saw_dot = true;
                            i += 1;
                        }
                        b'e' | b'E' if !saw_exp && i > start => {
                            saw_exp = true;
                            i += 1;
                            if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                if saw_dot || saw_exp {
                    out.push(Token::Float(text.parse().map_err(|e| {
                        TmanError::Parse(format!("bad float '{text}': {e}"))
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|e| {
                        TmanError::Parse(format!("bad integer '{text}': {e}"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(&input[start..i]));
            }
            c => {
                return Err(TmanError::Parse(format!(
                    "unexpected character '{}' at offset {i}",
                    c as char
                )))
            }
        }
    }
    Ok(out)
}

/// The string literal whose opening quote is at byte `open`, and the
/// offset just past its closing quote. A slice of `input` unless it holds
/// a `''`, which is undone in a copy. Quotes are ASCII, so every slice
/// taken here starts and ends on a character boundary.
fn string_literal(input: &str, open: usize) -> Result<(Cow<'_, str>, usize)> {
    let b = input.as_bytes();
    let start = open + 1;
    let mut owned: Option<String> = None;
    // The first byte not yet copied into `owned`.
    let mut copied_to = start;
    let mut i = start;
    loop {
        match b.get(i) {
            None => {
                return Err(TmanError::Parse(format!(
                    "unterminated string literal at offset {i}"
                )))
            }
            Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                // Copy through the first quote; the second is the escape.
                let s = owned.get_or_insert_with(String::new);
                s.push_str(&input[copied_to..=i]);
                i += 2;
                copied_to = i;
            }
            Some(b'\'') => break,
            Some(_) => i += 1,
        }
    }
    let literal = match owned {
        None => Cow::Borrowed(&input[start..i]),
        Some(mut s) => {
            s.push_str(&input[copied_to..i]);
            Cow::Owned(s)
        }
    };
    Ok((literal, i + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = tokenize("create trigger t1 when emp.salary >= 80000.5 do x").unwrap();
        assert_eq!(toks[0], Token::Ident("create"));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Float(80000.5)));
        assert!(toks.contains(&Token::Dot));
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = tokenize("'it''s' 'two'").unwrap();
        assert_eq!(
            toks,
            vec![Token::Str("it's".into()), Token::Str("two".into())]
        );
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("= != <> < <= > >=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge
            ]
        );
    }

    #[test]
    fn transition_refs_tokenize_as_colon_path() {
        let toks = tokenize(":NEW.emp.salary").unwrap();
        assert_eq!(toks[0], Token::Colon);
        assert!(toks[1].is_kw("new"));
    }

    #[test]
    fn numbers_int_float_exponent() {
        let toks = tokenize("42 3.5 1e3 2.5E-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Float(3.5),
                Token::Float(1000.0),
                Token::Float(0.025)
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("a -- comment here\n b").unwrap();
        assert_eq!(toks, vec![Token::Ident("a"), Token::Ident("b")]);
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        assert!(Token::Ident("CrEaTe").is_kw("create"));
        assert!(!Token::Ident("created").is_kw("create"));
    }

    #[test]
    fn literals_borrow_unless_escaped() {
        let toks = tokenize("'two' 'it''s' '' ''''").unwrap();
        assert_eq!(toks.len(), 4);
        assert!(matches!(&toks[0], Token::Str(Cow::Borrowed("two"))));
        assert!(matches!(&toks[1], Token::Str(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&toks[2], Token::Str(Cow::Borrowed(""))));
        assert!(matches!(&toks[3], Token::Str(Cow::Owned(s)) if s == "'"));
        // Escapes anywhere: leading, trailing, repeated.
        for (text, want) in [("'''a'", "'a"), ("'a'''", "a'"), ("'a''b''c'", "a'b'c")] {
            assert_eq!(
                tokenize(text).unwrap(),
                vec![Token::Str(want.into())],
                "{text}"
            );
        }
    }

    #[test]
    fn literal_at_end_of_input() {
        let toks = tokenize("q.sym = 'S1'").unwrap();
        assert_eq!(toks.last(), Some(&Token::Str("S1".into())));
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn non_ascii_literals() {
        let toks = tokenize("'héllo wörld' 'ü''ß' '日本'").unwrap();
        assert!(matches!(&toks[0], Token::Str(Cow::Borrowed("héllo wörld"))));
        assert!(matches!(&toks[1], Token::Str(Cow::Owned(s)) if s == "ü'ß"));
        assert!(matches!(&toks[2], Token::Str(Cow::Borrowed("日本"))));
    }

    #[test]
    fn identifiers_borrow_from_the_input() {
        let input = String::from("create trigger t1");
        let toks = tokenize(&input).unwrap();
        let Token::Ident(name) = toks[2] else {
            panic!("{toks:?}")
        };
        assert_eq!(name, "t1");
        assert!(std::ptr::eq(name.as_ptr(), input[15..].as_ptr()));
    }

    #[test]
    fn a_quoted_identifier_is_its_text() {
        let toks = tokenize("raise event \"Überwachung_Ölpreis\"(x)").unwrap();
        assert_eq!(toks[2], Token::Ident("Überwachung_Ölpreis"));
        assert_eq!(toks[3], Token::LParen);
        let msg = |text: &str| tokenize(text).unwrap_err().to_string();
        assert!(msg("a \"b").contains("unterminated quoted identifier at offset 4"));
        assert!(msg("a \"\" b").contains("empty quoted identifier at offset 2"));
    }

    #[test]
    fn bad_chars_error_with_offset() {
        let msg = |text: &str| tokenize(text).unwrap_err().to_string();
        // An unterminated literal reports the end of input.
        assert!(msg("'abc").contains("offset 4"), "{}", msg("'abc"));
        assert!(
            msg("x = 'it''s").contains("offset 10"),
            "{}",
            msg("x = 'it''s")
        );
        assert!(msg("'").contains("offset 1"));
        // A bad character reports where it starts, in bytes.
        assert!(msg("a ยง b").contains("offset 2"), "{}", msg("a ยง b"));
        assert!(msg("'é' ?").contains("offset 5"), "{}", msg("'é' ?"));
        assert!(matches!(tokenize("a ยง b"), Err(TmanError::Parse(_))));
    }
}
