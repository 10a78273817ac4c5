//! Hand-rolled tokenizer with line tracking and `//` comments.
//!
//! Tokens borrow the source: an identifier is a slice of it, so lexing
//! allocates nothing but the token list.

use std::fmt;

/// Lexical token, borrowing the source it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier (`A`, `loop`, `i`, ...). Keywords are identified by the
    /// parser.
    Ident(&'a str),
    /// Non-negative integer literal.
    Int(i64),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `;`
    Semi,
    /// `@`
    At,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Eq => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Semi => write!(f, ";"),
            Token::At => write!(f, "@"),
        }
    }
}

/// Tokenization failure with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line number.
    pub line: u32,
    /// What is wrong on that line.
    pub kind: LexErrorKind,
}

/// The ways tokenization fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexErrorKind {
    /// A character that starts no token.
    UnexpectedChar(char),
    /// An integer literal above `i64::MAX`.
    IntegerOverflow,
}

impl fmt::Display for LexErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexErrorKind::UnexpectedChar(ch) => write!(f, "unexpected character '{ch}'"),
            LexErrorKind::IntegerOverflow => {
                write!(f, "integer literal larger than {}", i64::MAX)
            }
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`, returning `(token, line)` pairs.
pub fn tokenize(src: &str) -> Result<Vec<(Token<'_>, u32)>, LexError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek().map(|&(_, c)| c) == Some('/') {
                    for (_, c) in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return Err(LexError {
                        line,
                        kind: LexErrorKind::UnexpectedChar('/'),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // Identifier characters are ASCII, one byte each.
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        end = i + 1;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Token::Ident(&src[start..end]), line));
            }
            c if c.is_ascii_digit() => {
                let mut n = Some(0i64);
                while let Some(&(_, c)) = chars.peek() {
                    if let Some(d) = c.to_digit(10) {
                        n = n.and_then(|n| n.checked_mul(10)?.checked_add(d as i64));
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n = n.ok_or(LexError {
                    line,
                    kind: LexErrorKind::IntegerOverflow,
                })?;
                out.push((Token::Int(n), line));
            }
            _ => {
                chars.next();
                let tok = match c {
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '=' => Token::Eq,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    ';' => Token::Semi,
                    '@' => Token::At,
                    ch => {
                        return Err(LexError {
                            line,
                            kind: LexErrorKind::UnexpectedChar(ch),
                        })
                    }
                };
                out.push((tok, line));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn basic_statement() {
        assert_eq!(
            toks("A[i] = B[i-3]*3;"),
            vec![
                Token::Ident("A"),
                Token::LBracket,
                Token::Ident("i"),
                Token::RBracket,
                Token::Eq,
                Token::Ident("B"),
                Token::LBracket,
                Token::Ident("i"),
                Token::Minus,
                Token::Int(3),
                Token::RBracket,
                Token::Star,
                Token::Int(3),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let ts = tokenize("loop { // header\n  x_1[i] = 5; }\n").unwrap();
        assert_eq!(ts[0], (Token::Ident("loop"), 1));
        // x_1 appears on line 2.
        assert_eq!(ts[2], (Token::Ident("x_1"), 2));
    }

    #[test]
    fn at_annotation() {
        assert!(toks("@ 3").contains(&Token::At));
    }

    #[test]
    fn rejects_garbage() {
        let err = tokenize("A[i] = ?;").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::UnexpectedChar('?'));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn integer_literals_up_to_i64_max() {
        assert_eq!(toks("9223372036854775807"), vec![Token::Int(i64::MAX)]);
        let err = tokenize("\n9223372036854775808").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::IntegerOverflow);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn lone_slash_rejected() {
        assert!(tokenize("a / b").is_err());
    }
}
