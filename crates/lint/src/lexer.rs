//! A minimal Rust lexer: just enough token structure for the rule passes.
//!
//! The workspace vendors no `syn`/`proc-macro2`, so the analyzer lexes Rust
//! itself. The rules only need identifiers and punctuation with comments,
//! strings and char/lifetime ambiguity resolved — full expression parsing
//! is deliberately out of scope.

use crate::syntax::{depth0, matching};

/// One lexical token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// The token kinds the rule passes distinguish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `r#match` is yielded as `match`).
    Ident(String),
    /// Lifetime such as `'a` (payload excludes the quote).
    Lifetime(String),
    /// Any literal: string, raw string, byte string, char, or number.
    Literal,
    /// Single punctuation character (`.`, `[`, `::` is two `:` tokens).
    Punct(char),
}

impl Token {
    /// The identifier payload, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, TokenKind::Punct(p) if *p == c)
    }

    /// `true` if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(s) if s == name)
    }
}

/// Lexes Rust source into a token stream, skipping comments (line, block,
/// doc) and resolving the `'a` lifetime vs `'a'` char-literal ambiguity.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: usize) {
        self.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.skip_line_comment(),
                '/' if self.peek(1) == Some('*') => self.skip_block_comment(),
                '"' => self.lex_string(line),
                'r' | 'b' if self.starts_raw_or_byte_string() => self.lex_raw_or_byte(line),
                '\'' => self.lex_char_or_lifetime(line),
                c if c.is_ascii_digit() => self.lex_number(line),
                c if c == '_' || c.is_alphanumeric() => self.lex_ident(line),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
        self.tokens
    }

    fn skip_line_comment(&mut self) {
        while let Some(c) = self.bump() {
            if c == '\n' {
                break;
            }
        }
    }

    fn skip_block_comment(&mut self) {
        // Consume `/*`; block comments nest in Rust.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn lex_string(&mut self, line: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, line);
    }

    /// `true` at `r"`, `r#"`, `b"`, `br"`, `rb…` starts (raw/byte strings).
    fn starts_raw_or_byte_string(&self) -> bool {
        let mut i = 0;
        // Up to two prefix letters (`r`, `b`, `br`, `rb`).
        while i < 2 && matches!(self.peek(i), Some('r') | Some('b')) {
            i += 1;
        }
        if i == 0 {
            return false;
        }
        let mut j = i;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        // `b'x'` byte char counts too; it lexes like a char literal.
        matches!(self.peek(j), Some('"'))
            || (i == 1 && self.peek(0) == Some('b') && self.peek(1) == Some('\''))
    }

    fn lex_raw_or_byte(&mut self, line: usize) {
        let mut raw = false;
        while matches!(self.peek(0), Some('r') | Some('b')) {
            if self.peek(0) == Some('r') {
                raw = true;
            }
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            // Byte char `b'x'`.
            self.bump();
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Literal, line);
            return;
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        if raw {
            // Scan for `"` followed by `hashes` hash marks.
            'outer: loop {
                match self.bump() {
                    None => break,
                    Some('"') => {
                        for k in 0..hashes {
                            if self.peek(k) != Some('#') {
                                continue 'outer;
                            }
                        }
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    Some(_) => {}
                }
            }
        } else {
            // Plain byte string: escapes apply.
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.push(TokenKind::Literal, line);
    }

    fn lex_char_or_lifetime(&mut self, line: usize) {
        self.bump(); // the quote
        let first = self.peek(0);
        let is_lifetime = match first {
            Some(c) if c == '_' || c.is_alphabetic() => {
                // `'a'` is a char, `'a` / `'static` are lifetimes: scan the
                // identifier run and check for a closing quote.
                let mut k = 1;
                while matches!(self.peek(k), Some(c) if c == '_' || c.is_alphanumeric()) {
                    k += 1;
                }
                self.peek(k) != Some('\'')
            }
            _ => false,
        };
        if is_lifetime {
            let mut name = String::new();
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                if let Some(c) = self.bump() {
                    name.push(c);
                }
            }
            self.push(TokenKind::Lifetime(name), line);
        } else {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Literal, line);
        }
    }

    fn lex_number(&mut self, line: usize) {
        // Numbers (including `1e-9`, `0xFF`, `1_000u64`, `1.5f64`): consume
        // the alphanumeric/underscore/dot run plus exponent signs.
        let mut prev = '0';
        while let Some(c) = self.peek(0) {
            let exponent_sign = (c == '+' || c == '-') && (prev == 'e' || prev == 'E');
            if c == '_' || c == '.' || c.is_alphanumeric() || exponent_sign {
                // A second dot (`0..n` range) ends the number.
                if c == '.' && self.peek(1) == Some('.') {
                    break;
                }
                prev = c;
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, line);
    }

    fn lex_ident(&mut self, line: usize) {
        let mut name = String::new();
        while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
            if let Some(c) = self.bump() {
                name.push(c);
            }
        }
        // Raw identifier `r#match`: the `r` was already consumed as part of
        // the name only when not followed by `#`; handle the `r#` form.
        if name == "r" && self.peek(0) == Some('#') {
            self.bump();
            name.clear();
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                if let Some(c) = self.bump() {
                    name.push(c);
                }
            }
        }
        self.push(TokenKind::Ident(name), line);
    }
}

/// Removes test-only code from a token stream: any item annotated
/// `#[cfg(test)]` or `#[test]` (attribute plus the item's body through its
/// matching closing brace, or through `;` for brace-less items).
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while let Some(t) = tokens.get(i) {
        if let Some(end) = test_attribute_end(tokens, i) {
            // Skip the attribute itself, then the annotated item.
            i = skip_item(tokens, end);
        } else {
            out.push(t.clone());
            i += 1;
        }
    }
    out
}

/// If `tokens[i..]` starts a `#[cfg(test)]`-like or `#[test]` attribute,
/// returns the index one past its closing `]`.
fn test_attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    let end = attribute_end(tokens, i)?;
    let inner = tokens.get(i + 2..end - 1)?;
    let test = inner.iter().any(|t| t.is_ident("test"));
    // `#[test]` exactly, or a `cfg`/`cfg_attr` that mentions `test`.
    let cfg = inner.len() == 1
        || inner
            .iter()
            .any(|t| t.is_ident("cfg") || t.is_ident("cfg_attr"));
    (test && cfg).then_some(end)
}

/// Skips one item starting at `i`: through the matching `}` of its first
/// brace block, or through a terminating `;` if one comes first (e.g.
/// `#[cfg(test)] use …;`). Nested attributes before the item are skipped.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while let Some(end) = attribute_end(tokens, i) {
        i = end;
    }
    let stop = depth0(tokens, i..tokens.len()).find(|&j| {
        tokens
            .get(j)
            .is_some_and(|t| t.is_punct('{') || t.is_punct(';') || t.is_punct('}'))
    });
    match stop {
        Some(j) if tokens.get(j).is_some_and(|t| t.is_punct('{')) => {
            matching(tokens, j).map_or(tokens.len(), |c| c + 1)
        }
        Some(j) => j + 1,
        None => tokens.len(),
    }
}

/// If `tokens[i..]` starts any attribute, returns the index past its `]`.
fn attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    matching(tokens, i + 1).map(|close| close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = r##"
            // unwrap() in a comment
            /* block .unwrap() /* nested */ still comment */
            let s = "call .unwrap() inside a string";
            let r = r#"raw "quoted" .unwrap()"#;
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let s = 'a'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        let chars = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal))
            .count();
        assert_eq!(chars, 2, "{toks:?}");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_literals_do_not_eat_ranges() {
        let toks = lex("for i in 0..n {}");
        assert!(toks.iter().any(|t| t.is_ident("n")));
        assert_eq!(
            toks.iter().filter(|t| t.is_punct('.')).count(),
            2,
            "{toks:?}"
        );
    }

    #[test]
    fn scientific_notation_is_one_literal() {
        let toks = lex("let x = 1e-9;");
        let lits = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal))
            .count();
        assert_eq!(lits, 1, "{toks:?}");
        assert!(!toks.iter().any(|t| t.is_punct('-')), "{toks:?}");
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = r#"
            pub fn keep() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
            pub fn also_keep() {}
        "#;
        let toks = strip_test_code(&lex(src));
        let unwraps = toks.iter().filter(|t| t.is_ident("unwrap")).count();
        assert_eq!(unwraps, 1);
        assert!(toks.iter().any(|t| t.is_ident("also_keep")));
    }

    #[test]
    fn cfg_test_use_statement_is_stripped() {
        let src = "#[cfg(test)]\nuse foo::bar;\npub fn keep() {}";
        let toks = strip_test_code(&lex(src));
        assert!(!toks.iter().any(|t| t.is_ident("bar")));
        assert!(toks.iter().any(|t| t.is_ident("keep")));
    }

    #[test]
    fn non_test_attributes_are_kept() {
        let src = "#[derive(Debug)]\npub struct S { pub x: u8 }";
        let toks = strip_test_code(&lex(src));
        assert!(toks.iter().any(|t| t.is_ident("Debug")));
        assert!(toks.iter().any(|t| t.is_ident("S")));
    }
}
