//! A hand-rolled Rust source scanner: separates code from comments and
//! string/char literals, and marks `#[cfg(test)]` / `#[test]` regions.
//!
//! This is deliberately *not* a parser — the lint rules (see [`crate::rules`])
//! are token-shaped, so a line-oriented view with comments dropped and
//! literals blanked out is exactly enough, runs in one pass, and needs no
//! rustc internals.

/// A source file split into per-line code text (comments dropped, the
/// contents of string/char literals replaced by spaces), the captured
/// string literals, and a per-line "inside test code" flag.
pub struct PreparedSource {
    /// Line-by-line source with comments dropped and literal contents blanked.
    pub code: Vec<String>,
    /// True when the line sits inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: Vec<bool>,
    /// String-literal contents, keyed by the line the literal *opens* on.
    /// `col` is the byte offset of the opening quote in that line's code
    /// view, so rules can pair a literal with the call that precedes it
    /// (e.g. L8 reading the kind argument of `trace.record("…")`).
    pub strings: Vec<Vec<StringLit>>,
}

/// One captured string literal (raw contents, escapes not processed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringLit {
    /// Byte offset of the opening quote in the opening line's code view.
    pub col: usize,
    /// Literal contents between the delimiters.
    pub text: String,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comments carry their depth.
    BlockComment(u32),
    /// Ordinary string/char literal; true while the next char is escaped.
    Literal { close: char, escaped: bool },
    /// Raw string literal closed by `"` followed by `hashes` `#`s.
    RawString { hashes: u32 },
}

/// Lexes `source` into a [`PreparedSource`].
pub fn prepare(source: &str) -> PreparedSource {
    let chars: Vec<char> = source.chars().collect();
    let mut code_lines = Vec::new();
    let mut code = String::new();
    let mut state = State::Code;
    // In-flight string capture: (opening line, opening column, contents).
    let mut lit: Option<(usize, usize, String)> = None;
    let mut captured: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            if let Some((_, _, text)) = lit.as_mut() {
                text.push('\n');
            }
            code_lines.push(std::mem::take(&mut code));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    state = string_state(&chars, i);
                    lit = Some((code_lines.len(), code.len(), String::new()));
                    code.push(' ');
                    i += 1;
                } else if c == '\'' {
                    if is_char_literal(&chars, i) {
                        state = State::Literal {
                            close: '\'',
                            escaped: false,
                        };
                        code.push(' ');
                    } else {
                        // A lifetime: plain code.
                        code.push(c);
                    }
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => i += 1,
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Literal { close, escaped } => {
                code.push(' ');
                let closes = !escaped && c != '\\' && c == close;
                if closes {
                    if let Some(entry) = lit.take() {
                        captured.push(entry);
                    }
                } else if let Some((_, _, text)) = lit.as_mut() {
                    text.push(c);
                }
                state = if escaped {
                    State::Literal {
                        close,
                        escaped: false,
                    }
                } else if c == '\\' {
                    State::Literal {
                        close,
                        escaped: true,
                    }
                } else if closes {
                    State::Code
                } else {
                    state
                };
                i += 1;
            }
            State::RawString { hashes } => {
                code.push(' ');
                if c == '"' && count_hashes(&chars, i + 1) >= hashes {
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    if let Some(entry) = lit.take() {
                        captured.push(entry);
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    if let Some((_, _, text)) = lit.as_mut() {
                        text.push(c);
                    }
                    i += 1;
                }
            }
        }
    }
    code_lines.push(code);
    if let Some(entry) = lit.take() {
        captured.push(entry); // unterminated literal at EOF
    }
    let in_test = mark_test_regions(&code_lines);
    let mut strings = vec![Vec::new(); code_lines.len()];
    for (line, col, text) in captured {
        strings[line].push(StringLit { col, text });
    }
    PreparedSource {
        code: code_lines,
        in_test,
        strings,
    }
}

/// Decides, at a `"` in code position `i`, whether a raw string starts
/// here (looking back over `#`s to an `r` / `br` / `cr` prefix).
fn string_state(chars: &[char], i: usize) -> State {
    let mut j = i;
    let mut hashes = 0u32;
    while j > 0 && chars[j - 1] == '#' {
        j -= 1;
        hashes += 1;
    }
    let is_raw = j > 0
        && chars[j - 1] == 'r'
        && !(j >= 2 && is_ident_char(chars[j - 2]) && !matches!(chars[j - 2], 'b' | 'c'));
    if is_raw {
        State::RawString { hashes }
    } else {
        State::Literal {
            close: '"',
            escaped: false,
        }
    }
}

/// Number of consecutive `#`s starting at `i`.
fn count_hashes(chars: &[char], i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i + n as usize) == Some(&'#') {
        n += 1;
    }
    n
}

/// At a `'` in code position `i`: char literal (true) or lifetime (false)?
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if c == '_' || c.is_alphanumeric() => {
            // `'a'` is a char; `'a>` / `'a,` / `'a ` is a lifetime.
            chars.get(i + 2) == Some(&'\'')
        }
        _ => true,
    }
}

/// True for characters that may appear inside an identifier.
fn is_ident_char(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Marks every line belonging to a `#[cfg(test)]` / `#[test]` item by
/// tracking brace depth: the region opens at the first `{` after the
/// attribute and closes with its matching `}`.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_close_depths: Vec<i64> = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let has_attr = ["#[cfg(test)]", "#[cfg(test,", "#[cfg(all(test", "#[cfg(any(test", "#[test]"]
            .iter()
            .any(|a| line.contains(a));
        if has_attr {
            pending = true;
        }
        if pending || !region_close_depths.is_empty() {
            in_test[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        region_close_depths.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if region_close_depths.last() == Some(&depth) {
                        region_close_depths.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    in_test
}

/// Returns the byte offsets at which `needle` occurs in `line` as a
/// standalone token. Identifier-boundary checks apply only on the sides
/// where the needle itself is an identifier character, so `.unwrap()`
/// matches after `x` while `std::fs` refuses to match inside `mystd::fs`.
pub fn token_offsets(line: &str, needle: &str) -> Vec<usize> {
    let check_before = needle.chars().next().is_some_and(is_ident_char);
    let check_after = needle.chars().next_back().is_some_and(is_ident_char);
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let at = start + pos;
        let before_ok = !check_before
            || line[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c));
        let after_ok = !check_after
            || line[at + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            found.push(at);
        }
        start = at + needle.len();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated() {
        let src = "let a = \"std::fs\"; // std::net here\nlet b = 1; /* unsafe */ call();";
        let p = prepare(src);
        assert!(!p.code[0].contains("std::fs"));
        assert!(!p.code[0].contains("std::net"));
        assert!(!p.code[1].contains("unsafe"));
        assert!(p.code[1].contains("call()"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"unsafe { \"quoted\" }\"#; let c = '\"'; let l: &'static str = x;";
        let p = prepare(src);
        assert!(!p.code[0].contains("unsafe"));
        assert!(p.code[0].contains("&'static str"), "lifetime kept: {}", p.code[0]);
    }

    #[test]
    fn test_region_marking() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn inner() { x.unwrap(); }\n}\nfn lib2() {}";
        let p = prepare(src);
        assert_eq!(p.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn raw_string_edge_cases() {
        // A quote inside a hashed raw string does not close it; only
        // `"` followed by the right number of `#`s does.
        let p = prepare("let s = r#\"a \" b\"#; after();");
        assert!(p.code[0].contains("after()"), "code: {}", p.code[0]);
        assert_eq!(p.strings[0][0].text, "a \" b");
        // Backslash is not an escape inside raw strings.
        let p = prepare("let s = r\"back\\slash\"; tail();");
        assert!(p.code[0].contains("tail()"));
        assert_eq!(p.strings[0][0].text, "back\\slash");
        // `"#` with too few hashes stays inside the literal.
        let p = prepare("let s = r##\"x \"# y\"##; done();");
        assert!(p.code[0].contains("done()"));
        assert_eq!(p.strings[0][0].text, "x \"# y");
    }

    #[test]
    fn nested_comment_edge_cases() {
        // Depth tracking: the outer comment only closes at the matching
        // `*/`, and openers inside strings or line comments are inert.
        let p = prepare("/* a /* b */ still */ code();\nx(\"/* not a comment\");\n// trailing /* opener\nlive();");
        assert!(!p.code[0].contains("still"));
        assert!(p.code[0].contains("code()"));
        assert_eq!(p.strings[1][0].text, "/* not a comment");
        assert!(p.code[3].contains("live()"), "line comment must not open a block: {}", p.code[3]);
        // A `*/` inside a string does not close a surrounding comment…
        // because the string is *inside* the comment and not lexed at all.
        let p = prepare("/* \" */ x(); /* ' */ y();");
        assert!(p.code[0].contains("x()") && p.code[0].contains("y()"));
    }

    #[test]
    fn escaped_quotes_and_multiline_strings() {
        let p = prepare("let s = \"esc \\\" quote\"; fin();");
        assert!(p.code[0].contains("fin()"));
        assert_eq!(p.strings[0][0].text, "esc \\\" quote");
        // `\\` before the close is a literal backslash, not an escape.
        let p = prepare("let s = \"bs\\\\\"; end();");
        assert!(p.code[0].contains("end()"));
        assert_eq!(p.strings[0][0].text, "bs\\\\");
        // Multi-line string: captured on its opening line, newline kept.
        let p = prepare("let s = \"one\ntwo\"; post();");
        assert_eq!(p.strings[0][0].text, "one\ntwo");
        assert!(p.strings[1].is_empty());
        assert!(p.code[1].contains("post()"));
    }

    #[test]
    fn token_boundaries() {
        assert_eq!(token_offsets("my_unsafe unsafe", "unsafe"), vec![10]);
        assert!(token_offsets("xstd::fs", "std::fs").is_empty());
        assert_eq!(token_offsets("use ::std::fs;", "std::fs").len(), 1);
    }
}
