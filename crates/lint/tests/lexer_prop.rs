//! Property test for the lint lexer: random interleavings of code
//! tokens, line/nested-block comments, ordinary/raw string literals,
//! char literals, and lifetimes must round-trip into the right views —
//! code and string sentinels land in their own view (code / captured
//! strings) on the right line, and comment text leaks into neither.
//!
//! Each atom carries a unique sentinel with a view-specific prefix
//! (`c<n>` code, `m<n>` comment, `s<n>` string), so cross-view leakage
//! is detectable by substring search with no false matches.

use pcp_lint::lexer::prepare;
use proptest::prelude::*;

/// One generated source atom: (kind, variant) drive shape, `n` the
/// unique sentinel index (assigned at build time, not generated).
type Atom = (u8, u8);

/// Sentinels to expect in one view: (0-based line, text) pairs.
type Marks = Vec<(usize, String)>;

/// Appends one atom to `src`, recording expectations. Returns the
/// source plus the expected (code_marks, comment_marks, string_caps).
fn build(atoms: &[Atom]) -> (String, Marks, Vec<String>, Marks) {
    let mut src = String::new();
    let mut line = 0usize;
    let mut code_marks = Vec::new();
    let mut comment_marks = Vec::new();
    let mut string_caps = Vec::new();
    for (n, &(kind, variant)) in atoms.iter().enumerate() {
        match kind % 8 {
            0 => {
                // Plain code identifier.
                let id = format!("c{n}");
                src.push_str(&id);
                src.push(' ');
                code_marks.push((line, id));
            }
            1 => {
                // Punctuation that cannot open a literal or comment.
                let syms = [';', '{', '}', '(', ')', '.', ':', '=', ','];
                src.push(syms[variant as usize % syms.len()]);
                src.push(' ');
            }
            2 => {
                // Line comment; hostile contents stay commentary.
                let body = match variant % 3 {
                    0 => format!("m{n}"),
                    1 => format!("m{n} /* opener"),
                    _ => format!("m{n} \" quote"),
                };
                src.push_str("// ");
                src.push_str(&body);
                src.push('\n');
                comment_marks.push(format!("m{n}"));
                line += 1;
            }
            3 => {
                // Block comment, depth 1..=3, with hostile contents.
                let depth = 1 + (variant as usize % 3);
                let body = format!("m{n} \" //");
                for _ in 0..depth {
                    src.push_str("/* ");
                }
                src.push_str(&body);
                for _ in 0..depth {
                    src.push_str(" */");
                }
                src.push(' ');
                comment_marks.push(format!("m{n}"));
            }
            4 => {
                // Ordinary string literal; escapes kept raw in capture.
                let contents = match variant % 4 {
                    0 => format!("s{n}"),
                    1 => format!("s{n} \\\" esc"),
                    2 => format!("s{n} \\\\"),
                    _ => format!("s{n} // /* hostile"),
                };
                src.push('"');
                src.push_str(&contents);
                src.push_str("\" ");
                string_caps.push((line, contents));
            }
            5 => {
                // Raw string literal, 0..=2 hashes; a quote (with too
                // few hashes) only when at least one hash guards it.
                let hashes = variant as usize % 3;
                let contents = if hashes == 0 {
                    format!("s{n} back\\slash")
                } else {
                    format!("s{n} \" lone")
                };
                src.push('r');
                src.push_str(&"#".repeat(hashes));
                src.push('"');
                src.push_str(&contents);
                src.push('"');
                src.push_str(&"#".repeat(hashes));
                src.push(' ');
                string_caps.push((line, contents));
            }
            6 => {
                src.push('\n');
                line += 1;
            }
            _ => {
                // Lifetime (must NOT be treated as a char literal) or a
                // real char literal (blanked but not captured).
                if variant % 2 == 0 {
                    let id = format!("c{n}");
                    src.push('\'');
                    src.push_str("a ");
                    src.push_str(&id);
                    src.push(' ');
                    code_marks.push((line, id));
                } else {
                    src.push_str("'q' ");
                }
            }
        }
    }
    (src, code_marks, comment_marks, string_caps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random atom interleavings round-trip: every code and string
    /// sentinel appears in exactly its own view on its recorded line,
    /// comment text appears in neither, and the per-line vectors stay
    /// aligned.
    #[test]
    fn random_interleavings_round_trip(
        atoms in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let (src, code_marks, comment_marks, string_caps) = build(&atoms);
        let p = prepare(&src);

        // The three views are line-aligned.
        prop_assert_eq!(p.code.len(), p.in_test.len());
        prop_assert_eq!(p.code.len(), p.strings.len());
        let lines = src.chars().filter(|&c| c == '\n').count() + 1;
        prop_assert_eq!(p.code.len(), lines);

        // Code sentinels survive on their line; comment text never leaks
        // into code or strings.
        let all_code = p.code.join("\n");
        let all_strings: Vec<&str> = p.strings.iter().flatten().map(|s| s.text.as_str()).collect();
        for (line, id) in &code_marks {
            prop_assert!(p.code[*line].contains(id.as_str()),
                "code sentinel {} missing from line {}: {:?}", id, line, p.code[*line]);
        }
        for id in &comment_marks {
            prop_assert!(!all_code.contains(id.as_str()),
                "comment sentinel {} leaked into code", id);
            prop_assert!(!all_strings.iter().any(|s| s.contains(id.as_str())),
                "comment sentinel {} leaked into strings", id);
        }

        // String captures come back verbatim, keyed by opening line, in
        // order — and never appear in the code view.
        let mut want_by_line: Vec<Vec<&str>> = vec![Vec::new(); lines];
        for (line, text) in &string_caps {
            want_by_line[*line].push(text.as_str());
            let sentinel = text.split(' ').next().unwrap();
            prop_assert!(!all_code.contains(sentinel),
                "string sentinel {} leaked into code", sentinel);
        }
        for (line, want) in want_by_line.iter().enumerate() {
            let got: Vec<&str> = p.strings[line].iter().map(|s| s.text.as_str()).collect();
            prop_assert_eq!(&got, want, "string captures diverge on line {}", line);
        }

        // No atom generates test attributes, so nothing is in_test.
        prop_assert!(p.in_test.iter().all(|t| !t));
    }
}
