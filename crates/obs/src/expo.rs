//! Exposition: rendering a [`MetricsSnapshot`] to the Prometheus text
//! format and to JSON, plus a line-by-line validator for the text format.
//!
//! The renderer follows the Prometheus text exposition conventions:
//! `# HELP` / `# TYPE` headers once per metric name, samples as
//! `name{label="value",…} value`, and histograms expanded into the
//! cumulative `_bucket{le="…"}` series (with the mandatory `+Inf`
//! bucket) plus `_sum` and `_count`. The validator
//! ([`validate_exposition`]) is what the wire-protocol tests use to
//! assert that what `KvServer` serves actually parses.

use crate::registry::{MetricsSnapshot, Sample, SampleValue};

/// Escapes a string for a JSON string literal (no surrounding quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a Prometheus label value (`\\`, `\"`, `\n`).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes Prometheus HELP text (`\\` and `\n` only, per the format).
fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 the way Prometheus expects (`+Inf`, `-Inf`, `NaN`
/// spellings for the specials).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// `{a="1",b="2"}` (empty string when no labels). `extra` appends one
/// more pair — used for the histogram `le` label.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", label_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", label_escape(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders the snapshot as Prometheus text exposition format.
pub(crate) fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.samples {
        // Samples are sorted by name; emit headers once per name.
        if last_name != Some(s.name.as_str()) {
            let kind = match &s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            if !s.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", s.name, help_escape(&s.help)));
            }
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_f64(*v)
                ));
            }
            SampleValue::Histogram(h) => {
                for (bound, cum) in h.cumulative() {
                    out.push_str(&format!(
                        "{}_bucket{} {cum}\n",
                        s.name,
                        label_block(&s.labels, Some(("le", &bound.to_string())))
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    h.count
                ));
            }
        }
    }
    out
}

fn json_sample(s: &Sample) -> String {
    let mut obj = format!("{{\"name\":\"{}\"", json_escape(&s.name));
    if !s.labels.is_empty() {
        let pairs: Vec<String> = s
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        obj.push_str(&format!(",\"labels\":{{{}}}", pairs.join(",")));
    }
    match &s.value {
        SampleValue::Counter(v) => {
            obj.push_str(&format!(",\"kind\":\"counter\",\"value\":{v}"));
        }
        SampleValue::Gauge(v) => {
            let v = if v.is_finite() { *v } else { 0.0 };
            obj.push_str(&format!(",\"kind\":\"gauge\",\"value\":{v}"));
        }
        SampleValue::Histogram(h) => {
            obj.push_str(&format!(
                ",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}",
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.quantile(0.999)
            ));
        }
    }
    obj.push('}');
    obj
}

/// Renders the snapshot as a self-contained JSON document.
pub(crate) fn render_json(snap: &MetricsSnapshot) -> String {
    let samples: Vec<String> = snap.samples.iter().map(json_sample).collect();
    format!("{{\"samples\":[{}]}}", samples.join(","))
}

/// A parse failure from [`validate_exposition`]: 1-based line number plus
/// what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpoError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What failed to parse.
    pub msg: String,
}

impl std::fmt::Display for ExpoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ExpoError {}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses `{k="v",…}` starting at `rest` (which begins with `{`); returns
/// the remainder after the closing brace.
fn parse_labels(rest: &str) -> Result<&str, String> {
    let mut chars = rest.char_indices();
    chars.next(); // consume '{'
    let mut expect_name = true;
    loop {
        // Label name (or closing brace).
        match chars.next() {
            Some((i, '}')) if expect_name => return Ok(&rest[i + 1..]),
            Some((_, c)) if c.is_ascii_alphabetic() || c == '_' => {}
            Some((_, c)) => return Err(format!("unexpected {c:?} in label block")),
            None => return Err("unterminated label block".to_string()),
        }
        // Scan the rest of the name, up to '='.
        loop {
            match chars.next() {
                Some((_, c)) if c.is_ascii_alphanumeric() || c == '_' => {}
                Some((_, '=')) => break,
                Some((_, c)) => return Err(format!("unexpected {c:?} in label name")),
                None => return Err("unterminated label block".to_string()),
            }
        }
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err("label value must be quoted".to_string()),
        }
        // Quoted value with escapes.
        loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\' | '"' | 'n')) => {}
                    _ => return Err("bad escape in label value".to_string()),
                },
                Some((_, '"')) => break,
                Some(_) => {}
                None => return Err("unterminated label value".to_string()),
            }
        }
        match chars.next() {
            Some((_, ',')) => {
                expect_name = false;
                continue;
            }
            Some((i, '}')) => return Ok(&rest[i + 1..]),
            _ => return Err("expected ',' or '}' after label value".to_string()),
        }
    }
}

fn is_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Validates `text` as Prometheus text exposition format, line by line.
///
/// Checks comment/header syntax (`# TYPE` kinds, `# HELP` placement),
/// metric-name charset, label-block syntax including escapes, and that
/// every sample value parses as a float. Returns the number of sample
/// (non-comment, non-blank) lines on success.
pub fn validate_exposition(text: &str) -> Result<usize, ExpoError> {
    let err = |line: usize, msg: String| ExpoError { line, msg };
    let mut samples = 0usize;
    let mut typed: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut parts = body.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !is_name(name) {
                    return Err(err(lineno, format!("bad metric name {name:?} in TYPE")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(lineno, format!("unknown TYPE kind {kind:?}")));
                }
                if parts.next().is_some() {
                    return Err(err(lineno, "trailing tokens after TYPE".to_string()));
                }
                if typed.iter().any(|t| t == name) {
                    return Err(err(lineno, format!("duplicate TYPE for {name}")));
                }
                typed.push(name.to_string());
            } else if let Some(body) = rest.strip_prefix("HELP ") {
                let name = body.split_whitespace().next().unwrap_or("");
                if !is_name(name) {
                    return Err(err(lineno, format!("bad metric name {name:?} in HELP")));
                }
            }
            // Other comments are free-form.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !is_name(name) {
            return Err(err(lineno, format!("bad metric name {name:?}")));
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            rest = parse_labels(rest).map_err(|m| err(lineno, m))?;
        }
        let mut parts = rest.split_whitespace();
        let value = parts
            .next()
            .ok_or_else(|| err(lineno, "missing sample value".to_string()))?;
        if !is_value(value) {
            return Err(err(lineno, format!("bad sample value {value:?}")));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(err(lineno, format!("bad timestamp {ts:?}")));
            }
        }
        if parts.next().is_some() {
            return Err(err(lineno, "trailing tokens after sample".to_string()));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_registry() -> Registry {
        let r = Registry::new();
        r.register_fn_counter("demo_ops_total", "operations served", Vec::new(), || 42);
        let stage = vec![("stage".into(), "read".into())];
        r.register_fn_gauge("demo_occupancy", "busy fraction", stage, || 0.75);
        let h = r.histogram("demo_latency_nanoseconds", "op latency");
        for i in 1..=100u64 {
            h.record(i * 1000);
        }
        r
    }

    #[test]
    fn rendered_output_validates() {
        let text = demo_registry().render_prometheus();
        let n = validate_exposition(&text).expect("own output must parse");
        // 1 counter + 1 gauge + histogram (buckets + +Inf + sum + count).
        assert!(n >= 6, "expected several samples, got {n}\n{text}");
        assert!(text.contains("# TYPE demo_ops_total counter"));
        assert!(text.contains("demo_ops_total 42"));
        assert!(text.contains("demo_occupancy{stage=\"read\"} 0.75"));
        assert!(text.contains("demo_latency_nanoseconds_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("demo_latency_nanoseconds_count 100"));
    }

    #[test]
    fn histogram_bucket_series_is_cumulative_and_ends_at_count() {
        let text = demo_registry().render_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("demo_latency_nanoseconds_bucket") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "bucket series must be cumulative");
                last = v;
                bucket_lines += 1;
            }
        }
        assert!(bucket_lines > 2);
        assert_eq!(last, 100, "+Inf bucket equals total count");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let weird = vec![("path".into(), "a\"b\\c\nd".into())];
        r.register_fn_counter("demo_weird_total", "", weird, || 0);
        let text = r.render_prometheus();
        assert!(text.contains(r#"path="a\"b\\c\nd""#), "got: {text}");
        validate_exposition(&text).expect("escaped output must still parse");
    }

    #[test]
    fn validator_rejects_garbage() {
        for (bad, why) in [
            ("demo_ops_total", "missing value"),
            ("demo_ops_total forty", "non-numeric value"),
            ("0bad 1", "bad name"),
            ("demo{x=unquoted} 1", "unquoted label"),
            ("demo{x=\"open} 1", "unterminated label value"),
            ("# TYPE demo_x flavor", "unknown kind"),
            ("demo_ops_total 1 2 3", "trailing tokens"),
        ] {
            assert!(validate_exposition(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn validator_accepts_specials_and_timestamps() {
        let ok = "demo_a 1\ndemo_b +Inf\ndemo_c NaN\ndemo_d 1.5 1700000000\n";
        assert_eq!(validate_exposition(ok).unwrap(), 4);
    }

    #[test]
    fn validator_counts_only_sample_lines() {
        let text = "# a comment\n\n# TYPE demo_x counter\ndemo_x 1\n";
        assert_eq!(validate_exposition(text).unwrap(), 1);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let json = demo_registry().snapshot().to_json();
        assert!(json.starts_with("{\"samples\":["));
        assert!(json.contains("\"name\":\"demo_ops_total\""));
        assert!(json.contains("\"kind\":\"counter\",\"value\":42"));
        assert!(json.contains("\"kind\":\"histogram\",\"count\":100"));
        assert!(json.contains("\"labels\":{\"stage\":\"read\"}"));
        // Balanced braces/brackets outside strings — a cheap structural check.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
