//! A deterministic JSON writer — and a small reader.
//!
//! The whole point of the scenario reports is byte-comparability — the
//! acceptance gate diffs the `--threads 1` and `--threads 8` outputs,
//! and CI archives them so the perf/accuracy trajectory is diffable
//! across PRs. So this writer is deliberately boring: keys keep
//! insertion order, floats use Rust's shortest-roundtrip formatting,
//! non-finite floats become `null`, and indentation is fixed at two
//! spaces. Numbers and strings go through `pov_telemetry::fmt`, the
//! leaf writers the trace exporters share. (The vendored `serde`
//! stand-in is a no-op, so hand-rolling the few value types we need is
//! also the only offline option.)
//!
//! [`Json::parse`] is the matching recursive-descent reader: the repo
//! benchmark (`benchmark/`) reads its own per-workload result objects
//! back to aggregate them, and tests check that exported documents
//! (the Chrome trace, the bench and mux documents) are well-formed. It
//! accepts exactly the documents the writer produces (plus arbitrary
//! whitespace); it is not a general validating JSON parser.

use pov_telemetry::fmt::{push_f64, push_str};
use std::fmt;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so counts never print
    /// a trailing `.0` or lose precision above 2^53... within i64).
    Int(i64),
    /// A float; NaN/±∞ serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::with`] chaining.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key/value pair (builder style). Panics on non-objects.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Parse a JSON document (the inverse of [`Json::render`]). Numbers
    /// containing `.`, `e` or `E` become [`Json::Num`]; plain integers
    /// that fit an `i64` become [`Json::Int`] (and fall back to `Num`
    /// past its range). Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(value)
    }

    /// Object member access by key (`None` for absent keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an `Int` or `Num` (`None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of an `Int` (`None` otherwise).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value of a `Str` (`None` otherwise).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an `Arr` (`None` otherwise).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(v) => push_f64(out, *v),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    push_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent state for [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.at
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            // The writer only emits \u for control chars;
                            // surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar value.
                    let ch_len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.at - 1;
                    let s = std::str::from_utf8(&self.bytes[start..start + ch_len])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                    self.at = start + ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.at += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        // Counts in this workspace are far below 2^63.
        Json::Int(i as i64)
    }
}
impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i64::from(i))
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serialize a rendered [`Table`](pov_core::report::Table) — title,
/// headers, and rows — the shared shape for `repro --json`.
pub fn table_to_json(t: &pov_core::report::Table) -> Json {
    Json::obj()
        .with("title", t.title())
        .with("headers", t.headers().to_vec())
        .with(
            "rows",
            Json::Arr(t.rows().iter().map(|row| Json::from(row.clone())).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let j = Json::obj()
            .with("name", "demo")
            .with("n", 400u64)
            .with("mean", 2.5)
            .with("whole", 3.0)
            .with("ok", true)
            .with("missing", Json::Null)
            .with("xs", vec![1i64, 2, 3]);
        let s = j.render();
        assert_eq!(
            s,
            "{\n  \"name\": \"demo\",\n  \"n\": 400,\n  \"mean\": 2.5,\n  \"whole\": 3.0,\n  \"ok\": true,\n  \"missing\": null,\n  \"xs\": [\n    1,\n    2,\n    3\n  ]\n}\n"
        );
    }

    #[test]
    fn floats_always_look_like_floats() {
        assert_eq!(Json::Num(3.0).render(), "3.0\n");
        assert_eq!(Json::Num(0.1).render(), "0.1\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::Num(1500.0).render(), "1500.0\n");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::Str("a\"b\\c\n\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\n\\u0001\"\n"
        );
    }

    #[test]
    fn empty_collections_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::obj().render(), "{}\n");
    }

    #[test]
    fn option_and_from_impls() {
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(Some(4u64)), Json::Int(4));
        assert_eq!(Json::from(2u32), Json::Int(2));
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj()
            .with("schema", "bench_engine/v2")
            .with("count", 400u64)
            .with("rate", 2.58e6)
            .with("frac", 0.125)
            .with("neg", -3i64)
            .with("ok", true)
            .with("missing", Json::Null)
            .with("empty_arr", Json::Arr(vec![]))
            .with("empty_obj", Json::obj())
            .with(
                "history",
                Json::Arr(vec![Json::obj()
                    .with("sha", "abc123")
                    .with("eps", vec![1.5f64, 2.0])]),
            )
            .with("text", "quote \" slash \\ nl \n ctl \u{1} uni é");
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("round trip");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn parse_accessors_walk_the_tree() {
        let doc =
            Json::parse(r#"{"workloads": [{"name": "a", "events_per_sec": 2.5e6}], "threads": 4}"#)
                .unwrap();
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), 1);
        assert_eq!(workloads[0].get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(
            workloads[0].get("events_per_sec").and_then(Json::as_f64),
            Some(2.5e6)
        );
        assert_eq!(doc.get("threads").and_then(Json::as_i64), Some(4));
        // Ints read as f64 too (check code compares rates numerically).
        assert_eq!(doc.get("threads").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("absent"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\": 1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parse_distinguishes_int_and_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("2.58e6").unwrap(), Json::Num(2.58e6));
        // Past i64: falls back to float rather than erroring.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(1e20)
        );
    }

    #[test]
    fn table_round_trips_shape() {
        let mut t = pov_core::report::Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let j = table_to_json(&t);
        let s = j.render();
        assert!(s.contains("\"title\": \"demo\""));
        assert!(s.contains("\"headers\""));
        assert!(s.contains("\"rows\""));
    }
}
