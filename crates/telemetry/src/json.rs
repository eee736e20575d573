//! Minimal recursive-descent JSON parser.
//!
//! Exists so the JSONL event stream can be validated — by the golden
//! schema tests, the `telemetry_lint` tool and the `scripts/check.sh`
//! smoke gate — without pulling a serde stack into the offline build.
//! It accepts exactly RFC 8259 JSON; numbers are parsed as `f64`, which
//! is lossless for every integer the schema emits (all well below
//! 2^53).

use std::path::Path;

use crate::event::SCHEMA_VERSION;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: decode when a low half
                            // follows; lone surrogates are rejected.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + low.checked_sub(0xDC00).ok_or("bad surrogate pair")?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or("invalid \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

/// Schema versions a consumer accepts: v1 (flat events), v2 (adds the
/// hierarchical `span` event) and v3 (adds the optional `run_id`
/// tag). See [`SCHEMA_VERSION`] history.
pub const ACCEPTED_VERSIONS: [u32; 3] = [1, 2, SCHEMA_VERSION];

/// Reads a field as a non-negative integer (the schema emits all ids,
/// counts and durations as u64, well below 2^53).
fn get_u64(value: &Json, key: &str) -> Option<u64> {
    let x = value.get(key)?.as_f64()?;
    (x.is_finite() && x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

/// How far above 1 a `ppo_update` event's `entropy_frac` may read. The
/// mean entropy is an `f32` sum over every action head, so a policy that
/// is still exactly uniform can round a few ULPs past its maximum.
const ENTROPY_FRAC_SLACK: f64 = 1e-4;

/// Validates one JSONL event line: parses it, checks it is an object
/// carrying an accepted `"v"` schema version and an `"event"` string,
/// checks the optional v3 `run_id` tag (when present it must be a
/// positive integer on any event kind), and — for `span` events —
/// checks the required span fields (`name`, `span_id`, `path`, `ns`;
/// `parent_id` when present must be a positive integer). A `ppo_update`
/// event must carry an `entropy_frac` in `(0, 1]`, with a little slack
/// above 1 for `f32` rounding.
pub fn validate_event_line(line: &str) -> Result<Json, String> {
    let value = parse(line)?;
    match value.get("v").and_then(Json::as_f64) {
        Some(v) if ACCEPTED_VERSIONS.iter().any(|&a| v == a as f64) => {}
        Some(v) => return Err(format!("schema version {v} not in {ACCEPTED_VERSIONS:?}")),
        None => return Err("missing \"v\" schema-version field".into()),
    }
    let kind = match value.get("event").and_then(Json::as_str) {
        Some(kind) => kind,
        None => return Err("missing \"event\" kind field".into()),
    };
    if value.get("run_id").is_some() && get_u64(&value, "run_id").is_none_or(|r| r == 0) {
        return Err("\"run_id\" must be a positive integer".into());
    }
    if kind == "ppo_update" {
        match value.get("entropy_frac").and_then(Json::as_f64) {
            Some(f) if f > 0.0 && f <= 1.0 + ENTROPY_FRAC_SLACK => {}
            Some(f) => return Err(format!("ppo_update event: entropy_frac {f} not in (0, 1]")),
            None => return Err("ppo_update event: missing numeric \"entropy_frac\"".into()),
        }
    }
    if kind == "span" {
        if value.get("name").and_then(Json::as_str).is_none() {
            return Err("span event: missing string \"name\"".into());
        }
        match get_u64(&value, "span_id") {
            Some(id) if id > 0 => {}
            Some(_) => return Err("span event: \"span_id\" must be positive".into()),
            None => return Err("span event: missing integer \"span_id\"".into()),
        }
        if value.get("parent_id").is_some() && get_u64(&value, "parent_id").is_none_or(|p| p == 0) {
            return Err("span event: \"parent_id\" must be a positive integer".into());
        }
        if value.get("path").and_then(Json::as_str).is_none() {
            return Err("span event: missing string \"path\"".into());
        }
        if get_u64(&value, "ns").is_none() {
            return Err("span event: missing integer \"ns\"".into());
        }
    }
    Ok(value)
}

/// Validates a whole JSONL event stream (already split into parsed
/// lines by [`validate_jsonl_file`]): every `parent_id` must refer to a
/// `span_id` that appears somewhere in the stream. Children drop (and
/// therefore emit) before their parents, so a truncated trace — parent
/// never emitted — is detected here as an orphaned parent id.
pub fn validate_span_stream(events: &[Json]) -> Result<(), String> {
    let mut ids = std::collections::BTreeSet::new();
    for e in events {
        if e.get("event").and_then(Json::as_str) == Some("span") {
            ids.extend(get_u64(e, "span_id"));
        }
    }
    for (idx, e) in events.iter().enumerate() {
        if e.get("event").and_then(Json::as_str) != Some("span") {
            continue;
        }
        if let Some(parent) = get_u64(e, "parent_id") {
            if !ids.contains(&parent) {
                return Err(format!(
                    "line {}: orphaned parent_id {parent} (no such span_id in stream)",
                    idx + 1
                ));
            }
        }
    }
    Ok(())
}

/// Checks an `entropy_sequences` event's row strategy counts: the rows
/// whose feature dots took the scatter (`scatter_rows`) and the merges
/// (`merge_rows`) must be integers summing to `nodes`. Other events pass.
///
/// Only [`validate_jsonl_file`] applies it: streams recorded before the
/// counts existed (the committed perf-gate baselines) still load through
/// [`validate_event_line`].
pub fn validate_entropy_sequences(value: &Json) -> Result<(), String> {
    if value.get("event").and_then(Json::as_str) != Some("entropy_sequences") {
        return Ok(());
    }
    let field = |key: &str| {
        get_u64(value, key)
            .ok_or_else(|| format!("entropy_sequences event: missing integer {key:?}"))
    };
    let (nodes, scatter, merge) = (field("nodes")?, field("scatter_rows")?, field("merge_rows")?);
    if scatter + merge != nodes {
        return Err(format!(
            "entropy_sequences event: scatter_rows {scatter} + merge_rows {merge} != nodes {nodes}"
        ));
    }
    Ok(())
}

/// Validates a whole JSONL file — every line an accepted event, row
/// strategy counts that add up ([`validate_entropy_sequences`]), no
/// blank lines, no orphaned span parent ids — and returns the number
/// of events, or the first offending line's error.
pub fn validate_jsonl_file(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let event = validate_event_line(line)
            .and_then(|e| validate_entropy_sequences(&e).map(|()| e))
            .map_err(|e| format!("line {}: {e}", idx + 1))?;
        events.push(event);
    }
    if events.is_empty() {
        return Err(format!("{}: no events", path.display()));
    }
    validate_span_stream(&events)?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(" \"a\\nb\" ").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1].get("b"), Some(&Json::Bool(false)));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "1 2", "{'a':1}", ""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate accepted");
    }

    #[test]
    fn event_lines_round_trip_through_the_parser() {
        let line = Event::new("iter")
            .u64("step", 7)
            .f64("reward", -0.125)
            .str("phase", "a\"b")
            .to_json_line();
        let v = validate_event_line(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("iter"));
        assert_eq!(v.get("step").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("reward").and_then(Json::as_f64), Some(-0.125));
        assert_eq!(v.get("phase").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn validate_rejects_wrong_version_and_missing_kind() {
        assert!(validate_event_line("{\"v\":999,\"event\":\"x\"}").is_err());
        assert!(validate_event_line("{\"event\":\"x\"}").is_err());
        assert!(validate_event_line("{\"v\":1}").is_err());
        assert!(validate_event_line("not json").is_err());
    }

    #[test]
    fn validate_accepts_all_schema_versions() {
        assert!(validate_event_line("{\"v\":1,\"event\":\"iter\",\"step\":3}").is_ok());
        assert!(validate_event_line("{\"v\":2,\"event\":\"iter\",\"step\":3}").is_ok());
        assert!(validate_event_line("{\"v\":3,\"event\":\"iter\",\"step\":3}").is_ok());
    }

    #[test]
    fn validate_checks_run_id_tags() {
        assert!(validate_event_line("{\"v\":3,\"event\":\"iter\",\"run_id\":7}").is_ok());
        let span = "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\
                    \"path\":\"a\",\"ns\":1,\"run_id\":2}";
        assert!(validate_event_line(span).is_ok());
        for (bad, why) in [
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":0}", "zero run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":1.5}", "fractional run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":\"x\"}", "string run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":-1}", "negative run_id"),
        ] {
            assert!(validate_event_line(bad).is_err(), "accepted event with {why}");
        }
    }

    #[test]
    fn validate_checks_span_event_fields() {
        let ok = "{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":3,\
                  \"parent_id\":1,\"path\":\"r/a\",\"ns\":42,\"self_ns\":42,\"start_ns\":7}";
        assert!(validate_event_line(ok).is_ok());
        let root = "{\"v\":2,\"event\":\"span\",\"name\":\"r\",\"span_id\":1,\
                    \"path\":\"r\",\"ns\":100}";
        assert!(validate_event_line(root).is_ok(), "parent_id is optional for roots");
        for (bad, why) in [
            ("{\"v\":2,\"event\":\"span\",\"span_id\":1,\"path\":\"a\",\"ns\":1}", "no name"),
            ("{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"path\":\"a\",\"ns\":1}", "no span_id"),
            (
                "{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":0,\"path\":\"a\",\"ns\":1}",
                "zero span_id",
            ),
            ("{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"ns\":1}", "no path"),
            ("{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"path\":\"a\"}", "no ns"),
            (
                "{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\
                 \"parent_id\":1.5,\"path\":\"a\",\"ns\":1}",
                "fractional parent_id",
            ),
        ] {
            assert!(validate_event_line(bad).is_err(), "accepted span with {why}");
        }
    }

    #[test]
    fn validate_checks_ppo_update_entropy_frac() {
        let event = |frac: &str| format!("{{\"v\":3,\"event\":\"ppo_update\"{frac}}}");
        assert!(validate_event_line(&event(",\"entropy_frac\":0.5")).is_ok());
        assert!(validate_event_line(&event(",\"entropy_frac\":1")).is_ok());
        assert!(
            validate_event_line(&event(",\"entropy_frac\":1.00001")).is_ok(),
            "f32 rounding past a uniform policy's maximum is tolerated"
        );
        for (bad, why) in [
            ("", "no entropy_frac"),
            (",\"entropy_frac\":0", "zero"),
            (",\"entropy_frac\":-0.2", "negative"),
            (",\"entropy_frac\":1.5", "above 1"),
            (",\"entropy_frac\":\"high\"", "non-numeric"),
        ] {
            assert!(validate_event_line(&event(bad)).is_err(), "accepted ppo_update with {why}");
        }
    }

    #[test]
    fn entropy_sequences_row_counts_must_sum_to_nodes() {
        let event = |fields: &str| {
            validate_event_line(&format!("{{\"v\":3,\"event\":\"entropy_sequences\"{fields}}}"))
                .unwrap()
        };
        let ok = event(",\"nodes\":5,\"build_ns\":9,\"scatter_rows\":3,\"merge_rows\":2");
        assert!(validate_entropy_sequences(&ok).is_ok());
        for (bad, why) in [
            (",\"nodes\":5,\"scatter_rows\":3,\"merge_rows\":1", "short sum"),
            (",\"nodes\":5,\"scatter_rows\":5", "no merge_rows"),
            (",\"nodes\":5,\"merge_rows\":5", "no scatter_rows"),
            (",\"scatter_rows\":0,\"merge_rows\":0", "no nodes"),
            (",\"nodes\":2,\"scatter_rows\":1.5,\"merge_rows\":0.5", "fractional counts"),
        ] {
            assert!(validate_entropy_sequences(&event(bad)).is_err(), "accepted {why}");
        }
        let other = validate_event_line("{\"v\":3,\"event\":\"run_end\"}").unwrap();
        assert!(validate_entropy_sequences(&other).is_ok());
    }

    #[test]
    fn span_stream_validation_rejects_orphans() {
        let parse_all = |lines: &[&str]| -> Vec<Json> {
            lines.iter().map(|l| validate_event_line(l).unwrap()).collect()
        };
        let complete = parse_all(&[
            "{\"v\":2,\"event\":\"span\",\"name\":\"b\",\"span_id\":2,\
             \"parent_id\":1,\"path\":\"a/b\",\"ns\":5}",
            "{\"v\":2,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"path\":\"a\",\"ns\":9}",
            "{\"v\":2,\"event\":\"run_end\",\"steps\":1}",
        ]);
        assert!(validate_span_stream(&complete).is_ok());
        // Truncated trace: the parent span never emitted (still open at
        // the crash), so its id appears only as a parent_id.
        let truncated = parse_all(&["{\"v\":2,\"event\":\"span\",\"name\":\"b\",\"span_id\":2,\
             \"parent_id\":1,\"path\":\"a/b\",\"ns\":5}"]);
        let err = validate_span_stream(&truncated).unwrap_err();
        assert!(err.contains("orphaned parent_id 1"), "{err}");
    }
}
