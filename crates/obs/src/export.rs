//! Exporters: JSON-lines serialization of registry snapshots,
//! plus a minimal JSON parser for round-trip verification and tooling
//! and the exact integer reader the bundle parsers share.

use crate::flight::BundleError;
use crate::metrics::{Record, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (finite required; callers only
/// export finite statistics).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` on f64 always includes a `.` or exponent, both valid JSON.
        s
    } else {
        "null".to_string()
    }
}

fn record_labels(rec: &Record, out: &mut String) {
    let _ = write!(
        out,
        "\"name\":\"{}\",\"experiment\":\"{}\",\"protocol\":\"{}\",\"stage\":\"{}\"",
        json_escape(rec.key.name),
        json_escape(&rec.key.experiment),
        json_escape(rec.key.protocol),
        json_escape(rec.key.stage),
    );
}

/// Serializes one record as a single JSON line (no trailing newline).
pub fn record_to_json(rec: &Record) -> String {
    let mut out = String::from("{");
    match &rec.value {
        Value::Counter(c) => {
            out.push_str("\"type\":\"counter\",");
            record_labels(rec, &mut out);
            let _ = write!(out, ",\"value\":{c}");
        }
        Value::Gauge(g) => {
            out.push_str("\"type\":\"gauge\",");
            record_labels(rec, &mut out);
            let _ = write!(out, ",\"value\":{}", json_num(*g));
        }
        Value::Histogram(h) => {
            out.push_str("\"type\":\"histogram\",");
            record_labels(rec, &mut out);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                h.count,
                json_num(h.sum()),
                json_num(h.min),
                json_num(h.max),
                json_num(h.mean()),
                json_num(h.quantile(0.50)),
                json_num(h.quantile(0.90)),
                json_num(h.quantile(0.99))
            );
            out.push_str(",\"edges\":[");
            for (i, e) in h.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_num(*e));
            }
            out.push_str("],\"counts\":[");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

/// Serializes a snapshot as JSON-lines: one `meta` line carrying the
/// export schema version and record count, then one line per record.
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"schema_version\":{},\"records\":{}}}",
        crate::SCHEMA_VERSION,
        records.len()
    );
    for rec in records {
        out.push_str(&record_to_json(rec));
        out.push('\n');
    }
    out
}

/// A parsed JSON value (the subset the exporters emit).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (`-?[0-9]+`) that fits an `i128`, kept
    /// exact: `f64` would round seeds above 2^53.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at an object key, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Reads integer field `name` of `json` exactly: negative, fractional,
/// float-literal and above-`max` values are errors, never saturated.
/// Flight bundles and fleet incident bundles read their integers here.
pub fn int_field(json: &Json, name: &'static str, max: u64) -> Result<u64, BundleError> {
    match json.get(name) {
        Some(Json::Int(i)) if *i < 0 => Err(BundleError::Negative(name)),
        Some(Json::Int(i)) => {
            u64::try_from(*i).ok().filter(|&v| v <= max).ok_or(BundleError::OutOfRange(name))
        }
        Some(Json::Num(x)) if *x < 0.0 => Err(BundleError::Negative(name)),
        Some(Json::Num(_)) => Err(BundleError::NotInteger(name)),
        _ => Err(BundleError::Missing(name)),
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a hostile input
/// (100k `[`) overflow the stack; every document this workspace writes
/// nests fewer than ten levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses one JSON document. Errors carry a byte offset; nesting deeper
/// than [`MAX_JSON_DEPTH`] is an error, not a stack overflow.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, MAX_JSON_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

/// Parses one value; `depth` is how many more array/object levels may
/// open below this point.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(b, pos, depth - 1),
        Some(b'[') => parse_arr(b, pos, depth - 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
    // `i128` parsing accepts only an optionally signed digit string.
    match text.parse::<i128>() {
        Ok(i) if !text.starts_with('+') => Ok(Json::Int(i)),
        _ => text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let k = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos, depth)?;
        out.insert(k, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{buckets, Key, Registry};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        let key = |name: &'static str| Key {
            name,
            experiment: "fig13".into(),
            protocol: "802.11b",
            stage: "decode",
        };
        r.counter_add(key("rx.decoded"), 42);
        r.gauge_set(key("rx.ber"), 0.0125);
        for v in [0.3, 0.55, 0.92, 0.97] {
            r.hist_observe(key("id.score"), v, buckets::SCORE);
        }
        r
    }

    #[test]
    fn jsonl_round_trips_every_field() {
        let r = sample_registry();
        let snap = r.snapshot();
        let jsonl = to_jsonl(&snap);
        let mut lines = jsonl.lines();
        let meta = parse_json(lines.next().unwrap()).expect("meta line");
        assert_eq!(meta.get("type").unwrap().as_str().unwrap(), "meta");
        assert_eq!(
            meta.get("schema_version").unwrap().as_f64().unwrap() as u32,
            crate::SCHEMA_VERSION
        );
        assert_eq!(meta.get("records").unwrap().as_f64().unwrap() as usize, snap.len());
        let lines: Vec<&str> = lines.collect();
        assert_eq!(lines.len(), 3);
        for (line, rec) in lines.iter().zip(&snap) {
            let v = parse_json(line).expect("valid JSON");
            assert_eq!(v.get("name").unwrap().as_str().unwrap(), rec.key.name);
            assert_eq!(v.get("experiment").unwrap().as_str().unwrap(), "fig13");
            assert_eq!(v.get("protocol").unwrap().as_str().unwrap(), "802.11b");
            assert_eq!(v.get("stage").unwrap().as_str().unwrap(), "decode");
            match &rec.value {
                crate::metrics::Value::Counter(c) => {
                    assert_eq!(v.get("value").unwrap().as_f64().unwrap() as u64, *c);
                }
                crate::metrics::Value::Gauge(g) => {
                    assert_eq!(v.get("value").unwrap().as_f64().unwrap(), *g);
                }
                crate::metrics::Value::Histogram(h) => {
                    assert_eq!(v.get("count").unwrap().as_f64().unwrap() as u64, h.count);
                    assert_eq!(v.get("sum").unwrap().as_f64().unwrap(), h.sum());
                    assert_eq!(v.get("p50").unwrap().as_f64().unwrap(), h.quantile(0.5));
                    assert_eq!(v.get("p90").unwrap().as_f64().unwrap(), h.quantile(0.9));
                    assert_eq!(v.get("p99").unwrap().as_f64().unwrap(), h.quantile(0.99));
                    let counts = v.get("counts").unwrap().as_arr().unwrap();
                    assert_eq!(counts.len(), h.counts.len());
                    let total: f64 = counts.iter().map(|c| c.as_f64().unwrap()).sum();
                    assert_eq!(total as u64, h.count);
                    let edges = v.get("edges").unwrap().as_arr().unwrap();
                    assert_eq!(edges.len(), h.edges.len());
                }
            }
        }
    }

    #[test]
    fn escaping_survives_hostile_labels() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let parsed = parse_json("\"a\\\"b\\\\c\\nd\"").unwrap();
        assert_eq!(parsed.as_str().unwrap(), "a\"b\\c\nd");
    }

    #[test]
    fn parser_handles_nested_structures() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"s"}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_f64().unwrap(), -300.0);
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Json::Null);
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse_json(&nested("[", "]", MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nested("{\"a\":", "}", MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested("[", "]", MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Unterminated hostile inputs: an error, never a stack overflow.
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn integer_literals_parse_exactly() {
        // 2^53 + 1 has no f64 representation.
        let v = parse_json("[9007199254740993, -1, 1.5, 1e3, +2]").unwrap();
        let want = [Json::Int((1 << 53) + 1), Json::Int(-1), Json::Num(1.5), Json::Num(1e3)];
        assert_eq!(v.as_arr().unwrap()[..4], want);
        assert_eq!(v.as_arr().unwrap()[4], Json::Num(2.0));
    }

    #[test]
    fn identical_registries_export_identically() {
        // The determinism contract exports rely on: same observations →
        // byte-identical JSONL.
        let a = to_jsonl(&sample_registry().snapshot());
        let b = to_jsonl(&sample_registry().snapshot());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
