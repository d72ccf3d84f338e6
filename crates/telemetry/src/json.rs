//! The one JSON reader of the stack: `tiscc serve` request lines and
//! `tiscc.trace.v1` documents both go through [`parse`].
//!
//! Serve feeds it untrusted lines, so it is bounded: nesting deeper than
//! [`MAX_DEPTH`] is an error (the recursion cannot exhaust the stack), a
//! string decodes in time linear in its length, and a repeated object key
//! is an error rather than a silent override, found in time linear in the
//! object's key count.

use std::collections::HashSet;

use crate::{SpanRecord, TraceReport};

/// The deepest array/object nesting [`parse`] accepts. A trace document
/// nests three levels (document, `spans`, span), a serve request one.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's fields in source order; keys are distinct.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key`, when `self` is an object that has it.
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document. An error says what was expected (`expected
/// a JSON value`, `duplicate key "a"`) without a position, so a serve
/// reply can quote it as it is.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err("trailing characters after the JSON object".to_string());
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// A value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            _ => Err("expected a JSON value".to_string()),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse().map(Value::Num).map_err(|_| format!("malformed number {text:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.next() != Some(b'"') {
            return Err("expected a string".to_string());
        }
        let mut out = String::new();
        loop {
            // Copy the run before the next quote or backslash as one slice;
            // both are ASCII, so the run ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escaped = match self.next() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    if self.pos + 4 > self.text.len() {
                        return Err("truncated \\u escape".to_string());
                    }
                    // Four ASCII hex digits, so `pos + 4` is a boundary.
                    let code = self.text[self.pos..]
                        .get(..4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or("malformed \\u escape")?;
                    self.pos += 4;
                    char::from_u32(code).ok_or("invalid \\u code point")?
                }
                other => return Err(format!("unsupported escape {other:?}")),
            };
            out.push(escaped);
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err("expected ',' or ']' in array".to_string()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut fields: Vec<(String, Value)> = Vec::new();
        // Keys seen so far: one hash probe per key keeps the repeated-key
        // check linear in the object's size.
        let mut keys: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            if self.next() != Some(b':') {
                return Err("expected ':'".to_string());
            }
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => return Err("expected ',' or '}' in object".to_string()),
            }
        }
    }
}

/// Parses a `tiscc.trace.v1` JSON document (as emitted by
/// [`TraceFormat::Json`](crate::TraceFormat::Json)) back into a [`TraceReport`].
pub fn trace_from_json(text: &str) -> Result<TraceReport, String> {
    let root = parse(text).map_err(|e| format!("trace json: {e}"))?;

    let schema =
        root.get("schema").and_then(Value::as_str).ok_or("trace json: missing \"schema\" field")?;
    if schema != "tiscc.trace.v1" {
        return Err(format!("trace json: unsupported schema {schema:?}"));
    }
    let total_us = root
        .get("total_us")
        .and_then(Value::as_f64)
        .ok_or("trace json: missing \"total_us\" field")?;

    let mut spans = Vec::new();
    for (i, item) in root
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("trace json: missing \"spans\" array")?
        .iter()
        .enumerate()
    {
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("trace json: span {i} missing \"name\""))?
            .to_string();
        let parent = match item.get("parent") {
            Some(Value::Null) | None => None,
            Some(v) => {
                let p = v.as_f64().ok_or(format!("trace json: span {i} bad \"parent\""))? as usize;
                if p >= i {
                    return Err(format!("trace json: span {i} parent {p} out of order"));
                }
                Some(p)
            }
        };
        let start_us = item
            .get("start_us")
            .and_then(Value::as_f64)
            .ok_or(format!("trace json: span {i} missing \"start_us\""))?;
        let duration_us = match item.get("duration_us") {
            Some(Value::Null) | None => None,
            Some(v) => Some(v.as_f64().ok_or(format!("trace json: span {i} bad \"duration_us\""))?),
        };
        spans.push(SpanRecord { name, parent, start_us, duration_us });
    }

    let mut counters = Vec::new();
    if let Some(items) = root.get("counters").and_then(Value::as_arr) {
        for item in items {
            let name = item
                .get("name")
                .and_then(Value::as_str)
                .ok_or("trace json: counter missing \"name\"")?;
            let value = item
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("trace json: counter missing \"value\"")?;
            counters.push((name.to_string(), value as u64));
        }
    }

    let mut gauges = Vec::new();
    if let Some(items) = root.get("gauges").and_then(Value::as_arr) {
        for item in items {
            let name = item
                .get("name")
                .and_then(Value::as_str)
                .ok_or("trace json: gauge missing \"name\"")?;
            let value = item
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("trace json: gauge missing \"value\"")?;
            gauges.push((name.to_string(), value));
        }
    }

    Ok(TraceReport { total_us, spans, counters, gauges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TraceFormat};

    #[test]
    fn round_trips_an_emitted_trace() {
        let tel = Telemetry::new_enabled();
        let root = tel.root("estimate");
        root.child("parse").finish();
        root.child("compile").finish();
        root.finish();
        tel.add("compile.cache_hits", 3);
        tel.gauge("threads", 8.0);
        let report = tel.snapshot().unwrap();
        let json = TraceFormat::Json.render(&report);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn round_trips_open_spans_and_escapes() {
        let tel = Telemetry::new_enabled();
        let _open = tel.root("serve \"v1\"\n");
        let report = tel.snapshot().unwrap();
        let json = TraceFormat::Json.render(&report);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(back.spans[0].name, "serve \"v1\"\n");
        assert_eq!(back.spans[0].duration_us, None);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(trace_from_json("").is_err());
        assert!(trace_from_json("not json").is_err());
        assert!(trace_from_json("{\"schema\":\"other\"}").is_err());
        assert!(trace_from_json("{\"schema\":\"tiscc.trace.v1\"}").is_err());
        assert!(trace_from_json(
            "{\"schema\":\"tiscc.trace.v1\",\"total_us\":1.0,\"spans\":[]} trailing"
        )
        .is_err());
        // A span whose parent index is not strictly earlier is rejected.
        assert!(trace_from_json(
            "{\"schema\":\"tiscc.trace.v1\",\"total_us\":1.0,\
             \"spans\":[{\"name\":\"a\",\"parent\":0,\"start_us\":0.0,\"duration_us\":1.0}]}"
        )
        .is_err());
    }

    #[test]
    fn parses_unicode_escapes() {
        let json = "{\"schema\":\"tiscc.trace.v1\",\"total_us\":1.0,\
                    \"spans\":[{\"name\":\"\\u0041\",\"parent\":null,\
                    \"start_us\":0.0,\"duration_us\":null}],\"counters\":[],\"gauges\":[]}";
        let report = trace_from_json(json).unwrap();
        assert_eq!(report.spans[0].name, "A");
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let deep = "[".repeat(65_000);
        assert_eq!(parse(&deep), Err(format!("nesting deeper than {MAX_DEPTH} levels")));
        assert!(trace_from_json(&deep).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }

    #[test]
    fn repeated_keys_are_rejected_at_every_level() {
        assert_eq!(parse("{\"a\":1,\"a\":2}"), Err("duplicate key \"a\"".to_string()));
        assert!(parse("[{\"b\":[],\"b\":null}]").is_err());
        assert!(parse("{\"a\":{\"a\":1}}").is_ok(), "one key per object");
        // The first repeat in document order is the one reported.
        assert_eq!(
            parse("{\"a\":1,\"b\":2,\"b\":3,\"a\":4}"),
            Err("duplicate key \"b\"".to_string())
        );
    }

    /// 20 000 distinct keys: a comparison with every earlier key makes
    /// 2·10⁸ of them, seconds in a debug build; one hash probe per key
    /// parses the object in about a tenth of a second.
    #[test]
    fn many_keys_parse_in_linear_time() {
        let keys: Vec<String> = (0..20_000).map(|i| format!("\"k{i:05}\":0")).collect();
        let text = format!("{{{}}}", keys.join(","));
        let started = std::time::Instant::now();
        let parsed = parse(&text);
        let elapsed = started.elapsed();
        assert!(matches!(parsed, Ok(Value::Obj(fields)) if fields.len() == 20_000));
        assert!(elapsed.as_millis() < 1_000, "took {elapsed:?}");
        let repeated = format!("{{{},\"k19999\":1}}", keys.join(","));
        assert_eq!(parse(&repeated), Err("duplicate key \"k19999\"".to_string()));
    }
}
