//! Machine-readable export of experiment results, and the generic JSON
//! tree behind it.
//!
//! Hand-rolled JSON (the build environment has no crates.io access, so
//! serde is unavailable): a [`JsonValue`] tree with a pretty renderer
//! and a small recursive-descent parser. [`to_json`] / [`from_json`]
//! cover the [`ExperimentResult`] shape on top of it; other crates
//! (e.g. the store's metrics export) build [`JsonValue`] trees
//! directly. Field names and nesting match what the previous
//! serde-based export produced, so downstream CI artifact consumers are
//! unaffected.

use crate::experiment::ExperimentResult;
use crate::table::Table;
use std::fmt::Write as _;

/// A JSON parse error with a byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialize results to pretty JSON (for CI artifacts and downstream
/// analysis).
pub fn to_json(results: &[ExperimentResult]) -> String {
    JsonValue::Array(results.iter().map(result_to_value).collect()).render()
}

/// Parse results back (round-trip utility).
pub fn from_json(s: &str) -> Result<Vec<ExperimentResult>, JsonError> {
    let value = JsonValue::parse(s)?;
    results_from_value(&value).map_err(|message| JsonError { offset: 0, message })
}

// ---------------------------------------------------------------------
// The generic JSON tree.
// ---------------------------------------------------------------------

/// A JSON document: build one to render structured output, or get one
/// back from [`JsonValue::parse`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (rendered without a fraction when integral; non-finite
    /// values render as `null` since JSON has no representation for
    /// them).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs (insertion order is
    /// preserved when rendering).
    Object(Vec<(String, JsonValue)>),
}

macro_rules! json_number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Number(n as f64)
            }
        }
    )*};
}
json_number_from!(f64, u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    /// Collect into a [`JsonValue::Array`].
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// An object from `(key, value)` pairs, in order — with the `From`
    /// impls above, `("ops", ops.into())` is a whole field.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        let owned = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        JsonValue::Object(owned.collect())
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            src: s,
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Render as pretty JSON (two-space indent, empty containers
    /// inline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => write_number(out, *x),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    indent(out, level + 1);
                    v.render_into(out, level + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, level);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, level + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, level + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, level);
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a [`JsonValue::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is a [`JsonValue::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// A `u64` seed as JSON: a `"0x…"` string, because a JSON number is
    /// an `f64` and rounds every seed above 2^53 to a different run.
    pub fn seed(seed: u64) -> JsonValue {
        JsonValue::String(format!("{seed:#x}"))
    }

    /// Read a seed back: the string form [`JsonValue::seed`] writes (or
    /// anything else [`parse_seed`] accepts), or the legacy number form
    /// when it is a non-negative integer below 2^53 — the only numbers
    /// that survived the trip through `f64` unchanged.
    pub fn as_seed(&self) -> Option<u64> {
        match self {
            JsonValue::String(s) => parse_seed(s),
            JsonValue::Number(n) if *n >= 0.0 && *n < (1u64 << 53) as f64 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parse a seed as every CLI flag and JSON file spells it: decimal, or
/// hex with a `0x` prefix, over the full `u64` range.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Largest integer range exactly representable in an f64 (±2⁵³).
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; degrade to null rather than emit an
        // unparsable document.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < EXACT_INT {
        let _ = write!(out, "{}", x as i64);
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{x}");
    }
}

// ---------------------------------------------------------------------
// ExperimentResult -> JsonValue.
// ---------------------------------------------------------------------

fn string_array(items: &[String]) -> JsonValue {
    JsonValue::Array(items.iter().map(|s| JsonValue::String(s.clone())).collect())
}

fn table_to_value(t: &Table) -> JsonValue {
    JsonValue::Object(vec![
        ("title".into(), JsonValue::String(t.title.clone())),
        ("headers".into(), string_array(&t.headers)),
        (
            "rows".into(),
            JsonValue::Array(t.rows.iter().map(|r| string_array(r)).collect()),
        ),
    ])
}

fn result_to_value(r: &ExperimentResult) -> JsonValue {
    JsonValue::Object(vec![
        ("id".into(), JsonValue::String(r.id.clone())),
        ("title".into(), JsonValue::String(r.title.clone())),
        ("paper_ref".into(), JsonValue::String(r.paper_ref.clone())),
        (
            "tables".into(),
            JsonValue::Array(r.tables.iter().map(table_to_value).collect()),
        ),
        ("notes".into(), string_array(&r.notes)),
        ("pass".into(), JsonValue::Bool(r.pass)),
    ])
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

use JsonValue as Value;

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth lets a file of `[`s overflow the stack;
/// the deepest document the repo writes (`BENCH_substrates.json`)
/// nests 7 levels.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// One array or object, refused past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.src
            .get(start..self.pos)
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: no sign, no space.
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| {
                                    h.iter().try_fold(0, |n, &b| {
                                        Some(n * 16 + (b as char).to_digit(16)?)
                                    })
                                })
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // serializer; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash: both
                    // are ASCII, so the run ends on a char boundary (as
                    // `pos` always sits on one).
                    let rest = self
                        .src
                        .get(self.pos..)
                        .ok_or_else(|| self.err("inside a character"))?;
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Value -> domain types.
// ---------------------------------------------------------------------

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn as_string(v: &Value) -> Result<String, String> {
    match v {
        Value::String(s) => Ok(s.clone()),
        other => Err(format!("expected string, got {other:?}")),
    }
}

fn as_string_vec(v: &Value) -> Result<Vec<String>, String> {
    match v {
        Value::Array(items) => items.iter().map(as_string).collect(),
        other => Err(format!("expected array of strings, got {other:?}")),
    }
}

fn table_from_value(v: &Value) -> Result<Table, String> {
    let Value::Object(obj) = v else {
        return Err(format!("expected table object, got {v:?}"));
    };
    let mut table = Table::new(as_string(get(obj, "title")?)?, &[]);
    table.headers = as_string_vec(get(obj, "headers")?)?;
    match get(obj, "rows")? {
        Value::Array(rows) => {
            for row in rows {
                table.rows.push(as_string_vec(row)?);
            }
        }
        other => return Err(format!("expected rows array, got {other:?}")),
    }
    Ok(table)
}

fn results_from_value(v: &Value) -> Result<Vec<ExperimentResult>, String> {
    let Value::Array(items) = v else {
        return Err(format!("expected top-level array, got {v:?}"));
    };
    items
        .iter()
        .map(|item| {
            let Value::Object(obj) = item else {
                return Err(format!("expected result object, got {item:?}"));
            };
            Ok(ExperimentResult {
                id: as_string(get(obj, "id")?)?,
                title: as_string(get(obj, "title")?)?,
                paper_ref: as_string(get(obj, "paper_ref")?)?,
                tables: match get(obj, "tables")? {
                    Value::Array(ts) => ts
                        .iter()
                        .map(table_from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                    other => return Err(format!("expected tables array, got {other:?}")),
                },
                notes: as_string_vec(get(obj, "notes")?)?,
                pass: match get(obj, "pass")? {
                    Value::Bool(b) => *b,
                    other => return Err(format!("expected bool pass, got {other:?}")),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn sample() -> Vec<ExperimentResult> {
        let mut t = Table::new("t \"quoted\"", &["a", "b"]);
        t.push_row(&["1", "⊥ unicode"]);
        t.push_row(&["line\nbreak", "tab\there"]);
        vec![
            ExperimentResult {
                id: "e0".into(),
                title: "demo".into(),
                paper_ref: "none".into(),
                tables: vec![t],
                notes: vec!["n".into()],
                pass: true,
            },
            ExperimentResult {
                id: "e1".into(),
                title: "empty".into(),
                paper_ref: "none".into(),
                tables: vec![],
                notes: vec![],
                pass: false,
            },
        ]
    }

    #[test]
    fn seeds_survive_json_and_bad_legacy_numbers_are_refused() {
        for seed in [0, 0xDD57_0001, (1 << 53) + 1, u64::MAX] {
            let text = JsonValue::seed(seed).render();
            assert_eq!(JsonValue::parse(&text).unwrap().as_seed(), Some(seed));
        }
        // The legacy number form: exact below 2^53, refused otherwise.
        assert_eq!(JsonValue::Number(3713466369.0).as_seed(), Some(3713466369));
        for bad in [-1.0, 0.5, (1u64 << 53) as f64, 2e19, f64::NAN] {
            assert_eq!(JsonValue::Number(bad).as_seed(), None, "{bad}");
        }
        assert_eq!(parse_seed("0XfF"), Some(255));
        assert_eq!(parse_seed("18446744073709551616"), None);
        assert_eq!(parse_seed("-1"), None);
        assert_eq!(JsonValue::String("0xzz".into()).as_seed(), None);
    }

    #[test]
    fn round_trip() {
        let results = sample();
        let json = to_json(&results);
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].id, "e0");
        assert!(back[0].pass);
        assert!(!back[1].pass);
        assert_eq!(back[0].tables[0].rows[0][0], "1");
        assert_eq!(back[0].tables[0].rows[0][1], "⊥ unicode");
        assert_eq!(back[0].tables[0].rows[1][0], "line\nbreak");
        assert_eq!(back[0].tables[0].title, "t \"quoted\"");
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_json("[{").is_err());
        assert!(from_json("[]extra").is_err());
        assert!(from_json("{\"id\": 3}").is_err());
        assert!(from_json("[{\"id\": \"x\"}]").is_err()); // missing fields
    }

    #[test]
    fn empty_set_round_trips() {
        assert_eq!(from_json(&to_json(&[])).unwrap().len(), 0);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::Number(x).render(), "null");
        }
        // And the document stays parseable.
        let doc = JsonValue::Array(vec![JsonValue::Number(f64::NAN)]).render();
        assert_eq!(
            JsonValue::parse(&doc).unwrap(),
            JsonValue::Array(vec![JsonValue::Null])
        );
    }

    #[test]
    fn deep_nesting_round_trips() {
        let mut v = JsonValue::String("core".into());
        for i in 0..200u32 {
            v = if i % 2 == 0 {
                JsonValue::Array(vec![v])
            } else {
                JsonValue::Object(vec![("k".into(), v)])
            };
        }
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn a_megabyte_string_parses() {
        // Plain runs, multi-byte characters and escapes, ≈ 1 MB in all.
        let v = JsonValue::String("ab⊥🦀\"\\\n".repeat(90_000));
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let ok = JsonValue::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(ok, JsonValue::from("Aé"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u41""#] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&deep(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // Unclosed, far past the limit: an error, not a stack overflow.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&"{\"k\":".repeat(100_000)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::JsonValue;
    use proptest::prelude::*;

    /// SplitMix64 step for the deterministic tree builder below.
    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A string biased towards everything that needs escaping: quotes,
    /// backslashes, control characters, multi-byte unicode.
    fn nasty_string(seed: &mut u64, len: usize) -> String {
        const POOL: &[char] = &[
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '/', 'a',
            'Z', '0', ' ', '⊥', 'é', '中', '🦀', '\u{7f}', '\u{80}', '\u{fffd}',
        ];
        (0..len)
            .map(|_| POOL[(mix(seed) % POOL.len() as u64) as usize])
            .collect()
    }

    /// A finite f64 spanning integers, fractions and extreme exponents
    /// (all of which must render/parse losslessly).
    fn finite_number(seed: &mut u64) -> f64 {
        loop {
            let x = match mix(seed) % 4 {
                0 => (mix(seed) as i64 as f64) / 1e3,
                1 => mix(seed) as i32 as f64,
                2 => f64::from_bits(mix(seed)),
                _ => (mix(seed) % 1_000_000) as f64 * 10f64.powi((mix(seed) % 600) as i32 - 300),
            };
            if x.is_finite() {
                return x;
            }
        }
    }

    /// Deterministically grow an arbitrary JSON tree from a seed.
    fn tree(seed: &mut u64, depth: usize) -> JsonValue {
        let pick = if depth == 0 {
            mix(seed) % 4
        } else {
            mix(seed) % 6
        };
        match pick {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(mix(seed) & 1 == 1),
            2 => JsonValue::Number(finite_number(seed)),
            3 => {
                let len = (mix(seed) % 12) as usize;
                JsonValue::String(nasty_string(seed, len))
            }
            4 => {
                let n = (mix(seed) % 4) as usize;
                JsonValue::Array((0..n).map(|_| tree(seed, depth - 1)).collect())
            }
            _ => {
                let n = (mix(seed) % 4) as usize;
                JsonValue::Object(
                    (0..n)
                        .map(|_| {
                            let len = (mix(seed) % 8) as usize;
                            (nasty_string(seed, len), tree(seed, depth - 1))
                        })
                        .collect(),
                )
            }
        }
    }

    /// One character from the grammar's alphabet (structure, literal
    /// letters, number characters, escapes, whitespace, multi-byte text)
    /// or, one time in four, any scalar value.
    fn syntax_char(seed: &mut u64) -> char {
        const SYNTAX: &[char] = &[
            '{', '}', '[', ']', ':', ',', '"', '\\', 'u', 't', 'r', 'e', 'f', 'a', 'l', 's', 'n',
            '0', '9', 'F', '-', '+', '.', 'E', ' ', '\n', '⊥', '🦀', '\u{0}',
        ];
        match mix(seed) % 4 {
            0 => char::from_u32((mix(seed) % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => SYNTAX[(mix(seed) % SYNTAX.len() as u64) as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_parses_or_errs(seed in any::<u64>(), len in 0usize..64) {
            let mut s = seed;
            let text: String = (0..len).map(|_| syntax_char(&mut s)).collect();
            let _ = JsonValue::parse(&text);
        }

        #[test]
        fn damaged_documents_parse_or_err(seed in any::<u64>(), depth in 0usize..5) {
            let mut s = seed;
            let doc = tree(&mut s, depth).render();
            let bounds: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
            let pick = |s: &mut u64| bounds.get((mix(s) % (bounds.len() as u64 + 1)) as usize);
            for _ in 0..32 {
                // Truncated at a char boundary...
                let cut = pick(&mut s).copied().unwrap_or(doc.len());
                let _ = JsonValue::parse(&doc[..cut]);
                // ...and with one char inserted, deleted or replaced.
                let mut edited = doc.clone();
                match (pick(&mut s).copied(), mix(&mut s) % 3) {
                    (Some(at), 0) => edited.insert(at, syntax_char(&mut s)),
                    (Some(at), 1) => drop(edited.remove(at)),
                    (Some(at), _) => {
                        edited.remove(at);
                        edited.insert(at, syntax_char(&mut s));
                    }
                    (None, _) => edited.push(syntax_char(&mut s)),
                }
                let _ = JsonValue::parse(&edited);
            }
        }

        #[test]
        fn arbitrary_trees_round_trip(seed in any::<u64>(), depth in 0usize..5) {
            let mut s = seed;
            let v = tree(&mut s, depth);
            let rendered = v.render();
            let back = JsonValue::parse(&rendered)
                .unwrap_or_else(|e| panic!("{e} in:\n{rendered}"));
            prop_assert_eq!(back, v);
        }

        #[test]
        fn nasty_strings_round_trip(seed in any::<u64>(), len in 0usize..64) {
            let mut s = seed;
            let v = JsonValue::String(nasty_string(&mut s, len));
            prop_assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        }

        #[test]
        fn numbers_round_trip_exactly(seed in any::<u64>()) {
            let mut s = seed;
            let x = finite_number(&mut s);
            let v = JsonValue::Number(x);
            let back = JsonValue::parse(&v.render()).unwrap();
            // == (not bit-equality): -0.0 may legitimately come back as 0.
            prop_assert_eq!(back.as_f64().unwrap(), x);
        }
    }
}
