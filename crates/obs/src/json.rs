//! Hand-rolled JSON emit and parse for the event journal and the
//! daemon's views.
//!
//! The workspace has no crates-io access, so a small writer/reader pair
//! keeps `edm-obs` dependency-free. There are two readers, and both
//! accept exactly the same documents with the same error messages
//! because they share one set of scanning primitives:
//!
//! * [`Record`] decodes one line in place. A single validating pass
//!   records each top-level key with the raw text of its value; a
//!   [`Value`] decodes that text only when asked. The record's field
//!   vector is reused from line to line, so reading a journal allocates
//!   nothing per line (keys spelled with escapes aside). Every journal
//!   reader uses it: the `edm-spec` replay and mutator, `edm-probe` and
//!   the fuzz oracles.
//! * [`parse`] builds a [`JsonValue`] tree, for tests and for callers
//!   that want nested values.
//!
//! Both accept general JSON, nested objects and arrays included; nested
//! values and escapes are validated, never skipped. Numbers follow
//! `str::parse::<f64>`, which is a little wider than RFC 8259 (it takes
//! `01`, `+1` and `.5`).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An integral, non-negative number. Goes through `f64`, so values
    /// above 2^53 are not exact; [`Value::as_u64`] is.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => f64_to_u64(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The integer accept rule for numbers read as `f64`: non-negative and
/// integral (`1.0` and `1e3` qualify, `-1` and `1.5` do not).
fn f64_to_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

// ---------------------------------------------------------------------------
// Emit
// ---------------------------------------------------------------------------

/// Appends `"key":` to a partially built object, inserting a comma when the
/// object already has fields (i.e. does not end with `{`).
fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    push_escaped(out, key);
    out.push(':');
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

/// Appends the decimal digits of `value`; the same text as `{value}`.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).unwrap_or_default());
}

pub fn field_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_escaped(out, value);
}

pub fn field_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    push_u64(out, value);
}

pub fn field_f64(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    if value.is_finite() {
        // Display for f64 is the shortest representation that round-trips,
        // which is both valid JSON and loss-free.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

pub fn field_bool(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

/// Appends `"key":` followed by a pre-rendered JSON value.
pub fn field_raw(out: &mut String, key: &str, raw_json: &str) {
    push_key(out, key);
    out.push_str(raw_json);
}

pub fn field_arr_u64(out: &mut String, key: &str, values: &[u64]) {
    push_key(out, key);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, *v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Scanning primitives shared by both readers
// ---------------------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Scans one complete document with `value` and rejects trailing data.
fn document<T>(s: &str, value: impl FnOnce(&mut usize) -> Result<T, String>) -> Result<T, String> {
    let mut pos = 0;
    let v = value(&mut pos)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Scans the string whose opening quote is at `pos`, appending its
/// decoded text to `out` when given.
fn scan_string(s: &str, pos: &mut usize, mut out: Option<&mut String>) -> Result<(), String> {
    let b = s.as_bytes();
    *pos += 1; // consume '"'
    loop {
        let run = *pos;
        *pos = b[run..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .map_or(b.len(), |n| run + n);
        if let Some(out) = out.as_deref_mut() {
            // Both delimiters are ASCII, so the run is whole UTF-8.
            out.push_str(s.get(run..*pos).unwrap_or_default());
        }
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(_) => {
                // A backslash.
                *pos += 1;
                let c = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                };
                if let Some(out) = out.as_deref_mut() {
                    out.push(c);
                }
                *pos += 1;
            }
        }
    }
}

/// Scans the characters a number may hold and whether they are all
/// digits; `str::parse::<f64>` then decides whether they are a number.
fn scan_num<'a>(s: &'a str, pos: &mut usize) -> (&'a str, bool) {
    let b = s.as_bytes();
    let start = *pos;
    let mut digits = true;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => {}
            b'-' | b'+' | b'.' | b'e' | b'E' => digits = false,
            _ => break,
        }
        *pos += 1;
    }
    let text = s.get(start..*pos).unwrap_or_default();
    (text, digits && !text.is_empty())
}

fn num_error(text: &str, start: usize) -> String {
    format!("invalid number {text:?} at byte {start}")
}

fn is_digits(text: &str) -> bool {
    !text.is_empty() && text.bytes().all(|c| c.is_ascii_digit())
}

fn scan_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Scans the array whose `[` is at `pos`, handing each element's
/// position to `item`.
fn scan_arr(
    b: &[u8],
    pos: &mut usize,
    mut item: impl FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// Scans the object whose `{` is at `pos`, handing each key (quotes
/// included) and the position after its `:` to `field`.
fn scan_obj<'a>(
    s: &'a str,
    pos: &mut usize,
    mut field: impl FnMut(&'a str, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let b = s.as_bytes();
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let start = *pos;
        scan_string(s, pos, None)?;
        let key = s.get(start..*pos).unwrap_or_default();
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        field(key, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// The text of a validated string token (quotes included), borrowed
/// unless it holds escapes.
fn unquote(quoted: &str) -> Cow<'_, str> {
    if !quoted.contains('\\') {
        let end = quoted.len().saturating_sub(1);
        return Cow::Borrowed(quoted.get(1..end).unwrap_or_default());
    }
    let mut out = String::new();
    // Already validated: the decode cannot fail.
    let _ = scan_string(quoted, &mut 0, Some(&mut out));
    Cow::Owned(out)
}

/// Validates the value at `pos` without building it.
fn skip_value(s: &str, pos: &mut usize) -> Result<(), String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => scan_obj(s, pos, |_, pos| skip_value(s, pos)),
        Some(b'[') => scan_arr(b, pos, |pos| skip_value(s, pos)),
        Some(b'"') => scan_string(s, pos, None),
        Some(b't') => scan_lit(b, pos, "true"),
        Some(b'f') => scan_lit(b, pos, "false"),
        Some(b'n') => scan_lit(b, pos, "null"),
        Some(_) => {
            // Plain digits always parse; anything else must parse.
            let start = *pos;
            match scan_num(s, pos) {
                (_, true) => Ok(()),
                (text, false) if text.parse::<f64>().is_ok() => Ok(()),
                (text, false) => Err(num_error(text, start)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tree reader
// ---------------------------------------------------------------------------

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    document(input, |pos| parse_value(input, pos))
}

fn parse_value(s: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            let mut fields = Vec::new();
            scan_obj(s, pos, |key, pos| {
                fields.push((unquote(key).into_owned(), parse_value(s, pos)?));
                Ok(())
            })?;
            Ok(JsonValue::Obj(fields))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            scan_arr(b, pos, |pos| {
                items.push(parse_value(s, pos)?);
                Ok(())
            })?;
            Ok(JsonValue::Arr(items))
        }
        Some(b'"') => {
            let mut out = String::new();
            scan_string(s, pos, Some(&mut out))?;
            Ok(JsonValue::Str(out))
        }
        Some(b't') => scan_lit(b, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => scan_lit(b, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => scan_lit(b, pos, "null").map(|()| JsonValue::Null),
        Some(_) => {
            let start = *pos;
            let (text, _) = scan_num(s, pos);
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| num_error(text, start))
        }
    }
}

// ---------------------------------------------------------------------------
// Record reader
// ---------------------------------------------------------------------------

/// One JSON line decoded in place: the top-level keys of an object and
/// the raw text of their values, borrowed from the line.
///
/// [`Record::parse_line`] accepts exactly the documents [`parse`]
/// accepts, with the same error messages. A document that is not an
/// object decodes to a record with no fields. When a key repeats, the
/// first occurrence wins, as in [`JsonValue::get`].
#[derive(Debug, Default)]
pub struct Record<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Record<'a> {
    /// Decodes one line into a new record.
    pub fn parse(line: &'a str) -> Result<Record<'a>, String> {
        let mut rec = Record::default();
        rec.parse_line(line)?;
        Ok(rec)
    }

    /// Decodes `line` into this record, reusing its field storage. On
    /// error the record is left empty.
    pub fn parse_line(&mut self, line: &'a str) -> Result<(), String> {
        self.fields.clear();
        let fields = &mut self.fields;
        let b = line.as_bytes();
        let result = document(line, |pos| {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'{') {
                return skip_value(line, pos);
            }
            scan_obj(line, pos, |key, pos| {
                skip_ws(b, pos);
                let start = *pos;
                skip_value(line, pos)?;
                let raw = line.get(start..*pos).unwrap_or_default();
                fields.push((unquote(key), Value(raw)));
                Ok(())
            })
        });
        if result.is_err() {
            self.fields.clear();
        }
        result
    }

    /// The first field named `key`.
    pub fn get(&self, key: &str) -> Option<Value<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Every field in line order, repeats included.
    pub fn fields(&self) -> impl Iterator<Item = (&str, Value<'a>)> + '_ {
        self.fields.iter().map(|(k, v)| (&**k, *v))
    }
}

/// The raw text of one validated JSON value. The accessors decode it on
/// demand and return `None` when it is of another type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value<'a>(&'a str);

impl<'a> Value<'a> {
    /// The value's JSON text as it appears in the line.
    pub fn raw(self) -> &'a str {
        self.0
    }

    pub fn is_null(self) -> bool {
        self.0 == "null"
    }

    pub fn as_bool(self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// A number, decoded with `str::parse::<f64>`. No other validated
    /// value parses as one: strings keep their quotes, and `inf` or `nan`
    /// are not JSON.
    pub fn as_f64(self) -> Option<f64> {
        self.0.parse().ok()
    }

    /// An integral, non-negative number. Plain digits decode exactly
    /// (and fail above `u64::MAX`); other forms follow
    /// [`JsonValue::as_u64`]'s rule, so `1.0` and `1e3` are integers and
    /// `-1` and `1.5` are not.
    pub fn as_u64(self) -> Option<u64> {
        if is_digits(self.0) {
            return self.0.parse().ok();
        }
        f64_to_u64(self.as_f64()?)
    }

    /// A string, borrowed from the line unless it holds escapes.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        self.0.starts_with('"').then(|| unquote(self.0))
    }

    /// The elements of an array.
    pub fn items(self) -> Option<Items<'a>> {
        self.0.starts_with('[').then_some(Items {
            arr: self.0,
            pos: 1,
        })
    }
}

/// Iterator over the elements of a validated array.
#[derive(Debug, Clone)]
pub struct Items<'a> {
    arr: &'a str,
    pos: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = Value<'a>;

    fn next(&mut self) -> Option<Value<'a>> {
        let b = self.arr.as_bytes();
        skip_ws(b, &mut self.pos);
        if b.get(self.pos) == Some(&b',') {
            self.pos += 1;
            skip_ws(b, &mut self.pos);
        }
        if matches!(b.get(self.pos), None | Some(b']')) {
            return None;
        }
        let start = self.pos;
        skip_value(self.arr, &mut self.pos).ok()?;
        Some(Value(self.arr.get(start..self.pos)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The elements of an array field as `u64`s, `None` if any is not one.
    fn u64s(r: &Record, key: &str) -> Option<Vec<u64>> {
        r.get(key)?.items()?.map(Value::as_u64).collect()
    }

    #[test]
    fn emit_and_parse_round_trip() {
        let mut out = String::from("{");
        field_str(&mut out, "kind", "trigger_eval");
        field_u64(&mut out, "t_us", 12345);
        field_f64(&mut out, "rsd", 0.3125);
        field_bool(&mut out, "triggered", true);
        field_arr_u64(&mut out, "sources", &[3, 1, 4]);
        out.push('}');

        let v = parse(&out).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("trigger_eval"));
        assert_eq!(v.get("t_us").unwrap().as_u64(), Some(12345));
        assert_eq!(v.get("rsd").unwrap().as_f64(), Some(0.3125));
        assert_eq!(v.get("triggered").unwrap().as_bool(), Some(true));
        let srcs: Vec<u64> = v
            .get("sources")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(srcs, vec![3, 1, 4]);

        let r = Record::parse(&out).unwrap();
        assert_eq!(
            r.get("kind").unwrap().as_str().as_deref(),
            Some("trigger_eval")
        );
        assert_eq!(r.get("t_us").unwrap().as_u64(), Some(12345));
        assert_eq!(r.get("rsd").unwrap().as_f64(), Some(0.3125));
        assert_eq!(r.get("triggered").unwrap().as_bool(), Some(true));
        assert_eq!(u64s(&r, "sources"), Some(vec![3, 1, 4]));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn encoder_matches_core_fmt() {
        for v in [0, 1, 9, 10, 99, 100, 12345, 1 << 53, u64::MAX - 1, u64::MAX] {
            let mut out = String::from("{");
            field_u64(&mut out, "n", v);
            assert_eq!(out, format!("{{\"n\":{v}"));
        }
        let mut out = String::from("{");
        field_arr_u64(&mut out, "a", &[0, 7, u64::MAX]);
        assert_eq!(out, format!("{{\"a\":[0,7,{}]", u64::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::from("{");
        field_str(&mut out, "name", "a\"b\\c\nd\te\u{1}");
        field_str(&mut out, "plain", "héllo");
        out.push('}');
        assert_eq!(
            out,
            "{\"name\":\"a\\\"b\\\\c\\nd\\te\\u0001\",\"plain\":\"héllo\"}"
        );
        let v = parse(&out).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
        assert_eq!(v.get("plain").unwrap().as_str(), Some("héllo"));
        let r = Record::parse(&out).unwrap();
        let name = r.get("name").unwrap().as_str().unwrap();
        assert_eq!(name, "a\"b\\c\nd\te\u{1}");
        assert!(matches!(name, Cow::Owned(_)));
        let plain = r.get("plain").unwrap().as_str().unwrap();
        assert!(matches!(plain, Cow::Borrowed("héllo")));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::from("{");
        field_f64(&mut out, "x", f64::NAN);
        field_f64(&mut out, "y", f64::INFINITY);
        out.push('}');
        let v = parse(&out).unwrap();
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
        assert_eq!(v.get("y"), Some(&JsonValue::Null));
        let r = Record::parse(&out).unwrap();
        assert!(r.get("x").unwrap().is_null());
        assert_eq!(r.get("y").unwrap().as_f64(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a":[{"b":1.5e3},null,[true,false]],"c":-7}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_f64(), Some(1500.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-7.0));
        assert_eq!(v.get("c").unwrap().as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(Record::parse("{}").unwrap().fields().count(), 0);
        let r = Record::parse(r#"{"a":[ ]}"#).unwrap();
        assert_eq!(u64s(&r, "a"), Some(vec![]));
    }

    #[test]
    fn record_u64_is_exact_above_2_pow_53() {
        let two53 = 1u64 << 53;
        for v in [two53 - 1, two53, two53 + 1, two53 + 3, u64::MAX] {
            let line = format!("{{\"n\":{v}}}");
            let r = Record::parse(&line).unwrap();
            assert_eq!(r.get("n").unwrap().as_u64(), Some(v), "{line}");
        }
        // The tree reader goes through f64: 2^53 + 1 aliases 2^53.
        assert_eq!(
            parse(&format!("[{}]", two53 + 1))
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .as_u64(),
            Some(two53)
        );
        // Plain digits past u64::MAX are not a u64.
        let r = Record::parse("{\"n\":18446744073709551616}").unwrap();
        assert_eq!(r.get("n").unwrap().as_u64(), None);
        assert!(r.get("n").unwrap().as_f64().is_some());
    }

    #[test]
    fn record_u64_keeps_the_integral_number_rule() {
        let cases: &[(&str, Option<u64>)] = &[
            ("0", Some(0)),
            ("7", Some(7)),
            ("01", Some(1)),
            ("1.0", Some(1)),
            ("1e3", Some(1000)),
            ("1E3", Some(1000)),
            ("-0", Some(0)),
            ("+5", Some(5)),
            ("-1", None),
            ("1.5", None),
            ("1e-1", None),
            ("null", None),
            ("\"5\"", None),
            ("true", None),
            ("[5]", None),
        ];
        for &(text, want) in cases {
            let line = format!("{{\"n\":{text}}}");
            let r = Record::parse(&line).unwrap();
            assert_eq!(r.get("n").unwrap().as_u64(), want, "{text}");
            let tree = parse(&line).unwrap();
            assert_eq!(tree.get("n").unwrap().as_u64(), want, "{text} (tree)");
        }
    }

    #[test]
    fn record_first_key_wins_and_keeps_order() {
        let r = Record::parse(r#"{"osd":1,"kind":"x","osd":2}"#).unwrap();
        assert_eq!(r.get("osd").unwrap().as_u64(), Some(1));
        let keys: Vec<&str> = r.fields().map(|(k, _)| k).collect();
        assert_eq!(keys, ["osd", "kind", "osd"]);
        let r = Record::parse(r#"{"kind":"a","kind":"b"}"#).unwrap();
        assert_eq!(r.get("kind").unwrap().as_str().as_deref(), Some("a"));
    }

    #[test]
    fn record_is_reusable_and_cleared_on_error() {
        let text = "{\"a\":1}\n{\"b\":2}\nnot json\n[1]";
        let mut r = Record::default();
        let mut lines = text.lines();
        r.parse_line(lines.next().unwrap()).unwrap();
        assert_eq!(r.get("a").unwrap().as_u64(), Some(1));
        r.parse_line(lines.next().unwrap()).unwrap();
        assert_eq!(r.get("a"), None);
        assert_eq!(r.get("b").unwrap().as_u64(), Some(2));
        assert!(r.parse_line(lines.next().unwrap()).is_err());
        assert_eq!(r.fields().count(), 0);
        // A valid document that is not an object has no fields.
        r.parse_line(lines.next().unwrap()).unwrap();
        assert_eq!(r.fields().count(), 0);
    }

    #[test]
    fn record_arrays_decode_elements_on_demand() {
        let r =
            Record::parse(r#"{"a":[ 1 , 2.0,3e0 ],"b":[1,"x"],"c":[[1],{"d":[]}],"e":7}"#).unwrap();
        assert_eq!(u64s(&r, "a"), Some(vec![1, 2, 3]));
        assert_eq!(u64s(&r, "b"), None);
        assert_eq!(r.get("b").unwrap().items().unwrap().count(), 2);
        let nested: Vec<&str> = r
            .get("c")
            .unwrap()
            .items()
            .unwrap()
            .map(Value::raw)
            .collect();
        assert_eq!(nested, [r#"[1]"#, r#"{"d":[]}"#]);
        assert!(r.get("e").unwrap().items().is_none());
    }
}
