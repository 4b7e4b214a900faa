//! A small self-contained JSON value type, parser and printer.
//!
//! The workspace builds offline, so instead of depending on `serde_json`
//! it carries its own codec. This module holds the schema-agnostic core
//! (value type, parser, printer); schema-specific encoders live next to
//! the schemas that use them (the run-file codec in `clocksync-cli`, the
//! trace codec in [`crate::trace`]).
//!
//! # Number encoding
//!
//! Integers are kept as `i128` and round-trip exactly. Floats print via
//! Rust's shortest round-trip `Display` (never exponent notation), with a
//! `.0` appended when the output has no `.`/`e`/`E` so the value re-parses
//! as [`Json::Float`] — so every finite `f64`, including `f64::MAX`,
//! subnormals and `1e300`, round-trips bit-for-bit. Non-finite floats
//! have no JSON representation: the printer **panics** rather than emit a
//! bare `inf`/`NaN` token the parser would reject (or silently change the
//! type to `null`). Call sites that want lossy behaviour opt in through
//! [`Json::float`], which maps non-finite values to [`Json::Null`]
//! explicitly.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or schema error, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// Builds an error from a description (used by schema decoders layered
    /// on top of this module).
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// A JSON document value.
///
/// Object keys are kept in a `BTreeMap`, so printing is deterministic
/// (sorted keys) — round-trip tests can compare serialized strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (covers every numeric field in the schemas exactly).
    Int(i128),
    /// A non-integral number. Must be finite to print; see [`Json::float`].
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a number from an `f64`, mapping non-finite values to
    /// [`Json::Null`].
    ///
    /// This is the *explicitly lossy* constructor: JSON has no `inf`/`NaN`
    /// tokens, so a caller that may hold a non-finite value chooses here
    /// between losing it (this function) and failing loudly (constructing
    /// [`Json::Float`] directly, which panics at print time).
    pub fn float(f: f64) -> Json {
        if f.is_finite() {
            Json::Float(f)
        } else {
            Json::Null
        }
    }

    /// Extracts an `i128`, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an integer.
    pub fn as_i128(&self, what: &str) -> Result<i128, JsonError> {
        match self {
            Json::Int(v) => Ok(*v),
            _ => Err(JsonError::new(format!("{what}: expected an integer"))),
        }
    }

    /// Extracts an `i64`, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an integer in `i64` range.
    pub fn as_i64(&self, what: &str) -> Result<i64, JsonError> {
        i64::try_from(self.as_i128(what)?)
            .map_err(|_| JsonError::new(format!("{what}: integer out of i64 range")))
    }

    /// Extracts a `u64`, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an integer in `u64` range.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        u64::try_from(self.as_i128(what)?)
            .map_err(|_| JsonError::new(format!("{what}: integer out of u64 range")))
    }

    /// Extracts a `usize` index, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not a nonnegative integer in `usize` range.
    pub fn as_usize(&self, what: &str) -> Result<usize, JsonError> {
        usize::try_from(self.as_i128(what)?)
            .map_err(|_| JsonError::new(format!("{what}: expected a nonnegative index")))
    }

    /// Extracts a string slice, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError::new(format!("{what}: expected a string"))),
        }
    }

    /// Extracts an array slice, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(v) => Ok(v),
            _ => Err(JsonError::new(format!("{what}: expected an array"))),
        }
    }

    /// Extracts the underlying object map, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, JsonError> {
        match self {
            Json::Object(m) => Ok(m),
            _ => Err(JsonError::new(format!("{what}: expected an object"))),
        }
    }

    /// Looks up a required field on an object, or errors mentioning `what`.
    ///
    /// # Errors
    ///
    /// If the value is not an object or the field is absent.
    pub fn field<'a>(&'a self, key: &str, what: &str) -> Result<&'a Json, JsonError> {
        self.as_object(what)?
            .get(key)
            .ok_or_else(|| JsonError::new(format!("{what}: missing field `{key}`")))
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// Renders with two-space indentation (like `serde_json::to_string_pretty`).
///
/// # Panics
///
/// If the document contains a non-finite [`Json::Float`] (see the module
/// docs; use [`Json::float`] for explicitly lossy construction).
pub fn to_string_pretty(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, true, &mut out);
    out
}

/// Renders compactly on one line.
///
/// # Panics
///
/// If the document contains a non-finite [`Json::Float`] (see the module
/// docs; use [`Json::float`] for explicitly lossy construction).
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, false, &mut out);
    out
}

fn write_value(v: &Json, indent: usize, pretty: bool, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => {
            assert!(
                f.is_finite(),
                "Json::Float({f}) has no JSON representation; \
                 use Json::float() to map non-finite values to null"
            );
            // Keep a decimal point so the value re-parses as Float.
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent + 1, pretty, out);
                write_value(item, indent + 1, pretty, out);
            }
            newline_indent(indent, pretty, out);
            out.push(']');
        }
        Json::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent + 1, pretty, out);
                write_string(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(val, indent + 1, pretty, out);
            }
            newline_indent(indent, pretty, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: usize, pretty: bool, out: &mut String) {
    if pretty {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a complete JSON document.
///
/// # Errors
///
/// Reports the byte offset and nature of the first syntax error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// Why one row of a table read by [`parse_with_rows`] breaks the row
/// schema `[index, index, i64, i64]`. Columns count from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFault {
    /// The row is not an array.
    NotArray,
    /// The row has this many elements, not four.
    Length(usize),
    /// The element in this column is not an integer.
    NotInteger(usize),
    /// The index in this column is negative or past `usize`.
    NotIndex(usize),
    /// The value in this column is past `i64`.
    OutOfI64(usize),
}

/// The first row of a table that breaks the row schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowError {
    /// The row's position in the table.
    pub row: usize,
    /// What is wrong with it.
    pub fault: RowFault,
}

/// What [`parse_with_rows`] found under its key in a top-level object.
#[derive(Debug, Clone, PartialEq)]
pub enum Table<T> {
    /// The key is absent, or the document is not an object.
    Absent,
    /// The key's last value is not an array.
    NotArray,
    /// The key's last value, read as rows: every row, or the first that
    /// breaks the schema.
    Rows(Result<Vec<T>, RowError>),
}

/// A document read by [`parse_with_rows`]: the tree without the table's
/// key, and the table.
#[derive(Debug, Clone, PartialEq)]
pub struct WithRows<T> {
    /// The document, with every top-level occurrence of the key left out.
    pub doc: Json,
    /// The table under the key.
    pub table: Table<T>,
}

/// Parses a complete JSON document as [`parse`] does, except that the
/// array under `key` in a top-level object is read in the same pass as a
/// table of rows `[index, index, i64, i64]`, each handed to `row`, with
/// no tree and no allocation per row.
///
/// The syntax and its errors are exactly [`parse`]'s: the table's bytes
/// go through the same scanner, so a document `parse` rejects is
/// rejected here with the same error, even if a row broke the schema
/// earlier. Duplicate keys keep their last value, the table's key
/// included; the key is matched after unescaping.
///
/// # Errors
///
/// Reports the byte offset and nature of the first syntax error.
pub fn parse_with_rows<T>(
    input: &str,
    key: &str,
    mut row: impl FnMut(usize, usize, i64, i64) -> T,
) -> Result<WithRows<T>, JsonError> {
    let mut p = Parser::new(input);
    let mut table = Table::Absent;
    p.skip_ws();
    let doc = if p.peek() == Some(b'{') {
        Json::Object(p.object_with(|p, k, map| {
            if k != key {
                let v = p.value()?;
                map.insert(k, v);
            } else if p.peek() == Some(b'[') {
                table = Table::Rows(p.rows(&mut row)?);
            } else {
                p.value()?;
                table = Table::NotArray;
            }
            Ok(())
        })?)
    } else {
        p.value()?
    };
    p.finish()?;
    Ok(WithRows { doc, table })
}

/// A row that meets the schema: two indices and two values.
type Row = (usize, usize, i64, i64);

/// Checks a row's four elements against `[index, index, i64, i64]`, in
/// column order; `None` is an element that is not an integer.
fn check_row(cells: [Option<i128>; 4]) -> Result<Row, RowFault> {
    let int = |col: usize| cells[col].ok_or(RowFault::NotInteger(col));
    let index = |col| usize::try_from(int(col)?).map_err(|_| RowFault::NotIndex(col));
    let value = |col| i64::try_from(int(col)?).map_err(|_| RowFault::OutOfI64(col));
    Ok((index(0)?, index(1)?, value(2)?, value(3)?))
}

/// A number token: an integer, or a float if it has a fraction or an
/// exponent.
enum Number {
    Int(i128),
    Float(f64),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// Skips trailing whitespace and fails on anything after it.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Reads one row of a [`parse_with_rows`] table, a JSON value of any
    /// shape, and checks it against the schema `[index, index, i64,
    /// i64]`. A number element goes through [`Parser::number_token`], any
    /// other element through [`Parser::value`], exactly as
    /// [`Parser::array`] would read them.
    fn row(&mut self) -> Result<Result<Row, RowFault>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(Err(RowFault::NotArray));
        }
        self.pos += 1;
        // The first four elements; `None` for one that is not an integer.
        let mut cells = [None::<i128>; 4];
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let cell = match self.peek() {
                    Some(c) if c == b'-' || c.is_ascii_digit() => match self.number_token()? {
                        Number::Int(v) => Some(v),
                        Number::Float(_) => None,
                    },
                    _ => {
                        self.value()?;
                        None
                    }
                };
                if let Some(slot) = cells.get_mut(len) {
                    *slot = cell;
                }
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }
        Ok(if len == 4 {
            check_row(cells)
        } else {
            Err(RowFault::Length(len))
        })
    }

    /// Reads the array at the cursor as a [`parse_with_rows`] table.
    /// After the first row that breaks the schema, the rest is only
    /// scanned, so a later syntax error still wins.
    fn rows<T>(
        &mut self,
        make: &mut impl FnMut(usize, usize, i64, i64) -> T,
    ) -> Result<Result<Vec<T>, RowError>, JsonError> {
        self.expect(b'[')?;
        let start = self.pos;
        let mut rows = Vec::new();
        let mut fault = None;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Ok(rows));
        }
        loop {
            self.skip_ws();
            match self.row()? {
                Ok((a, b, x, y)) if fault.is_none() => {
                    if rows.len() == rows.capacity() {
                        // Size the table from the bytes left at the mean
                        // width of the rows so far, so a frame of even
                        // rows takes one allocation of about its size.
                        let width = (self.pos - start) / (rows.len() + 1);
                        rows.reserve_exact((self.bytes.len() - self.pos) / width.max(1) + 1);
                    }
                    rows.push(make(a, b, x, y));
                }
                Err(f) if fault.is_none() => {
                    fault = Some(RowError {
                        row: rows.len(),
                        fault: f,
                    });
                }
                _ => {}
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(fault.map_or(Ok(rows), Err));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.object_with(|p, key, map| {
            let val = p.value()?;
            map.insert(key, val);
            Ok(())
        })
        .map(Json::Object)
    }

    /// Reads an object, handing each key, with the cursor on its value,
    /// to `entry`, which reads the value and stores what it keeps.
    fn object_with(
        &mut self,
        mut entry: impl FnMut(&mut Self, String, &mut BTreeMap<String, Json>) -> Result<(), JsonError>,
    ) -> Result<BTreeMap<String, Json>, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entry(self, key, &mut map)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired; the schemas never
                            // emit them.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        Ok(match self.number_token()? {
            Number::Int(v) => Json::Int(v),
            Number::Float(f) => Json::Float(f),
        })
    }

    /// Reads the number at the cursor, which is on a `-` or a digit.
    ///
    /// Integers of up to 19 digits, every `i64` among them, are
    /// accumulated as the digits are scanned; longer ones go to `i128`'s
    /// parser. Leading zeros and `-0` are accepted, and a `-` with no
    /// digits reads as `integer overflow`, as `i128`'s parser has it.
    fn number_token(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut magnitude = 0u64;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.float(start);
        }
        // 19 digits stay below 10^19 < 2^64, so the accumulation is exact.
        if (1..=19).contains(&(self.pos - digits)) {
            let m = i128::from(magnitude);
            return Ok(Number::Int(if negative { -m } else { m }));
        }
        // The token is ASCII: a sign and digits.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<i128>().ok())
            .map(Number::Int)
            .ok_or_else(|| self.err("integer overflow"))
    }

    /// Reads the fraction and exponent of the float that starts at
    /// `start`, with the cursor past its integer digits.
    fn float(&mut self, start: usize) -> Result<Number, JsonError> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Number::Float)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "123456789012345678901"] {
            let v = parse(text).unwrap();
            assert_eq!(to_string(&v), text);
        }
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(to_string(&Json::Float(2.0)), "2.0");
    }

    #[test]
    fn extreme_finite_floats_round_trip() {
        // `Display` for f64 never uses exponent notation, so these all
        // print as (very long) plain decimals — the `.0` fixup must still
        // mark integral ones as floats.
        for f in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE, // smallest normal
            5e-324,            // smallest subnormal
            1.0e300,           // no decimal point in Display output
            -1.0e300,
            0.0,
            -0.0,
            1.5,
            f64::EPSILON,
        ] {
            let text = to_string(&Json::Float(f));
            match parse(&text).unwrap() {
                Json::Float(back) => {
                    assert_eq!(back.to_bits(), f.to_bits(), "{f} round-tripped as {back}");
                }
                other => panic!("{f} re-parsed as {other:?} (from {text})"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "no JSON representation")]
    fn printing_nan_fails_loudly() {
        to_string(&Json::Float(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "no JSON representation")]
    fn printing_infinity_fails_loudly() {
        to_string(&Json::Float(f64::INFINITY));
    }

    #[test]
    fn lossy_float_constructor_maps_non_finite_to_null() {
        assert_eq!(Json::float(f64::NAN), Json::Null);
        assert_eq!(Json::float(f64::INFINITY), Json::Null);
        assert_eq!(Json::float(f64::NEG_INFINITY), Json::Null);
        assert_eq!(Json::float(2.5), Json::Float(2.5));
        assert_eq!(Json::float(f64::MAX), Json::Float(f64::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn structures_round_trip_pretty_and_compact() {
        let v = Json::object([
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(BTreeMap::new())),
            (
                "nested",
                Json::Array(vec![Json::Int(1), Json::Null, Json::Bool(true)]),
            ),
        ]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "01x",
            "\"unterminated",
            "{}extra",
            "1e",
            "--1",
            "\"\\q\"",
            "[1 2]",
            // JSON has no non-finite number tokens; make sure we never
            // start accepting them by accident.
            "NaN",
            "inf",
            "Infinity",
            "-inf",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn integers_read_exactly_on_both_sides_of_the_fast_path() {
        for (text, value) in [
            ("-0", 0),
            ("007", 7),
            ("9999999999999999999", 9_999_999_999_999_999_999),
            ("-9999999999999999999", -9_999_999_999_999_999_999),
            ("10000000000000000000", 10_000_000_000_000_000_000),
            ("00000000000000000000042", 42),
            ("-9223372036854775808", i128::from(i64::MIN)),
        ] {
            assert_eq!(parse(text), Ok(Json::Int(value)), "{text}");
        }
        assert_eq!(
            parse("-").unwrap_err().to_string(),
            "json: integer overflow at offset 1"
        );
        assert_eq!(
            parse("[170141183460469231731687303715884105728]")
                .unwrap_err()
                .to_string(),
            "json: integer overflow at offset 40"
        );
        assert_eq!(parse("-0.5e1"), Ok(Json::Float(-5.0)));
    }

    #[test]
    fn a_table_is_read_beside_the_tree() {
        let read = |text: &str| parse_with_rows(text, "obs", |a, b, x, y| (a, b, x, y)).unwrap();
        let doc = read(r#"{"t":"x","obs":[[1,2,-3,4]],"n":[5]}"#);
        assert_eq!(doc.table, Table::Rows(Ok(vec![(1, 2, -3, 4)])));
        assert_eq!(doc.doc, parse(r#"{"t":"x","n":[5]}"#).unwrap());
        assert_eq!(
            read(r#"{"obs":[[1,2,3,4]],"obs":{}}"#).table,
            Table::NotArray
        );
        assert_eq!(read(r#"{"x":{"obs":[]}}"#).table, Table::Absent);
        assert_eq!(read("[[1,2,3,4]]").table, Table::Absent);
        assert_eq!(
            read(r#"{"obs":[[1,2,3,4],[1,2,3,4.5],[-1]]}"#).table,
            Table::Rows(Err(RowError {
                row: 1,
                fault: RowFault::NotInteger(3)
            }))
        );
        // The syntax error after the bad row wins.
        assert_eq!(
            parse_with_rows(r#"{"obs":[[-1,2,3,4]],}"#, "obs", |a, b, x, y| (a, b, x, y)),
            Err(parse(r#"{"obs":[[-1,2,3,4]],}"#).unwrap_err())
        );
    }

    #[test]
    fn huge_integers_survive() {
        let v = parse(&i128::MAX.to_string()).unwrap();
        assert_eq!(v, Json::Int(i128::MAX));
        // i64 nanos extraction rejects out-of-range values cleanly.
        assert!(v.as_i64("x").is_err());
    }
}
