//! Offline stand-in for the [`serde`](https://serde.rs) crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! small self-consistent serialization framework under the `serde` name:
//! [`Serialize`] / [`Deserialize`] traits wired directly to a JSON
//! serializer ([`ser::Serializer`]) and parser ([`de::Deserializer`]),
//! plus `#[derive(Serialize, Deserialize)]` macros from the sibling
//! `serde_derive` proc-macro shim. The sibling `serde_json` crate provides
//! the familiar `to_string` / `from_str` entry points.
//!
//! Deliberate simplifications versus real serde:
//!
//! * JSON is the only data format (that is all this workspace uses).
//! * Derives support non-generic structs (named, tuple, unit) and enums
//!   (unit, newtype, tuple, struct variants) with serde's externally
//!   tagged representation — no `#[serde(...)]` attributes.
//! * Non-finite floats serialize as `null` (as real `serde_json` does)
//!   and deserialize back as `NaN`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// JSON serialization machinery used by derived and manual impls.
pub mod ser {
    /// A JSON string builder with comma bookkeeping.
    #[derive(Debug, Default)]
    pub struct Serializer {
        out: String,
        /// Stack of "has the current container already emitted an element".
        started: Vec<bool>,
    }

    impl Serializer {
        /// Creates an empty serializer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Finishes and returns the JSON text.
        pub fn finish(self) -> String {
            self.out
        }

        fn elem_prefix(&mut self) {
            if let Some(started) = self.started.last_mut() {
                if *started {
                    self.out.push(',');
                }
                *started = true;
            }
        }

        /// Opens a JSON object (`{`).
        pub fn begin_object(&mut self) {
            self.elem_prefix();
            self.out.push('{');
            self.started.push(false);
        }

        /// Closes a JSON object (`}`).
        pub fn end_object(&mut self) {
            self.started.pop();
            self.out.push('}');
        }

        /// Opens a JSON array (`[`).
        pub fn begin_array(&mut self) {
            self.elem_prefix();
            self.out.push('[');
            self.started.push(false);
        }

        /// Closes a JSON array (`]`).
        pub fn end_array(&mut self) {
            self.started.pop();
            self.out.push(']');
        }

        /// Emits an object key (with its trailing `:`).
        pub fn key(&mut self, name: &str) {
            self.elem_prefix();
            write_json_string(&mut self.out, name);
            self.out.push(':');
            // The value that follows must not emit a comma of its own.
            self.started.push(false);
        }

        /// Marks the value for the last [`Self::key`] as written.
        pub fn end_value(&mut self) {
            self.started.pop();
        }

        /// Emits a raw scalar token (already valid JSON).
        pub fn scalar(&mut self, token: &str) {
            self.elem_prefix();
            self.out.push_str(token);
        }

        /// Emits a JSON string scalar with escaping.
        pub fn string(&mut self, s: &str) {
            self.elem_prefix();
            write_json_string(&mut self.out, s);
        }
    }

    /// Escapes `s` as a JSON string literal into `out`.
    pub fn write_json_string(out: &mut String, s: &str) {
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

    /// Formats a float the way `serde_json` does: non-finite becomes
    /// `null`, finite uses the shortest round-trippable decimal.
    pub fn write_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            // Ryū-style shortest repr is what `{}` gives us; ensure a
            // fractional part so the token re-parses as a float.
            let s = format!("{v}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }
}

/// JSON parsing machinery used by derived and manual impls.
pub mod de {
    /// A deserialization error with a byte offset and message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        /// Byte offset in the input where the error occurred.
        pub offset: usize,
        /// Human-readable description.
        pub message: String,
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "JSON error at byte {}: {}", self.offset, self.message)
        }
    }

    impl std::error::Error for Error {}

    /// Deepest array/object nesting [`Deserializer::skip_value`] descends
    /// into before it returns an error.
    pub const MAX_SKIP_DEPTH: usize = 128;

    /// A hand-rolled recursive-descent JSON reader over a byte slice.
    #[derive(Debug)]
    pub struct Deserializer<'a> {
        input: &'a [u8],
        pos: usize,
    }

    impl<'a> Deserializer<'a> {
        /// Creates a reader over `input`.
        pub fn new(input: &'a str) -> Self {
            Deserializer { input: input.as_bytes(), pos: 0 }
        }

        /// Errors unless the whole input has been consumed.
        pub fn finish(mut self) -> Result<(), Error> {
            self.skip_ws();
            if self.pos == self.input.len() {
                Ok(())
            } else {
                Err(self.error("trailing characters"))
            }
        }

        /// Builds an error at the current offset.
        pub fn error(&self, message: impl Into<String>) -> Error {
            Error { offset: self.pos, message: message.into() }
        }

        /// Skips whitespace.
        pub fn skip_ws(&mut self) {
            while let Some(&b) = self.input.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        /// Peeks the next non-whitespace byte without consuming it.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.input.get(self.pos).copied()
        }

        /// Consumes the expected punctuation byte.
        pub fn expect(&mut self, byte: u8) -> Result<(), Error> {
            self.skip_ws();
            if self.input.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(format!("expected `{}`", byte as char)))
            }
        }

        /// Consumes `byte` if it is next; reports whether it did.
        pub fn eat(&mut self, byte: u8) -> bool {
            self.skip_ws();
            if self.input.get(self.pos) == Some(&byte) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        /// Consumes a keyword such as `null`, `true`, `false`.
        pub fn eat_keyword(&mut self, kw: &str) -> bool {
            self.skip_ws();
            if self.input[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                true
            } else {
                false
            }
        }

        /// Parses a JSON string literal.
        pub fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let Some(&b) = self.input.get(self.pos) else {
                    return Err(self.error("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&e) = self.input.get(self.pos) else {
                            return Err(self.error("unterminated escape"));
                        };
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .input
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.error("bad \\u escape"))?;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| self.error("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.error("unknown escape")),
                        }
                    }
                    _ => {
                        // Copy the whole run of plain bytes up to the next
                        // quote or escape. It starts and ends at ASCII
                        // bytes of a `&str`, so it is valid UTF-8, and
                        // each byte is visited once: decoding is linear.
                        let start = self.pos - 1;
                        let run = self.input[self.pos..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(self.input.len() - self.pos);
                        self.pos += run;
                        let text = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8"))?;
                        out.push_str(text);
                    }
                }
            }
        }

        /// Parses a JSON number as `f64` (also used for integers).
        pub fn parse_f64(&mut self) -> Result<f64, Error> {
            self.skip_ws();
            if self.eat_keyword("null") {
                // serde_json writes non-finite floats as null.
                return Ok(f64::NAN);
            }
            let start = self.pos;
            while let Some(&b) = self.input.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if start == self.pos {
                return Err(self.error("expected number"));
            }
            std::str::from_utf8(&self.input[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| self.error("malformed number"))
        }

        /// Parses a JSON integer as `i128`.
        pub fn parse_i128(&mut self) -> Result<i128, Error> {
            self.skip_ws();
            let start = self.pos;
            if self.input.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while let Some(&b) = self.input.get(self.pos) {
                if b.is_ascii_digit() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if start == self.pos {
                return Err(self.error("expected integer"));
            }
            std::str::from_utf8(&self.input[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<i128>().ok())
                .ok_or_else(|| self.error("malformed integer"))
        }

        /// Skips any well-formed JSON value (for unknown object keys).
        /// Arrays and objects nested deeper than [`MAX_SKIP_DEPTH`] are
        /// an error, so the recursion, and the stack it uses, stays
        /// bounded whatever the input.
        pub fn skip_value(&mut self) -> Result<(), Error> {
            self.skip_nested(0)
        }

        fn skip_nested(&mut self, depth: usize) -> Result<(), Error> {
            match self.peek() {
                Some(b'{' | b'[') if depth >= MAX_SKIP_DEPTH => {
                    Err(self.error(format!("value nested deeper than {MAX_SKIP_DEPTH} levels")))
                }
                Some(b'"') => {
                    self.parse_string()?;
                    Ok(())
                }
                Some(b'{') => {
                    self.expect(b'{')?;
                    if !self.eat(b'}') {
                        loop {
                            self.parse_string()?;
                            self.expect(b':')?;
                            self.skip_nested(depth + 1)?;
                            if !self.eat(b',') {
                                break;
                            }
                        }
                        self.expect(b'}')?;
                    }
                    Ok(())
                }
                Some(b'[') => {
                    self.expect(b'[')?;
                    if !self.eat(b']') {
                        loop {
                            self.skip_nested(depth + 1)?;
                            if !self.eat(b',') {
                                break;
                            }
                        }
                        self.expect(b']')?;
                    }
                    Ok(())
                }
                Some(b't') if self.eat_keyword("true") => Ok(()),
                Some(b'f') if self.eat_keyword("false") => Ok(()),
                Some(b'n') if self.eat_keyword("null") => Ok(()),
                Some(_) => {
                    self.parse_f64()?;
                    Ok(())
                }
                None => Err(self.error("unexpected end of input")),
            }
        }
    }
}

/// A type serializable to JSON by this shim.
pub trait Serialize {
    /// Writes `self` into the serializer.
    fn serialize(&self, s: &mut ser::Serializer);
}

/// A type deserializable from JSON by this shim.
pub trait Deserialize: Sized {
    /// Reads a value from the deserializer.
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error>;
}

// ---- scalar impls ----------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.scalar(&self.to_string());
            }
        }
        impl Deserialize for $t {
            fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
                let v = d.parse_i128()?;
                <$t>::try_from(v).map_err(|_| d.error("integer out of range"))
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut ser::Serializer) {
        let mut tok = String::new();
        ser::write_f64(&mut tok, *self);
        s.scalar(&tok);
    }
}

impl Deserialize for f64 {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        d.parse_f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut ser::Serializer) {
        f64::from(*self).serialize(s);
    }
}

impl Deserialize for f32 {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        Ok(d.parse_f64()? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.scalar(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        if d.eat_keyword("true") {
            Ok(true)
        } else if d.eat_keyword("false") {
            Ok(false)
        } else {
            Err(d.error("expected boolean"))
        }
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.string(self);
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.string(self);
    }
}

impl Deserialize for String {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        d.parse_string()
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut ser::Serializer) {
        s.string(&self.to_string());
    }
}

impl Deserialize for char {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        let s = d.parse_string()?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(d.error("expected single-char string")),
        }
    }
}

// ---- container impls -------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut ser::Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        match self {
            None => s.scalar("null"),
            Some(v) => v.serialize(s),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        if d.peek() == Some(b'n') && d.eat_keyword("null") {
            Ok(None)
        } else {
            T::deserialize(d).map(Some)
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(
    items: impl IntoIterator<Item = &'a T>,
    s: &mut ser::Serializer,
) {
    s.begin_array();
    for item in items {
        item.serialize(s);
    }
    s.end_array();
}

fn deserialize_seq<T: Deserialize>(d: &mut de::Deserializer<'_>) -> Result<Vec<T>, de::Error> {
    d.expect(b'[')?;
    let mut out = Vec::new();
    if d.eat(b']') {
        return Ok(out);
    }
    loop {
        out.push(T::deserialize(d)?);
        if !d.eat(b',') {
            break;
        }
    }
    d.expect(b']')?;
    Ok(out)
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut ser::Serializer) {
        serialize_seq(self, s);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut ser::Serializer) {
        serialize_seq(self, s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        deserialize_seq(d)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut ser::Serializer) {
        serialize_seq(self, s);
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        let v: Vec<T> = deserialize_seq(d)?;
        let n = v.len();
        v.try_into()
            .map_err(|_| d.error(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut ser::Serializer) {
                s.begin_array();
                $(self.$n.serialize(s);)+
                s.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
                d.expect(b'[')?;
                let mut first = true;
                let out = ($({
                    if !std::mem::take(&mut first) {
                        d.expect(b',')?;
                    }
                    $t::deserialize(d)?
                },)+);
                d.expect(b']')?;
                Ok(out)
            }
        }
    )*};
}

impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<K: Serialize + std::fmt::Display, V: Serialize> Serialize
    for std::collections::BTreeMap<K, V>
{
    fn serialize(&self, s: &mut ser::Serializer) {
        s.begin_object();
        for (k, v) in self {
            s.key(&k.to_string());
            v.serialize(s);
            s.end_value();
        }
        s.end_object();
    }
}

impl<K: Deserialize + Ord + std::str::FromStr, V: Deserialize> Deserialize
    for std::collections::BTreeMap<K, V>
{
    fn deserialize(d: &mut de::Deserializer<'_>) -> Result<Self, de::Error> {
        d.expect(b'{')?;
        let mut out = std::collections::BTreeMap::new();
        if d.eat(b'}') {
            return Ok(out);
        }
        loop {
            let key_text = d.parse_string()?;
            let key = key_text
                .parse::<K>()
                .map_err(|_| d.error("unparseable map key"))?;
            d.expect(b':')?;
            out.insert(key, V::deserialize(d)?);
            if !d.eat(b',') {
                break;
            }
        }
        d.expect(b'}')?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let mut s = ser::Serializer::new();
        v.serialize(&mut s);
        let json = s.finish();
        let mut d = de::Deserializer::new(&json);
        let back = T::deserialize(&mut d).unwrap_or_else(|e| panic!("{json}: {e}"));
        d.finish().unwrap();
        assert_eq!(back, v, "json was {json}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(42u32);
        roundtrip(-17i64);
        roundtrip(3.5f64);
        roundtrip(0.1f64 + 0.2);
        roundtrip(true);
        roundtrip(String::from("hé\"llo\n"));
        roundtrip(String::from("\\\"\u{1}é€😀 tail\"head\\"));
        assert!(de::Deserializer::new("\"unterminated")
            .parse_string()
            .is_err());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(Some(5u8));
        roundtrip(Option::<u8>::None);
        roundtrip([1u32, 2]);
        roundtrip(vec![[0u32, 1], [2, 3]]);
        roundtrip((1u8, 2.5f64, String::from("x")));
        roundtrip(
            [(1u32, 2u32), (3, 4)]
                .into_iter()
                .collect::<std::collections::BTreeMap<_, _>>(),
        );
    }

    #[test]
    fn skip_value_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = nested(de::MAX_SKIP_DEPTH);
        let mut d = de::Deserializer::new(&deepest);
        d.skip_value().unwrap();
        d.finish().unwrap();
        let deep = nested(100_000);
        let err = de::Deserializer::new(&deep).skip_value().unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        let objects = format!("{}1{}", "{\"k\":".repeat(200), "}".repeat(200));
        assert!(de::Deserializer::new(&objects).skip_value().is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut s = ser::Serializer::new();
        f64::INFINITY.serialize(&mut s);
        assert_eq!(s.finish(), "null");
        let mut d = de::Deserializer::new("null");
        assert!(f64::deserialize(&mut d).unwrap().is_nan());
    }
}
