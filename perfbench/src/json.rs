//! A minimal ordered JSON object writer for the result line and the trace
//! file (the workspace is offline and carries no JSON crate).

use std::fmt::Write;

/// A JSON object whose keys keep insertion order.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// Escapes `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a number with every digit Rust's shortest round-trip form
/// carries; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Appends a raw, already-encoded JSON value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Appends a number.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, number(v))
    }

    /// Appends a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, string(v))
    }

    /// Appends a boolean.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    /// Appends a nested object.
    pub fn obj(&mut self, key: &str, v: Obj) -> &mut Self {
        self.raw(key, v.render())
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), v))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_escaped_fields() {
        let mut inner = Obj::new();
        inner.num("value", 1.25).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .num("n", 3.0)
            .str("s", "a\"b")
            .num("nan", f64::NAN)
            .obj("m", inner);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "n": 3, "s": "a\"b", "nan": null, "m": {"value": 1.25, "unit": "ms"}}"#
        );
    }
}
