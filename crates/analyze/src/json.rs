//! A minimal JSON value and emitter for the SARIF writer.
//!
//! The analyzer is dependency-free, so it builds its JSON by hand.
//! Objects keep insertion order so emission is deterministic.

/// One JSON value.
#[derive(Debug)]
pub enum Jv {
    /// A non-negative integer.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Jv>),
    /// An object, in insertion order.
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    /// Compact, deterministic emission.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Jv::Num(n) => out.push_str(&n.to_string()),
            Jv::Str(s) => out.push_str(&escape(s)),
            Jv::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Jv::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(escape("l1\nl2\r\t"), r#""l1\nl2\r\t""#);
        assert_eq!(escape("\u{1}é"), "\"\\u0001é\"");
    }

    #[test]
    fn emit_is_compact_and_keeps_member_order() {
        let v = Jv::Obj(vec![
            ("z".into(), Jv::Num(7)),
            (
                "a".into(),
                Jv::Arr(vec![Jv::Str("x".into()), Jv::Obj(Vec::new())]),
            ),
        ]);
        assert_eq!(v.emit(), r#"{"z":7,"a":["x",{}]}"#);
    }
}
