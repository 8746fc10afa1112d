//! Minimal deterministic JSON emission.
//!
//! The workspace is dependency-free, so this module hand-rolls the small
//! subset of JSON the telemetry layer needs: objects with string keys,
//! string values, integer values, and arrays thereof. All registry values
//! are integers (no floats), so output is byte-identical across platforms.

/// Escape `s` for use inside a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append the escaped form of `s` to `out` (without quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Append `"s"` (quoted, escaped) to `out`.
pub fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append the decimal form of an integer to `out`, formatting in place
/// (no intermediate `String`).
pub fn push_num(out: &mut String, n: impl std::fmt::Display) {
    use std::fmt::Write;
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Append `"key":` to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_str_value(out, key);
    out.push(':');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn key_and_value_forms() {
        let mut s = String::new();
        push_key(&mut s, "k");
        push_str_value(&mut s, "v");
        s.push(',');
        push_num(&mut s, -7i64);
        assert_eq!(s, "\"k\":\"v\",-7");
    }
}
