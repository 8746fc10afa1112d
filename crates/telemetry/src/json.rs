//! Minimal deterministic JSON emission.
//!
//! The workspace is dependency-free, so this module hand-rolls the small
//! subset of JSON the telemetry layer needs: objects with string keys,
//! string values, integer values, and arrays thereof. All registry values
//! are integers (no floats), so output is byte-identical across platforms.

use std::net::Ipv4Addr;

use crate::registry::FieldValue;

/// Escape `s` for use inside a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append the escaped form of `s` to `out` (without quotes): `"` and `\`
/// backslash-escaped, `\n`, `\r` and `\t` by name, every other control
/// character as `\u00xx`, everything else as is. Runs of bytes that need
/// no escape are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            // Every byte of a multi-byte character is ≥ 0x80, so `i` only
            // ever stops at a character boundary.
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append `"s"` (quoted, escaped) to `out`.
pub fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// An integer [`push_num`] can write: its sign and magnitude.
pub trait Integer: Copy {
    /// Whether the value is negative, and its absolute value.
    fn sign_magnitude(self) -> (bool, u64);
}

impl Integer for u64 {
    fn sign_magnitude(self) -> (bool, u64) {
        (false, self)
    }
}

impl Integer for u32 {
    fn sign_magnitude(self) -> (bool, u64) {
        (false, u64::from(self))
    }
}

impl Integer for usize {
    fn sign_magnitude(self) -> (bool, u64) {
        (false, self as u64)
    }
}

impl Integer for i64 {
    fn sign_magnitude(self) -> (bool, u64) {
        (self < 0, self.unsigned_abs())
    }
}

impl<T: Integer> Integer for &T {
    fn sign_magnitude(self) -> (bool, u64) {
        (*self).sign_magnitude()
    }
}

/// Append the decimal form of an integer to `out`, formatting in place
/// (no intermediate `String`, no formatter).
pub fn push_num(out: &mut String, n: impl Integer) {
    let (negative, mut v) = n.sign_magnitude();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

/// Append `"a.b.c.d"`, an address as its quoted dotted-quad text.
fn push_addr_value(out: &mut String, addr: Ipv4Addr) {
    out.push('"');
    for (i, octet) in addr.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_num(out, u64::from(octet));
    }
    out.push('"');
}

/// Append an event or trace field's value: a number, or a quoted string.
pub(crate) fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => push_num(out, n),
        FieldValue::I64(n) => push_num(out, n),
        FieldValue::Str(s) => push_str_value(out, s),
        FieldValue::Static(s) => push_str_value(out, s),
        FieldValue::Addr(a) => push_addr_value(out, *a),
    }
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
        assert_eq!(escape("\u{1f}é\u{7f}"), "\\u001fé\u{7f}");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(""), "");
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

    #[test]
    fn numbers_match_the_formatter_at_the_edges() {
        for v in [0u64, 9, 10, 99, 100, u64::MAX] {
            let mut s = String::new();
            push_num(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut s = String::new();
            push_num(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn field_values_render_as_their_text() {
        let addr = Ipv4Addr::new(10, 0, 1, 255);
        let render = |v: &FieldValue| {
            let mut s = String::new();
            push_field_value(&mut s, v);
            s
        };
        assert_eq!(render(&FieldValue::Addr(addr)), "\"10.0.1.255\"");
        assert_eq!(
            render(&FieldValue::Addr(addr)),
            render(&FieldValue::Str(addr.to_string()))
        );
        assert_eq!(render(&FieldValue::Static("ip_drop")), "\"ip_drop\"");
    }
}
