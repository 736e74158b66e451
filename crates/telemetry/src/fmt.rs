//! Deterministic JSON fragment writers.
//!
//! The one number writer and the one string writer behind every JSON
//! document the workspace emits — the trace exporters here and
//! `pov_scenario::Json` both render their leaves through these two
//! functions, so output is byte-identical across platforms and thread
//! counts: shortest-roundtrip floats forced to carry a decimal point,
//! non-finite values lowered to `null`, and strings escaped per
//! RFC 8259.

/// Append `v` as a deterministic JSON number (or `null` when not
/// finite). The shortest-roundtrip form always carries a `.` or an
/// exponent so readers see the field as a float.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a JSON string literal with RFC 8259 escaping.
pub fn push_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    #[test]
    fn floats_always_carry_a_point_or_exponent() {
        assert_eq!(f(2.0), "2.0");
        assert_eq!(f(0.125), "0.125");
        assert_eq!(f(2.5e-8), "0.000000025");
        assert_eq!(f(2.58e6), "2580000.0");
        assert_eq!(f(-3.0), "-3.0");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}e");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }
}
