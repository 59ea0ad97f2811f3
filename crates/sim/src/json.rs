//! Minimal hand-rolled JSON emission helpers.
//!
//! The workspace is std-only, so the JSONL exporters in [`crate::trace`]
//! and [`crate::metrics`] build their output with these few functions
//! instead of a serialisation crate. Output is deterministic: fixed key
//! order is the caller's job; this module guarantees stable escaping and
//! number formatting. Nothing here allocates beyond growing `out`:
//! numbers are formatted straight into it through [`fmt::Write`].

use std::fmt::{self, Write};

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    // Runs of bytes that need no escape are copied in one piece; every
    // byte that needs one is ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => push_fmt(out, format_args!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats `args` straight into `out`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
}

/// Appends `v` as a JSON number.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    push_fmt(out, format_args!("{v}"));
}

/// Appends `v` as a JSON number.
///
/// Uses Rust's shortest round-trip `Display` for `f64`, which is
/// deterministic across platforms. Non-finite values (not representable
/// in JSON) are emitted as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        push_fmt(out, format_args!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Appends `,"name":` — the start of every field after the first.
fn push_key(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
}

/// Appends `,"name":"value"` with escaping.
pub(crate) fn push_str_field(out: &mut String, name: &str, value: &str) {
    push_key(out, name);
    push_str(out, value);
}

/// Appends `,"name":value` for an unsigned integer.
pub(crate) fn push_u64_field(out: &mut String, name: &str, value: u64) {
    push_key(out, name);
    push_u64(out, value);
}

/// Appends `,"name":value` for a float (see [`push_f64`]).
pub(crate) fn push_f64_field(out: &mut String, name: &str, value: f64) {
    push_key(out, name);
    push_f64(out, value);
}

/// Appends `,"name":true|false`.
pub(crate) fn push_bool_field(out: &mut String, name: &str, value: bool) {
    push_key(out, name);
    out.push_str(if value { "true" } else { "false" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn unescaped_runs_keep_multibyte_characters_whole() {
        let mut out = String::new();
        push_str(&mut out, "µs\t→\u{1f}é");
        assert_eq!(out, "\"µs\\t→\\u001fé\"");
    }

    #[test]
    fn floats_are_shortest_round_trip_and_finite_only() {
        let mut out = String::new();
        push_f64(&mut out, 54.0);
        out.push(' ');
        push_f64(&mut out, 0.1);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "54 0.1 null");
    }
}
