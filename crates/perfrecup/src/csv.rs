//! CSV, the archival form of the common tabular format: what
//! [`crate::export::export_run`] writes and [`crate::DataFrame::to_csv`]
//! returns.
//!
//! One encoding rule for every cell. A string cell is quoted, with each
//! `"` doubled, only when it contains `,`, `"` or `\n` (RFC 4180). An
//! `f64` renders as `{:.6}`, a `Null` as the empty field, and the other
//! variants as their `Display`. [`CsvBuf`] encodes the typed cells of a
//! projection ([`Tabular::emit`]) straight into one reused buffer, so a
//! streamed view builds no `Value` and no `String` per cell.

use std::fmt::{self, Write as _};
use std::io::{self, Write};

use dtf_core::table::{CellSink, Tabular};

/// CSV text under construction: a [`CellSink`] that appends each cell to
/// the current line.
#[derive(Debug, Default)]
pub struct CsvBuf {
    buf: String,
    /// Rendering space for [`CellSink::fmt`] cells, which must be seen
    /// whole before the quoting rule can be applied.
    scratch: String,
    /// Cells already on the current line (a separator precedes the next).
    cells: usize,
}

impl CsvBuf {
    /// A line of column names.
    pub fn header<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            self.str(name);
        }
        self.end_row();
    }

    /// Terminate the current line.
    pub fn end_row(&mut self) {
        self.buf.push('\n');
        self.cells = 0;
    }

    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Drop the encoded text, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.cells = 0;
    }

    pub fn into_string(self) -> String {
        self.buf
    }

    fn next_cell(&mut self) {
        if self.cells > 0 {
            self.buf.push(',');
        }
        self.cells += 1;
    }
}

/// Append `s` as one field, quoted if it contains `,`, `"` or `\n`.
fn push_field(buf: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        buf.push_str(s);
        return;
    }
    buf.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            buf.push_str("\"\"");
        }
        buf.push_str(part);
    }
    buf.push('"');
}

/// Append `v` exactly as `{v:.6}` renders it: the exact binary value
/// times 10^6, rounded half to even. Finite values below 1.8e13 in
/// magnitude, which covers the seconds an export holds, are rounded and
/// printed in integer arithmetic; NaN, infinities and larger values fall
/// back to `write!`. This is the hot cell of every view (each record
/// carries one to three timestamps).
fn push_fixed6(buf: &mut String, v: f64) {
    const SCALE: u64 = 1_000_000;
    let bits = v.to_bits();
    // a normal v is mantissa * 2^-shift
    let shift = 1075 - ((bits >> 52) & 0x7ff) as i64;
    let scaled = match shift {
        // |v| < 2^-75, zero and subnormals included: v * 10^6 rounds to 0
        128.. => Some(0),
        1..=127 => {
            let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
            let exact = mantissa as u128 * SCALE as u128; // < 2^73
            let (q, rem) = (exact >> shift, exact & ((1u128 << shift) - 1));
            let half = 1u128 << (shift - 1);
            let q = q + u128::from(rem > half || (rem == half && q & 1 == 1));
            u64::try_from(q).ok()
        }
        // |v| >= 2^52, infinities and NaN
        _ => None,
    };
    let Some(q) = scaled else {
        let _ = write!(buf, "{v:.6}");
        return;
    };
    // sign, integer digits, '.', six fraction digits: written from the back
    let mut text = [0u8; 28];
    let mut at = text.len();
    let mut put = |byte: u8| {
        at -= 1;
        text[at] = byte;
    };
    let (mut int, mut frac) = (q / SCALE, q % SCALE);
    for _ in 0..6 {
        put(b'0' + (frac % 10) as u8);
        frac /= 10;
    }
    put(b'.');
    loop {
        put(b'0' + (int % 10) as u8);
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if bits >> 63 == 1 {
        put(b'-');
    }
    buf.push_str(std::str::from_utf8(&text[at..]).expect("ascii"));
}

// Writing into a `String` cannot fail, so the `fmt::Result`s are dropped.
impl CellSink for CsvBuf {
    fn str(&mut self, s: &str) {
        self.next_cell();
        push_field(&mut self.buf, s);
    }
    fn u64(&mut self, v: u64) {
        self.next_cell();
        let _ = write!(self.buf, "{v}");
    }
    fn i64(&mut self, v: i64) {
        self.next_cell();
        let _ = write!(self.buf, "{v}");
    }
    fn f64(&mut self, v: f64) {
        self.next_cell();
        push_fixed6(&mut self.buf, v);
    }
    fn bool(&mut self, v: bool) {
        self.next_cell();
        self.buf.push_str(if v { "true" } else { "false" });
    }
    fn null(&mut self) {
        self.next_cell();
    }
    fn fmt(&mut self, args: fmt::Arguments<'_>) {
        self.next_cell();
        self.scratch.clear();
        let _ = self.scratch.write_fmt(args);
        push_field(&mut self.buf, &self.scratch);
    }
}

/// Stream `records` as CSV into `out`: the schema's header, then one line
/// per record. Lines go to `out` one at a time, so the whole file is never
/// held in memory.
pub fn write_records<T: Tabular, W: Write + ?Sized>(
    records: impl IntoIterator<Item = T>,
    out: &mut W,
) -> io::Result<()> {
    let schema = T::schema();
    let mut line = CsvBuf::default();
    line.header(schema.iter().copied());
    out.write_all(line.as_str().as_bytes())?;
    for r in records {
        line.clear();
        r.emit(&mut line);
        debug_assert_eq!(line.cells, schema.len(), "cells emitted vs schema width");
        line.end_row();
        out.write_all(line.as_str().as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_rule_and_cell_rendering() {
        let mut l = CsvBuf::default();
        l.str("plain");
        l.str("a,b");
        l.str("say \"hi\"");
        l.str("two\nlines");
        l.null();
        l.f64(-0.0);
        l.f64(f64::NAN);
        l.u64(7);
        l.i64(-7);
        l.bool(true);
        l.fmt(format_args!("('{}', {})", "x", 1));
        l.end_row();
        assert_eq!(
            l.as_str(),
            "plain,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\",,-0.000000,NaN,7,-7,true,\"('x', 1)\"\n"
        );
    }

    #[test]
    fn fixed6_matches_format_precision_6() {
        let check = |v: f64| {
            let mut got = String::new();
            push_fixed6(&mut got, v);
            assert_eq!(got, format!("{v:.6}"), "bits {:#x}", v.to_bits());
        };
        // ties (x * 10^6 exactly half-way) round to even, carries ripple
        // into the integer part, and the fallback's edges
        for v in [
            0.0078125,
            0.0234375,
            1.0078125,
            2.5e-6,
            5e-7,
            0.9999995,
            0.99999949999,
            9.9999995,
            1e-300,
            2f64.powi(52),
            2f64.powi(52) - 0.5,
            2f64.powi(-75),
            2f64.powi(-74),
            2f64.powi(44),
            1.8446744073709e13,
            1.8446744073710e13,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
        ] {
            check(v);
            check(-v);
        }
        for ns in [0u64, 1, 499, 500, 501, 1_500, 2_500, 123_456_789_012, u64::MAX] {
            check(ns as f64 / 1e9);
        }
        // every exponent the fast path handles, random mantissas
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check(f64::from_bits(x));
            let biased = 1075 - 130 + (x % 140);
            check(f64::from_bits((x & ((1 << 52) - 1)) | (biased << 52)));
        }
    }
}
