//! Host-speed calibration.
//!
//! On a shared host the same work runs up to about 1.5× slower while other
//! tenants contend for the caches, and the contention changes every few
//! tens of seconds, so raw times of two runs minutes apart differ by more
//! than any useful bound. The timed metrics are therefore scaled by how
//! fast the host ran a fixed reference kernel in the same run, interleaved
//! with the measured work: `value × NOMINAL_S / median(kernel seconds)`.
//! The kernel does what the measured code mostly does: ordered-map inserts
//! and number formatting into a growing string (simulation, views and
//! export), and UTF-8 validation streaming over a megabyte-sized buffer
//! (the vendored JSON parser reading a run's metadata). It calls nothing
//! in the workspace, so a change to the program moves a scaled metric
//! exactly as it moves the raw one. Raw host times are printed beside the
//! scaled ones. `archive` runs no kernel in its timed loop (see there).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds that scaled metrics are expressed at: about the
/// kernel's median on a quiet 2-core Intel Xeon host.
pub const NOMINAL_S: f64 = 0.04;

/// Bytes the validation half of the kernel streams over.
const TEXT_BYTES: usize = 1 << 20;

/// Run the reference kernel once; returns its seconds.
pub fn kernel() -> f64 {
    let text: Vec<u8> = (0..TEXT_BYTES).map(|i| b'a' + (i % 26) as u8).collect();
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(black_box(x), i);
    }
    let mut out = String::new();
    for (k, v) in &map {
        let _ = writeln!(out, "{k},{v}");
    }
    black_box(out.len());
    let mut valid = 0;
    for start in (0..TEXT_BYTES).step_by(TEXT_BYTES / 1024) {
        valid += std::str::from_utf8(black_box(&text[start..])).map_or(0, str::len);
    }
    black_box(valid);
    t.elapsed().as_secs_f64()
}
