//! Ordered-window scans over the concurrent Wormhole, streamed through the
//! resumable cursor vs materialised with `range_from`. [`record`] writes
//! the tracked `BENCH_scan.json` (`cargo run -p bench --release --bin
//! baseline -- scan`).
//!
//! Both paths run the same seqlock-validated leaf snapshots underneath; the
//! difference under measurement is purely the output discipline — the
//! cursor hands out borrowed pairs from one reused batch arena, while
//! `range_from` clones every key into a fresh `Vec` of pairs.

use std::time::Instant;

use index_traits::ConcurrentOrderedIndex;
use workloads::{generate, uniform_indices, KeysetId};
use wormhole::Wormhole;

use crate::measure::quick_or;
use crate::report::{Report, Row};

/// Builds the benched index over `n` Az1 composite keys (item-user-time,
/// the paper's ordered-analytics keyset) and returns it with the keyset —
/// scan starts are drawn from the latter.
fn build_scan_index(n: usize, seed: u64) -> (Wormhole<u64>, Vec<Vec<u8>>) {
    let keyset = generate(KeysetId::Az1, n, seed);
    let wh = Wormhole::new();
    for (i, key) in keyset.keys.iter().enumerate() {
        wh.set(key, i as u64);
    }
    (wh, keyset.keys)
}

/// Streams up to `window` pairs starting at `start` through the cursor.
/// Returns `(pairs, checksum)`; the checksum folds every key length and
/// value so the compiler cannot elide the reads.
fn stream_window(wh: &Wormhole<u64>, start: &[u8], window: usize) -> (usize, u64) {
    let mut cursor = wh.scan(start);
    let mut pairs = 0usize;
    let mut sum = 0u64;
    while pairs < window {
        match cursor.next() {
            Some((key, value)) => {
                pairs += 1;
                sum = sum.wrapping_add(*value).wrapping_add(key.len() as u64);
            }
            None => break,
        }
    }
    (pairs, sum)
}

/// Materialises the same window with `range_from` and folds the identical
/// checksum over the returned pairs.
fn materialise_window(wh: &Wormhole<u64>, start: &[u8], window: usize) -> (usize, u64) {
    let out = wh.range_from(start, window);
    let mut sum = 0u64;
    for (key, value) in &out {
        sum = sum.wrapping_add(*value).wrapping_add(key.len() as u64);
    }
    (out.len(), sum)
}

/// One measured window length × output mode.
struct ScanSample {
    mode: &'static str,
    label: &'static str,
    window: usize,
    pairs: usize,
    ns_per_key: f64,
}

impl ScanSample {
    fn row(&self) -> Row {
        Row::new()
            .str("mode", self.mode)
            .str("window_label", self.label)
            .int("window", self.window as u64)
            .int("pairs_per_round", self.pairs as u64)
            .float("ns_per_key", self.ns_per_key, 1)
            .float("mkeys_per_sec", 1e3 / self.ns_per_key, 2)
    }
}

/// Measures the `BENCH_scan.json` record.
pub fn record() -> Report {
    let keys_n = quick_or(100_000usize, 10_000);
    let rounds = quick_or(5usize, 1);
    let short_scans = quick_or(256usize, 32);
    let long_scans = quick_or(16usize, 4);
    let (wh, keys) = build_scan_index(keys_n, 7);
    // (label, window length, scan starts per round)
    let cells = [
        ("short", 100usize, short_scans),
        ("long", keys_n / 10, long_scans),
        ("full", keys_n, 1),
    ];
    let mut series = Vec::new();
    for (label, window, n_starts) in cells {
        let starts = uniform_indices(n_starts, keys.len(), 13);
        for mode in ["cursor", "range_from"] {
            // No background writer, so rounds need no interleaving across
            // modes; best-of-N bounds scheduler noise.
            let mut best = f64::INFINITY;
            let mut pairs = 0usize;
            for _ in 0..rounds {
                let t = Instant::now();
                pairs = 0;
                for &p in &starts {
                    pairs += match mode {
                        "cursor" => stream_window(&wh, &keys[p], window).0,
                        _ => materialise_window(&wh, &keys[p], window).0,
                    };
                }
                best = best.min(t.elapsed().as_secs_f64());
            }
            series.push(ScanSample {
                mode,
                label,
                window,
                pairs,
                ns_per_key: best * 1e9 / pairs as f64,
            });
        }
    }
    Report::new(
        "scan_stream",
        "Ordered-window scans over the concurrent Wormhole (`keys` Az1 composite keys, leaf \
         capacity 128, quiesced index, best of `rounds` rounds). cursor = resumable scan \
         cursor streaming borrowed pairs from one reused per-leaf batch arena; range_from = \
         same seqlock-validated read path but materialising the window as a Vec of owned \
         pairs (one key allocation per pair). short = `short_scans` scans of 100 keys, long = \
         `long_scans` scans of a tenth of the keys, full = one full-index drain.",
    )
    .size("keys", keys_n as u64)
    .size("rounds", rounds as u64)
    .size("short_scans", short_scans as u64)
    .size("long_scans", long_scans as u64)
    .section("series", series.iter().map(ScanSample::row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_agree() {
        let (wh, keys) = build_scan_index(3_000, 5);
        for p in [0usize, 500, 2_999] {
            let (n1, s1) = stream_window(&wh, &keys[p], 200);
            let (n2, s2) = materialise_window(&wh, &keys[p], 200);
            assert_eq!(n1, n2);
            assert_eq!(s1, s2);
        }
        let (n, _) = stream_window(&wh, b"", usize::MAX);
        assert_eq!(n, 3_000);
    }
}
