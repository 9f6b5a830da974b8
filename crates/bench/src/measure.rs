//! Timing and thread-scaling helpers.

use std::time::Instant;

use crate::drivers::AnyIndex;

/// `full` normally, `quick` when `WH_BENCH_QUICK` is set (and not `0`):
/// the one dial every `record()` sizes its parameters through, so a full
/// `baseline all` run finishes in seconds and still passes every record's
/// checks. The numbers produced in quick mode are *not* comparable to
/// tracked baselines and must never be committed.
pub(crate) fn quick_or<T>(full: T, quick: T) -> T {
    if std::env::var_os("WH_BENCH_QUICK").is_some_and(|v| v != "0") {
        quick
    } else {
        full
    }
}

/// A simple wall-clock timer.
#[derive(Debug)]
pub struct Timer {
    start: Instant,
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    /// Starts the timer.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64().max(1e-9)
    }
}

/// Converts an operation count and elapsed seconds to millions of operations
/// per second.
pub fn mops(operations: usize, seconds: f64) -> f64 {
    operations as f64 / seconds / 1e6
}

/// Measures multi-threaded point-lookup throughput over a prebuilt index.
///
/// `probes` contains key indices (into `keys`) to look up; it is split evenly
/// across `threads` worker threads that share the index read-only, the same
/// methodology as the paper's lookup experiments.
pub fn parallel_lookup_mops(
    index: &AnyIndex,
    keys: &[Vec<u8>],
    probes: &[usize],
    threads: usize,
) -> f64 {
    assert!(threads > 0);
    let timer = Timer::new();
    let chunk = probes.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in probes.chunks(chunk.max(1)) {
            handles.push(scope.spawn(move || {
                let mut hits = 0usize;
                for &p in part {
                    if index.get(&keys[p]).is_some() {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        let hits: usize = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        assert_eq!(hits, probes.len(), "every probed key must be present");
    });
    mops(probes.len(), timer.seconds())
}

/// Measures single-threaded insertion throughput into an empty index.
pub fn insert_mops(index: &mut AnyIndex, keys: &[Vec<u8>]) -> f64 {
    let timer = Timer::new();
    for (i, key) in keys.iter().enumerate() {
        index.insert(key, i as u64);
    }
    mops(keys.len(), timer.seconds())
}

/// Measures multi-threaded range-query throughput (queries per second, in
/// millions): each query scans up to `scan_len` keys starting at a random
/// existing key, as in Figure 18.
pub fn parallel_range_mops(
    index: &AnyIndex,
    keys: &[Vec<u8>],
    starts: &[usize],
    scan_len: usize,
    threads: usize,
) -> f64 {
    let timer = Timer::new();
    let chunk = starts.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in starts.chunks(chunk.max(1)) {
            handles.push(scope.spawn(move || {
                let mut returned = 0usize;
                for &p in part {
                    returned += index.range_from(&keys[p], scan_len).len();
                }
                returned
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        assert!(
            total >= starts.len(),
            "each scan returns at least its start key"
        );
    });
    mops(starts.len(), timer.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::IndexKind;

    #[test]
    fn mops_arithmetic() {
        assert!((mops(2_000_000, 1.0) - 2.0).abs() < 1e-9);
        assert!((mops(500_000, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_lookup_counts_all_probes() {
        let keys: Vec<Vec<u8>> = (0..2000u32)
            .map(|i| format!("{i:06}").into_bytes())
            .collect();
        let index = AnyIndex::build(IndexKind::Wormhole, &keys);
        let probes: Vec<usize> = (0..4000).map(|i| i % keys.len()).collect();
        for threads in [1, 2, 4] {
            let tput = parallel_lookup_mops(&index, &keys, &probes, threads);
            assert!(tput > 0.0);
        }
    }

    #[test]
    fn insert_and_range_measurements_run() {
        let keys: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("{i:06}").into_bytes())
            .collect();
        let mut index = AnyIndex::new(IndexKind::BTree);
        let tput = insert_mops(&mut index, &keys);
        assert!(tput > 0.0);
        assert_eq!(index.len(), 1000);
        let starts: Vec<usize> = (0..200).map(|i| (i * 7) % keys.len()).collect();
        let tput = parallel_range_mops(&index, &keys, &starts, 100, 2);
        assert!(tput > 0.0);
    }
}
