//! One function per table/figure of the paper's evaluation section.
//!
//! Every function takes a [`FigureScale`] so the same code can run at test
//! scale (thousands of keys), laptop scale (the default 100 k keys), or
//! paper scale (hundreds of millions of keys, given enough memory and time).

use std::sync::Arc;

use index_traits::ConcurrentOrderedIndex;
use netsim::{LinkModel, ShardServer};
use wormhole::{Wormhole, WormholeConfig};

use workloads::{
    generate, mixed_ops, paper_keysets, prefix_keyset, uniform_indices, Keyset, KeysetId, Op, OpMix,
};

use crate::drivers::{AnyIndex, ConcurrentDriver, IndexKind, LockedMasstree};
use crate::measure::{insert_mops, mops, parallel_lookup_mops, parallel_range_mops, Timer};

/// Scale parameters shared by all figure functions.
#[derive(Debug, Clone, Copy)]
pub struct FigureScale {
    /// Keys per keyset.
    pub keys: usize,
    /// Number of point-lookup probes per measurement.
    pub probes: usize,
    /// Maximum number of threads for the multi-threaded experiments.
    pub threads: usize,
    /// RNG seed for keyset and probe generation.
    pub seed: u64,
}

impl Default for FigureScale {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        Self {
            keys: workloads::DEFAULT_SCALE,
            probes: workloads::DEFAULT_SCALE * 2,
            threads,
            seed: 42,
        }
    }
}

impl FigureScale {
    /// A very small scale used by tests.
    pub fn tiny() -> Self {
        Self {
            keys: 2_000,
            probes: 4_000,
            threads: 2,
            seed: 42,
        }
    }
}

/// One output row: a label (x-axis category) plus named series values.
#[derive(Debug, Clone)]
pub struct Row {
    /// X-axis label (keyset name, thread count, key length, …).
    pub label: String,
    /// (series name, value) pairs. Values are MOPS unless stated otherwise.
    pub values: Vec<(String, f64)>,
}

impl Row {
    fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            values: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Returns the value of a named series, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// A generated keyset bundled with a uniform probe sequence.
struct Workload {
    keyset: Keyset,
    probes: Vec<usize>,
}

fn workload(id: KeysetId, scale: &FigureScale) -> Workload {
    let keyset = generate(id, scale.keys, scale.seed);
    let probes = uniform_indices(scale.probes, keyset.keys.len(), scale.seed ^ 0x9E37);
    Workload { keyset, probes }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One row of Table 1: keyset description, paper-scale statistics, and the
/// statistics of the keyset actually generated at this scale.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Keyset name.
    pub name: &'static str,
    /// Paper's description.
    pub description: &'static str,
    /// Keys in the paper's keyset (millions).
    pub paper_keys_millions: f64,
    /// Size of the paper's keyset (GB).
    pub paper_size_gb: f64,
    /// Keys generated at this scale.
    pub generated_keys: usize,
    /// Average generated key length (bytes).
    pub generated_avg_len: f64,
    /// Total generated key bytes (MB).
    pub generated_mb: f64,
}

/// Reproduces Table 1: the keysets and their measured shape.
pub fn table1(scale: &FigureScale) -> Vec<Table1Row> {
    paper_keysets()
        .into_iter()
        .map(|spec| {
            let keyset = generate(spec.id, scale.keys, scale.seed);
            Table1Row {
                name: spec.name,
                description: spec.description,
                paper_keys_millions: spec.paper_keys_millions,
                paper_size_gb: spec.paper_size_gb,
                generated_keys: keyset.keys.len(),
                generated_avg_len: keyset.avg_len(),
                generated_mb: keyset.total_bytes() as f64 / 1e6,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 9: lookup throughput vs. thread count (Az1).
// ---------------------------------------------------------------------

/// Reproduces Figure 9: lookup throughput on Az1 with 1..=N threads for the
/// five ordered indexes plus the thread-unsafe Wormhole.
pub fn fig9(scale: &FigureScale) -> Vec<Row> {
    let wl = workload(KeysetId::Az1, scale);
    let kinds = [
        IndexKind::SkipList,
        IndexKind::BTree,
        IndexKind::Art,
        IndexKind::Masstree,
        IndexKind::Wormhole,
        IndexKind::WormholeUnsafe,
    ];
    let indexes: Vec<AnyIndex> = kinds
        .iter()
        .map(|&k| AnyIndex::build(k, &wl.keyset.keys))
        .collect();
    let mut thread_counts = vec![1usize, 2, 4, 8, 16];
    thread_counts.retain(|&t| t <= scale.threads);
    if !thread_counts.contains(&scale.threads) {
        thread_counts.push(scale.threads);
    }
    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let mut row = Row::new(threads.to_string());
        for index in &indexes {
            let tput = parallel_lookup_mops(index, &wl.keyset.keys, &wl.probes, threads);
            row.push(index.name(), tput);
        }
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 10: lookup throughput per keyset (all threads).
// ---------------------------------------------------------------------

/// Reproduces Figure 10: lookup throughput on every keyset with the five
/// ordered indexes, using the full thread count.
pub fn fig10(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let wl = workload(id, scale);
            let mut row = Row::new(id.name());
            for kind in IndexKind::ordered_five() {
                let index = AnyIndex::build(kind, &wl.keyset.keys);
                let tput = parallel_lookup_mops(&index, &wl.keyset.keys, &wl.probes, scale.threads);
                row.push(index.name(), tput);
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 11: optimisation ablation.
// ---------------------------------------------------------------------

/// Reproduces Figure 11: lookup throughput of B+ tree and of Wormhole with
/// optimisations applied incrementally (BaseWormhole, +TagMatching,
/// +IncHashing, +SortByTag, +DirectPos).
pub fn fig11(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let wl = workload(id, scale);
            let mut row = Row::new(id.name());
            let btree = AnyIndex::build(IndexKind::BTree, &wl.keyset.keys);
            row.push(
                "B+tree",
                parallel_lookup_mops(&btree, &wl.keyset.keys, &wl.probes, scale.threads),
            );
            for (name, config) in WormholeConfig::ablation_ladder() {
                let mut index = AnyIndex::wormhole_with_config(config);
                for (i, key) in wl.keyset.keys.iter().enumerate() {
                    index.insert(key, i as u64);
                }
                row.push(
                    name,
                    parallel_lookup_mops(&index, &wl.keyset.keys, &wl.probes, scale.threads),
                );
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 12: lookup throughput on a networked key-value store.
// ---------------------------------------------------------------------

/// Reproduces Figure 12: the Figure 10 experiment served through the
/// simulated 100 Gb/s batched key-value service. Host-side throughput is
/// measured, then the link model converts it into delivered client
/// throughput; a real (in-process) batched service run for Wormhole keeps
/// the measurement honest.
pub fn fig12(scale: &FigureScale) -> Vec<Row> {
    let link = LinkModel::infiniband_100g();
    KeysetId::all()
        .iter()
        .map(|&id| {
            let wl = workload(id, scale);
            let avg_key = wl.keyset.avg_len().ceil() as usize;
            let request_bytes = 5 + avg_key;
            let response_bytes = 9;
            let mut row = Row::new(id.name());
            for kind in IndexKind::ordered_five() {
                let index = AnyIndex::build(kind, &wl.keyset.keys);
                let local =
                    parallel_lookup_mops(&index, &wl.keyset.keys, &wl.probes, scale.threads);
                let delivered =
                    link.delivered_ops_per_second(local * 1e6, request_bytes, response_bytes) / 1e6;
                row.push(index.name(), delivered);
            }
            // Sanity-check the model against a real batched service pass over
            // the thread-safe Wormhole (recorded as its own series).
            let wh: Arc<Wormhole<u64>> = Arc::new(Wormhole::new());
            for (i, key) in wl.keyset.keys.iter().enumerate() {
                wh.set(key, i as u64);
            }
            let service = ShardServer::new(wh, 1);
            let sample: Vec<Vec<u8>> = wl
                .probes
                .iter()
                .take(scale.probes.min(20_000))
                .map(|&p| wl.keyset.keys[p].clone())
                .collect();
            let stats = service.run_lookups(&sample);
            row.push("Wormhole-service-measured", stats.mops());
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 13: Wormhole vs. a cuckoo hash table.
// ---------------------------------------------------------------------

/// Reproduces Figure 13: point-lookup throughput of Wormhole and the cuckoo
/// hash table on every keyset.
pub fn fig13(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let wl = workload(id, scale);
            let mut row = Row::new(id.name());
            for kind in [IndexKind::Wormhole, IndexKind::Cuckoo] {
                let index = AnyIndex::build(kind, &wl.keyset.keys);
                row.push(
                    index.name(),
                    parallel_lookup_mops(&index, &wl.keyset.keys, &wl.probes, scale.threads),
                );
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 14: anchor-length sensitivity (Kshort vs Klong).
// ---------------------------------------------------------------------

/// Reproduces Figure 14: lookup throughput of Wormhole and the cuckoo hash
/// table on fixed-length keysets whose content is fully random (Kshort) or
/// random only in the last four bytes (Klong), for key lengths 8–512 bytes.
pub fn fig14(scale: &FigureScale) -> Vec<Row> {
    let lengths = [8usize, 16, 32, 64, 128, 256, 512];
    lengths
        .iter()
        .map(|&len| {
            let mut row = Row::new(len.to_string());
            for (variant, long_prefix) in [("Kshort", false), ("Klong", true)] {
                let keyset = prefix_keyset(len, scale.keys, long_prefix, scale.seed);
                let probes = uniform_indices(scale.probes, keyset.keys.len(), scale.seed ^ 0x14);
                for kind in [IndexKind::Wormhole, IndexKind::Cuckoo] {
                    let index = AnyIndex::build(kind, &keyset.keys);
                    row.push(
                        format!("{}, {}", index.name(), variant),
                        parallel_lookup_mops(&index, &keyset.keys, &probes, scale.threads),
                    );
                }
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 15: insertion-only throughput (single thread).
// ---------------------------------------------------------------------

/// Reproduces Figure 15: single-threaded insertion throughput building each
/// index from empty, per keyset.
pub fn fig15(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let keyset = generate(id, scale.keys, scale.seed);
            let mut row = Row::new(id.name());
            for kind in IndexKind::ordered_five() {
                let mut index = AnyIndex::new(kind);
                row.push(index.name(), insert_mops(&mut index, &keyset.keys));
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 16: memory usage.
// ---------------------------------------------------------------------

/// Reproduces Figure 16: memory usage (MB at this scale) of each index per
/// keyset, plus the paper's baseline of key bytes + one pointer per key.
pub fn fig16(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let keyset = generate(id, scale.keys, scale.seed);
            let mut row = Row::new(id.name());
            for kind in IndexKind::ordered_five() {
                let index = AnyIndex::build(kind, &keyset.keys);
                row.push(index.name(), index.stats().total_bytes() as f64 / 1e6);
            }
            let baseline = keyset.total_bytes() + keyset.keys.len() * 8;
            row.push("Baseline", baseline as f64 / 1e6);
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 17: mixed lookups and insertions.
// ---------------------------------------------------------------------

/// Reproduces Figure 17: multi-threaded throughput under mixed
/// lookup/insert workloads (5%, 50%, 95% insertions) for Masstree (behind a
/// reader/writer lock, see [`LockedMasstree`], which penalises it under
/// write-heavy mixes) and the thread-safe Wormhole.
pub fn fig17(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let keyset = generate(id, scale.keys, scale.seed);
            let mut row = Row::new(id.name());
            for mix in OpMix::figure17() {
                let ops = mixed_ops(scale.probes, mix, keyset.keys.len(), scale.seed ^ 0x17);
                let builders: [fn() -> ConcurrentDriver; 2] = [
                    || ConcurrentDriver::Masstree(LockedMasstree::new()),
                    || ConcurrentDriver::Wormhole(Wormhole::new()),
                ];
                for build in builders {
                    let driver = build();
                    // Preload the first half of the keyset (lookups target it).
                    for (i, key) in keyset.keys.iter().take(keyset.keys.len() / 2).enumerate() {
                        driver.set(key, i as u64);
                    }
                    let tput = run_mixed(&driver, &keyset.keys, &ops, scale.threads);
                    row.push(
                        format!("{} ({}% insert)", driver.name(), mix.insert_pct),
                        tput,
                    );
                }
            }
            row
        })
        .collect()
}

/// Runs a mixed operation stream across `threads` threads and returns MOPS.
fn run_mixed(driver: &ConcurrentDriver, keys: &[Vec<u8>], ops: &[Op], threads: usize) -> f64 {
    let timer = Timer::new();
    let chunk = ops.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for part in ops.chunks(chunk.max(1)) {
            scope.spawn(move || {
                for op in part {
                    match op {
                        Op::Get(i) => {
                            let _ = driver.get(&keys[*i]);
                        }
                        Op::Set(i) => {
                            driver.set(&keys[*i], *i as u64);
                        }
                    }
                }
            });
        }
    });
    mops(ops.len(), timer.seconds())
}

// ---------------------------------------------------------------------
// Figure 18: range queries.
// ---------------------------------------------------------------------

/// Reproduces Figure 18: throughput of range queries scanning up to 100 keys
/// from a random existing start key, for skip list, B+ tree, Masstree, and
/// Wormhole (ART is omitted, as in the paper).
pub fn fig18(scale: &FigureScale) -> Vec<Row> {
    KeysetId::all()
        .iter()
        .map(|&id| {
            let wl = workload(id, scale);
            // Range queries are ~100x the work of a point lookup; scale the
            // query count down so the figure completes in reasonable time.
            let starts: Vec<usize> = wl.probes.iter().copied().take(scale.probes / 20).collect();
            let mut row = Row::new(id.name());
            for kind in [
                IndexKind::SkipList,
                IndexKind::BTree,
                IndexKind::Masstree,
                IndexKind::Wormhole,
            ] {
                let index = AnyIndex::build(kind, &wl.keyset.keys);
                row.push(
                    index.name(),
                    parallel_range_mops(&index, &wl.keyset.keys, &starts, 100, scale.threads),
                );
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureScale {
        FigureScale::tiny()
    }

    #[test]
    fn table1_has_eight_rows_with_generated_stats() {
        let rows = table1(&tiny());
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.generated_keys, tiny().keys);
            assert!(row.generated_avg_len > 0.0);
            assert!(row.generated_mb > 0.0);
        }
        // K10 keys are 1024 bytes.
        assert!((rows[7].generated_avg_len - 1024.0).abs() < 1.0);
    }

    #[test]
    fn fig9_scales_thread_counts() {
        let rows = fig9(&tiny());
        assert!(!rows.is_empty());
        assert_eq!(rows[0].label, "1");
        for row in &rows {
            assert_eq!(row.values.len(), 6);
            for (name, tput) in &row.values {
                assert!(*tput > 0.0, "{name} reported zero throughput");
            }
        }
    }

    #[test]
    fn fig10_and_fig13_cover_all_keysets() {
        let rows = fig10(&tiny());
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].values.len(), 5);
        let rows = fig13(&tiny());
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].values.len(), 2);
    }

    #[test]
    fn fig11_reports_the_ablation_ladder() {
        let rows = fig11(&FigureScale {
            keys: 1_500,
            probes: 3_000,
            threads: 2,
            seed: 1,
        });
        assert_eq!(rows.len(), 8);
        let names: Vec<&str> = rows[0].values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "B+tree",
                "BaseWormhole",
                "+TagMatching",
                "+IncHashing",
                "+SortByTag",
                "+DirectPos"
            ]
        );
    }

    #[test]
    fn fig14_reports_both_variants() {
        let scale = FigureScale {
            keys: 1_000,
            probes: 2_000,
            threads: 2,
            seed: 3,
        };
        let rows = fig14(&scale);
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].label, "8");
        assert_eq!(rows[0].values.len(), 4);
    }

    #[test]
    fn fig15_16_17_18_run_at_tiny_scale() {
        let scale = FigureScale {
            keys: 1_000,
            probes: 1_000,
            threads: 2,
            seed: 4,
        };
        assert_eq!(fig15(&scale).len(), 8);
        let mem = fig16(&scale);
        assert_eq!(mem.len(), 8);
        // Every index uses at least the baseline's key bytes.
        for row in &mem {
            let baseline = row.value("Baseline").unwrap();
            for (name, v) in &row.values {
                if name != "Baseline" {
                    assert!(*v > baseline * 0.5, "{name} reports implausible memory");
                }
            }
        }
        let rows = fig17(&scale);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].values.len(), 6);
        let rows = fig18(&scale);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].values.len(), 4);
    }

    #[test]
    fn fig12_applies_the_link_model() {
        let scale = FigureScale {
            keys: 1_500,
            probes: 2_000,
            threads: 2,
            seed: 5,
        };
        let rows = fig12(&scale);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.value("Wormhole").unwrap() > 0.0);
            assert!(row.value("Wormhole-service-measured").unwrap() > 0.0);
        }
    }
}
