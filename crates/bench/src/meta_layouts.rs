//! The MetaTrieHT probe microbenchmark: exact and tag-only point probes
//! against `wormhole::meta::MetaTable`, the cache-line-bucketized layout
//! (one flat array of 64-byte buckets probed with a SWAR tag comparison).
//! [`record`] writes the tracked `BENCH_meta.json` (`cargo run -p bench
//! --release --bin baseline -- meta`) so the probe-latency trajectory can be
//! followed across changes.

use std::time::Instant;

use wormhole::meta::{MetaKind, MetaTable};

use crate::measure::quick_or;
use crate::report::{Report, Row};

/// Probes per timed pass: enough to defeat the CPU cache.
const PROBES: usize = 1 << 14;

/// The probe workload: `anchors` resident keys plus an equally sized miss
/// set, both from the Az1 keyset generator (realistic ~40-byte keys), and a
/// shuffled order of [`PROBES`] probes.
struct ProbeWorkload {
    /// Keys resident in the table.
    resident: Vec<Vec<u8>>,
    /// Keys guaranteed absent.
    absent: Vec<Vec<u8>>,
    /// Probe order into `resident`.
    order: Vec<usize>,
}

impl ProbeWorkload {
    /// Builds the workload deterministically.
    fn new(anchors: usize, seed: u64) -> Self {
        let keyset = workloads::generate(workloads::KeysetId::Az1, anchors * 2, seed);
        let mut keys = keyset.keys;
        let absent = keys.split_off(anchors);
        let order = workloads::uniform_indices(PROBES, anchors, seed ^ 0xBEEF);
        Self {
            resident: keys,
            absent,
            order,
        }
    }

    /// Loads a table with the resident keys.
    fn build_table(&self) -> MetaTable<u32> {
        let mut table = MetaTable::new();
        for (i, key) in self.resident.iter().enumerate() {
            table.insert(key, MetaKind::Leaf(i as u32));
        }
        table
    }
}

/// Runs the probe `order` through `probe` over `keys` and returns ns per
/// probe. With `all_hit` set, checks that every probe hit (or missed).
fn time_probes(
    probe: impl Fn(&[u8]) -> bool,
    keys: &[Vec<u8>],
    order: &[usize],
    all_hit: Option<bool>,
) -> f64 {
    let start = Instant::now();
    let mut hits = 0usize;
    for &i in order {
        hits += usize::from(probe(&keys[i % keys.len()]));
    }
    let ns = start.elapsed().as_nanos() as f64 / order.len() as f64;
    if let Some(all_hit) = all_hit {
        assert_eq!(hits == order.len(), all_hit, "probe disagreement");
    }
    ns
}

/// The table's measured probe latencies at one anchor count (ns per probe,
/// best across rounds).
#[derive(Debug, Clone, Copy)]
struct LayoutTiming {
    /// Resident anchors.
    anchors: usize,
    /// Exact probe, key resident.
    hit_ns: f64,
    /// Exact probe, key absent.
    miss_ns: f64,
    /// Tag-only (optimistic) probe, key resident — the LPM hot path.
    tag_hit_ns: f64,
    /// Tag-only (optimistic) probe, key absent.
    tag_miss_ns: f64,
}

impl LayoutTiming {
    fn row(&self) -> Row {
        Row::new()
            .str("layout", "flat-bucket")
            .int("anchors", self.anchors as u64)
            .float("get_hit_ns", self.hit_ns, 1)
            .float("get_miss_ns", self.miss_ns, 1)
            .float("tag_hit_ns", self.tag_hit_ns, 1)
            .float("tag_miss_ns", self.tag_miss_ns, 1)
    }
}

/// Measures exact and tag-only probe latency at `anchors` residents; each
/// metric keeps its fastest round.
fn measure_layouts(anchors: usize, rounds: usize) -> LayoutTiming {
    let workload = ProbeWorkload::new(anchors, 42);
    let table = workload.build_table();
    let get = |k: &[u8]| table.get(k).is_some();
    let tag = |k: &[u8]| table.probe_optimistic(k);
    let (resident, absent, order) = (&workload.resident, &workload.absent, &workload.order);
    let mut t = LayoutTiming {
        anchors,
        hit_ns: f64::INFINITY,
        miss_ns: f64::INFINITY,
        tag_hit_ns: f64::INFINITY,
        tag_miss_ns: f64::INFINITY,
    };
    for _ in 0..rounds {
        // Exact probes verify their hit/miss counts; tag probes may carry
        // rare 16-bit false positives on the miss side.
        t.hit_ns = t.hit_ns.min(time_probes(get, resident, order, Some(true)));
        t.miss_ns = t.miss_ns.min(time_probes(get, absent, order, Some(false)));
        t.tag_hit_ns = t
            .tag_hit_ns
            .min(time_probes(tag, resident, order, Some(true)));
        t.tag_miss_ns = t.tag_miss_ns.min(time_probes(tag, absent, order, None));
    }
    t
}

/// Measures the `BENCH_meta.json` record.
pub fn record() -> Report {
    let anchor_counts: &[usize] = quick_or(&[100_000, 1_000_000], &[20_000]);
    let rounds = quick_or(9usize, 1);
    let series: Vec<LayoutTiming> = anchor_counts
        .iter()
        .map(|&anchors| measure_layouts(anchors, rounds))
        .collect();
    Report::new(
        "meta_probe",
        "MetaTrieHT point-probe latency (ns/op, best of `rounds` rounds of `probes` uniform \
         probes, Az1 ~40B keys). get_* = exact probe; tag_* = optimistic tag-only probe (the \
         LPM binary-search hot path).",
    )
    .size("rounds", rounds as u64)
    .size("probes", PROBES as u64)
    .section("series", series.iter().map(LayoutTiming::row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_agree_on_membership() {
        let workload = ProbeWorkload::new(2000, 7);
        let flat_table = workload.build_table();
        for key in &workload.resident {
            assert!(flat_table.get(key).is_some());
        }
        for key in &workload.absent {
            assert!(flat_table.get(key).is_none());
        }
    }

    #[test]
    fn measure_layouts_produces_sane_numbers() {
        let t = measure_layouts(5_000, 1);
        for (metric, ns) in [
            ("hit", t.hit_ns),
            ("miss", t.miss_ns),
            ("tag_hit", t.tag_hit_ns),
            ("tag_miss", t.tag_miss_ns),
        ] {
            assert!(ns > 0.0 && ns < 100_000.0, "{metric}: {ns}");
        }
    }
}
