//! Shard-scaling measurement: N worker threads driving one shared ordered
//! index — the unsharded concurrent `Wormhole` vs `ShardedWormhole` at
//! increasing shard counts — under a read-heavy and a write-heavy mix.
//!
//! The write-heavy mix is deliberately *structural*: each wave inserts a
//! run of sibling keys next to a random resident key (forcing a leaf
//! split) and deletes them again (forcing a merge), so every wave takes
//! the owning index's MetaTrieHT writer mutex and runs an RCU grace
//! period. On the unsharded index all workers serialise on that one
//! mutex; sharding gives each range its own, which is exactly the
//! contention this benchmark quantifies. [`record`] writes the tracked
//! `BENCH_shard.json` (`cargo run -p bench --release --bin baseline --
//! shard`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use index_traits::ConcurrentOrderedIndex;
use wh_shard::{RebalanceConfig, ShardedWormhole};
use wormhole::{Wormhole, WormholeConfig};

use crate::measure::quick_or;
use crate::report::{ensure, Report, Row};

/// One measured cell.
#[derive(Debug, Clone)]
pub(crate) struct ShardSample {
    /// `"unsharded"` or `"sharded"`.
    pub frontend: &'static str,
    /// Shard count (1 for the unsharded baseline).
    pub shards: usize,
    /// Whether the migration-idle router fast path was enabled for this
    /// cell (vacuously `true` for the unsharded frontend, which has no
    /// router at all).
    pub router_fast_path: bool,
    /// `"read_heavy"`, `"mixed"`, or `"write_heavy"`.
    pub mix: &'static str,
    /// Worker threads driving the index.
    pub threads: usize,
    /// Operations completed inside the window.
    pub ops: u64,
    /// Aggregate throughput in million operations per second.
    pub mops: f64,
}

impl ShardSample {
    fn row(&self) -> Row {
        Row::new()
            .str("frontend", self.frontend)
            .int("shards", self.shards as u64)
            .bool("router_fast_path", self.router_fast_path)
            .str("mix", self.mix)
            .int("threads", self.threads as u64)
            .int("ops", self.ops)
            .float("mops", self.mops, 3)
    }
}

/// The workload mixes of the scaling comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mix {
    /// 90% point lookups, 10% overwrites of resident keys: the sharded
    /// router's overhead with almost no writer-mutex pressure.
    ReadHeavy,
    /// 50% point lookups, 50% overwrites of resident keys: the router tax
    /// paid on both sides of a balanced point workload, still without
    /// structural writer-mutex pressure.
    Mixed,
    /// Structural churn waves (split + merge per wave) with a sprinkle of
    /// lookups: the writer-mutex contention sharding removes.
    WriteHeavy,
}

impl Mix {
    /// Label used in samples and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read_heavy",
            Mix::Mixed => "mixed",
            Mix::WriteHeavy => "write_heavy",
        }
    }
}

/// The resident key for slot `i`.
pub(crate) fn resident_key(i: usize) -> Vec<u8> {
    format!("user:{i:07}:profile").into_bytes()
}

/// Precomputes every resident key once, so the measured loops never pay
/// key formatting or allocation.
pub(crate) fn resident_keys(keys: usize) -> Vec<Vec<u8>> {
    (0..keys).map(resident_key).collect()
}

/// Per-shard configuration used by every frontend in the comparison.
pub(crate) fn shard_bench_config() -> WormholeConfig {
    WormholeConfig::optimized().with_leaf_capacity(64)
}

/// Builds the unsharded baseline index over `keys` resident keys.
pub(crate) fn build_unsharded(keys: usize) -> Wormhole<u64> {
    let wh = Wormhole::with_config(shard_bench_config());
    for i in 0..keys {
        wh.set(&resident_key(i), i as u64);
    }
    wh
}

/// Builds a `shards`-way sharded index over the same residents, with
/// boundaries sampled from the keyset so the shards are balanced, routing
/// through the migration-idle fast path or the classic critical-section
/// path per `fast_path`.
pub(crate) fn build_sharded(shards: usize, keys: usize, fast_path: bool) -> ShardedWormhole<u64> {
    let sample: Vec<Vec<u8>> = (0..keys)
        .step_by(16.max(keys / 4096))
        .map(resident_key)
        .collect();
    let config = wh_shard::ShardedConfig::from_sample(shards, &sample)
        .with_inner(shard_bench_config())
        .with_router_fast_path(fast_path);
    let sharded = ShardedWormhole::with_config(config);
    for i in 0..keys {
        sharded.set(&resident_key(i), i as u64);
    }
    sharded
}

/// One structural churn wave around a resident key: insert 64 siblings
/// (splitting the resident leaf), then drain them (merging it back).
/// `buf` is a reusable key buffer so the wave allocates nothing itself.
/// Returns operations performed.
fn churn_wave<I: ConcurrentOrderedIndex<u64> + ?Sized>(
    index: &I,
    base: &[u8],
    buf: &mut Vec<u8>,
) -> u64 {
    let mut ops = 0u64;
    buf.clear();
    buf.extend_from_slice(base);
    buf.push(b'~');
    buf.push(0);
    let last = buf.len() - 1;
    for j in 1..=64u8 {
        buf[last] = j;
        index.set(buf, u64::from(j));
        ops += 1;
    }
    for j in 1..=64u8 {
        buf[last] = j;
        index.del(buf);
        ops += 1;
    }
    ops
}

/// Runs one measurement window: `threads` workers over `keys` residents
/// for `duration`, with the given mix. Returns total operations and the
/// elapsed wall-clock seconds.
fn run_window<I: ConcurrentOrderedIndex<u64> + ?Sized>(
    index: &I,
    threads: usize,
    keys: &[Vec<u8>],
    duration: Duration,
    mix: Mix,
) -> (u64, f64) {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stop = &stop;
            let total = &total;
            scope.spawn(move || {
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64).wrapping_mul(0xdead_beef);
                let mut buf = Vec::with_capacity(64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let slot = (x as usize) % keys.len();
                    match mix {
                        Mix::ReadHeavy | Mix::Mixed => {
                            // 64-op batch of point ops: 90/10 or 50/50
                            // gets vs overwrites.
                            let write_every = if mix == Mix::ReadHeavy { 10 } else { 2 };
                            for j in 0..64usize {
                                let probe = (slot + j * 131) % keys.len();
                                if j % write_every == 0 {
                                    index.set(&keys[probe], x);
                                } else {
                                    std::hint::black_box(index.get(&keys[probe]));
                                }
                                local += 1;
                            }
                        }
                        Mix::WriteHeavy => {
                            // One split+merge wave plus a sprinkle of reads.
                            local += churn_wave(index, &keys[slot], &mut buf);
                            for j in 0..8usize {
                                let probe = (slot + j * 977) % keys.len();
                                std::hint::black_box(index.get(&keys[probe]));
                                local += 1;
                            }
                        }
                    }
                }
                total.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    (
        total.load(Ordering::Relaxed),
        started.elapsed().as_secs_f64(),
    )
}

/// Best-of-`rounds` measurement of one frontend × mix cell.
#[allow(clippy::too_many_arguments)] // a flat description of one bench cell
fn measure_frontend<I: ConcurrentOrderedIndex<u64> + ?Sized>(
    index: &I,
    frontend: &'static str,
    shards: usize,
    router_fast_path: bool,
    threads: usize,
    keys: &[Vec<u8>],
    duration: Duration,
    rounds: usize,
    mix: Mix,
) -> ShardSample {
    let mut best_ops = 0u64;
    let mut best_mops = 0.0f64;
    for _ in 0..rounds {
        let (ops, secs) = run_window(index, threads, keys, duration, mix);
        let mops = ops as f64 / secs / 1e6;
        if mops > best_mops {
            best_mops = mops;
            best_ops = ops;
        }
    }
    ShardSample {
        frontend,
        shards,
        router_fast_path,
        mix: mix.label(),
        threads,
        ops: best_ops,
        mops: best_mops,
    }
}

/// The full scaling sweep of `BENCH_shard.json`: the unsharded baseline
/// plus 1/2/4/8-shard fronts with the router fast path on and off, for
/// every mix.
fn measure_scaling(
    threads: usize,
    keys: usize,
    duration: Duration,
    rounds: usize,
) -> Vec<ShardSample> {
    let probes = resident_keys(keys);
    let unsharded = build_unsharded(keys);
    let fronts: Vec<(usize, bool, ShardedWormhole<u64>)> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|n| {
            [true, false]
                .into_iter()
                .map(move |fast| (n, fast, build_sharded(n, keys, fast)))
        })
        .collect();
    let mut samples = Vec::new();
    for mix in [Mix::ReadHeavy, Mix::Mixed, Mix::WriteHeavy] {
        samples.push(measure_frontend(
            &unsharded,
            "unsharded",
            1,
            true,
            threads,
            &probes,
            duration,
            rounds,
            mix,
        ));
        for (n, fast, front) in &fronts {
            samples.push(measure_frontend(
                front, "sharded", *n, *fast, threads, &probes, duration, rounds, mix,
            ));
        }
    }
    samples
}

/// One cell of the telemetry overhead A/B pair.
#[derive(Debug, Clone)]
pub(crate) struct TelemetryAbSample {
    /// `"on"` or `"off"` — the runtime state of `wh_telemetry` recording
    /// during the window.
    pub telemetry: &'static str,
    /// Workload mix label (the pair measures `read_heavy`).
    pub mix: &'static str,
    /// Worker threads driving the index.
    pub threads: usize,
    /// Operations completed inside the window.
    pub ops: u64,
    /// Aggregate throughput in million operations per second.
    pub mops: f64,
}

/// Shard count of the telemetry A/B front (router fast path on).
const AB_SHARDS: usize = 4;

impl TelemetryAbSample {
    fn row(&self) -> Row {
        Row::new()
            .str("telemetry", self.telemetry)
            .str("mix", self.mix)
            .int("shards", AB_SHARDS as u64)
            .bool("router_fast_path", true)
            .int("threads", self.threads as u64)
            .int("ops", self.ops)
            .float("mops", self.mops, 3)
    }
}

/// Measures the telemetry tax on the hottest cell: the read-heavy mix on
/// a 4-shard front with the router fast path on, with recording enabled
/// vs disabled via the runtime switch ([`wh_telemetry::set_enabled`]).
/// Rounds are interleaved on/off so scheduler drift hits both states
/// equally; recording is left enabled afterwards. The tracked baseline
/// pins the pair within a few percent of each other — the "zero overhead
/// when idle" budget.
fn measure_telemetry_ab(
    threads: usize,
    keys: usize,
    duration: Duration,
    rounds: usize,
) -> Vec<TelemetryAbSample> {
    let probes = resident_keys(keys);
    let front = build_sharded(AB_SHARDS, keys, true);
    // (ops, mops) best-of per state: [on, off].
    let mut best = [(0u64, 0.0f64); 2];
    for _ in 0..rounds {
        for (slot, enabled) in [(0usize, true), (1usize, false)] {
            wh_telemetry::set_enabled(enabled);
            let (ops, secs) = run_window(&front, threads, &probes, duration, Mix::ReadHeavy);
            let mops = ops as f64 / secs / 1e6;
            if mops > best[slot].1 {
                best[slot] = (ops, mops);
            }
        }
    }
    wh_telemetry::set_enabled(true);
    [("on", best[0]), ("off", best[1])]
        .into_iter()
        .map(|(telemetry, (ops, mops))| TelemetryAbSample {
            telemetry,
            mix: Mix::ReadHeavy.label(),
            threads,
            ops,
            mops,
        })
        .collect()
}

/// One phase of the skew-shift scenario.
#[derive(Debug, Clone)]
pub(crate) struct SkewShiftSample {
    /// `"balanced"` (uniform churn over the whole keyset), `"shifted"`
    /// (churn confined to the first quarter, right after the shift), or
    /// `"recovered"` (same confined churn after the recovery window).
    pub phase: &'static str,
    /// Whether `maybe_rebalance` ran during the recovery window.
    pub rebalance: bool,
    /// Operations completed inside the window.
    pub ops: u64,
    /// Aggregate throughput in million operations per second.
    pub mops: f64,
    /// Boundary migrations executed so far in this scenario run.
    pub migrations: usize,
    /// Keys moved by those migrations.
    pub moved_keys: usize,
}

impl SkewShiftSample {
    fn row(&self) -> Row {
        Row::new()
            .str("phase", self.phase)
            .bool("rebalance", self.rebalance)
            .int("ops", self.ops)
            .float("mops", self.mops, 3)
            .int("migrations", self.migrations as u64)
            .int("moved_keys", self.moved_keys as u64)
    }
}

/// The skew-shift scenario: a 4-shard front built balanced for the whole
/// keyset, hit with structural write-heavy churn that suddenly confines
/// itself to the first quarter of the key space (one shard's range). With
/// `rebalance` off the front degenerates toward a single writer mutex;
/// with it on, a recovery window of traffic interleaved with
/// [`ShardedWormhole::maybe_rebalance`] migrates boundaries into the hot
/// range and spreads the load back out. Returns the three measured phases.
fn measure_skew_shift(
    threads: usize,
    keys: usize,
    duration: Duration,
    rebalance: bool,
) -> Vec<SkewShiftSample> {
    let all_keys = resident_keys(keys);
    let hot_keys: Vec<Vec<u8>> = all_keys[..keys / 4].to_vec();
    let sample: Vec<Vec<u8>> = (0..keys)
        .step_by(16.max(keys / 4096))
        .map(resident_key)
        .collect();
    let config = wh_shard::ShardedConfig::from_sample(4, &sample)
        .with_inner(shard_bench_config())
        .with_rebalance(RebalanceConfig {
            // Low friction: the recovery window's short traffic bursts
            // must be enough signal to act on (they are tiny in the debug
            // smoke test).
            min_pair_ops: 512,
            imbalance_percent: 150,
            batch_keys: 512,
            sample_cap: 2_048,
            min_move_keys: 64,
        });
    let front: ShardedWormhole<u64> = ShardedWormhole::with_config(config);
    for i in 0..keys {
        front.set(&resident_key(i), i as u64);
    }
    let mut migrations = 0usize;
    let mut moved_keys = 0usize;
    let mut samples = Vec::new();
    let mut record = |phase, ops: u64, secs: f64, migrations: usize, moved_keys: usize| {
        samples.push(SkewShiftSample {
            phase,
            rebalance,
            ops,
            mops: ops as f64 / secs / 1e6,
            migrations,
            moved_keys,
        });
    };

    // Phase 1: the workload the boundaries were built for.
    let (ops, secs) = run_window(&front, threads, &all_keys, duration, Mix::WriteHeavy);
    record("balanced", ops, secs, migrations, moved_keys);

    // Phase 2: the hot range shifts onto one shard.
    let (ops, secs) = run_window(&front, threads, &hot_keys, duration, Mix::WriteHeavy);
    record("shifted", ops, secs, migrations, moved_keys);

    // Recovery window: short bursts of the shifted traffic feed the op
    // counters, each followed by one rebalance decision. Disabled runs
    // burn the same wall-clock on traffic alone, so the phase-3 windows
    // are comparable.
    let burst = Duration::from_millis((duration.as_millis() as u64 / 5).max(20));
    for _ in 0..12 {
        run_window(&front, threads, &hot_keys, burst, Mix::WriteHeavy);
        if rebalance {
            if let wh_shard::RebalanceOutcome::Migrated(report) = front.maybe_rebalance() {
                migrations += 1;
                moved_keys += report.moved_keys;
            }
        }
    }

    // Phase 3: the same shifted traffic after the recovery window.
    let (ops, secs) = run_window(&front, threads, &hot_keys, duration, Mix::WriteHeavy);
    record("recovered", ops, secs, migrations, moved_keys);
    samples
}

/// The cross-row checks of `BENCH_shard.json`: both router regimes at
/// every shard count and mix (fast-path-on cells quantify the recovered
/// read tax, fast-path-off cells keep the classic path comparable), both
/// productive telemetry states on the read-heavy cell, and every
/// skew-shift phase with and without rebalancing.
pub(crate) fn check_shard(
    series: &[ShardSample],
    telemetry_ab: &[TelemetryAbSample],
    skew_shift: &[SkewShiftSample],
) -> Result<(), String> {
    let has = |frontend: &str, shards: usize, fast: bool, mix: &str| {
        series.iter().any(|s| {
            s.frontend == frontend
                && s.shards == shards
                && s.router_fast_path == fast
                && s.mix == mix
        })
    };
    for mix in ["read_heavy", "mixed", "write_heavy"] {
        ensure(has("unsharded", 1, true, mix), || {
            format!("missing unsharded/{mix} cell")
        })?;
        for shards in [1, 2, 4, 8] {
            for fast in [true, false] {
                ensure(has("sharded", shards, fast, mix), || {
                    format!("missing sharded cell shards={shards} fast={fast} mix={mix}")
                })?;
            }
        }
    }
    let mut states: Vec<&str> = telemetry_ab.iter().map(|s| s.telemetry).collect();
    states.sort_unstable();
    states.dedup();
    ensure(states == ["off", "on"], || {
        format!("telemetry_ab states {states:?}, want on and off")
    })?;
    for s in telemetry_ab {
        ensure(s.mix == "read_heavy", || {
            format!("telemetry_ab wrong mix: {s:?}")
        })?;
        ensure(s.ops > 0, || {
            format!("telemetry_ab cell did no work: {s:?}")
        })?;
    }
    for phase in ["balanced", "shifted", "recovered"] {
        for rebalance in [false, true] {
            ensure(
                skew_shift
                    .iter()
                    .any(|s| s.phase == phase && s.rebalance == rebalance),
                || format!("skew_shift missing {phase}/rebalance={rebalance}"),
            )?;
        }
    }
    Ok(())
}

/// Measures and checks the `BENCH_shard.json` record.
pub fn record() -> Report {
    let threads = quick_or(8usize, 4);
    let keys = quick_or(100_000usize, 8_000);
    let window_ms = quick_or(500u64, 40);
    let rounds = quick_or(3usize, 1);
    let duration = Duration::from_millis(window_ms);
    let series = measure_scaling(threads, keys, duration, rounds);
    let telemetry_ab = measure_telemetry_ab(threads, keys, duration, rounds);
    let skew_shift: Vec<SkewShiftSample> = [false, true]
        .into_iter()
        .flat_map(|rebalance| measure_skew_shift(threads, keys, duration, rebalance))
        .collect();
    check_shard(&series, &telemetry_ab, &skew_shift).expect("BENCH_shard.json check");
    Report::new(
        "shard_scale",
        "Aggregate throughput of `threads` worker threads over one shared ordered index of \
         `keys` resident ~20B keys, leaf capacity 64, best of `rounds` rounds of `window_ms` \
         each. unsharded = one concurrent Wormhole (single MetaTrieHT writer \
         mutex); sharded = ShardedWormhole with sample-quantile boundaries at the given shard \
         count, with router_fast_path recording whether point ops used the migration-idle \
         biased fast path (no router critical section while no migration runs) or the classic \
         per-op critical-section path (the pre-fast-path read tax; vacuously true on the \
         unsharded rows, which have no router). read_heavy = 90% point gets / 10% overwrites; \
         mixed = 50% gets / 50% overwrites of resident keys; write_heavy = split+merge churn \
         waves (64 inserts + 64 deletes around a random resident, each wave taking the owning \
         shard's writer mutex and an RCU grace period) plus 8 gets. skew_shift = a 4-shard \
         front whose write-heavy churn collapses onto the first quarter of the keyset (one \
         shard): balanced = pre-shift rate, shifted = right after the collapse, recovered = \
         after a recovery window of traffic bursts interleaved with maybe_rebalance() \
         decisions (rebalance=true) or plain traffic (rebalance=false); migrations/moved_keys \
         count the boundary moves the online rebalancer performed. telemetry_ab = the \
         read-heavy 4-shard fast-path cell with wh-telemetry recording enabled vs disabled at \
         runtime, rounds interleaved on/off: the observability tax, expected within a few \
         percent (counters stay live in both states; only histograms and clock reads toggle). \
         On a single-CPU host the threads time-slice, so the sharded win comes from \
         eliminating writer-mutex convoys and cross-thread grace-period waits rather than true \
         parallelism; multicore hosts add the latter on top.",
    )
    .size("threads", threads as u64)
    .size("keys", keys as u64)
    .size("rounds", rounds as u64)
    .size("window_ms", window_ms)
    .section("series", series.iter().map(ShardSample::row))
    .section(
        "telemetry_ab",
        telemetry_ab.iter().map(TelemetryAbSample::row),
    )
    .section("skew_shift", skew_shift.iter().map(SkewShiftSample::row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_shift_measurement_smoke() {
        // Tiny windows: all three phases produce throughput, the
        // rebalancing run records its migrations, and the index stays
        // consistent afterwards.
        let samples = measure_skew_shift(2, 4_000, Duration::from_millis(40), true);
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples.iter().map(|s| s.phase).collect::<Vec<_>>(),
            vec!["balanced", "shifted", "recovered"]
        );
        for s in &samples {
            assert!(s.ops > 0, "phase {} did no work", s.phase);
            assert!(s.rebalance);
        }
        assert!(
            samples[2].migrations > 0,
            "confined churn must trigger at least one migration"
        );
        let disabled = measure_skew_shift(2, 4_000, Duration::from_millis(40), false);
        assert_eq!(disabled[2].migrations, 0, "disabled run must not migrate");
    }

    #[test]
    fn telemetry_ab_measurement_smoke() {
        let samples = measure_telemetry_ab(2, 2_000, Duration::from_millis(30), 1);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].telemetry, "on");
        assert_eq!(samples[1].telemetry, "off");
        for s in &samples {
            assert!(s.ops > 0, "telemetry={} cell did no work", s.telemetry);
            assert_eq!(s.mix, "read_heavy");
        }
        // The A/B run leaves recording enabled for everyone else.
        assert!(wh_telemetry::enabled());
    }

    #[test]
    fn scaling_measurement_smoke() {
        // Tiny windows (debug builds are slow): every cell produces
        // non-zero throughput and the sharded fronts stay consistent.
        let keys = 2_000usize;
        let probes = resident_keys(keys);
        let unsharded = build_unsharded(keys);
        let sharded = build_sharded(4, keys, true);
        let sharded_nofast = build_sharded(4, keys, false);
        assert_eq!(unsharded.len(), keys);
        assert_eq!(sharded.len(), keys);
        assert_eq!(sharded_nofast.len(), keys);
        for (index, frontend) in [
            (&unsharded as &dyn ConcurrentOrderedIndex<u64>, "unsharded"),
            (&sharded as &dyn ConcurrentOrderedIndex<u64>, "sharded"),
            (
                &sharded_nofast as &dyn ConcurrentOrderedIndex<u64>,
                "sharded_nofast",
            ),
        ] {
            for mix in [Mix::ReadHeavy, Mix::Mixed, Mix::WriteHeavy] {
                let (ops, secs) = run_window(index, 2, &probes, Duration::from_millis(30), mix);
                assert!(ops > 0, "{frontend}/{} did no work", mix.label());
                assert!(secs > 0.0);
            }
        }
        // Churn left no garbage behind: every resident still present (the
        // read-heavy mix overwrites values, so only presence is stable),
        // and no churn key survived its wave's delete half... unless a
        // window cut a wave short, which the population count tolerates.
        for i in (0..keys).step_by(97) {
            assert!(unsharded.get(&resident_key(i)).is_some());
            assert!(sharded.get(&resident_key(i)).is_some());
            assert!(sharded_nofast.get(&resident_key(i)).is_some());
        }
        sharded.check_invariants();
        sharded_nofast.check_invariants();
    }
}
