//! The host and build fingerprint stamped on every result, and process
//! memory readings.

use std::fs;

use crate::report::json_str;

/// glibc's `struct mallinfo2` (all fields declared for the layout).
#[repr(C)]
#[allow(dead_code)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    /// glibc (2.33+): allocator statistics summed over every arena.
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the process holds in live heap allocations: in-use chunks of
/// every malloc arena plus mmap-served blocks.
pub fn heap_live_bytes() -> u64 {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct by
    // value; it only reads the allocator's own state under its locks.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as u64
}

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the unified cache of `level` as the kernel reports it.
fn cache_size(level: &str) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            read_trimmed(&format!("{dir}/level")).as_deref() == Some(level)
                && read_trimmed(&format!("{dir}/type")).as_deref() == Some("Unified")
        })
        .and_then(|dir| read_trimmed(&format!("{dir}/size")))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let commit = match head.as_deref() {
        Some(h) => match h.strip_prefix("ref: ") {
            Some(reference) => read_trimmed(&format!(".git/{reference}")).or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(h.to_string()),
        },
        None => None,
    };
    commit.unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The fingerprint as one JSON object. `extra` holds run-specific fields
/// (seed, workload sizes) as pre-rendered `"key": value` pairs.
pub fn fingerprint(extra: &[(&str, String)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("host_cpus", cpus.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("l2_cache", json_str(&cache_size("2"))),
        ("l3_cache", json_str(&cache_size("3"))),
        (
            "kernel",
            json_str(&read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default()),
        ),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_commit", json_str(&git_commit())),
        ("telemetry_enabled", wh_telemetry::enabled().to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}
