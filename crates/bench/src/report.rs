//! The one shape every tracked `BENCH_*.json` record takes, and its one
//! JSON emitter.
//!
//! A [`Report`] is a benchmark name, a description, the host's CPU count
//! (filled once, here), the size fields the run actually used, and named
//! sections of [`Row`]s. Each sample type builds its own `Row` in one
//! `row()` method, which is therefore the only place that record's keys and
//! decimal precision are written.
//!
//! The cross-row checks a record must pass before it is written (cell
//! coverage, productive cells, ordered quantiles, …) live next to the
//! samples they inspect, in each measurement module's `check_*` function;
//! [`Report::check`] holds the ones that apply to every record.

use std::fmt;

/// One JSON value of a record.
#[derive(Debug)]
enum Value {
    Int(u64),
    /// A float and the number of decimals it is written with.
    Float(f64, usize),
    Str(String),
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Str(s) => write_str(f, s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// An ordered list of `key: value` pairs, written as one JSON object.
#[derive(Debug, Default)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &'static str, value: u64) -> Self {
        self.0.push((key, Value::Int(value)));
        self
    }

    /// Appends a float field written with `decimals` decimals.
    pub fn float(mut self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.0.push((key, Value::Float(value, decimals)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, Value::Str(value.to_owned())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.0.push((key, Value::Bool(value)));
        self
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write_str(f, key)?;
            write!(f, ": {value}")?;
        }
        f.write_str("}")
    }
}

/// One tracked benchmark record.
#[derive(Debug)]
pub struct Report {
    benchmark: &'static str,
    description: &'static str,
    host_cpus: usize,
    sizes: Row,
    sections: Vec<(&'static str, Vec<Row>)>,
}

impl Report {
    /// A record of `benchmark` on this host. `description` says what is
    /// measured; the sizes the run used go in [`Report::size`] fields, not
    /// in the prose, so a quick-mode record describes itself correctly.
    pub fn new(benchmark: &'static str, description: &'static str) -> Self {
        Self {
            benchmark,
            description,
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sizes: Row::new(),
            sections: Vec::new(),
        }
    }

    /// Adds a top-level size field, from the value the run used.
    pub fn size(mut self, key: &'static str, value: u64) -> Self {
        self.sizes = self.sizes.int(key, value);
        self
    }

    /// Adds a named section of rows.
    pub fn section(mut self, name: &'static str, rows: impl IntoIterator<Item = Row>) -> Self {
        self.sections.push((name, rows.into_iter().collect()));
        self
    }

    /// The checks every record must pass: at least one section, no empty
    /// section, and every float finite (JSON has no literal for the rest).
    pub fn check(&self) -> Result<(), String> {
        if self.sections.is_empty() {
            return Err(format!("{}: no sections", self.benchmark));
        }
        for (name, rows) in &self.sections {
            if rows.is_empty() {
                return Err(format!("{}: empty {name} section", self.benchmark));
            }
            for row in rows {
                if row
                    .0
                    .iter()
                    .any(|(_, v)| matches!(v, Value::Float(x, _) if !x.is_finite()))
                {
                    return Err(format!(
                        "{}: non-finite value in {name}: {row}",
                        self.benchmark
                    ));
                }
            }
        }
        Ok(())
    }

    /// The record as pretty-printed JSON: one top-level member per line,
    /// one row object per line.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            format!("\"benchmark\": {}", Value::Str(self.benchmark.into())),
            format!("\"description\": {}", Value::Str(self.description.into())),
            format!("\"host_cpus\": {}", self.host_cpus),
        ];
        for (key, value) in &self.sizes.0 {
            members.push(format!("{}: {value}", Value::Str((*key).into())));
        }
        for (name, rows) in &self.sections {
            let rows: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
            members.push(format!(
                "{}: [\n{}\n  ]",
                Value::Str((*name).into()),
                rows.join(",\n")
            ));
        }
        format!("{{\n  {}\n}}\n", members.join(",\n  "))
    }
}

/// `Err(msg)` unless `ok`: the one-line form every `check_*` uses.
pub(crate) fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_lookup::{check_batch, BatchSample, ServiceBatchSample};
    use crate::service_latency::{check_service, ServiceLatencySample};
    use crate::shard_scale::{check_shard, ShardSample, SkewShiftSample, TelemetryAbSample};

    #[test]
    fn emitter_known_answer() {
        let mut report = Report::new("demo", "quote \" and backslash \\ kept")
            .size("keys", 8_000)
            .section(
                "series",
                [
                    Row::new()
                        .str("mode", "a\"b\\c")
                        .int("ops", 42)
                        .float("mops", 1.23456, 3)
                        .bool("churn", true),
                    Row::new().str("mode", "plain").int("ops", 0),
                ],
            )
            .section("extra", [Row::new().float("ns", 2.0, 1).bool("on", false)]);
        report.host_cpus = 2;
        let expected = r#"{
  "benchmark": "demo",
  "description": "quote \" and backslash \\ kept",
  "host_cpus": 2,
  "keys": 8000,
  "series": [
    {"mode": "a\"b\\c", "ops": 42, "mops": 1.235, "churn": true},
    {"mode": "plain", "ops": 0}
  ],
  "extra": [
    {"ns": 2.0, "on": false}
  ]
}
"#;
        assert_eq!(report.to_json(), expected);
        assert_eq!(report.check(), Ok(()));
    }

    /// The three sections of a shard record.
    type ShardRecord = (
        Vec<ShardSample>,
        Vec<TelemetryAbSample>,
        Vec<SkewShiftSample>,
    );

    fn shard_fixture() -> ShardRecord {
        let cell = |frontend, shards, router_fast_path, mix| ShardSample {
            frontend,
            shards,
            router_fast_path,
            mix,
            threads: 2,
            ops: 10,
            mops: 1.0,
        };
        let mut series = Vec::new();
        for mix in ["read_heavy", "mixed", "write_heavy"] {
            series.push(cell("unsharded", 1, true, mix));
            for shards in [1, 2, 4, 8] {
                for fast in [true, false] {
                    series.push(cell("sharded", shards, fast, mix));
                }
            }
        }
        let ab = ["on", "off"]
            .map(|telemetry| TelemetryAbSample {
                telemetry,
                mix: "read_heavy",
                threads: 2,
                ops: 10,
                mops: 1.0,
            })
            .to_vec();
        let mut skew = Vec::new();
        for rebalance in [false, true] {
            for phase in ["balanced", "shifted", "recovered"] {
                skew.push(SkewShiftSample {
                    phase,
                    rebalance,
                    ops: 10,
                    mops: 1.0,
                    migrations: 0,
                    moved_keys: 0,
                });
            }
        }
        (series, ab, skew)
    }

    fn batch_fixture() -> (Vec<BatchSample>, Vec<ServiceBatchSample>) {
        let series = ["single", "concurrent", "sharded", "sharded_nofast"]
            .map(|frontend| BatchSample {
                frontend,
                keys: 100,
                batch: 8,
                mode: "get_batch",
                ns_per_key: 10.0,
                mops: 100.0,
            })
            .to_vec();
        let service = vec![ServiceBatchSample {
            frontend: "concurrent",
            keys: 100,
            batch: 800,
            mops: 1.0,
            stats_bytes: 512,
        }];
        (series, service)
    }

    fn service_fixture() -> Vec<ServiceLatencySample> {
        let cell = |workers, mix, churn| ServiceLatencySample {
            workers,
            mix,
            churn,
            ops: 100,
            mops: 1.0,
            p50_ns: 1_000,
            p99_ns: 2_000,
            p999_ns: 4_000,
            epoch_flushes: 0,
        };
        vec![
            cell(1, "read_heavy", false),
            cell(1, "mixed", false),
            cell(4, "read_heavy", false),
            cell(4, "mixed", false),
            cell(4, "read_heavy", true),
        ]
    }

    fn shard(mutate: fn(&mut ShardRecord)) -> Result<(), String> {
        let mut f = shard_fixture();
        mutate(&mut f);
        check_shard(&f.0, &f.1, &f.2)
    }

    fn batch(mutate: fn(&mut (Vec<BatchSample>, Vec<ServiceBatchSample>))) -> Result<(), String> {
        let mut f = batch_fixture();
        mutate(&mut f);
        check_batch(&f.0, &f.1)
    }

    fn service(mutate: fn(&mut Vec<ServiceLatencySample>)) -> Result<(), String> {
        let mut f = service_fixture();
        mutate(&mut f);
        check_service(&f)
    }

    fn rows(rows: Vec<Row>) -> Result<(), String> {
        Report::new("demo", "").section("series", rows).check()
    }

    /// Every check a record runs before it is written, each fed a record
    /// that violates it. The unmutated fixtures must pass, so a failure
    /// here is the violation's doing.
    #[test]
    fn every_check_rejects_its_violation() {
        assert_eq!(shard(|_| {}), Ok(()));
        assert_eq!(batch(|_| {}), Ok(()));
        assert_eq!(service(|_| {}), Ok(()));
        assert_eq!(rows(vec![Row::new().float("x", 1.0, 1)]), Ok(()));

        let inf = Row::new().float("x", f64::INFINITY, 1);
        #[rustfmt::skip]
        let violations: Vec<(&str, Result<(), String>)> = vec![
            ("no sections", Report::new("demo", "").check()),
            ("empty section", rows(vec![])),
            ("non-finite float", rows(vec![inf])),
            ("shard: unsharded cell", shard(|f| f.0.retain(|s| s.frontend != "unsharded" || s.mix != "mixed"))),
            ("shard: sharded cell", shard(|f| f.0.retain(|s| s.shards != 8 || s.router_fast_path))),
            ("shard: telemetry_ab empty", shard(|f| f.1.clear())),
            ("shard: telemetry_ab states", shard(|f| f.1[1].telemetry = "on")),
            ("shard: telemetry_ab mix", shard(|f| f.1[0].mix = "mixed")),
            ("shard: telemetry_ab ops > 0", shard(|f| f.1[1].ops = 0)),
            ("shard: skew_shift empty", shard(|f| f.2.clear())),
            ("shard: skew_shift phase", shard(|f| f.2.retain(|s| s.phase != "recovered" || !s.rebalance))),
            ("batch: frontend", batch(|f| f.0.retain(|s| s.frontend != "sharded_nofast"))),
            ("batch: service empty", batch(|f| f.1.clear())),
            ("batch: stats_bytes > 0", batch(|f| f.1[0].stats_bytes = 0)),
            ("service: >= 2 worker counts", service(|f| f.retain(|s| s.workers == 4))),
            ("service: worker x mix cell", service(|f| f.retain(|s| s.workers != 1 || s.mix != "mixed"))),
            ("service: churn cell", service(|f| f.retain(|s| !s.churn))),
            ("service: ops > 0", service(|f| f[2].ops = 0)),
            ("service: p50 <= p99", service(|f| f[0].p50_ns = f[0].p99_ns + 1)),
            ("service: p99 <= p999", service(|f| f[3].p999_ns = f[3].p99_ns - 1)),
            ("service: p50 > 0", service(|f| f[1].p50_ns = 0)),
        ];
        for (name, result) in violations {
            assert!(result.is_err(), "check did not catch: {name}");
        }
    }
}
