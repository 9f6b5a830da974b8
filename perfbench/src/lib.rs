//! A seeded benchmark of the Wormhole serving stack, from the wire codec
//! through the sharded front and the per-shard index down to the
//! MetaTrieHT, plus the durable write path. See `README.md` for the
//! workloads and metrics.

pub mod durable;
pub mod host;
pub mod inputs;
pub mod ladder;
pub mod model;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;

use inputs::{Inputs, Sizes, Workload};
use report::Outcome;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    pub sizes: Sizes,
    /// Where span files and scratch stores go (inside the checkout).
    pub out_dir: PathBuf,
    /// Plant one wrong value before serving, so a test can show the checker
    /// reports it.
    pub fault: bool,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::full(workload),
            out_dir: PathBuf::from(".perfbench_out"),
            fault: false,
        }
    }

    /// The host and build fingerprint of this run, as one JSON object.
    pub fn fingerprint(&self) -> String {
        let s = &self.sizes;
        host::fingerprint(&[
            ("workload", report::json_str(self.workload.name())),
            ("seed", self.seed.to_string()),
            ("seconds", report::json_num(self.seconds)),
            ("trace", self.trace.to_string()),
            ("keys", s.keys.to_string()),
            ("shards", inputs::SHARDS.to_string()),
            ("workers", inputs::WORKERS.to_string()),
            ("writers", inputs::WRITERS.to_string()),
            ("batch", inputs::BATCH.to_string()),
            ("chunk_messages", s.chunk_messages.to_string()),
            ("setups", s.setups.to_string()),
        ])
    }
}

/// Generates the inputs and runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let started = std::time::Instant::now();
    let inputs = Inputs::generate(cfg.workload, &cfg.sizes, cfg.seed, cfg.seconds);
    eprintln!(
        "perfbench: inputs generated in {:.2} s (digest {:016x})",
        started.elapsed().as_secs_f64(),
        inputs.digest()
    );
    match (cfg.trace, cfg.workload) {
        (true, _) => ladder::traced(cfg, &inputs),
        (false, Workload::DurableIngest) => durable::measure(cfg, &inputs),
        (false, _) => serve::measure(cfg, &inputs),
    }
}
