//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's fingerprint, a readable metric table on stderr, and as
//! the last line of stdout the result object: `correct`, `attempted`,
//! `failed` and `metrics`.

use std::process::ExitCode;

use perfbench::inputs::Workload;
use perfbench::Config;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config::new(
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <point_large|scan_small|ingest|durable_ingest> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{{\"fingerprint\":{}}}", cfg.fingerprint());
    let outcome = perfbench::run(&cfg);
    eprintln!(
        "perfbench: {} seed {} trace {}: attempted {} failed {} failed_ops_ratio {}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed_ops_ratio()
    );
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
