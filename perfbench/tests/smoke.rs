//! Smoke-size self-tests: every workload runs tiny, in both modes, and
//! must emit every metric `BENCHMARK.json` names with its unit; a planted
//! wrong value must show up as failed operations.

use std::path::PathBuf;

use perfbench::inputs::{Inputs, Sizes, Workload};
use perfbench::report::Outcome;
use perfbench::Config;

const SECONDS: f64 = 0.3;

fn smoke(workload: Workload, trace: bool, fault: bool) -> Outcome {
    let mut cfg = Config::new(workload, 11, SECONDS, trace);
    cfg.sizes = Sizes::smoke(workload);
    cfg.fault = fault;
    cfg.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{fault}"));
    perfbench::run(&cfg)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, section: &str) {
    let declared = declared(section);
    assert!(!declared.is_empty());
    for (name, unit) in &declared {
        let metric = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(metric.unit, unit, "{name} unit");
        assert!(metric.value.is_finite(), "{name} is {}", metric.value);
    }
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "no undeclared metrics"
    );
}

#[test]
fn same_seed_same_stream_and_other_seed_another() {
    for workload in Workload::ALL {
        let sizes = Sizes::smoke(workload);
        let a = Inputs::generate(workload, &sizes, 5, SECONDS).digest();
        let b = Inputs::generate(workload, &sizes, 5, SECONDS).digest();
        let c = Inputs::generate(workload, &sizes, 6, SECONDS).digest();
        assert_eq!(a, b, "{workload}: same seed");
        assert_ne!(a, c, "{workload}: different seed");
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, false, false);
        assert!(outcome.correct, "{workload}: {outcome:?}");
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        assert_emits(&outcome, "end_to_end");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{workload}: {} must not be 0", m.name);
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_close_their_span_accounting() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, true, false);
        assert!(outcome.correct, "{workload}: {outcome:?}");
        assert_eq!(outcome.failed, 0);
        assert_emits(&outcome, "per_layer");
        let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{workload}-true-false"))
            .join(format!("spans-{workload}-11.jsonl"));
        let text = std::fs::read_to_string(spans).expect("span file written");
        assert!(text.lines().next().unwrap().contains("\"host_cpus\""));
        assert!(text.lines().count() > 10);
    }
}

#[test]
fn a_planted_wrong_value_shows_up_in_failed_ops_ratio() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = smoke(workload, trace, true);
            assert!(!outcome.correct, "{workload} trace {trace}");
            assert!(outcome.failed >= 1, "{workload} trace {trace}");
            assert!(outcome.failed_ops_ratio() > 0.0);
        }
    }
}
